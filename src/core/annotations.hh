/**
 * @file
 * Clang thread-safety annotation macros (see docs/QUALITY.md,
 * "Static analysis").
 *
 * Parallel sweep workers share three structures: the checkpoint
 * journal, the logger sink and the progress tracker. Each field of
 * them names the core::Mutex that serializes it, and Clang's
 * `-Wthread-safety` analysis (promoted to an error in the analysis CI
 * leg) rejects any access path that does not hold it. GCC compiles
 * the attributes away; behavior and generated code are identical on
 * every toolchain.
 *
 * The macros wrap Clang's capability attributes with the standard
 * vocabulary (ORION_CAPABILITY, ORION_GUARDED_BY, ORION_REQUIRES,
 * ORION_ACQUIRE/RELEASE, ORION_EXCLUDES). The annotated primitives,
 * `core::Mutex`, `core::LockGuard` and `core::CondVar`, live in
 * core/sync.hh. Only the run layer (src/core) shares state across
 * threads, so only it includes this header.
 */

#ifndef ORION_CORE_ANNOTATIONS_HH
#define ORION_CORE_ANNOTATIONS_HH

#if defined(__clang__)
#define ORION_TSA_ATTR_(x) __attribute__((x))
#else
#define ORION_TSA_ATTR_(x) // no-op: GCC has no thread-safety analysis
#endif

/** Marks a class as a capability (lockable) type. @p x is the name
 * the analysis uses in diagnostics, e.g. "mutex". */
#define ORION_CAPABILITY(x) ORION_TSA_ATTR_(capability(x))

/** Marks an RAII class whose constructor acquires and destructor
 * releases a capability (LockGuard). */
#define ORION_SCOPED_CAPABILITY ORION_TSA_ATTR_(scoped_lockable)

/** Field may only be touched while holding capability @p x. */
#define ORION_GUARDED_BY(x) ORION_TSA_ATTR_(guarded_by(x))

/** Function requires the listed capabilities held on entry (and does
 * not release them). */
#define ORION_REQUIRES(...)                                               \
    ORION_TSA_ATTR_(requires_capability(__VA_ARGS__))

/** Function acquires the capability; it must not be held on entry. */
#define ORION_ACQUIRE(...)                                                \
    ORION_TSA_ATTR_(acquire_capability(__VA_ARGS__))

/** Function releases the capability; it must be held on entry. */
#define ORION_RELEASE(...)                                                \
    ORION_TSA_ATTR_(release_capability(__VA_ARGS__))

/** Function must NOT be called with the listed capabilities held
 * (non-reentrant locking, deadlock prevention). */
#define ORION_EXCLUDES(...) ORION_TSA_ATTR_(locks_excluded(__VA_ARGS__))

#endif // ORION_CORE_ANNOTATIONS_HH
