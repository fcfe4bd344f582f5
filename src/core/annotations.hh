/**
 * @file
 * Clang thread-safety annotation macros (see docs/QUALITY.md,
 * "Static analysis").
 *
 * Orion's determinism contract — every report byte-identical at any
 * `--jobs` — rests on a handful of informally shared structures: the
 * checkpoint journal, sweep result slots, the packet recycling pool,
 * EventBus handler arrays, metric registries, audit ledgers. ROADMAP
 * item 1(b) (partitioning routers across threads) will put all of
 * them under real concurrency, so their access discipline is made
 * machine-checked *now*: every such field names the capability that
 * serializes it, and Clang's `-Wthread-safety` analysis (promoted to
 * an error in the analysis CI leg) rejects any access path that does
 * not hold it. GCC compiles the attributes away; behavior and
 * generated code are identical on every toolchain.
 *
 * The macros wrap Clang's capability attributes with the standard
 * vocabulary (ORION_CAPABILITY, ORION_GUARDED_BY, ORION_REQUIRES,
 * ORION_ACQUIRE/RELEASE, ORION_EXCLUDES, ...). Annotated primitives —
 * `core::Mutex`, `core::LockGuard`, `core::CondVar` for genuinely
 * locked state and the zero-cost `core::Role` capability for state
 * whose serialization is structural — live in core/sync.hh.
 *
 * This header is dependency-free on purpose: any layer (sim, router,
 * power, net, core) may include it without creating a layering edge.
 */

#ifndef ORION_CORE_ANNOTATIONS_HH
#define ORION_CORE_ANNOTATIONS_HH

#if defined(__clang__)
#define ORION_TSA_ATTR_(x) __attribute__((x))
#else
#define ORION_TSA_ATTR_(x) // no-op: GCC has no thread-safety analysis
#endif

/** Marks a class as a capability (lockable) type. @p x is the name
 * the analysis uses in diagnostics, e.g. "mutex" or "role". */
#define ORION_CAPABILITY(x) ORION_TSA_ATTR_(capability(x))

/** Marks an RAII class whose constructor acquires and destructor
 * releases a capability (LockGuard / RoleGuard). */
#define ORION_SCOPED_CAPABILITY ORION_TSA_ATTR_(scoped_lockable)

/** Field may only be touched while holding capability @p x. */
#define ORION_GUARDED_BY(x) ORION_TSA_ATTR_(guarded_by(x))

/** Pointer field whose *pointee* is protected by capability @p x. */
#define ORION_PT_GUARDED_BY(x) ORION_TSA_ATTR_(pt_guarded_by(x))

/** Function requires the listed capabilities held on entry (and does
 * not release them). */
#define ORION_REQUIRES(...)                                               \
    ORION_TSA_ATTR_(requires_capability(__VA_ARGS__))

/** Function requires the listed capabilities held at least shared. */
#define ORION_REQUIRES_SHARED(...)                                        \
    ORION_TSA_ATTR_(requires_shared_capability(__VA_ARGS__))

/** Function acquires the capability; it must not be held on entry. */
#define ORION_ACQUIRE(...)                                                \
    ORION_TSA_ATTR_(acquire_capability(__VA_ARGS__))

/** Shared (reader) flavor of ORION_ACQUIRE. */
#define ORION_ACQUIRE_SHARED(...)                                         \
    ORION_TSA_ATTR_(acquire_shared_capability(__VA_ARGS__))

/** Function releases the capability; it must be held on entry. */
#define ORION_RELEASE(...)                                                \
    ORION_TSA_ATTR_(release_capability(__VA_ARGS__))

/** Shared (reader) flavor of ORION_RELEASE. */
#define ORION_RELEASE_SHARED(...)                                         \
    ORION_TSA_ATTR_(release_shared_capability(__VA_ARGS__))

/** Function acquires the capability iff it returns @p first arg. */
#define ORION_TRY_ACQUIRE(...)                                            \
    ORION_TSA_ATTR_(try_acquire_capability(__VA_ARGS__))

/** Function must NOT be called with the listed capabilities held
 * (non-reentrant locking, deadlock prevention). */
#define ORION_EXCLUDES(...) ORION_TSA_ATTR_(locks_excluded(__VA_ARGS__))

/** Runtime assertion that the capability is held (no acquisition). */
#define ORION_ASSERT_CAPABILITY(x) ORION_TSA_ATTR_(assert_capability(x))

/** Function returns a reference to the capability @p x (accessor). */
#define ORION_RETURN_CAPABILITY(x) ORION_TSA_ATTR_(lock_returned(x))

/** Escape hatch: disable the analysis for one function. Every use
 * must explain why the access pattern is safe. */
#define ORION_NO_THREAD_SAFETY_ANALYSIS                                   \
    ORION_TSA_ATTR_(no_thread_safety_analysis)

#endif // ORION_CORE_ANNOTATIONS_HH
