/**
 * @file
 * Annotated synchronization primitives (see docs/QUALITY.md,
 * "Static analysis").
 *
 * Two kinds of capability back the ORION_GUARDED_BY annotations:
 *
 *  - `Mutex` / `LockGuard` / `CondVar` — a real std::mutex wrapper for
 *    state that is genuinely contended today (the checkpoint journal,
 *    the logger, the progress tracker). Same runtime behavior as the
 *    std primitives; the wrapper exists so Clang's thread-safety
 *    analysis can track acquisition.
 *
 *  - `Role` / `RoleGuard` — a zero-size, zero-cost capability for
 *    state that is serialized *structurally* today: one Simulation
 *    owns its EventBus, pools, and registries, so no lock is needed —
 *    but the road to intra-sim parallelism (ROADMAP item 1b) will
 *    change that. Guarding such state by a Role forces every access
 *    path through an explicitly annotated point NOW, at zero runtime
 *    cost (acquire/release compile to nothing). When a structure
 *    later becomes cross-thread, its Role is swapped for a Mutex and
 *    every access site is already enumerated and checked — forgetting
 *    one is a compile error today, not a race tomorrow.
 */

#ifndef ORION_CORE_SYNC_HH
#define ORION_CORE_SYNC_HH

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "core/annotations.hh"

namespace orion::core {

/** Annotated exclusive mutex (wraps std::mutex). */
class ORION_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex&) = delete;
    Mutex& operator=(const Mutex&) = delete;

    void lock() ORION_ACQUIRE() { m_.lock(); }
    void unlock() ORION_RELEASE() { m_.unlock(); }
    bool tryLock() ORION_TRY_ACQUIRE(true) { return m_.try_lock(); }

  private:
    friend class CondVar;
    std::mutex m_;
};

/** RAII lock over a Mutex (the annotated std::lock_guard). */
class ORION_SCOPED_CAPABILITY LockGuard
{
  public:
    explicit LockGuard(Mutex& mutex) ORION_ACQUIRE(mutex)
        : mutex_(mutex)
    {
        mutex_.lock();
    }

    ~LockGuard() ORION_RELEASE() { mutex_.unlock(); }

    LockGuard(const LockGuard&) = delete;
    LockGuard& operator=(const LockGuard&) = delete;

  private:
    Mutex& mutex_;
};

/**
 * Condition variable usable while holding a core::Mutex. wait()
 * requires the mutex held on entry and holds it again on return (the
 * interior release/reacquire is invisible to callers, like
 * std::condition_variable's); callers recheck their predicate in the
 * usual while loop, which keeps every guarded read at the call site
 * where the analysis can see the lock.
 */
class CondVar
{
  public:
    CondVar() = default;
    CondVar(const CondVar&) = delete;
    CondVar& operator=(const CondVar&) = delete;

    /** Block until notified (spurious wakeups possible). */
    void
    wait(Mutex& mutex) ORION_REQUIRES(mutex)
    {
        // Adopt the already-held mutex for the wait, then release the
        // unique_lock's ownership claim so the caller keeps holding it.
        std::unique_lock<std::mutex> lock(mutex.m_, std::adopt_lock);
        cv_.wait(lock);
        lock.release();
    }

    /**
     * Block until notified or the timeout elapses (spurious wakeups
     * possible); returns false on timeout. Same mutex discipline as
     * wait(). Timed waits serve periodic background work (heartbeat
     * writers); simulation code never depends on them.
     */
    bool
    waitFor(Mutex& mutex, double seconds) ORION_REQUIRES(mutex)
    {
        std::unique_lock<std::mutex> lock(mutex.m_, std::adopt_lock);
        const std::cv_status st = cv_.wait_for(
            lock, std::chrono::duration<double>(seconds));
        lock.release();
        return st == std::cv_status::no_timeout;
    }

    void notifyOne() { cv_.notify_one(); }
    void notifyAll() { cv_.notify_all(); }

  private:
    std::condition_variable cv_;
};

/**
 * Zero-cost capability: a serialization domain enforced by structure
 * (single ownership, phase discipline) rather than by a lock.
 * acquire()/release() compile to nothing — the value is entirely in
 * the static analysis, which makes every access to Role-guarded state
 * name its serialization domain. Const so that const methods of the
 * owning class can acquire it (observers are part of the domain too).
 */
class ORION_CAPABILITY("role") Role
{
  public:
    Role() = default;
    Role(const Role&) = delete;
    Role& operator=(const Role&) = delete;

    void acquire() const ORION_ACQUIRE() {}
    void release() const ORION_RELEASE() {}
};

/** RAII scope for a Role (zero runtime cost; see Role). */
class ORION_SCOPED_CAPABILITY RoleGuard
{
  public:
    explicit RoleGuard(const Role& role) ORION_ACQUIRE(role)
        : role_(role)
    {
        role_.acquire();
    }

    ~RoleGuard() ORION_RELEASE() { role_.release(); }

    RoleGuard(const RoleGuard&) = delete;
    RoleGuard& operator=(const RoleGuard&) = delete;

  private:
    const Role& role_;
};

} // namespace orion::core

#endif // ORION_CORE_SYNC_HH
