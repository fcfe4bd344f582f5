/**
 * @file
 * Annotated synchronization primitives (see docs/QUALITY.md,
 * "Static analysis").
 *
 * `Mutex` / `LockGuard` / `CondVar` wrap the std primitives for the
 * state that sweep workers share: the checkpoint journal, the logger
 * and the progress tracker. Runtime behavior is the std primitives';
 * the wrappers exist so Clang's thread-safety analysis can track
 * acquisition through the ORION_GUARDED_BY annotations. Everything
 * else a Simulation owns is touched by one thread only and needs no
 * capability.
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
 * Condition variable usable while holding a core::Mutex. waitFor()
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

    /**
     * Block until notified or the timeout elapses (spurious wakeups
     * possible); returns false on timeout. Timed waits serve periodic
     * background work (heartbeat writers); simulation code never
     * depends on them.
     */
    bool
    waitFor(Mutex& mutex, double seconds) ORION_REQUIRES(mutex)
    {
        // Adopt the already-held mutex for the wait, then release the
        // unique_lock's ownership claim so the caller keeps holding it.
        std::unique_lock<std::mutex> lock(mutex.m_, std::adopt_lock);
        const std::cv_status st = cv_.wait_for(
            lock, std::chrono::duration<double>(seconds));
        lock.release();
        return st == std::cv_status::no_timeout;
    }

    void notifyAll() { cv_.notify_all(); }

  private:
    std::condition_variable cv_;
};

} // namespace orion::core

#endif // ORION_CORE_SYNC_HH
