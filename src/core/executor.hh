/**
 * @file
 * Reusable thread-pool executor behind the parallel sweep drivers.
 *
 * Sweep points are embarrassingly parallel — each (rate, seed) point
 * owns its Network, Simulator, and RNG stream — so the executor only
 * has to hand out independent indices and join. Determinism is the
 * callers' contract: workers write results into preallocated,
 * index-addressed slots (see WorkerSlots), so the merged output is
 * the same no matter which worker finishes first.
 *
 * All cross-thread state is annotated for Clang's thread-safety
 * analysis (core/annotations.hh): the work queue and its bookkeeping
 * are ORION_GUARDED_BY(mutex_), and `-Wthread-safety` (an error in
 * the analysis CI leg) rejects any new access path that forgets the
 * lock.
 */

#ifndef ORION_CORE_EXECUTOR_HH
#define ORION_CORE_EXECUTOR_HH

#include <cstddef>
#include <exception>
#include <functional>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

#include "core/cancel.hh"
#include "core/sync.hh"

namespace orion::core {

/**
 * A fixed-size pool of worker threads consuming a task queue.
 * Reusable across submit()/wait() rounds; destruction joins the
 * workers after draining the queue.
 */
class ThreadPool
{
  public:
    /** Spawn @p workers threads (at least 1). */
    explicit ThreadPool(unsigned workers);

    /** Drains outstanding tasks, then joins. */
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Enqueue @p task for execution on some worker. */
    void submit(std::function<void()> task) ORION_EXCLUDES(mutex_);

    /**
     * Block until every submitted task has finished. If any task
     * threw, rethrows the first captured exception (by submission
     * processing order, not a deterministic pick among concurrent
     * failures).
     */
    void wait() ORION_EXCLUDES(mutex_);

    unsigned workers() const { return static_cast<unsigned>(threads_.size()); }

  private:
    void workerLoop() ORION_EXCLUDES(mutex_);

    /** Worker handles: written only by the constructor, joined only
     * by the destructor after every worker has exited its loop. */
    std::vector<std::thread> threads_; // lint-allow: unguarded -- ctor-write, dtor-join only

    core::Mutex mutex_;
    std::queue<std::function<void()>> queue_ ORION_GUARDED_BY(mutex_);
    CondVar workAvailable_;
    CondVar allDone_;
    /** Queued + currently running tasks. */
    std::size_t pending_ ORION_GUARDED_BY(mutex_) = 0;
    bool stopping_ ORION_GUARDED_BY(mutex_) = false;
    std::exception_ptr firstError_ ORION_GUARDED_BY(mutex_);
};

/**
 * Index-addressed result capture for parallelFor regions. Each worker
 * writes only the slots for the indices it was handed, so slots need
 * no lock — but that contract used to be invisible to tooling. The
 * slots are guarded by a zero-cost Role: every access site (worker
 * writes, post-join merge) must name the capability, so when
 * intra-sim parallelism restructures the fan-out, the capture paths
 * are already enumerated and machine-checked.
 */
template <typename T>
class WorkerSlots
{
  public:
    explicit WorkerSlots(std::size_t count) : slots_(count) {}

    WorkerSlots(const WorkerSlots&) = delete;
    WorkerSlots& operator=(const WorkerSlots&) = delete;

    /** The capability guarding the slots (acquire via RoleGuard). */
    const Role& role() const ORION_RETURN_CAPABILITY(role_)
    {
        return role_;
    }

    /** Slot @p i; workers touch only indices they were assigned. */
    T&
    slot(std::size_t i) ORION_REQUIRES(role_)
    {
        return slots_[i];
    }

    /** Surrender the filled slots after the parallel region joined. */
    std::vector<T>
    take() &&
    {
        RoleGuard guard(role_);
        return std::move(slots_);
    }

  private:
    core::Role role_;
    std::vector<T> slots_ ORION_GUARDED_BY(role_);
};

/**
 * Resolve a user-facing --jobs value: 0 means "hardware concurrency",
 * anything else passes through. Never returns 0.
 */
unsigned resolveJobs(unsigned jobs);

/**
 * Run body(0) ... body(count - 1), fanned across @p jobs threads.
 * With jobs == 1 (or count < 2) the calls run inline on the calling
 * thread in index order — byte-for-byte today's serial behavior.
 * Index assignment across workers is dynamic (an atomic cursor), so
 * bodies must not depend on which thread runs which index; exceptions
 * from any body are rethrown on the calling thread after the join.
 *
 * With @p cancel non-null, a fired token stops the cursor from
 * dispensing further indices — indices already handed out finish
 * (bodies observing the same token bail cooperatively), the join
 * still happens, and the skipped indices simply never see body(i).
 * Callers mark processed slots to tell the two apart (see
 * SweepPoint::ran).
 */
void parallelFor(unsigned jobs, std::size_t count,
                 const std::function<void(std::size_t)>& body,
                 const CancelToken* cancel = nullptr);

} // namespace orion::core

#endif // ORION_CORE_EXECUTOR_HH
