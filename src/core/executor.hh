/**
 * @file
 * The fan-out behind the parallel sweep drivers.
 *
 * Sweep points are embarrassingly parallel — each (rate, seed) point
 * owns its Network, Simulator, and RNG stream — so the executor only
 * has to hand out independent indices and join. Determinism is the
 * callers' contract: workers write results into preallocated,
 * index-addressed slots (see WorkerSlots), so the merged output is
 * the same no matter which worker finishes first.
 */

#ifndef ORION_CORE_EXECUTOR_HH
#define ORION_CORE_EXECUTOR_HH

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "core/cancel.hh"
#include "core/sync.hh"

namespace orion::core {

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
 * Run body(0) ... body(count - 1), fanned across min(@p jobs, count)
 * threads started for this call and joined before it returns (the
 * join orders every body's writes before the caller's reads). With
 * jobs == 1 (or count < 2) the calls run inline on the calling
 * thread in index order. Index assignment across threads is dynamic
 * (an atomic cursor), so bodies must not depend on which thread runs
 * which index. A throwing body ends its thread (the others drain the
 * remaining indices); after the join, the exception of the
 * lowest-numbered failed thread is rethrown on the calling thread.
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
