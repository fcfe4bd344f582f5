/**
 * @file
 * Network-wide invariant audits (see docs/QUALITY.md).
 *
 * Orion's power figures are per-event energy sums, so a single lost
 * flit or miscounted credit corrupts every reproduced number without
 * any visible crash. The NetworkAuditor walks the whole network at a
 * cycle boundary and proves three ledgers consistent:
 *
 *  1. Flit conservation — every flit ever injected is either ejected
 *     or accounted for in exactly one place: an input FIFO, a pipeline
 *     latch, a central-buffer pool, or a link register. Checked
 *     globally (sources vs. sinks) and per router (arrival ledger vs.
 *     departure ledger + resident flits), so a loss is localized to a
 *     node.
 *  2. Credit accounting — for every (link, VC): sender-side credits +
 *     flits in flight on the data link + downstream buffer occupancy +
 *     credits in flight on the return link == buffer depth. Covers
 *     inter-router links and the injection wiring.
 *  3. Energy sanity — every PowerMonitor counter is non-negative and
 *     monotone non-decreasing between audits, and per-node power sums
 *     to the reported network power.
 *
 * At CheckLevel::Paranoid a fourth audit checks every crossbar
 * router's per-port VC masks (non-empty FIFO, Active VC, held output
 * VC) against the state they summarize, since the allocation stages
 * visit only the VCs those masks name.
 *
 * Violations throw core::CheckFailure with a diagnostic naming the
 * node/port/VC. Audits are registered with the Simulator (run every N
 * cycles and at drain) by orion::Simulation when the runtime check
 * level is at least CheckLevel::Cheap.
 */

#ifndef ORION_NET_AUDIT_HH
#define ORION_NET_AUDIT_HH

#include <array>
#include <vector>

#include "net/network.hh"
#include "net/power_monitor.hh"
#include "sim/simulator.hh"

namespace orion::router {
class CrossbarRouter;
class CentralBufferRouter;
} // namespace orion::router

namespace orion::net {

/** Walks a Network and proves its bookkeeping consistent. */
class NetworkAuditor
{
  public:
    /**
     * @param network  the network to audit (must outlive the auditor)
     * @param monitor  power monitor for the energy audit; may be null
     *                 (energy checks are skipped)
     */
    explicit NetworkAuditor(const Network& network,
                            const PowerMonitor* monitor = nullptr);

    NetworkAuditor(const NetworkAuditor&) = delete;
    NetworkAuditor& operator=(const NetworkAuditor&) = delete;

    /** Register the three ledger audits with @p simulator, plus the
     * VC-mask audit at CheckLevel::Paranoid. */
    void registerWith(sim::Simulator& simulator);

    /** Run every audit once, in the registration order. */
    void auditAll();

    /// @name Individual audits (throw core::CheckFailure on violation)
    /// @{
    void auditFlitConservation() const;
    void auditCreditAccounting() const;
    void auditEnergyAccounting();
    /** CrossbarRouter::auditVcMasks() on every crossbar router
     * (ORION_AUDIT: fires only at CheckLevel::Paranoid). */
    void auditVcMasks() const;
    /// @}

    /**
     * Forget the energy-monotonicity baseline. Call after
     * PowerMonitor::reset() (measurement-window start), which
     * legitimately rewinds the counters.
     */
    void resetEnergyBaseline();

  private:
    /** Flits held in a link's channel registers (current + staged). */
    static std::size_t flitsOnLink(const router::FlitLink& link);

    /**
     * Pre-resolved per-link-record pointers. The audits run every few
     * hundred cycles over every link x VC, so the dynamic_casts and
     * repeated router lookups are hoisted out of the walk; router
     * objects are fixed for the network's lifetime, making the cache
     * valid forever once built.
     */
    struct RecordCache
    {
        const router::Router* from = nullptr;
        const router::Router* to = nullptr;
        /** Downstream router as a crossbar router, or null. */
        const router::CrossbarRouter* toXb = nullptr;
        /** Downstream router as a CB router, or null. */
        const router::CentralBufferRouter* toCb = nullptr;
    };

    /** Build recordCache_/cbRouter_ on first use. */
    void buildCache() const;

    const Network& net_;
    const PowerMonitor* monitor_;
    /** Energy ledger snapshot from the previous audit. */
    std::vector<std::array<double, kNumComponentClasses>> lastEnergy_;

    // The `const` audits write the members below: buildCache() fills
    // them on first use.
    /** One entry per Network::linkRecords() element. */
    mutable std::vector<RecordCache> recordCache_;
    /** Per-node CB-router downcast (null for other router kinds). */
    mutable std::vector<const router::CentralBufferRouter*> cbRouter_;
    /** Per-node crossbar-router downcast (null for other kinds). */
    mutable std::vector<const router::CrossbarRouter*> xbRouter_;
    mutable bool cacheBuilt_ = false;
};

} // namespace orion::net

#endif // ORION_NET_AUDIT_HH
