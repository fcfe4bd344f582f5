#include "net/audit.hh"

#include <cmath>
#include <cstddef>

#include "base/check.hh"
#include "router/central_buffer_router.hh"
#include "router/vc_router.hh"

namespace orion::net {

namespace {

/** Flits in @p link's registers (current + staged) carrying VC @p vc. */
unsigned
dataFlitsOnVc(const router::FlitLink& link, unsigned vc)
{
    unsigned n = 0;
    if (const router::Flit* f = link.auditCurrent();
        f != nullptr && f->vc == vc)
        ++n;
    if (const router::Flit* f = link.auditStaged();
        f != nullptr && f->vc == vc)
        ++n;
    return n;
}

/** Credits in @p link's registers (current + staged) for VC @p vc. */
unsigned
creditsOnVc(const router::CreditLink& link, unsigned vc)
{
    unsigned n = 0;
    if (const router::Credit* c = link.auditCurrent();
        c != nullptr && c->vc == vc)
        ++n;
    if (const router::Credit* c = link.auditStaged();
        c != nullptr && c->vc == vc)
        ++n;
    return n;
}

const char*
linkKindName(LinkRecord::Kind kind)
{
    switch (kind) {
      case LinkRecord::Kind::InterRouter: return "inter-router";
      case LinkRecord::Kind::Injection:   return "injection";
      case LinkRecord::Kind::Ejection:    return "ejection";
    }
    return "unknown";
}

} // namespace

NetworkAuditor::NetworkAuditor(const Network& network,
                               const PowerMonitor* monitor)
    : net_(network), monitor_(monitor)
{
    if (monitor_ != nullptr)
        lastEnergy_ = monitor_->energyLedger();
}

void
NetworkAuditor::registerWith(sim::Simulator& simulator)
{
    simulator.addAudit("flit-conservation",
                       [this] { auditFlitConservation(); });
    simulator.addAudit("credit-accounting",
                       [this] { auditCreditAccounting(); });
    if (monitor_ != nullptr)
        simulator.addAudit("energy-accounting",
                           [this] { auditEnergyAccounting(); });
    if (core::checkLevel() == core::CheckLevel::Paranoid)
        simulator.addAudit("vc-masks", [this] { auditVcMasks(); });
}

void
NetworkAuditor::auditAll()
{
    auditFlitConservation();
    auditCreditAccounting();
    if (monitor_ != nullptr)
        auditEnergyAccounting();
    if (core::checkLevel() == core::CheckLevel::Paranoid)
        auditVcMasks();
}

std::size_t
NetworkAuditor::flitsOnLink(const router::FlitLink& link)
{
    std::size_t n = 0;
    if (link.auditCurrent() != nullptr)
        ++n;
    if (link.auditStaged() != nullptr)
        ++n;
    return n;
}

void
NetworkAuditor::buildCache() const
{
    const unsigned nodes = net_.topology().numNodes();
    cbRouter_.assign(nodes, nullptr);
    xbRouter_.assign(nodes, nullptr);
    for (unsigned n = 0; n < nodes; ++n) {
        const router::Router* r = &net_.router(static_cast<int>(n));
        cbRouter_[n] =
            dynamic_cast<const router::CentralBufferRouter*>(r);
        xbRouter_[n] = dynamic_cast<const router::CrossbarRouter*>(r);
    }
    const auto& records = net_.linkRecords();
    recordCache_.resize(records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        const LinkRecord& rec = records[i];
        RecordCache& cache = recordCache_[i];
        if (rec.kind != LinkRecord::Kind::Ejection) {
            if (rec.kind == LinkRecord::Kind::InterRouter)
                cache.from = &net_.router(rec.fromNode);
            cache.to = &net_.router(rec.toNode);
            cache.toXb = dynamic_cast<const router::CrossbarRouter*>(
                cache.to);
            cache.toCb =
                dynamic_cast<const router::CentralBufferRouter*>(
                    cache.to);
        }
    }
    cacheBuilt_ = true;
}

void
NetworkAuditor::auditFlitConservation() const
{
    if (!cacheBuilt_)
        buildCache();
    const unsigned nodes = net_.topology().numNodes();

    // Per-router ledger: everything that ever arrived either left, is
    // still resident, or was discarded by fault screening. This
    // localizes a lost flit to one node.
    std::size_t resident_total = 0;
    std::uint64_t discarded_total = 0;
    for (unsigned n = 0; n < nodes; ++n) {
        const router::Router& r = net_.router(static_cast<int>(n));
        const std::size_t resident = r.residentFlits();
        resident_total += resident;
        discarded_total += r.flitsDiscarded();
        ORION_CHECK(
            r.flitsArrived() ==
                r.flitsForwarded() + resident + r.flitsDiscarded(),
            "flit conservation violated at node "
                << n << ": arrived " << r.flitsArrived()
                << " != forwarded " << r.flitsForwarded()
                << " + resident " << resident << " + discarded "
                << r.flitsDiscarded());

        // Central-buffer pool bookkeeping: the consumed capacity must
        // equal physically present flits plus cut-through reservations.
        if (const auto* cb = cbRouter_[n]) {
            const unsigned capacity =
                net_.params().centralBuffer.capacityFlits;
            ORION_CHECK(
                capacity - cb->freeCentralSlots() ==
                    cb->pooledFlits() + cb->reservedSlots(),
                "central-buffer pool accounting violated at node "
                    << n << ": capacity " << capacity << " - free "
                    << cb->freeCentralSlots() << " != pooled "
                    << cb->pooledFlits() << " + reserved "
                    << cb->reservedSlots());
        }
    }

    // Global ledger: injected flits are ejected, on a wire, or inside
    // a router.
    std::uint64_t injected = 0;
    std::uint64_t ejected = 0;
    for (unsigned n = 0; n < nodes; ++n) {
        const Node& ep = net_.endpoint(static_cast<int>(n));
        injected += ep.flitsInjectedTotal();
        ejected += ep.flitsEjectedTotal();
    }
    std::size_t in_flight = 0;
    for (const LinkRecord& rec : net_.linkRecords())
        in_flight += flitsOnLink(*rec.data);

    ORION_CHECK(injected ==
                    ejected + in_flight + resident_total +
                        discarded_total,
                "network flit conservation violated: injected "
                    << injected << " != ejected " << ejected
                    << " + in-flight " << in_flight << " + resident "
                    << resident_total << " + discarded "
                    << discarded_total);
}

void
NetworkAuditor::auditCreditAccounting() const
{
    if (!cacheBuilt_)
        buildCache();
    const auto& records = net_.linkRecords();
    for (std::size_t i = 0; i < records.size(); ++i) {
        const LinkRecord& rec = records[i];
        if (rec.kind == LinkRecord::Kind::Ejection)
            continue; // infinite sink: no credit loop to audit
        const RecordCache& cache = recordCache_[i];

        const router::CreditCounter* counter =
            rec.kind == LinkRecord::Kind::Injection
                ? &net_.endpoint(rec.fromNode).injectionCreditCounter()
                : cache.from->outputCreditCounter(rec.fromPort);
        ORION_CHECK(counter != nullptr,
                    "credit audit: node " << rec.fromNode << " port "
                                          << rec.fromPort
                                          << " has no credit counter");
        if (counter->unlimited())
            continue;

        const router::Router& target = *cache.to;
        for (unsigned vc = 0; vc < counter->vcs(); ++vc) {
            const unsigned credits = counter->available(vc);
            // Crossbar routers consume the output credit at SA, one
            // cycle before the flit reaches the link: flits in the
            // sender's ST latch hold a claimed downstream slot.
            const std::size_t latched =
                rec.kind == LinkRecord::Kind::InterRouter
                    ? cache.from->latchedForOutput(rec.fromPort, vc)
                    : 0;
            const unsigned on_data = dataFlitsOnVc(*rec.data, vc);
            std::size_t occupancy;
            if (cache.toXb != nullptr) {
                occupancy = cache.toXb->inputFifo(rec.toPort, vc).size();
            } else {
                ORION_CHECK(cache.toCb != nullptr && vc == 0,
                            "credit audit: unknown router type or bad "
                            "VC " << vc);
                occupancy = cache.toCb->inputFifo(rec.toPort).size();
            }
            const unsigned returning =
                rec.credit != nullptr ? creditsOnVc(*rec.credit, vc)
                                      : 0;
            // Fault discards can free two slots on one port in one
            // cycle; the receiver holds the overflow credit until the
            // 1-credit/cycle return wire is free.
            const std::size_t pending =
                target.pendingCreditReturns(rec.toPort, vc);
            ORION_CHECK(
                credits + latched + on_data + occupancy + returning +
                        pending ==
                    counter->depth(vc),
                "credit accounting violated on "
                    << linkKindName(rec.kind) << " link node "
                    << rec.fromNode << " port " << rec.fromPort
                    << " -> node " << rec.toNode << " port "
                    << rec.toPort << " vc " << vc << ": credits "
                    << credits << " + latched " << latched
                    << " + link flits " << on_data
                    << " + downstream occupancy " << occupancy
                    << " + returning credits " << returning
                    << " + pending returns " << pending
                    << " != depth " << counter->depth(vc));
        }
    }
}

void
NetworkAuditor::auditVcMasks() const
{
    if (!cacheBuilt_)
        buildCache();
    for (const router::CrossbarRouter* xb : xbRouter_) {
        if (xb != nullptr)
            xb->auditVcMasks();
    }
}

void
NetworkAuditor::auditEnergyAccounting()
{
    ORION_CHECK(monitor_ != nullptr,
                "energy audit invoked without a power monitor");
    const auto& ledger = monitor_->energyLedger();
    const bool have_baseline = lastEnergy_.size() == ledger.size();

    for (std::size_t n = 0; n < ledger.size(); ++n) {
        for (unsigned c = 0; c < kNumComponentClasses; ++c) {
            const double e = ledger[n][c];
            const char* cls =
                componentClassName(static_cast<ComponentClass>(c));
            ORION_CHECK(e >= 0.0, "negative accumulated energy "
                                      << e << " J at node " << n
                                      << " class " << cls);
            ORION_CHECK(!std::isnan(e) && !std::isinf(e),
                        "non-finite accumulated energy at node "
                            << n << " class " << cls);
            if (have_baseline) {
                ORION_CHECK(e >= lastEnergy_[n][c],
                            "energy counter decreased at node "
                                << n << " class " << cls << ": "
                                << lastEnergy_[n][c] << " J -> " << e
                                << " J (missing resetEnergyBaseline "
                                   "after PowerMonitor::reset?)");
            }
        }
    }
    lastEnergy_ = ledger;

    // Cross-check the two reporting paths: per-node power summed over
    // nodes must match per-class power summed over classes (both are
    // reorderings of the same ledger, so only rounding may differ).
    double node_sum = 0.0;
    for (std::size_t n = 0; n < ledger.size(); ++n)
        node_sum += monitor_->nodePower(static_cast<int>(n), 1.0);
    const double network = monitor_->networkPower(1.0);
    const double tol = 1e-9 * std::max(1.0, std::abs(network));
    ORION_CHECK(std::abs(node_sum - network) <= tol,
                "power reporting paths disagree: sum of node powers "
                    << node_sum << " W != network power " << network
                    << " W");
}

void
NetworkAuditor::resetEnergyBaseline()
{
    if (monitor_ != nullptr)
        lastEnergy_ = monitor_->energyLedger();
    else
        lastEnergy_.clear();
}

} // namespace orion::net
