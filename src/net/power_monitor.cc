#include "net/power_monitor.hh"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <sstream>

#include "base/check.hh"

namespace orion::net {

const char*
componentClassName(ComponentClass c)
{
    switch (c) {
      case ComponentClass::Buffer:        return "buffer";
      case ComponentClass::Crossbar:      return "crossbar";
      case ComponentClass::Arbiter:       return "arbiter";
      case ComponentClass::Link:          return "link";
      case ComponentClass::CentralBuffer: return "central_buffer";
    }
    return "unknown";
}

namespace {

using sim::EventType;

/** The class each power event type's energy is charged to, indexed by
 * type. Credit transfers are counted but carry no energy: credit wires
 * are negligible and the paper attributes none to them. */
constexpr std::array<ComponentClass, sim::kNumPowerEventTypes> kClassOf = {
    ComponentClass::Buffer,        // BufferWrite
    ComponentClass::Buffer,        // BufferRead
    ComponentClass::Arbiter,       // Arbitration
    ComponentClass::Arbiter,       // VcAllocation
    ComponentClass::Crossbar,      // CrossbarTraversal
    ComponentClass::CentralBuffer, // CentralBufferWrite
    ComponentClass::CentralBuffer, // CentralBufferRead
    ComponentClass::Link,          // LinkTraversal
    ComponentClass::Link,          // CreditTransfer
};

constexpr unsigned
idx(EventType type)
{
    return static_cast<unsigned>(type);
}

/**
 * The delta clamp limits of each power event type: the ranges the
 * models accept. Behavioural modules may report more (a 5-requester
 * behavioural arbiter against a 4:1 power model), so deltas are
 * clamped instead of asserted.
 */
sim::ActivityTally::Limits
limitsOf(const PowerModelSet& m)
{
    sim::ActivityTally::Limits lim{};
    const unsigned f = m.buffer->params().flitBits;
    lim[idx(EventType::BufferWrite)] = {f, f};
    const auto arbiter = [](const power::ArbiterModel& a) {
        return sim::DeltaLimits{a.params().requests,
                                std::max(a.priorityFlipFlops(), 2u)};
    };
    if (m.switchArbiter)
        lim[idx(EventType::Arbitration)] = arbiter(*m.switchArbiter);
    if (m.vcArbiter)
        lim[idx(EventType::VcAllocation)] = arbiter(*m.vcArbiter);
    if (m.crossbar) {
        lim[idx(EventType::CrossbarTraversal)] = {
            m.crossbar->params().width, 0};
    }
    if (m.centralBuffer) {
        const unsigned cf = m.centralBuffer->params().flitBits;
        lim[idx(EventType::CentralBufferWrite)] = {cf, cf};
        lim[idx(EventType::CentralBufferRead)] = {cf, 0};
    }
    if (m.onChipLink)
        lim[idx(EventType::LinkTraversal)] = {m.onChipLink->width(), 0};
    return lim;
}

/** The energy form of each power event type (zero where absent:
 * chip-to-chip links are traffic-insensitive). */
std::array<power::EnergyForm, sim::kNumPowerEventTypes>
formsOf(const PowerModelSet& m)
{
    assert(m.buffer && "input buffer model is mandatory");
    std::array<power::EnergyForm, sim::kNumPowerEventTypes> forms{};
    forms[idx(EventType::BufferWrite)] = m.buffer->writeForm();
    forms[idx(EventType::BufferRead)] = m.buffer->readForm();
    if (m.switchArbiter) {
        forms[idx(EventType::Arbitration)] =
            m.switchArbiter->arbitrationForm();
    }
    if (m.vcArbiter)
        forms[idx(EventType::VcAllocation)] = m.vcArbiter->arbitrationForm();
    if (m.crossbar)
        forms[idx(EventType::CrossbarTraversal)] = m.crossbar->traversalForm();
    if (m.centralBuffer) {
        forms[idx(EventType::CentralBufferWrite)] =
            m.centralBuffer->writeForm();
        forms[idx(EventType::CentralBufferRead)] =
            m.centralBuffer->readForm();
    }
    if (m.onChipLink)
        forms[idx(EventType::LinkTraversal)] = m.onChipLink->traversalForm();
    return forms;
}

} // namespace

PowerMonitor::PowerMonitor(sim::EventBus& bus, PowerModelSet models,
                           std::vector<unsigned> links_per_node)
    : bus_(bus),
      models_(std::move(models)),
      linksPerNode_(std::move(links_per_node)),
      totalLinks_(std::accumulate(linksPerNode_.begin(),
                                  linksPerNode_.end(), 0u)),
      forms_(formsOf(models_)),
      tally_(static_cast<unsigned>(linksPerNode_.size()),
             limitsOf(models_))
{
    assert(!linksPerNode_.empty());
    assert(!(models_.onChipLink && models_.chipToChipLink));
    // Accumulated energy only grows if every coefficient is
    // non-negative; checked once here, whatever the check level,
    // since no per-event energy is ever formed.
    for (unsigned t = 0; t < sim::kNumPowerEventTypes; ++t) {
        const power::EnergyForm& f = forms_[t];
        for (const double c : {f.base, f.perA, f.perB, f.ifA}) {
            if (!(c >= 0.0)) {
                std::ostringstream msg;
                msg << "energy coefficient " << c << " J of "
                    << sim::eventTypeName(static_cast<EventType>(t))
                    << " is not >= 0";
                core::checkFailed("check", "coefficient >= 0", __FILE__,
                                  __LINE__, msg.str());
            }
        }
    }
    bus_.attachTally(&tally_);
}

PowerMonitor::PowerMonitor(sim::EventBus& bus, PowerModelSet models,
                           unsigned num_nodes, unsigned links_per_node)
    : PowerMonitor(bus, std::move(models),
                   std::vector<unsigned>(num_nodes, links_per_node))
{
}

PowerMonitor::~PowerMonitor()
{
    bus_.detachTally(&tally_);
}

std::array<double, kNumComponentClasses>
PowerMonitor::nodeEnergy(int node) const
{
    std::array<double, kNumComponentClasses> e{};
    for (unsigned t = 0; t < sim::kNumPowerEventTypes; ++t) {
        const sim::ActivityCount& c =
            tally_.at(node, static_cast<EventType>(t));
        if (c.events > 0) {
            e[static_cast<unsigned>(kClassOf[t])] +=
                forms_[t].over(c.events, c.sumA, c.sumB, c.activeA);
        }
    }
    return e;
}

double
PowerMonitor::energy(int node, ComponentClass c) const
{
    return nodeEnergy(node)[static_cast<unsigned>(c)];
}

std::vector<std::array<double, kNumComponentClasses>>
PowerMonitor::energyLedger() const
{
    std::vector<std::array<double, kNumComponentClasses>> ledger(
        tally_.nodes());
    for (unsigned n = 0; n < tally_.nodes(); ++n)
        ledger[n] = nodeEnergy(static_cast<int>(n));
    return ledger;
}

double
PowerMonitor::totalEnergy(ComponentClass c) const
{
    double t = 0.0;
    for (unsigned n = 0; n < tally_.nodes(); ++n)
        t += energy(static_cast<int>(n), c);
    return t;
}

double
PowerMonitor::totalEnergy() const
{
    double t = 0.0;
    for (unsigned c = 0; c < kNumComponentClasses; ++c)
        t += totalEnergy(static_cast<ComponentClass>(c));
    return t;
}

double
PowerMonitor::nodePower(int node, double cycles) const
{
    assert(cycles > 0.0);
    const double f = models_.tech.freqHz;
    double e = 0.0;
    for (const double class_energy : nodeEnergy(node))
        e += class_energy;
    double p = e * f / cycles;
    if (models_.chipToChipLink)
        p += linksPerNode_[node] * models_.chipToChipLink->powerWatts();
    return p;
}

double
PowerMonitor::classPower(ComponentClass c, double cycles) const
{
    assert(cycles > 0.0);
    double p = totalEnergy(c) * models_.tech.freqHz / cycles;
    if (c == ComponentClass::Link && models_.chipToChipLink) {
        p += static_cast<double>(totalLinks_) *
             models_.chipToChipLink->powerWatts();
    }
    return p;
}

double
PowerMonitor::networkPower(double cycles) const
{
    double p = 0.0;
    for (unsigned c = 0; c < kNumComponentClasses; ++c)
        p += classPower(static_cast<ComponentClass>(c), cycles);
    return p;
}

std::uint64_t
PowerMonitor::eventCount(sim::EventType type) const
{
    if (idx(type) >= sim::kNumPowerEventTypes)
        return 0;
    return tally_.total(type).events;
}

void
PowerMonitor::reset()
{
    tally_.reset();
}

} // namespace orion::net
