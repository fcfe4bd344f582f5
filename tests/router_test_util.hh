/**
 * @file
 * Shared test harness: a single router wired to stub links on every
 * port, so tests can inject flits, observe outputs, and count events
 * without building a whole network.
 */

#ifndef ORION_TESTS_ROUTER_TEST_UTIL_HH
#define ORION_TESTS_ROUTER_TEST_UTIL_HH

#include <memory>
#include <optional>
#include <vector>

#include "router/central_buffer_router.hh"
#include "router/flit.hh"
#include "router/link.hh"
#include "router/router.hh"
#include "router/vc_router.hh"
#include "sim/rng.hh"
#include "sim/simulator.hh"

namespace orion::test {

/** One router with per-port test links. */
class SingleRouterHarness
{
  public:
    /**
     * Build the router via @p factory (which receives this harness's
     * simulator, so the router publishes on the right event bus) and
     * wire every port.
     */
    template <typename Factory>
    SingleRouterHarness(Factory&& factory, unsigned downstream_vcs,
                        unsigned downstream_depth)
        : router_(factory(sim))
    {
        const auto& p = router_->params();
        for (unsigned port = 0; port < p.ports; ++port) {
            inLinks_.push_back(std::make_unique<router::FlitLink>(
                0, static_cast<int>(port), p.flitBits, false));
            outLinks_.push_back(std::make_unique<router::FlitLink>(
                0, static_cast<int>(port), p.flitBits,
                port != p.localPort()));
            creditReturn_.push_back(
                std::make_unique<router::CreditLink>(
                    0, static_cast<int>(port)));
            creditIn_.push_back(std::make_unique<router::CreditLink>(
                0, static_cast<int>(port)));

            router_->connectInput(port, inLinks_[port].get(),
                                  creditReturn_[port].get());
            router_->connectOutput(port, outLinks_[port].get(),
                                   creditIn_[port].get(),
                                   downstream_vcs, downstream_depth,
                                   port == p.localPort());

            sim.addChannel(inLinks_[port].get());
            sim.addChannel(outLinks_[port].get());
            sim.addChannel(creditReturn_[port].get());
            sim.addChannel(creditIn_[port].get());
        }
        sim.add(router_.get());
    }

    router::Router& router() { return *router_; }

    /** Stage @p flit into input @p port (arrives next cycle). */
    void
    inject(unsigned port, router::Flit flit)
    {
        inLinks_[port]->send(std::move(flit), sim.bus(), sim.now());
    }

    /** Consume the flit on output @p port, if any, this cycle. */
    std::optional<router::Flit>
    readOutput(unsigned port)
    {
        if (!outLinks_[port]->valid())
            return std::nullopt;
        return outLinks_[port]->read();
    }

    /** Consume a credit returned upstream on input @p port. */
    std::optional<router::Credit>
    readCreditReturn(unsigned port)
    {
        if (!creditReturn_[port]->valid())
            return std::nullopt;
        return creditReturn_[port]->read();
    }

    /** Hand a downstream credit back to output @p port. */
    void
    returnCredit(unsigned port, router::Credit c)
    {
        creditIn_[port]->send(c, sim.bus(), sim.now());
    }

    sim::Simulator sim;

  private:
    std::unique_ptr<router::Router> router_;
    std::vector<std::unique_ptr<router::FlitLink>> inLinks_;
    std::vector<std::unique_ptr<router::FlitLink>> outLinks_;
    std::vector<std::unique_ptr<router::CreditLink>> creditReturn_;
    std::vector<std::unique_ptr<router::CreditLink>> creditIn_;
};

/** Build all flits of one packet with the given route. */
inline std::vector<router::Flit>
makePacket(std::uint64_t id, int src, int dst, unsigned length,
           unsigned flit_bits, std::vector<router::RouteHop> route,
           sim::Rng& rng, sim::Cycle created_at = 0)
{
    router::PacketInfo fields;
    fields.id = id;
    fields.src = src;
    fields.dst = dst;
    fields.createdAt = created_at;
    fields.length = length;
    fields.sample = true;
    fields.route = std::move(route);
    const router::PacketRef info = router::PacketRef::make(std::move(fields));

    std::vector<router::Flit> flits;
    for (unsigned s = 0; s < length; ++s) {
        router::Flit f;
        f.packet = info;
        f.head = s == 0;
        f.tail = s + 1 == length;
        f.seq = s;
        f.hop = 0;
        f.vc = 0;
        f.payload = power::BitVec(flit_bits);
        for (std::size_t w = 0; w < f.payload.wordCount(); ++w)
            f.payload.setWord(w, rng.next());
        flits.push_back(std::move(f));
    }
    return flits;
}

} // namespace orion::test

#endif // ORION_TESTS_ROUTER_TEST_UTIL_HH
