/**
 * @file
 * The steady-state kernel makes no heap allocation per packet. This
 * binary replaces the global allocation functions with counting ones,
 * runs fixed-seed vc16 simulations (uniform and transpose traffic)
 * past their warm-up, and counts operator new calls over a window:
 * there must be fewer than one per ten packets generated in it.
 * Packet metadata comes from the packet pool, routes refill recycled
 * vectors, flits live in preallocated buffer and channel slots, and
 * each node's rate and fixed destination are computed once, so what
 * remains is amortized container growth.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>

#include "core/config.hh"
#include "core/simulation.hh"
#include "net/network.hh"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

// Out of line, so GCC's -Wmismatched-new-delete does not follow
// malloc's result through an inlined operator new into free() (which
// the replaced operator delete below calls) and stop -Werror builds.
[[gnu::noinline]] void*
countedAlloc(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size == 0 ? 1 : size);
}

} // namespace

// Every non-aligned form is replaced, so each pair allocates and frees
// through malloc/free (consistent under AddressSanitizer too).
void*
operator new(std::size_t size)
{
    if (void* p = countedAlloc(size))
        return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t size)
{
    return operator new(size);
}

void*
operator new(std::size_t size, const std::nothrow_t&) noexcept
{
    return countedAlloc(size);
}

void*
operator new[](std::size_t size, const std::nothrow_t&) noexcept
{
    return countedAlloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept
{
    std::free(p);
}

namespace {

using namespace orion;

std::uint64_t
packetsGenerated(Simulation& sim)
{
    std::uint64_t n = 0;
    const int nodes = sim.network().topology().numNodes();
    for (int i = 0; i < nodes; ++i)
        n += sim.network().endpoint(i).packetsInjected();
    return n;
}

/** Heap allocations over 10,000 cycles of vc16 after a 5,000-cycle
 * warm-up (the packet pool, buffer rings and route vectors grow to
 * their working sizes in it), and the packets generated meanwhile. */
std::pair<std::uint64_t, std::uint64_t>
allocationsPerWindow(const TrafficConfig& traffic)
{
    SimConfig s;
    s.seed = 1;
    Simulation sim(NetworkConfig::vc16(), traffic, s);
    sim.step(5000);

    const std::uint64_t packets_before = packetsGenerated(sim);
    const std::uint64_t allocations_before = g_allocations.load();
    sim.step(10000);
    return {g_allocations.load() - allocations_before,
            packetsGenerated(sim) - packets_before};
}

TEST(SteadyStateKernel, MakesNoHeapAllocationPerPacket)
{
    TrafficConfig traffic;
    traffic.injectionRate = 0.06;
    const auto [allocations, packets] = allocationsPerWindow(traffic);
    ASSERT_GT(packets, 5000u) << "the window saw too little traffic";
    EXPECT_LT(allocations * 10, packets)
        << allocations << " heap allocations for " << packets
        << " packets";
}

TEST(SteadyStateKernel, TransposeMakesNoHeapAllocationPerPacket)
{
    // Permutation patterns fix each node's rate and destination at
    // construction, so neither is re-derived (through a coordinate
    // vector) per node per cycle or per packet.
    TrafficConfig traffic;
    traffic.pattern = net::TrafficPattern::Transpose;
    traffic.injectionRate = 0.03;
    const auto [allocations, packets] = allocationsPerWindow(traffic);
    ASSERT_GT(packets, 3000u) << "the window saw too little traffic";
    EXPECT_LT(allocations * 10, packets)
        << allocations << " heap allocations for " << packets
        << " packets";
}

} // namespace
