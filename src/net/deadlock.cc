#include "net/deadlock.hh"

#include <algorithm>
#include <cassert>
#include <utility>

#include "net/network.hh"

namespace orion::net {

DeadlockDetector::DeadlockDetector(Network& net,
                                   const DeadlockDetectConfig& config)
    : sim::Module("deadlock-detector", /*node=*/-1),
      net_(net),
      cfg_(config),
      lastForwarded_(net.topology().numNodes(), 0),
      frozen_(net.topology().numNodes(), 0)
{
    assert(cfg_.probeCycles >= 1);
    assert(cfg_.thresholdCycles >= 1);
}

void
DeadlockDetector::cycle(sim::Cycle now)
{
    if (unrecoverable_)
        return;
    if (now % cfg_.probeCycles != 0)
        return;
    if (frozenEverywhere())
        detect(now);
}

bool
DeadlockDetector::frozenEverywhere()
{
    const unsigned n = net_.topology().numNodes();
    bool any_occupied = false;
    bool all_frozen = true;
    for (unsigned i = 0; i < n; ++i) {
        const router::Router& r = net_.router(static_cast<int>(i));
        const std::uint64_t fwd = r.flitsForwarded();
        const bool occupied = r.residentFlits() > 0;
        if (occupied && fwd == lastForwarded_[i])
            frozen_[i] += cfg_.probeCycles;
        else
            frozen_[i] = 0;
        lastForwarded_[i] = fwd;
        if (occupied) {
            any_occupied = true;
            if (frozen_[i] < cfg_.thresholdCycles)
                all_frozen = false;
        }
    }
    return any_occupied && all_frozen && net_.inFlight() > 0;
}

void
DeadlockDetector::detect(sim::Cycle now)
{
    const Topology& topo = net_.topology();
    const unsigned n = topo.numNodes();
    const unsigned ports = topo.portsPerRouter();
    const unsigned local = topo.localPort();
    const unsigned vcs = net_.params().vcs;
    const std::size_t N =
        static_cast<std::size_t>(n) * ports * vcs;
    const auto index = [&](int node, unsigned p, unsigned v) {
        return (static_cast<std::size_t>(node) * ports + p) * vcs + v;
    };

    // Snapshot every input VC that holds flits or output-VC state.
    std::vector<router::Router::VcWaitState> snap(N);
    std::vector<bool> present(N, false);
    for (unsigned i = 0; i < n; ++i) {
        const router::Router& r = net_.router(static_cast<int>(i));
        for (unsigned p = 0; p < ports; ++p) {
            for (unsigned v = 0; v < vcs; ++v) {
                router::Router::VcWaitState st;
                if (!r.vcWaitState(p, v, st))
                    continue; // router kind exposes no VC state
                if (st.hasFront || st.phase != 0) {
                    snap[index(static_cast<int>(i), p, v)] = st;
                    present[index(static_cast<int>(i), p, v)] = true;
                }
            }
        }
    }

    // Wait-for edges.
    //  - Active VC with zero credits toward a non-local output: waits
    //    for the downstream input VC its flits feed.
    //  - Head waiting for an output VC (WaitingVc, or Idle with a
    //    head at the front): waits for every input VC at this router
    //    currently holding an output VC of its class; one free class
    //    VC means it is allocatable, hence not blocked.
    std::vector<std::vector<std::size_t>> succ(N);
    for (unsigned i = 0; i < n; ++i) {
        const auto node = static_cast<int>(i);
        const router::Router& r = net_.router(node);
        for (unsigned p = 0; p < ports; ++p) {
            for (unsigned v = 0; v < vcs; ++v) {
                const std::size_t u = index(node, p, v);
                if (!present[u])
                    continue;
                const auto& st = snap[u];
                if (st.phase == 2) {
                    if (st.outPort == local || !st.hasFront)
                        continue;
                    if (r.outputCredits(st.outPort, st.outVc) > 0)
                        continue;
                    const int next = topo.neighbor(node, st.outPort);
                    assert(next >= 0);
                    succ[u].push_back(
                        index(next, st.outPort ^ 1u, st.outVc));
                    continue;
                }
                if (!st.hasFront || !st.frontHead)
                    continue;
                const auto [first, last] = router::classVcRange(
                    net_.params().deadlock, vcs, st.vcClass);
                std::vector<std::size_t> holders;
                bool any_free = false;
                for (unsigned ov = first; ov < last && !any_free;
                     ++ov) {
                    bool held = false;
                    for (unsigned hp = 0; hp < ports && !held; ++hp) {
                        for (unsigned hv = 0; hv < vcs; ++hv) {
                            const std::size_t h = index(node, hp, hv);
                            if (h == u || !present[h])
                                continue;
                            const auto& hs = snap[h];
                            if (hs.phase == 2 &&
                                hs.outPort == st.outPort &&
                                hs.outVc == ov) {
                                holders.push_back(h);
                                held = true;
                                break;
                            }
                        }
                    }
                    if (!held)
                        any_free = true;
                }
                if (!any_free)
                    succ[u] = std::move(holders);
            }
        }
    }

    // Extract one wait-for cycle with an iterative path-tracking DFS.
    std::vector<int> color(N, 0);
    std::vector<std::size_t> cyc;
    for (std::size_t start = 0; start < N && cyc.empty(); ++start) {
        if (!present[start] || color[start] != 0)
            continue;
        std::vector<std::pair<std::size_t, std::size_t>> stack;
        std::vector<std::size_t> path;
        stack.emplace_back(start, 0);
        path.push_back(start);
        color[start] = 1;
        while (!stack.empty() && cyc.empty()) {
            auto& [u, next] = stack.back();
            if (next < succ[u].size()) {
                const std::size_t w = succ[u][next++];
                if (color[w] == 0) {
                    color[w] = 1;
                    stack.emplace_back(w, 0);
                    path.push_back(w);
                } else if (color[w] == 1) {
                    const auto it =
                        std::find(path.begin(), path.end(), w);
                    cyc.assign(it, path.end());
                }
            } else {
                color[u] = 2;
                stack.pop_back();
                path.pop_back();
            }
        }
    }
    if (cyc.empty())
        return; // frozen but not diagnosable; the watchdog reports it

    ++detections_;
    lastDetectionAt_ = now;

    const auto unpack = [&](std::size_t u) {
        WaitVc w;
        w.node = static_cast<int>(u / (ports * vcs));
        w.port = static_cast<unsigned>(u / vcs % ports);
        w.vc = static_cast<unsigned>(u % vcs);
        const auto& st = snap[u];
        w.phase = st.phase;
        w.outPort = st.outPort;
        w.outVc = st.outVc;
        w.packetId = st.packetId;
        w.createdAt = st.createdAt;
        w.frontHead = st.hasFront && st.frontHead;
        return w;
    };
    lastWaitCycle_.clear();
    for (const std::size_t u : cyc)
        lastWaitCycle_.push_back(unpack(u));

    // Forensics: the full wait-for graph beside the extracted cycle.
    lastWaitEdges_.clear();
    for (std::size_t u = 0; u < N; ++u) {
        for (const std::size_t w : succ[u])
            lastWaitEdges_.push_back({unpack(u), unpack(w)});
    }

    if (recoveries_ >= cfg_.maxRecoveries) {
        unrecoverable_ = true;
        return;
    }

    // Victim: the oldest head-front VC on the cycle (ties broken by
    // position, which is deterministic). Every wait-for cycle holds
    // at least one head-front VC — a body-front VC's head was already
    // forwarded along the cycle, and that chain ends at a head.
    std::size_t victim = N;
    for (const std::size_t u : cyc) {
        if (!snap[u].hasFront || !snap[u].frontHead)
            continue;
        if (victim == N ||
            snap[u].createdAt < snap[victim].createdAt ||
            (snap[u].createdAt == snap[victim].createdAt &&
             u < victim)) {
            victim = u;
        }
    }
    if (victim == N) {
        unrecoverable_ = true;
        return;
    }
    const WaitVc w = unpack(victim);
    if (!net_.router(w.node).poisonBlockedWorm(w.port, w.vc, now)) {
        unrecoverable_ = true;
        return;
    }
    ++recoveries_;
    std::fill(frozen_.begin(), frozen_.end(), 0);
}

} // namespace orion::net
