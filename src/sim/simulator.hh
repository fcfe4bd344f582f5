/**
 * @file
 * The cycle-driven simulation loop.
 *
 * Each cycle: every module's cycle() hook runs in registration order,
 * then the channels written during the cycle advance (a type-free,
 * non-virtual flip of each one's slot index; see sim::ChannelBase).
 * Registered channels hide each module's writes from the others until
 * the next cycle, so state carried on channels does not depend on that
 * order. State shared outside
 * channels does: today the net::SharedState packet-id and sample
 * counters in net/node.cc (ROADMAP item 1). The simulator owns the
 * event bus modules publish power events on.
 */

#ifndef ORION_SIM_SIMULATOR_HH
#define ORION_SIM_SIMULATOR_HH

#include <functional>
#include <string>
#include <vector>

#include "base/cancel.hh"
#include "base/profile.hh"
#include "sim/event.hh"
#include "sim/module.hh"

namespace orion::sim {

/** Owner of modules, channels and the cycle loop. */
class Simulator
{
  public:
    Simulator() = default;

    Simulator(const Simulator&) = delete;
    Simulator& operator=(const Simulator&) = delete;

    /** Register a module. The caller retains ownership. */
    void add(Module* m);

    /** Register a channel: from now on each write() schedules its
     * advance at the next cycle boundary. */
    void addChannel(ChannelBase* c);

    /** The event bus modules emit on. */
    EventBus& bus() { return bus_; }

    /** Current cycle (number of completed cycles). */
    Cycle now() const { return now_; }

    /** Run exactly @p cycles cycles (or until the cancel token, if
     * one is installed, fires). */
    void run(Cycle cycles);

    /**
     * Run until @p done returns true (checked after each cycle), the
     * installed cancel token (if any) fires, or @p max_cycles
     * additional cycles elapse.
     *
     * @return true if @p done fired, false if the cap was hit or the
     *         run was cancelled (check cancelled() to distinguish)
     */
    bool runUntil(const std::function<bool()>& done, Cycle max_cycles);

    /// @name Cooperative cancellation (see base/cancel.hh)
    /// @{
    /**
     * Install @p token (nullptr to clear). With a token installed,
     * run()/runUntil() check token->cancelled() before every cycle
     * (one relaxed atomic load) and token->poll() (the wall-clock
     * deadline check) every core::kCancelPollCycles cycles, returning
     * early once the token fires; a token that fired before the call
     * runs no cycle. Without a token each cycle pays one null-pointer
     * test (bench/overhead's cancel_armed mode measures the
     * with-token cost; tools/check.sh --overhead-only gates it).
     */
    void setCancel(core::CancelToken* token) { cancel_ = token; }
    core::CancelToken* cancel() const { return cancel_; }

    /** True if a token is installed and has fired. */
    bool
    cancelled() const
    {
        return cancel_ != nullptr && cancel_->cancelled();
    }
    /// @}

    /** Number of registered modules (paper quotes 59 for a 4x4 VC net). */
    std::size_t moduleCount() const { return modules_.size(); }

    /// @name Network-wide audits (see docs/QUALITY.md)
    /// @{
    /**
     * Register a named audit. Audits run at every audit-interval
     * boundary (see setAuditInterval) and whenever runAudits() is
     * called explicitly (e.g. at drain). An audit signals violation by
     * throwing (typically core::CheckFailure via ORION_CHECK).
     */
    void addAudit(std::string name, std::function<void()> fn);

    /**
     * Run every registered audit each @p cycles cycles (0 disables
     * periodic auditing; explicit runAudits() calls still work).
     */
    void setAuditInterval(Cycle cycles) { auditInterval_ = cycles; }
    Cycle auditInterval() const { return auditInterval_; }

    /** Run all registered audits now, in registration order. */
    void runAudits() const;

    std::size_t auditCount() const { return audits_.size(); }
    /// @}

    /// @name Periodic hooks (telemetry samplers; see net::WindowedSampler)
    /// @{
    /**
     * Register a hook that runs at every cycle boundary where
     * now() % interval == 0, after the cycle's modules, channels and
     * audits. Hooks observe the same post-advance state audits do and
     * must not mutate simulation state. @p interval must be > 0.
     */
    void addPeriodic(std::string name, Cycle interval,
                     std::function<void(Cycle)> fn);

    std::size_t periodicCount() const { return periodics_.size(); }
    /// @}

    /// @name Phase profiling (see base/profile.hh)
    /// @{
    /**
     * Attach a phase profiler (nullptr to detach). With one attached,
     * step() times its stages on the profiler's sampling stride; the
     * profiler only reads clocks, so results stay bit-identical.
     * Detached, step() pays one null-pointer test per stage.
     */
    void setProfiler(core::PhaseProfiler* p) { profiler_ = p; }
    core::PhaseProfiler* profiler() const { return profiler_; }
    /// @}

  private:
    struct Audit
    {
        std::string name;
        std::function<void()> fn;
    };

    struct Periodic
    {
        std::string name;
        Cycle interval;
        std::function<void(Cycle)> fn;
    };

    void step();
    /** The one cycle loop behind run() and runUntil(): at most
     * @p max_cycles steps, stopping early when the cancel token fires
     * or, if @p done is given, once it returns true after a step.
     * @return true only if @p done stopped the loop */
    bool loop(Cycle max_cycles, const std::function<bool()>* done);

    EventBus bus_;
    std::vector<Module*> modules_;
    /** Channels written this cycle, awaiting their boundary advance
     * (write-scheduled; see ChannelBase::setAdvanceQueue). */
    std::vector<ChannelBase*> pendingAdvance_;
    std::vector<Audit> audits_;
    std::vector<Periodic> periodics_;
    Cycle auditInterval_ = 0;
    Cycle now_ = 0;
    /** Optional cooperative-cancellation token (not owned). */
    core::CancelToken* cancel_ = nullptr;
    /** Optional phase profiler (not owned; see setProfiler). */
    core::PhaseProfiler* profiler_ = nullptr;
};

} // namespace orion::sim

#endif // ORION_SIM_SIMULATOR_HH
