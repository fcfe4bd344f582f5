/**
 * @file
 * Cooperative cancellation for long-running simulations.
 *
 * A core::CancelToken is the single mechanism behind per-point sweep
 * deadlines (--point-timeout) and Ctrl-C/SIGTERM handling: the owner
 * arms a deadline and/or cancels the token, the Simulator's cycle
 * loop checks it at cycle granularity (one relaxed atomic load — near
 * zero next to a network cycle; the wall-clock deadline is only
 * polled every kCancelPollCycles), and Simulation::run converts the
 * cancellation cause into a structured StopReason (Deadline or
 * Interrupted) with forensics instead of a hung process.
 *
 * Tokens chain: a per-point token can name a parent (typically the
 * process-wide interruptToken()), and reads as cancelled when either
 * fires. Cancellation is sticky — the first cause wins and later
 * cancel() calls are ignored — and cancel() is async-signal-safe
 * (one lock-free atomic compare-exchange), so the SIGINT/SIGTERM
 * handlers installed by installInterruptHandlers() may call it
 * directly.
 */

#ifndef ORION_BASE_CANCEL_HH
#define ORION_BASE_CANCEL_HH

#include <atomic>

#include "base/clock.hh"

namespace orion::core {

/** Why a token was cancelled (None = not cancelled). */
enum class CancelCause : int
{
    None = 0,
    /** The armed wall-clock deadline expired (--point-timeout). */
    Deadline = 1,
    /** The process was asked to stop (SIGINT/SIGTERM or an explicit
     * owner-side cancel). */
    Interrupt = 2,
};

/** Cycles between wall-clock deadline polls in the Simulator loop
 * (the cancelled() flag itself is checked every cycle). */
constexpr unsigned kCancelPollCycles = 1024;

/**
 * A sticky, chainable cancellation flag. cancelled()/cause() are safe
 * from any thread; cancel() is additionally async-signal-safe.
 * poll() (deadline promotion) must only be called by the owning
 * simulation thread.
 */
class CancelToken
{
  public:
    /** @p parent (optional) is observed read-only: this token also
     * reads as cancelled when the parent is. It must outlive this
     * token. */
    explicit CancelToken(const CancelToken* parent = nullptr)
        : parent_(parent)
    {
    }

    CancelToken(const CancelToken&) = delete;
    CancelToken& operator=(const CancelToken&) = delete;

    /** Cancel with @p cause; the first cause to land wins.
     * Async-signal-safe. */
    void
    cancel(CancelCause cause) noexcept
    {
        int expected = 0;
        cause_.compare_exchange_strong(expected,
                                       static_cast<int>(cause),
                                       std::memory_order_relaxed);
    }

    /** True once this token (or its parent chain) is cancelled. */
    bool
    cancelled() const noexcept
    {
        if (cause_.load(std::memory_order_relaxed) != 0)
            return true;
        return parent_ != nullptr && parent_->cancelled();
    }

    /** The first cause that landed (walking up to the parent when
     * this token itself is clean). */
    CancelCause
    cause() const noexcept
    {
        const int own = cause_.load(std::memory_order_relaxed);
        if (own != 0)
            return static_cast<CancelCause>(own);
        return parent_ != nullptr ? parent_->cause()
                                  : CancelCause::None;
    }

    /** Arm a wall-clock deadline @p seconds from now; poll() promotes
     * it into cancel(CancelCause::Deadline) once it expires.
     * Non-positive values leave the token unarmed. */
    void
    armDeadline(double seconds)
    {
        if (seconds <= 0.0)
            return;
        // Wall-clock by design: a deadline bounds real time, not
        // simulated cycles, and never feeds back into results (a
        // Deadline stop is excluded from checkpoint journals).
        deadline_ = monotonicSeconds() + seconds;
        hasDeadline_ = true;
    }

    /** Promote an expired deadline into a cancellation. Called off
     * the hot path (every kCancelPollCycles cycles) by the owning
     * simulation thread. */
    void
    poll() noexcept
    {
        if (hasDeadline_ && monotonicSeconds() >= deadline_)
            cancel(CancelCause::Deadline);
    }

  private:
    std::atomic<int> cause_{0};
    const CancelToken* parent_;
    /** Deadline state; written by armDeadline before the simulation
     * starts, read only by the owning thread's poll(). */
    bool hasDeadline_ = false;
    /** Expiry on the monotonicSeconds() clock. */
    double deadline_ = 0.0;
};

/**
 * The process-wide interrupt token, cancelled (with
 * CancelCause::Interrupt) by the SIGINT/SIGTERM handlers that
 * installInterruptHandlers() registers. Long-running drivers chain
 * their per-point tokens to it so one Ctrl-C drains every in-flight
 * point cooperatively.
 */
CancelToken& interruptToken() noexcept;

/**
 * Install SIGINT/SIGTERM handlers that cancel interruptToken() and
 * record the signal number. The handlers touch only a volatile
 * sig_atomic_t and the token's lock-free atomic (enforced by
 * tools/orion_lint.py's signal-safety rule). Idempotent.
 */
void installInterruptHandlers() noexcept;

/** The signal that fired (SIGINT/SIGTERM), or 0 if none did. */
int interruptSignal() noexcept;

} // namespace orion::core

#endif // ORION_BASE_CANCEL_HH
