/**
 * @file
 * The benchmark's tracing layer: timing decorators over the two layer
 * interfaces a KV deployment composes (ghost::SchedTransport and
 * ghost::SchedPolicy) and the span log they report into.
 *
 * Everything here lives in the benchmark's own files and reaches the
 * simulator only through its public headers. A decorator forwards every
 * call unchanged; awaiting a sim::Task is a symmetric transfer, not an
 * event, so a decorated deployment executes the same event stream as a
 * bare one (the self-test and every traced run check this).
 *
 * Coroutine transport calls span simulated time: other events run while
 * one is suspended, so host time measured across them is not the call's
 * own cost. For those the probe keeps counts and simulated durations
 * only. Policy calls and AgentStageDecision are synchronous, so their
 * host time is self time.
 */
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ghost/policy.h"
#include "ghost/transport.h"
#include "sim/simulator.h"
#include "stats/histogram.h"

namespace wave::wavebench {

/** Monotonic host clock in nanoseconds. */
inline std::int64_t
HostNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Every span the probe records, by layer. */
enum class Op : std::uint8_t {
    // ghost: the nine SchedTransport methods.
    kHostSendMessage,
    kHostPollDecision,
    kHostPrefetchDecision,
    kHostSendOutcome,
    kAgentPollMessages,
    kAgentStageDecision,
    kAgentCommit,
    kAgentPollOutcomes,
    kAgentKick,
    // sched: SchedPolicy calls.
    kOnMessage,
    kPickNext,
    kOnDecisionFailed,
    kShouldPreempt,
    // sim: one RunUntil slice of the run.
    kSlice,
    kCount,
};

constexpr std::size_t kOpCount = static_cast<std::size_t>(Op::kCount);
constexpr std::size_t kTransportOps = 9;

/** Dotted span name, "<layer>.<call>". */
const char* OpName(Op op);

/** One recorded call. */
struct Span {
    Op op;
    std::int32_t core;       ///< host core, -1 for agent-wide calls
    std::int32_t parent;     ///< index of the enclosing slice span, -1 none
    std::int64_t host_start;
    std::int64_t host_end;
    std::int64_t sim_start;
    std::int64_t sim_end;
};

/** Per-op tallies for one traced run. */
struct OpStats {
    std::uint64_t calls = 0;
    std::uint64_t hits = 0;       ///< non-empty result, where defined
    std::int64_t host_ns = 0;     ///< summed; self time only if synchronous
};

/**
 * Collects spans and tallies for one traced run. The span buffer is
 * reserved up front and stops recording when full, so recording never
 * allocates inside the measured window; the tallies keep counting.
 */
class Probe {
  public:
    /** Reserves room for @p span_capacity spans; 0 keeps tallies only. */
    explicit Probe(std::size_t span_capacity);

    /** Binds the simulator whose clock stamps spans; before any call. */
    void Bind(sim::Simulator& sim) { sim_ = &sim; }

    std::int32_t Begin(Op op, std::int32_t core);
    void End(std::int32_t index, Op op, std::int64_t host_start,
             std::int64_t sim_start, bool hit);

    /** Opens a slice span; layer calls until EndSlice() nest under it. */
    void BeginSlice();
    void EndSlice();

    const OpStats& Stats(Op op) const
    {
        return stats_[static_cast<std::size_t>(op)];
    }

    const std::vector<Span>& Spans() const { return spans_; }

    /** Simulated durations of HostPollDecision and AgentCommit calls. */
    const stats::Histogram& PollDecisionSimNs() const { return poll_sim_; }
    const stats::Histogram& CommitSimNs() const { return commit_sim_; }

    sim::Simulator& Sim() { return *sim_; }

  private:
    sim::Simulator* sim_ = nullptr;
    std::vector<Span> spans_;
    std::size_t capacity_;
    std::int32_t slice_ = -1;
    std::array<OpStats, kOpCount> stats_{};
    stats::Histogram poll_sim_;
    stats::Histogram commit_sim_;
};

/** RAII span around one synchronous call. */
class ScopedCall {
  public:
    ScopedCall(Probe& probe, Op op, std::int32_t core)
        : probe_(probe), op_(op), index_(probe.Begin(op, core)),
          sim_start_(probe.Sim().Now().ns()), host_start_(HostNs())
    {
    }
    ~ScopedCall() { probe_.End(index_, op_, host_start_, sim_start_, hit_); }

    ScopedCall(const ScopedCall&) = delete;
    ScopedCall& operator=(const ScopedCall&) = delete;

    void Hit() { hit_ = true; }

  private:
    Probe& probe_;
    Op op_;
    std::int32_t index_;
    std::int64_t sim_start_;
    std::int64_t host_start_;
    bool hit_ = false;
};

/** Timing decorator over a SchedTransport. */
class TracedTransport : public ghost::SchedTransport {
  public:
    TracedTransport(ghost::SchedTransport& inner, Probe& probe)
        : inner_(inner), probe_(probe)
    {
    }

    sim::Task<> HostSendMessage(const ghost::GhostMessage& message) override;
    sim::Task<std::optional<ghost::PendingDecision>> HostPollDecision(
        int core, bool flush_first) override;
    sim::Task<> HostPrefetchDecision(int core) override;
    sim::Task<> HostSendOutcome(int core,
                                const api::TxnOutcome& outcome) override;
    ghost::CoreInterrupt& InterruptFor(int core) override
    {
        return inner_.InterruptFor(core);
    }
    sim::DurationNs InterruptReceiveCost() const override
    {
        return inner_.InterruptReceiveCost();
    }
    sim::Task<std::vector<ghost::GhostMessage>> AgentPollMessages(
        std::size_t max) override;
    api::TxnId AgentStageDecision(const ghost::GhostDecision& d) override;
    sim::Task<std::size_t> AgentCommit(int core, bool kick) override;
    sim::Task<std::vector<api::TxnOutcome>> AgentPollOutcomes(
        int core, std::size_t max) override;
    sim::Task<> AgentKick(int core) override;
    int CoreCount() const override { return inner_.CoreCount(); }

  private:
    ghost::SchedTransport& inner_;
    Probe& probe_;
};

/** Timing decorator over a SchedPolicy. */
class TracedPolicy : public ghost::SchedPolicy {
  public:
    TracedPolicy(std::shared_ptr<ghost::SchedPolicy> inner, Probe& probe)
        : inner_(std::move(inner)), probe_(probe)
    {
    }

    std::string Name() const override { return inner_->Name(); }
    void OnMessage(const ghost::GhostMessage& message) override;
    std::optional<ghost::GhostDecision> PickNext(int core,
                                                 sim::TimeNs now) override;
    void OnDecisionFailed(const ghost::GhostDecision& decision) override;
    bool ShouldPreempt(int core, ghost::Tid running,
                       sim::DurationNs ran_for) const override;
    std::size_t RunQueueDepth() const override
    {
        return inner_->RunQueueDepth();
    }
    sim::DurationNs DecisionComputeNs() const override
    {
        return inner_->DecisionComputeNs();
    }
    sim::DurationNs PerMessageComputeNs() const override
    {
        return inner_->PerMessageComputeNs();
    }

  private:
    std::shared_ptr<ghost::SchedPolicy> inner_;
    Probe& probe_;
};

/**
 * Prints one row per span name (count, simulated time, host self time)
 * plus per-layer totals. A slice's self time is its duration minus the
 * synchronous spans inside it; coroutine spans show no host time.
 */
void PrintSelfTimeTable(const std::vector<Span>& spans);

/**
 * Writes the spans as Chrome trace-event JSON. Timestamps are simulated
 * time; host start/end, parent and core ride in each event's args.
 * Returns false when the file cannot be written.
 */
bool WriteChromeTrace(const std::vector<Span>& spans,
                      const std::string& path);

}  // namespace wave::wavebench
