#include "probe.h"

#include <cstdio>
#include <map>

namespace wave::wavebench {

const char*
OpName(Op op)
{
    switch (op) {
      case Op::kHostSendMessage: return "ghost.host_send_message";
      case Op::kHostPollDecision: return "ghost.host_poll_decision";
      case Op::kHostPrefetchDecision: return "ghost.host_prefetch_decision";
      case Op::kHostSendOutcome: return "ghost.host_send_outcome";
      case Op::kAgentPollMessages: return "ghost.agent_poll_messages";
      case Op::kAgentStageDecision: return "ghost.agent_stage_decision";
      case Op::kAgentCommit: return "ghost.agent_commit";
      case Op::kAgentPollOutcomes: return "ghost.agent_poll_outcomes";
      case Op::kAgentKick: return "ghost.agent_kick";
      case Op::kOnMessage: return "sched.on_message";
      case Op::kPickNext: return "sched.pick_next";
      case Op::kOnDecisionFailed: return "sched.on_decision_failed";
      case Op::kShouldPreempt: return "sched.should_preempt";
      case Op::kSlice: return "sim.run_slice";
      case Op::kCount: break;
    }
    return "?";
}

namespace {

/** Layer prefix of a span name ("ghost", "sched" or "sim"). */
std::string
LayerOf(Op op)
{
    const std::string name = OpName(op);
    return name.substr(0, name.find('.'));
}

/** True for calls that never suspend, whose host time is self time. */
bool
IsSynchronous(Op op)
{
    return op == Op::kAgentStageDecision ||
           (op >= Op::kOnMessage && op <= Op::kShouldPreempt);
}

}  // namespace

Probe::Probe(std::size_t span_capacity) : capacity_(span_capacity)
{
    spans_.reserve(capacity_);
}

std::int32_t
Probe::Begin(Op op, std::int32_t core)
{
    if (spans_.size() >= capacity_) return -1;
    spans_.push_back(Span{op, core, slice_, 0, -1, 0, -1});
    return static_cast<std::int32_t>(spans_.size() - 1);
}

void
Probe::End(std::int32_t index, Op op, std::int64_t host_start,
           std::int64_t sim_start, bool hit)
{
    const std::int64_t host_end = HostNs();
    const std::int64_t sim_end = static_cast<std::int64_t>(sim_->Now().ns());
    OpStats& s = stats_[static_cast<std::size_t>(op)];
    ++s.calls;
    s.hits += hit ? 1 : 0;
    s.host_ns += host_end - host_start;
    if (op == Op::kHostPollDecision) {
        poll_sim_.Record(static_cast<std::uint64_t>(sim_end - sim_start));
    } else if (op == Op::kAgentCommit) {
        commit_sim_.Record(static_cast<std::uint64_t>(sim_end - sim_start));
    }
    if (index >= 0) {
        Span& span = spans_[static_cast<std::size_t>(index)];
        span.host_start = host_start;
        span.host_end = host_end;
        span.sim_start = sim_start;
        span.sim_end = sim_end;
    }
}

void
Probe::BeginSlice()
{
    slice_ = -1;  // a slice is top-level
    const std::int32_t index = Begin(Op::kSlice, -1);
    if (index >= 0) {
        spans_[static_cast<std::size_t>(index)].host_start = HostNs();
        spans_[static_cast<std::size_t>(index)].sim_start =
            static_cast<std::int64_t>(sim_->Now().ns());
    }
    slice_ = index;
}

void
Probe::EndSlice()
{
    if (slice_ >= 0) {
        const Span& span = spans_[static_cast<std::size_t>(slice_)];
        End(slice_, Op::kSlice, span.host_start, span.sim_start, false);
    }
    slice_ = -1;
}

// --- decorators ---------------------------------------------------------
//
// Coroutine spans end explicitly after the awaited call returns. A frame
// still suspended when the simulator tears down is destroyed without
// resuming, so its span stays open (host_end == -1) and is left out.

namespace {

/** Start of one coroutine call; End() closes it. */
struct CallStart {
    CallStart(Probe& probe, Op op, std::int32_t core)
        : index(probe.Begin(op, core)),
          sim(static_cast<std::int64_t>(probe.Sim().Now().ns())),
          host(HostNs())
    {
    }

    std::int32_t index;
    std::int64_t sim;
    std::int64_t host;
};

}  // namespace

sim::Task<>
TracedTransport::HostSendMessage(const ghost::GhostMessage& message)
{
    const CallStart start(probe_, Op::kHostSendMessage, message.core);
    co_await inner_.HostSendMessage(message);
    probe_.End(start.index, Op::kHostSendMessage, start.host, start.sim,
               false);
}

sim::Task<std::optional<ghost::PendingDecision>>
TracedTransport::HostPollDecision(int core, bool flush_first)
{
    const CallStart start(probe_, Op::kHostPollDecision, core);
    auto decision = co_await inner_.HostPollDecision(core, flush_first);
    probe_.End(start.index, Op::kHostPollDecision, start.host, start.sim,
               decision.has_value());
    co_return decision;
}

sim::Task<>
TracedTransport::HostPrefetchDecision(int core)
{
    const CallStart start(probe_, Op::kHostPrefetchDecision, core);
    co_await inner_.HostPrefetchDecision(core);
    probe_.End(start.index, Op::kHostPrefetchDecision, start.host,
               start.sim, false);
}

sim::Task<>
TracedTransport::HostSendOutcome(int core, const api::TxnOutcome& outcome)
{
    const CallStart start(probe_, Op::kHostSendOutcome, core);
    co_await inner_.HostSendOutcome(core, outcome);
    probe_.End(start.index, Op::kHostSendOutcome, start.host, start.sim,
               false);
}

sim::Task<std::vector<ghost::GhostMessage>>
TracedTransport::AgentPollMessages(std::size_t max)
{
    const CallStart start(probe_, Op::kAgentPollMessages, -1);
    auto messages = co_await inner_.AgentPollMessages(max);
    probe_.End(start.index, Op::kAgentPollMessages, start.host, start.sim,
               !messages.empty());
    co_return messages;
}

api::TxnId
TracedTransport::AgentStageDecision(const ghost::GhostDecision& d)
{
    ScopedCall call(probe_, Op::kAgentStageDecision, d.core);
    return inner_.AgentStageDecision(d);
}

sim::Task<std::size_t>
TracedTransport::AgentCommit(int core, bool kick)
{
    const CallStart start(probe_, Op::kAgentCommit, core);
    const std::size_t committed = co_await inner_.AgentCommit(core, kick);
    probe_.End(start.index, Op::kAgentCommit, start.host, start.sim,
               committed > 0);
    co_return committed;
}

sim::Task<std::vector<api::TxnOutcome>>
TracedTransport::AgentPollOutcomes(int core, std::size_t max)
{
    const CallStart start(probe_, Op::kAgentPollOutcomes, core);
    auto outcomes = co_await inner_.AgentPollOutcomes(core, max);
    probe_.End(start.index, Op::kAgentPollOutcomes, start.host, start.sim,
               !outcomes.empty());
    co_return outcomes;
}

sim::Task<>
TracedTransport::AgentKick(int core)
{
    const CallStart start(probe_, Op::kAgentKick, core);
    co_await inner_.AgentKick(core);
    probe_.End(start.index, Op::kAgentKick, start.host, start.sim, false);
}

void
TracedPolicy::OnMessage(const ghost::GhostMessage& message)
{
    ScopedCall call(probe_, Op::kOnMessage, message.core);
    inner_->OnMessage(message);
}

std::optional<ghost::GhostDecision>
TracedPolicy::PickNext(int core, sim::TimeNs now)
{
    ScopedCall call(probe_, Op::kPickNext, core);
    auto decision = inner_->PickNext(core, now);
    if (decision) call.Hit();
    return decision;
}

void
TracedPolicy::OnDecisionFailed(const ghost::GhostDecision& decision)
{
    ScopedCall call(probe_, Op::kOnDecisionFailed, decision.core);
    inner_->OnDecisionFailed(decision);
}

bool
TracedPolicy::ShouldPreempt(int core, ghost::Tid running,
                            sim::DurationNs ran_for) const
{
    ScopedCall call(probe_, Op::kShouldPreempt, core);
    const bool preempt = inner_->ShouldPreempt(core, running, ran_for);
    if (preempt) call.Hit();
    return preempt;
}

// --- span reports -------------------------------------------------------

namespace {

/** Per-span-name count, simulated time and host self time. */
struct LayerRow {
    std::string name;
    std::uint64_t count = 0;
    double sim_ms = 0;
    double host_self_ms = 0;  ///< synchronous spans and slices only
    bool host_is_self = false;
};

/**
 * One row per span name. Synchronous spans never nest or overlap (one
 * thread, no suspension), so subtracting their sum from a slice is
 * subtracting their union.
 */
std::vector<LayerRow>
SelfTimeTable(const std::vector<Span>& spans)
{
    std::vector<LayerRow> rows(kOpCount);
    std::vector<std::int64_t> sync_child_ns(spans.size(), 0);
    for (const Span& span : spans) {
        if (span.host_end < 0 || span.parent < 0 || !IsSynchronous(span.op))
            continue;
        sync_child_ns[static_cast<std::size_t>(span.parent)] +=
            span.host_end - span.host_start;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& span = spans[i];
        if (span.host_end < 0) continue;
        LayerRow& row = rows[static_cast<std::size_t>(span.op)];
        ++row.count;
        row.sim_ms += static_cast<double>(span.sim_end - span.sim_start) / 1e6;
        if (IsSynchronous(span.op) || span.op == Op::kSlice) {
            row.host_is_self = true;
            row.host_self_ms +=
                static_cast<double>(span.host_end - span.host_start -
                                    sync_child_ns[i]) /
                1e6;
        }
    }
    for (std::size_t i = 0; i < kOpCount; ++i) {
        rows[i].name = OpName(static_cast<Op>(i));
    }
    return rows;
}

}  // namespace

void
PrintSelfTimeTable(const std::vector<Span>& spans)
{
    const std::vector<LayerRow> rows = SelfTimeTable(spans);
    std::printf("%-30s %10s %12s %14s\n", "span", "count", "sim_ms",
                "host_self_ms");
    std::map<std::string, LayerRow> layers;
    for (const LayerRow& row : rows) {
        if (row.count == 0) continue;
        if (row.host_is_self) {
            std::printf("%-30s %10llu %12.3f %14.3f\n", row.name.c_str(),
                        static_cast<unsigned long long>(row.count),
                        row.sim_ms, row.host_self_ms);
        } else {
            std::printf("%-30s %10llu %12.3f %14s\n", row.name.c_str(),
                        static_cast<unsigned long long>(row.count),
                        row.sim_ms, "-");
        }
        LayerRow& layer = layers[row.name.substr(0, row.name.find('.'))];
        layer.count += row.count;
        layer.host_self_ms += row.host_self_ms;
    }
    std::printf("%-30s %10s %12s %14s\n", "layer", "count", "",
                "host_self_ms");
    for (const auto& [name, layer] : layers) {
        std::printf("%-30s %10llu %12s %14.3f\n", name.c_str(),
                    static_cast<unsigned long long>(layer.count), "",
                    layer.host_self_ms);
    }
}

bool
WriteChromeTrace(const std::vector<Span>& spans, const std::string& path)
{
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", out);
    // Thread ids: host cores keep their number, agent-wide calls share
    // one "agent" track and slices one "sim" track.
    std::fprintf(out,
                 "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
                 "\"tid\":1000,\"args\":{\"name\":\"agent\"}},\n"
                 "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
                 "\"tid\":2000,\"args\":{\"name\":\"sim\"}}");
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        if (s.host_end < 0) continue;
        const int tid = s.op == Op::kSlice ? 2000
                        : s.core >= 0      ? s.core
                                           : 1000;
        std::fprintf(out,
                     ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%zu,\"parent\":%d,\"core\":%d,"
                     "\"host_start_ns\":%lld,\"host_end_ns\":%lld}}",
                     OpName(s.op), LayerOf(s.op).c_str(), tid,
                     static_cast<double>(s.sim_start) / 1e3,
                     static_cast<double>(s.sim_end - s.sim_start) / 1e3, i,
                     s.parent, s.core, static_cast<long long>(s.host_start),
                     static_cast<long long>(s.host_end));
    }
    std::fputs("\n]}\n", out);
    return std::fclose(out) == 0;
}

}  // namespace wave::wavebench
