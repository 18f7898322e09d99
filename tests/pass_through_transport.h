/**
 * @file
 * A SchedTransport decorator that forwards every call and overrides only
 * the pure virtuals, the way a tracing or timing wrapper does. Through
 * it the agent's outcome sweep runs the base-class default, built from
 * the per-core AgentPollOutcomes, so tests can hold each binding's own
 * sweep to that default.
 */
// wave-domain: harness
#pragma once

#include <optional>
#include <vector>

#include "ghost/transport.h"
#include "sim/task.h"

namespace wave::ghost {

/** Forwards every pure virtual to @p inner; the sweep is the default. */
class PassThroughTransport : public SchedTransport {
  public:
    explicit PassThroughTransport(SchedTransport& inner) : inner_(inner) {}

    sim::Task<> HostSendMessage(const GhostMessage& message) override
    {
        return inner_.HostSendMessage(message);
    }
    sim::Task<std::optional<PendingDecision>> HostPollDecision(
        int core, bool flush_first) override
    {
        return inner_.HostPollDecision(core, flush_first);
    }
    sim::Task<> HostPrefetchDecision(int core) override
    {
        return inner_.HostPrefetchDecision(core);
    }
    sim::Task<> HostSendOutcome(int core,
                           const api::TxnOutcome& outcome) override
    {
        return inner_.HostSendOutcome(core, outcome);
    }
    CoreInterrupt& InterruptFor(int core) override
    {
        return inner_.InterruptFor(core);
    }
    sim::DurationNs InterruptReceiveCost() const override
    {
        return inner_.InterruptReceiveCost();
    }
    sim::Task<std::vector<GhostMessage>> AgentPollMessages(
        std::size_t max) override
    {
        return inner_.AgentPollMessages(max);
    }
    api::TxnId AgentStageDecision(const GhostDecision& d) override
    {
        return inner_.AgentStageDecision(d);
    }
    sim::Task<std::size_t> AgentCommit(int core, bool kick) override
    {
        return inner_.AgentCommit(core, kick);
    }
    sim::Task<std::vector<api::TxnOutcome>> AgentPollOutcomes(
        int core, std::size_t max) override
    {
        return inner_.AgentPollOutcomes(core, max);
    }
    sim::Task<> AgentKick(int core) override { return inner_.AgentKick(core); }
    int CoreCount() const override { return inner_.CoreCount(); }

  private:
    SchedTransport& inner_;
};

}  // namespace wave::ghost
