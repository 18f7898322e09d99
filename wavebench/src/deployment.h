/**
 * @file
 * The benchmark's KV deployment: the same composition as
 * workload::RunSchedExperiment (machine, Wave runtime, transport, ghOSt
 * kernel, agent, KV service, open-loop Poisson load generator), built
 * from public headers so a Probe can sit between the layers.
 *
 * Bare (probe == nullptr) it must reproduce RunSchedExperiment's event
 * fingerprint and outputs for the same configuration; decorated it must
 * reproduce the bare fingerprint. The self-test checks both.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ghost/agent.h"
#include "ghost/kernel.h"
#include "ghost/transport.h"
#include "machine/machine.h"
#include "probe.h"
#include "sim/simulator.h"
#include "wave/runtime.h"
#include "workload/kv_service.h"
#include "workload/sched_experiment.h"

namespace wave::wavebench {

/** What one KV run reports; simulated values are exact. */
struct KvResult {
    std::uint64_t event_hash = 0;
    std::uint64_t events = 0;
    std::uint64_t completed = 0;        ///< in the measure window
    std::uint64_t completed_total = 0;  ///< whole run
    double achieved_rps = 0;
    std::uint64_t get_p99_ns = 0;
    ghost::AgentStats agent;
    std::uint64_t commits_ok = 0;
    std::uint64_t commits_failed = 0;
    std::uint64_t prestage_hits = 0;
    std::uint64_t idle_waits = 0;
    double agent_core_busy = 0;
    double worker_core_busy = 0;
    std::uint64_t coherence_ops = 0;
    std::uint64_t hb_ops = 0;
    std::uint64_t protocol_ops = 0;
    std::uint64_t violations = 0;  ///< coherence + protocol + HB races
};

/** One KV deployment, built and ready to run. */
class KvDeployment {
  public:
    /**
     * Builds the deployment. With a probe, the kernel and agent talk
     * through a TracedTransport and the agent's policy is a TracedPolicy.
     */
    KvDeployment(const workload::SchedExperimentConfig& cfg,
                 Probe* probe = nullptr);
    ~KvDeployment();

    KvDeployment(const KvDeployment&) = delete;
    KvDeployment& operator=(const KvDeployment&) = delete;

    /** Simulated end of the run (warmup + measure). */
    sim::TimeNs End() const;

    /**
     * Runs slice @p index of @p slices equal RunUntil() steps that end at
     * End(); slicing adds no events. Returns the slice's host ns.
     */
    std::int64_t RunSlice(int index, int slices);

    /** Runs to End() in one step; returns its host ns. */
    std::int64_t Run() { return RunSlice(0, 1); }

    KvResult Result() const;

  private:
    workload::SchedExperimentConfig cfg_;
    Probe* probe_;
    std::unique_ptr<sim::Simulator> sim_;
    std::unique_ptr<machine::Machine> machine_;
    std::unique_ptr<WaveRuntime> runtime_;
    std::unique_ptr<ghost::SchedTransport> transport_;
    std::unique_ptr<TracedTransport> traced_transport_;
    std::unique_ptr<ghost::KernelSched> kernel_;
    std::shared_ptr<ghost::SchedPolicy> policy_;
    std::shared_ptr<ghost::GhostAgent> agent_;
    std::unique_ptr<AgentContext> host_agent_ctx_;
    std::unique_ptr<workload::KvService> service_;
    std::vector<int> worker_cores_;
};

}  // namespace wave::wavebench
