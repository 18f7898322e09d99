/**
 * @file
 * Scheduling enclaves (§6 "Focus on Host Partitions and Agent
 * Scalability").
 *
 * Datacenter machines host multiple tenants that want different
 * policies; ghOSt's proven answer is *enclaves*: disjoint partitions
 * of host cores, each a self-contained scheduling domain with its own
 * kernel scheduling-class state, transport queues, agent, and policy.
 * Wave keeps the model — the §7.2 scheduling agent operates per CCX —
 * and adds the per-component watchdog (§3.3) and restart-based
 * recovery (§6): an enclave kills its wedged agent and starts a fresh
 * one that re-pulls thread state from the kernel, without touching
 * neighbouring enclaves.
 */
// wave-domain: host
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "ghost/agent.h"
#include "ghost/kernel.h"
#include "ghost/transport.h"
#include "wave/runtime.h"
#include "wave/watchdog.h"

namespace wave::ghost {

/** Configuration for one scheduling enclave. */
struct EnclaveConfig {
    /** Host cores this enclave owns (e.g. one CCX). */
    std::vector<int> cores;

    /** SmartNIC core its agent runs on (Wave deployment). */
    int nic_core = 0;

    /** Run the agent on the SmartNIC (true) or a host core (false). */
    bool offloaded = true;

    /** Host core for the on-host agent (offloaded == false). */
    int host_agent_core = 0;

    /** Makes a fresh policy instance (used at start and on restart). */
    std::function<std::shared_ptr<SchedPolicy>()> policy_factory;

    /** Agent loop settings (cores is filled in by the enclave). */
    AgentConfig agent;

    /** Kernel-side knobs for this partition. */
    GhostCosts costs;
    KernelOptions kernel_options;

    /**
     * Optional decorator (a tracing or timing wrapper) around the
     * binding the enclave builds; the kernel and every agent generation
     * then reach the transport through it. The checkers stay on the
     * binding.
     */
    std::function<std::unique_ptr<SchedTransport>(SchedTransport&)>
        wrap_transport;

    /** Watchdog threshold; 0 disables the watchdog. */
    sim::DurationNs watchdog_timeout_ns = 20'000'000;
    sim::DurationNs watchdog_interval_ns = 1'000'000;
};

/**
 * A self-contained scheduling partition: kernel + queues + agent.
 *
 * The one place a scheduling deployment is wired: the transport picked
 * by placement (Wave queues to a NIC core, or shared memory to a host
 * core), the KernelSched over it, both attached to the runtime's
 * checkers, then the agent started where it runs. Harnesses add their
 * threads between StartAgent() and Start().
 */
class Enclave {
  public:
    Enclave(WaveRuntime& runtime, EnclaveConfig config);

    /** Adds a thread to this enclave's scheduling domain. */
    void
    AddThread(Tid tid, std::shared_ptr<ThreadBody> body)
    {
        kernel_->AddThread(tid, std::move(body));
    }

    /**
     * Starts the first agent generation. A harness whose threads must
     * join after the agent has started calls this before Start().
     */
    void StartAgent();

    /**
     * Starts the agent (unless StartAgent() already did) and the kernel
     * loops; arms the watchdog.
     */
    void Start();

    /**
     * Kills the current agent and starts a replacement with a fresh
     * policy. The kernel re-announces this enclave's runnable threads
     * so the new policy can rebuild its run queue — the host kernel is
     * the source of truth (§6).
     */
    void RestartAgent();

    /** Number of agent generations started (1 after Start()). */
    int Generation() const { return generation_; }

    bool AgentAlive() const;

    KernelSched& Kernel() { return *kernel_; }
    SchedTransport& Transport() { return *transport_; }
    GhostAgent& CurrentAgent() { return *agent_; }
    const std::shared_ptr<GhostAgent>& CurrentAgentPtr() const
    {
        return agent_;
    }
    /** The current agent's Wave id (0 while the agent runs on host). */
    AgentId CurrentAgentId() const { return agent_id_; }
    const EnclaveConfig& Config() const { return config_; }

  private:
    void StartAgentGeneration();
    sim::Task<> FeedWatchdogLoop();

    WaveRuntime& runtime_;
    EnclaveConfig config_;
    std::unique_ptr<SchedTransport> binding_;    ///< Wave or shm queues
    std::unique_ptr<SchedTransport> decorator_;  ///< wrap_transport's
    SchedTransport* transport_ = nullptr;        ///< what kernel/agent use
    std::unique_ptr<KernelSched> kernel_;
    std::shared_ptr<GhostAgent> agent_;
    std::unique_ptr<AgentContext> host_agent_ctx_;
    AgentId agent_id_ = 0;
    std::unique_ptr<Watchdog> watchdog_;
    int generation_ = 0;
    std::uint64_t last_seen_decisions_ = 0;
};

}  // namespace wave::ghost
