// wave-domain: host
#include "ghost/enclave.h"


namespace wave::ghost {

Enclave::Enclave(WaveRuntime& runtime, EnclaveConfig config)
    : runtime_(runtime), config_(std::move(config))
{
    WAVE_ASSERT(!config_.cores.empty(), "enclave with no cores");
    WAVE_ASSERT(config_.policy_factory != nullptr,
                "enclave needs a policy factory");
    config_.agent.cores = config_.cores;
    if (config_.offloaded) {
        // The Wave binding wires its queues/txn endpoints into the
        // runtime's checkers itself.
        binding_ = std::make_unique<WaveSchedTransport>(runtime_,
                                                        config_.cores);
    } else {
        auto shm = std::make_unique<ShmSchedTransport>(runtime_.Sim(),
                                                       config_.cores);
        shm->AttachCheckers(runtime_.Hb(), runtime_.Protocol());
        binding_ = std::move(shm);
    }
    transport_ = binding_.get();
    if (config_.wrap_transport) {
        decorator_ = config_.wrap_transport(*binding_);
        transport_ = decorator_.get();
    }
    kernel_ = std::make_unique<KernelSched>(
        runtime_.Sim(), runtime_.GetMachine(), *transport_, config_.costs,
        config_.kernel_options);
    kernel_->AttachProtocol(runtime_.Protocol());
}

void
Enclave::StartAgentGeneration()
{
    agent_ = std::make_shared<GhostAgent>(
        *transport_, config_.policy_factory(), config_.agent);
    if (config_.offloaded) {
        agent_id_ = runtime_.StartWaveAgent(agent_, config_.nic_core);
    } else {
        host_agent_ctx_ = std::make_unique<AgentContext>(
            runtime_.Sim(),
            runtime_.GetMachine().HostCpu(config_.host_agent_core));
        runtime_.Sim().Spawn(agent_->Run(*host_agent_ctx_));
    }
    ++generation_;
    last_seen_decisions_ = 0;  // the fresh agent's counters start over
}

void
Enclave::StartAgent()
{
    WAVE_ASSERT(generation_ == 0, "enclave agent started twice");
    StartAgentGeneration();
}

void
Enclave::Start()
{
    if (generation_ == 0) StartAgentGeneration();
    kernel_->Start(config_.cores);
    if (config_.watchdog_timeout_ns > 0) {
        watchdog_ = std::make_unique<Watchdog>(
            runtime_.Sim(), config_.watchdog_timeout_ns,
            config_.watchdog_interval_ns, [this] { RestartAgent(); });
        watchdog_->AttachProtocol(runtime_.Protocol());
        runtime_.Sim().Spawn(FeedWatchdogLoop());
        watchdog_->Arm();
    }
}

bool
Enclave::AgentAlive() const
{
    if (!config_.offloaded) return agent_ != nullptr;
    return agent_ != nullptr && runtime_.AgentAlive(agent_id_);
}

void
Enclave::RestartAgent()
{
    if (config_.offloaded) {
        runtime_.KillWaveAgent(agent_id_);
    }
    StartAgentGeneration();
    if (watchdog_) watchdog_->Arm();

    // Re-pull from the source of truth: re-announce every runnable
    // thread so the fresh policy rebuilds its run queue (§6).
    for (auto& [tid, record] : kernel_->Threads().All()) {
        if (record.state == ThreadState::kRunnable) {
            kernel_->ReannounceThread(tid);
        }
    }
}

// wave-lifetime(spawn-safe: only `this` is borrowed; the enclave owns agent, supervisor, and watchdog wiring and outlives the simulator run)
sim::Task<>
Enclave::FeedWatchdogLoop()
{
    for (;;) {
        co_await runtime_.Sim().Delay(config_.watchdog_interval_ns);
        if (agent_ == nullptr || watchdog_ == nullptr) continue;
        // Liveness = the agent keeps making passes through its loop; a
        // wedged agent (stuck in a blocking await, killed, crashed)
        // stops iterating and the watchdog fires.
        const std::uint64_t iterations = agent_->Stats().iterations;
        if (iterations > last_seen_decisions_) {
            last_seen_decisions_ = iterations;
            watchdog_->NoteDecision();
        }
    }
}

}  // namespace wave::ghost
