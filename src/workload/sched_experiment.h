/**
 * @file
 * Reusable harness for the §7.2 scheduling experiments.
 *
 * Builds one complete simulated deployment — machine, transport
 * (on-host shared memory or Wave/PCIe), ghOSt kernel, scheduling agent,
 * KV service, load generator — runs one offered-load point, and reports
 * throughput and latency. The Figure 4 benches sweep offered load over
 * this; the §7.2.2 optimization-ladder bench sweeps OptimizationConfig;
 * tests pin single points.
 */
// wave-domain: host
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "ghost/agent.h"
#include "ghost/costs.h"
#include "ghost/enclave.h"
#include "ghost/kernel.h"
#include "ghost/transport.h"
#include "machine/machine.h"
#include "pcie/config.h"
#include "sched/fifo.h"
#include "sched/shinjuku.h"
#include "sim/simulator.h"
#include "wave/runtime.h"
#include "workload/kv_service.h"
#include "workload/loadgen.h"

namespace wave::workload {

/** Which scheduling policy the experiment runs. */
enum class PolicyKind {
    kFifo,
    kShinjuku,
    kMultiQueueShinjuku,
};

/** Where the agent runs. */
enum class Deployment {
    kOnHost,  ///< agent on a dedicated host core, shared-memory queues
    kWave,    ///< agent on a SmartNIC core, PCIe queues (offloaded)
};

/** Full experiment configuration for one load point. */
struct SchedExperimentConfig {
    Deployment deployment = Deployment::kWave;
    PolicyKind policy = PolicyKind::kFifo;

    /** Host cores running workers (On-Host uses one more for the agent). */
    int worker_cores = 15;

    /** Worker thread pool size. */
    int num_workers = 60;

    /** PCIe model (swap for PcieConfig::Upi() in §7.3.3). */
    pcie::PcieConfig pcie = {};

    /** Wave optimization ladder position (§7.2.2). */
    api::OptimizationConfig opt = api::OptimizationConfig::Full();

    /** Policy-level prestaging (applies to both deployments). */
    bool prestage = true;

    /** Prestage eagerness (run-queue depth threshold). */
    std::size_t prestage_min_depth = 8;

    /** Host idle cores poll instead of sleeping; agent skips kicks. */
    bool poll_mode = false;

    /** Shinjuku preemption slice. */
    sim::DurationNs slice_ns = 30'000;

    /** NIC core speed override (0 = use MachineConfig default). */
    double nic_speed = 0.0;

    /** Workload. */
    double offered_rps = 500'000;
    double get_fraction = 1.0;
    sim::DurationNs get_service_ns = 10'000;
    sim::DurationNs range_service_ns = 10'000'000;

    sim::DurationNs warmup_ns = 30'000'000;    ///< 30 ms
    sim::DurationNs measure_ns = 200'000'000;  ///< 200 ms
    std::uint64_t seed = 42;
};

/** One load point's results. */
struct SchedExperimentResult {
    double achieved_rps = 0;
    std::uint64_t completed = 0;
    sim::DurationNs get_p50 = 0;
    sim::DurationNs get_p99 = 0;
    sim::DurationNs get_p999 = 0;
    sim::DurationNs range_p99 = 0;
    sim::DurationNs ctx_switch_p50 = 0;
    std::uint64_t commits_failed = 0;
    std::uint64_t prestage_hits = 0;
    std::uint64_t idle_waits = 0;
    std::uint64_t preemptions = 0;
    std::uint64_t agent_decisions = 0;
    std::uint64_t agent_prestages = 0;
    std::uint64_t agent_kicks = 0;
    std::uint64_t messages_sent = 0;
    /** Simulator event-stream fingerprint (determinism auditing). */
    std::uint64_t event_hash = 0;
};

/** A fresh @p kind policy; @p slice_ns is Shinjuku's preemption slice. */
std::shared_ptr<ghost::SchedPolicy> NewPolicy(PolicyKind kind,
                                              sim::DurationNs slice_ns);

/**
 * KvService's on_assign hook for @p policy: a multi-queue Shinjuku
 * policy learns the SLO class of each worker's request; any other
 * policy needs no hook, so the result is empty.
 */
std::function<void(ghost::Tid, std::uint32_t)> SloAssignHook(
    const std::shared_ptr<ghost::SchedPolicy>& policy);

/**
 * The enclave RunSchedExperiment deploys for @p cfg: its worker cores
 * 0..worker_cores-1, the agent on NIC core 0 (kWave) or on the host
 * core after the workers (kOnHost), one agent generation running
 * @p policy, and no watchdog.
 */
ghost::EnclaveConfig KvEnclaveConfig(
    const SchedExperimentConfig& cfg,
    std::shared_ptr<ghost::SchedPolicy> policy);

/** Runs one load point to completion and reports. */
SchedExperimentResult RunSchedExperiment(const SchedExperimentConfig& cfg);

/**
 * Sweeps offered load and returns the saturation throughput: the
 * highest achieved rate among the swept points whose achieved rate
 * stays within @p efficiency of offered (past saturation, achieved
 * flattens while offered keeps growing).
 */
double FindSaturationThroughput(const SchedExperimentConfig& base,
                                double start_rps, double end_rps,
                                double step_rps, double efficiency = 0.97);

}  // namespace wave::workload
