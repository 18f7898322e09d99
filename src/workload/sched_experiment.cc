// wave-domain: host
#include "workload/sched_experiment.h"

#include <algorithm>

namespace wave::workload {

std::shared_ptr<ghost::SchedPolicy>
NewPolicy(PolicyKind kind, sim::DurationNs slice_ns)
{
    switch (kind) {
      case PolicyKind::kFifo:
        return std::make_shared<sched::FifoPolicy>();
      case PolicyKind::kShinjuku:
        return std::make_shared<sched::ShinjukuPolicy>(slice_ns);
      case PolicyKind::kMultiQueueShinjuku:
      default:
        return std::make_shared<sched::MultiQueueShinjukuPolicy>(slice_ns);
    }
}

std::function<void(ghost::Tid, std::uint32_t)>
SloAssignHook(const std::shared_ptr<ghost::SchedPolicy>& policy)
{
    auto mq =
        std::dynamic_pointer_cast<sched::MultiQueueShinjukuPolicy>(policy);
    if (mq == nullptr) return {};
    return [mq](ghost::Tid tid, std::uint32_t slo) {
        mq->SetThreadSlo(tid, slo);
    };
}

ghost::EnclaveConfig
KvEnclaveConfig(const SchedExperimentConfig& cfg,
                std::shared_ptr<ghost::SchedPolicy> policy)
{
    ghost::EnclaveConfig ec;
    // Worker cores are 0..worker_cores-1; the on-host agent (if any)
    // runs on the last core, mirroring the paper's 15+1 split.
    for (int i = 0; i < cfg.worker_cores; ++i) ec.cores.push_back(i);
    ec.offloaded = cfg.deployment == Deployment::kWave;
    ec.host_agent_core = cfg.worker_cores;
    ec.policy_factory = [policy = std::move(policy)] { return policy; };
    ec.agent.prestage = cfg.prestage;
    ec.agent.prestage_min_depth = cfg.prestage_min_depth;
    ec.agent.use_kicks = !cfg.poll_mode;
    // Decision prefetching is the host half of the §5.4 optimization;
    // it rides the optimization ladder together with prestaging.
    ec.kernel_options.prefetch_decisions =
        !ec.offloaded || cfg.opt.prestage_prefetch;
    ec.kernel_options.poll_idle = cfg.poll_mode;
    ec.watchdog_timeout_ns = 0;
    return ec;
}

SchedExperimentResult
RunSchedExperiment(const SchedExperimentConfig& cfg)
{
    sim::Simulator sim;

    machine::MachineConfig mc;
    mc.host_cores = cfg.worker_cores + 1;  // +1 for a possible host agent
    if (cfg.nic_speed > 0) mc.nic_speed = cfg.nic_speed;
    machine::Machine machine(sim, mc);

    WaveRuntime runtime(sim, machine, cfg.pcie, cfg.opt);

    auto policy = NewPolicy(cfg.policy, cfg.slice_ns);
    ghost::Enclave enclave(runtime, KvEnclaveConfig(cfg, policy));
    enclave.StartAgent();

    KvService service(sim, enclave.Kernel(), cfg.num_workers,
                      /*first_tid=*/1000, SloAssignHook(policy));
    service.SetMeasureWindow(sim::TimeNs{cfg.warmup_ns},
                             sim::TimeNs{cfg.warmup_ns + cfg.measure_ns});

    enclave.Start();

    LoadGenConfig lg;
    lg.rate_rps = cfg.offered_rps;
    lg.get_fraction = cfg.get_fraction;
    lg.get_service_ns = cfg.get_service_ns;
    lg.range_service_ns = cfg.range_service_ns;
    lg.end_time = sim::TimeNs{cfg.warmup_ns + cfg.measure_ns};
    lg.seed = cfg.seed;
    sim.Spawn(RunLoadGenerator(sim, service, lg));

    sim.RunUntil(sim::TimeNs{cfg.warmup_ns + cfg.measure_ns});

    const ghost::KernelStats& ks = enclave.Kernel().Stats();
    const ghost::AgentStats& as = enclave.CurrentAgent().Stats();
    SchedExperimentResult result;
    result.completed = service.CompletedInWindow();
    result.achieved_rps = static_cast<double>(result.completed) /
                          sim::ToSec(cfg.measure_ns);
    const auto& get_hist = service.Latency(RequestKind::kGet);
    result.get_p50 = get_hist.Percentile(0.50);
    result.get_p99 = get_hist.Percentile(0.99);
    result.get_p999 = get_hist.Percentile(0.999);
    result.range_p99 =
        service.Latency(RequestKind::kRange).Percentile(0.99);
    result.ctx_switch_p50 = ks.ctx_switch_overhead.Percentile(0.50);
    result.commits_failed = ks.commits_failed;
    result.prestage_hits = ks.prestage_hits;
    result.idle_waits = ks.idle_waits;
    result.preemptions = ks.preemptions;
    result.agent_decisions = as.decisions;
    result.agent_prestages = as.prestages;
    result.agent_kicks = as.kicks;
    result.messages_sent = ks.messages_sent;
    result.event_hash = sim.EventHash();
    return result;
}

double
FindSaturationThroughput(const SchedExperimentConfig& base,
                         double start_rps, double end_rps, double step_rps,
                         double efficiency)
{
    double best = 0;
    for (double rps = start_rps; rps <= end_rps + 1; rps += step_rps) {
        SchedExperimentConfig cfg = base;
        cfg.offered_rps = rps;
        const SchedExperimentResult r = RunSchedExperiment(cfg);
        if (r.achieved_rps >= efficiency * rps) {
            best = std::max(best, r.achieved_rps);
        } else if (best > 0) {
            break;  // past the knee; achieved has flattened
        }
    }
    return best;
}

}  // namespace wave::workload
