// wave-domain: host
#include "offload/sweep.h"

#include <algorithm>
#include <memory>
#include <optional>

#include "ghost/agent.h"
#include "ghost/enclave.h"
#include "ghost/kernel.h"
#include "ghost/supervisor.h"
#include "machine/machine.h"
#include "pcie/config.h"
#include "sched/cfs_lite.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "wave/runtime.h"
#include "workload/kv_service.h"
#include "workload/loadgen.h"
#include "workload/sched_experiment.h"

namespace wave::offload {

using sim::inject::FaultInjector;
using sim::inject::FaultKind;
using sim::inject::FaultSpec;

OffloadSweepResult
RunOffloadSweep(const OffloadSweepConfig& cfg)
{
    sim::Simulator sim;

    machine::MachineConfig mc;
    // +1 host core: home for the watchdog-fallback agent (§3.3).
    mc.host_cores = cfg.worker_cores + 1;
    mc.nic_cores = cfg.nic_cores;
    machine::Machine machine(sim, mc);

    WaveRuntime runtime(sim, machine, pcie::PcieConfig{},
                        api::OptimizationConfig{});

    // The injector must be attached before the transport exists so the
    // MSI-X vectors and txn endpoints created inside bind to it. An
    // armed-empty injector is fingerprint-identical, so fault-free
    // sweeps share goldens with this wiring in place.
    FaultInjector injector(sim);
    runtime.AttachInjector(&injector);

    auto policy = workload::NewPolicy(
        workload::PolicyKind::kMultiQueueShinjuku, cfg.slice_ns);

    // --- the offload datapath ---
    const bool datapath = cfg.core_share > 0 && cfg.nic_cores > 1;
    PipelineConfig pc;
    pc.placement = cfg.placement;
    pc.pool_size = cfg.pool_size;
    pc.batch = cfg.batch;
    pc.chain.expected_flows = cfg.flows * 2;
    OffloadPipeline pipeline(sim, pc);

    const sim::TimeNs measure_begin{cfg.warmup_ns};
    const sim::TimeNs measure_end{cfg.warmup_ns + cfg.measure_ns};

    ghost::EnclaveConfig ec;
    for (int i = 0; i < cfg.worker_cores; ++i) ec.cores.push_back(i);
    ec.policy_factory = [policy] { return policy; };
    ec.agent.iter_window_begin = measure_begin;
    ec.agent.iter_window_end = measure_end;
    ec.watchdog_timeout_ns = 0;  // the supervisor below owns recovery
    if (datapath) {
        // The co-located slice: bounded stage work on the agent's own
        // core, skipped while the scheduling run queue is deep. The
        // lambda is a plain adapter (not a coroutine) so the frame it
        // returns borrows only the long-lived pipeline and context —
        // see rpc_experiment.cc for the W202 rationale.
        ghost::SchedPolicy* pol = policy.get();
        const std::size_t budget = cfg.colo_batch;
        const std::size_t skip_depth = cfg.colo_skip_depth;
        ec.agent.aux_stage = [&pipeline, pol, budget,
                              skip_depth](AgentContext& ctx) {
            const std::size_t b =
                skip_depth > 0 && pol->RunQueueDepth() >= skip_depth
                    ? 0
                    : budget;
            return pipeline.RunColocatedSlice(ctx.Cpu(), b);
        };
    }
    ghost::Enclave enclave(runtime, std::move(ec));
    ghost::KernelSched& kernel = enclave.Kernel();
    kernel.SetFaultInjector(&injector);
    enclave.StartAgent();
    const AgentId agent_id = enclave.CurrentAgentId();

    std::optional<ghost::AgentSupervisor> supervisor;
    if (cfg.supervise) {
        ghost::SupervisorConfig sup_cfg;
        sup_cfg.timeout =
            static_cast<sim::DurationNs>(cfg.watchdog_timeout_ns);
        sup_cfg.check_interval =
            static_cast<sim::DurationNs>(cfg.watchdog_check_ns);
        sup_cfg.feed_interval =
            static_cast<sim::DurationNs>(cfg.watchdog_check_ns);
        supervisor.emplace(sim, runtime, kernel, sup_cfg);
        supervisor->Supervise(
            agent_id, enclave.CurrentAgentPtr(),
            [&enclave] {
                // Host fallback: plain CFS-class scheduling, no
                // prestaging and no datapath slice — the datapath
                // stays on its dedicated NIC cores.
                ghost::AgentConfig fb_cfg = enclave.Config().agent;
                fb_cfg.prestage = false;
                fb_cfg.aux_stage = nullptr;
                return std::make_shared<ghost::GhostAgent>(
                    enclave.Transport(),
                    std::make_shared<sched::CfsLitePolicy>(), fb_cfg);
            },
            machine.HostCpu(cfg.worker_cores));
    }

    workload::KvService service(sim, kernel, cfg.num_workers,
                                /*first_tid=*/1000,
                                workload::SloAssignHook(policy));
    service.SetMeasureWindow(measure_begin, measure_end);

    enclave.Start();

    workload::LoadGenConfig lg;
    lg.rate_rps = cfg.offered_rps;
    lg.get_fraction = cfg.get_fraction;
    lg.get_service_ns = cfg.get_service_ns;
    lg.range_service_ns = cfg.range_service_ns;
    lg.end_time = measure_end;
    lg.seed = sim::StreamSeed(cfg.seed, "workload");
    sim.Spawn(workload::RunLoadGenerator(sim, service, lg));

    if (datapath) {
        for (int core = 1; core < cfg.nic_cores; ++core) {
            pipeline.AddWorker(machine.NicCpu(core));
        }
        pipeline.Start();
        pipeline.SetMeasureWindow(measure_begin, measure_end);

        PacketGenConfig pg;
        pg.rate_pps = cfg.core_share * cfg.full_rate_pps;
        pg.flows = cfg.flows;
        pg.zipf_theta = cfg.zipf_theta;
        pg.payload_min = cfg.payload_min;
        pg.payload_max = cfg.payload_max;
        pg.http_fraction = cfg.http_fraction;
        pg.end_time = measure_end;
        pg.seed = sim::StreamSeed(cfg.seed, "packets");
        sim.Spawn(RunPacketGenerator(sim, pipeline, pg));
    }

    // Fault actions, wired exactly like the fuzzer (fuzz/runner.cc).
    const double nic_base_speed = machine.NicDomain().Speed();
    injector.SetActionHandler([&runtime, &machine, agent_id,
                               nic_base_speed](const FaultSpec& f,
                                               bool begin) {
        switch (f.kind) {
          case FaultKind::kAgentCrash:
            if (begin) runtime.KillWaveAgent(agent_id);
            break;
          case FaultKind::kAgentStall:
            if (begin) runtime.StallWaveAgent(agent_id, f.duration);
            break;
          case FaultKind::kNicSlowdown: {
            const double scale =
                static_cast<double>(std::max<std::uint64_t>(f.param, 1)) /
                1000.0;
            machine.NicDomain().SetSpeed(begin ? nic_base_speed * scale
                                               : nic_base_speed);
            break;
          }
          default:
            break;
        }
    });
    injector.Arm(cfg.faults);

    // Occupancy snapshots bracketing the measure window.
    machine::Cpu::Occupancy agent_core_begin{}, agent_core_end{};
    std::vector<machine::Cpu::Occupancy> dp_begin(
        static_cast<std::size_t>(cfg.nic_cores));
    std::vector<machine::Cpu::Occupancy> dp_end(
        static_cast<std::size_t>(cfg.nic_cores));
    sim.ScheduleAt(measure_begin, [&] {
        agent_core_begin = machine.NicCpu(0).Snapshot();
        for (int c = 1; c < cfg.nic_cores; ++c) {
            dp_begin[static_cast<std::size_t>(c)] =
                machine.NicCpu(c).Snapshot();
        }
    });
    sim.ScheduleAt(measure_end, [&] {
        agent_core_end = machine.NicCpu(0).Snapshot();
        for (int c = 1; c < cfg.nic_cores; ++c) {
            dp_end[static_cast<std::size_t>(c)] =
                machine.NicCpu(c).Snapshot();
        }
    });

    sim.RunUntil(sim::TimeNs{cfg.warmup_ns + cfg.measure_ns +
                             cfg.drain_ns});

    OffloadSweepResult r;
    const ghost::GhostAgent& agent = enclave.CurrentAgent();
    r.agent_iterations = agent.Stats().iterations;
    const stats::Histogram& iter = agent.IterationLatency();
    r.agent_iter_p50 = iter.Percentile(0.50);
    r.agent_iter_p99 = iter.Percentile(0.99);
    r.agent_iter_p999 = iter.Percentile(0.999);

    r.completed = service.CompletedInWindow();
    r.achieved_rps = static_cast<double>(r.completed) /
                     sim::ToSec(sim::DurationNs{cfg.measure_ns});
    const auto& get_hist =
        service.Latency(workload::RequestKind::kGet);
    r.get_p50 = get_hist.Percentile(0.50);
    r.get_p99 = get_hist.Percentile(0.99);

    const PipelineStats& ps = pipeline.Stats();
    r.packets_injected = ps.injected;
    r.packets_completed = ps.completed;
    r.packets_denied = ps.denied;
    r.packets_dropped = ps.dropped;
    r.packets_pending = pipeline.Pending();
    r.achieved_pps =
        static_cast<double>(pipeline.Latency().Count()) /
        sim::ToSec(sim::DurationNs{cfg.measure_ns});
    r.packet_p50 = pipeline.Latency().Percentile(0.50);
    r.packet_p99 = pipeline.Latency().Percentile(0.99);
    r.parse_errors =
        pipeline.Chain().Stats(StageKind::kHttpParser).parse_errors;
    r.scan_hits =
        pipeline.Chain().Stats(StageKind::kRegexScan).scan_hits;
    r.new_flows =
        pipeline.Chain().Stats(StageKind::kLoadBalancer).new_flows;

    const auto window = sim::DurationNs{cfg.measure_ns};
    r.agent_core_busy =
        machine::BusyFraction(agent_core_begin, agent_core_end, window);
    double dp_sum = 0;
    for (int c = 1; c < cfg.nic_cores; ++c) {
        dp_sum += machine::BusyFraction(dp_begin[static_cast<std::size_t>(c)],
                                        dp_end[static_cast<std::size_t>(c)],
                                        window);
    }
    r.datapath_core_busy =
        cfg.nic_cores > 1 ? dp_sum / (cfg.nic_cores - 1) : 0.0;

    if (supervisor) {
        r.watchdog_expiries = supervisor->Stats().expiries;
        r.fallback_active = supervisor->Stats().fallback_active;
        r.fallback_at_ns =
            static_cast<std::uint64_t>(supervisor->Stats().fallback_at.ns());
    }
    r.event_hash = sim.EventHash();
    return r;
}

}  // namespace wave::offload
