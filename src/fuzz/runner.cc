// wave-domain: harness
#include "fuzz/runner.h"

#include <algorithm>
#include <memory>
#include <sstream>
#include <vector>

#include "check/coherence.h"
#include "check/hb.h"
#include "check/protocol.h"
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

namespace wave::fuzz {

namespace {

using sim::inject::FaultKind;
using sim::inject::FaultSpec;

pcie::PcieConfig
MakePcie(const Scenario& s)
{
    pcie::PcieConfig cfg = s.upi_fabric != 0u ? pcie::PcieConfig::Upi()
                                              : pcie::PcieConfig{};
    if (s.mmio_read_ns != 0u) {
        cfg.mmio_read_ns = static_cast<sim::DurationNs>(s.mmio_read_ns);
    }
    if (s.posted_visibility_ns != 0u) {
        cfg.posted_visibility_ns =
            static_cast<sim::DurationNs>(s.posted_visibility_ns);
    }
    if (s.msix_end_to_end_ns != 0u) {
        cfg.msix_end_to_end_ns =
            static_cast<sim::DurationNs>(s.msix_end_to_end_ns);
    }
    if (s.dma_setup_ns != 0u) {
        cfg.dma_setup_ns = static_cast<sim::DurationNs>(s.dma_setup_ns);
    }
    return cfg;
}

/** Appends up to @p cap diagnostics from @p items under @p oracle. */
template <typename Vec, typename DescribeFn>
void
Collect(RunResult& result, const char* oracle, const Vec& items,
        DescribeFn describe, std::size_t cap = 8)
{
    for (std::size_t i = 0; i < items.size() && i < cap; ++i) {
        result.failures.push_back({oracle, describe(items[i])});
    }
    if (items.size() > cap) {
        result.failures.push_back(
            {oracle, "(+" + std::to_string(items.size() - cap) +
                         " more suppressed)"});
    }
}

}  // namespace

std::string
RunResult::Describe() const
{
    std::ostringstream out;
    for (const OracleFailure& f : failures) {
        out << '[' << f.oracle << "] " << f.detail << '\n';
    }
    return out.str();
}

RunResult
RunScenario(const Scenario& s)
{
    sim::Simulator sim;

    machine::MachineConfig mc;
    // +1 host core: home for the watchdog-fallback agent (§3.3).
    mc.host_cores = static_cast<int>(s.worker_cores) + 1;
    mc.nic_speed = static_cast<double>(s.nic_speed_permille) / 1000.0;
    machine::Machine machine(sim, mc);

    api::OptimizationConfig opt;
    opt.nic_wb_ptes = (s.opt_bits & 1u) != 0u;
    opt.host_wc_wt_ptes = (s.opt_bits & 2u) != 0u;
    opt.prestage_prefetch = (s.opt_bits & 4u) != 0u;

    WaveRuntime runtime(sim, machine, MakePcie(s), opt);

    // The injector must be attached before the transport exists so the
    // MSI-X vectors and txn endpoints created inside bind to it.
    sim::inject::FaultInjector injector(sim);
    runtime.AttachInjector(&injector);

    // The experiment harness's KV enclave, with the scenario's knobs.
    workload::SchedExperimentConfig kv;
    kv.worker_cores = static_cast<int>(s.worker_cores);
    kv.opt = opt;
    kv.prestage = s.prestage != 0u;
    kv.prestage_min_depth = s.prestage_min_depth;
    kv.poll_mode = s.poll_mode != 0u;
    const auto kind = static_cast<workload::PolicyKind>(
        std::min<std::uint64_t>(s.policy, 2));  // 0 fifo, 1 shinjuku, 2 mq
    auto policy = workload::NewPolicy(
        kind, static_cast<sim::DurationNs>(s.slice_us * 1000));
    ghost::Enclave enclave(runtime, workload::KvEnclaveConfig(kv, policy));
    ghost::KernelSched& kernel = enclave.Kernel();
    kernel.SetFaultInjector(&injector);
    enclave.StartAgent();
    const AgentId agent_id = enclave.CurrentAgentId();

    ghost::SupervisorConfig sup_cfg;
    sup_cfg.timeout = static_cast<sim::DurationNs>(s.watchdog_timeout_ns);
    sup_cfg.check_interval =
        static_cast<sim::DurationNs>(s.watchdog_check_ns);
    sup_cfg.feed_interval =
        static_cast<sim::DurationNs>(s.watchdog_check_ns);
    ghost::AgentSupervisor supervisor(sim, runtime, kernel, sup_cfg);
    supervisor.Supervise(
        agent_id, enclave.CurrentAgentPtr(),
        [&enclave] {
            // Host fallback: kernel-side CFS-class scheduling over the
            // same state, as in §3.3 ("falls back to on-host system
            // software"). Prestaging is an offload optimization; the
            // fallback runs plain.
            ghost::AgentConfig fb_cfg = enclave.Config().agent;
            fb_cfg.prestage = false;
            return std::make_shared<ghost::GhostAgent>(
                enclave.Transport(),
                std::make_shared<sched::CfsLitePolicy>(), fb_cfg);
        },
        machine.HostCpu(kv.worker_cores));

    workload::KvService service(sim, kernel,
                                static_cast<int>(s.num_workers),
                                /*first_tid=*/1000,
                                workload::SloAssignHook(policy));
    const auto arrivals_end =
        static_cast<sim::TimeNs>(s.warmup_ns + s.measure_ns);
    service.SetMeasureWindow(static_cast<sim::TimeNs>(s.warmup_ns),
                             arrivals_end);

    enclave.Start();

    workload::LoadGenConfig lg;
    lg.rate_rps = static_cast<double>(s.offered_rps);
    lg.get_fraction = static_cast<double>(s.get_permille) / 1000.0;
    lg.get_service_ns = static_cast<sim::DurationNs>(s.get_service_ns);
    lg.range_service_ns = static_cast<sim::DurationNs>(s.range_service_ns);
    lg.end_time = arrivals_end;
    // The arrival process draws from its own named stream so the same
    // workload replays regardless of what the fault stream consumed.
    lg.seed = sim::StreamSeed(s.seed, "workload");
    sim.Spawn(workload::RunLoadGenerator(sim, service, lg));

    const std::vector<FaultSpec>& schedule = s.faults;
    const double nic_base_speed = machine.NicDomain().Speed();
    injector.SetActionHandler([&](const FaultSpec& f, bool begin) {
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
    injector.Arm(schedule);

    sim.RunUntil(static_cast<sim::TimeNs>(s.warmup_ns + s.measure_ns +
                                          s.drain_ns));

    RunResult result;
    result.event_hash = sim.EventHash();
    result.completed = service.Completed();
    result.pending_at_end = service.PendingDepth();
    result.commits_failed = kernel.Stats().commits_failed;
    result.agent_decisions = enclave.CurrentAgent().Stats().decisions;
    result.inject = injector.Stats();
    result.watchdog_expiries = supervisor.Stats().expiries;
    result.fallback_active = supervisor.Stats().fallback_active;
    result.fallback_at = supervisor.Stats().fallback_at.ns();

    if (runtime.Checker() != nullptr) {
        Collect(result, "coherence", runtime.Checker()->Violations(),
                [](const auto& v) { return v.Describe(); });
    }
    if (runtime.Protocol() != nullptr) {
        result.commits_checked = runtime.Protocol()->Stats().commits_checked;
        Collect(result, "protocol", runtime.Protocol()->Violations(),
                [](const auto& v) { return v.Describe(); });
    }
    if (runtime.Hb() != nullptr) {
        Collect(result, "hb-race", runtime.Hb()->Races(),
                [](const auto& r) { return r.Describe(); });
    }
    if (s.require_progress != 0u) {
        if (result.completed == 0) {
            result.failures.push_back(
                {"liveness", "no request ever completed"});
        }
        if (result.pending_at_end != 0) {
            result.failures.push_back(
                {"liveness",
                 std::to_string(result.pending_at_end) +
                     " requests still pending after the drain window" +
                     (result.fallback_active ? " (fallback was active)"
                                             : "")});
        }
    }
    return result;
}

RunResult
RunScenarioTwice(const Scenario& s)
{
    RunResult first = RunScenario(s);
    const RunResult second = RunScenario(s);
    if (first.event_hash != second.event_hash) {
        std::ostringstream detail;
        detail << "event fingerprint diverged across identical runs: "
               << std::hex << first.event_hash << " vs "
               << second.event_hash;
        first.failures.push_back({"determinism", detail.str()});
    }
    return first;
}

}  // namespace wave::fuzz
