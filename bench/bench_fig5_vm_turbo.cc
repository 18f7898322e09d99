/**
 * @file
 * EXP-F5: reproduces Figure 5 — virtual machine compute performance
 * when scheduled by Wave (no timer ticks) vs on-host ghOSt (1 ms ticks
 * on every core).
 *
 * Two 128-vCPU VMs share one 128-logical-core socket (64 physical
 * cores, SMT2). busy_loop runs on 1..128 vCPUs, first hyperthreads
 * first. With the on-host scheduler every core takes 1 ms ticks, which
 * (a) steals ~1.7% of active cores' cycles and (b) keeps idle cores
 * out of deep C-states, capping the turbo frequency of the active
 * cores. The Wave deployment needs no ticks, so idle cores sleep
 * deeply and the active ones boost higher.
 *
 * Paper shape (Fig 5b): +11.2% at 1 active vCPU, ~+9.7% at 31, +1.7%
 * at 128 (tick savings only).
 */
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "ghost/enclave.h"
#include "machine/machine.h"
#include "machine/turbo.h"
#include "sched/vm_policy.h"
#include "sim/simulator.h"
#include "stats/table.h"
#include "wave/runtime.h"
#include "workload/busy_loop.h"

namespace {

using namespace wave;

constexpr int kLogicalCores = 128;
constexpr int kPhysicalCores = 64;
constexpr double kSmtYieldPerSibling = 0.775;  // both siblings busy
constexpr sim::DurationNs kMeasureNs = 120'000'000;  // 120 ms

/** Work output (GHz-seconds) of n active vCPUs under one deployment. */
double
MeasureWorkOutput(int active_vcpus, bool ticks)
{
    sim::Simulator sim;
    machine::MachineConfig mc;
    mc.host_cores = kLogicalCores + 1;  // +1 hosts the on-host agent
    machine::Machine machine(sim, mc);

    // Frequency for this activity level: idle cores reach deep C-states
    // only when ticks are disabled (the Wave deployment).
    const int active_physical = std::min(active_vcpus, kPhysicalCores);
    machine::TurboModel turbo;
    const machine::FreqGhz freq =
        turbo.Frequency(active_physical, /*idle_cores_deep=*/!ticks);
    machine.HostDomain().SetSpeed(freq.RatioTo(machine::kReferenceFreq));

    WaveRuntime runtime(sim, machine, pcie::PcieConfig{},
                        api::OptimizationConfig::Full());
    auto policy = std::make_shared<sched::VmPolicy>();
    ghost::EnclaveConfig ec;
    for (int c = 0; c < kLogicalCores; ++c) ec.cores.push_back(c);
    // On-host: one polling agent on its own host core, ticks on.
    ec.offloaded = !ticks;
    ec.host_agent_core = kLogicalCores;
    ec.policy_factory = [policy] { return policy; };
    ec.agent.prestage = false;  // VMs are ms-scale; no prestaging (§7.2.4)
    ec.kernel_options.timer_ticks = ticks;
    ec.watchdog_timeout_ns = 0;
    ghost::Enclave enclave(runtime, std::move(ec));
    enclave.StartAgent();

    // Two VMs x 128 vCPUs: logical core c hosts vCPU A_c and B_c.
    // Active vCPUs fill first hyperthreads (logical 0..63) before the
    // second siblings (64..127), alternating VMs.
    std::vector<std::shared_ptr<workload::BusyLoopBody>> busy;
    for (int c = 0; c < kLogicalCores; ++c) {
        const ghost::Tid tid_a = 1000 + c;
        const ghost::Tid tid_b = 2000 + c;
        const bool is_active = c < active_vcpus;
        policy->PinVcpu(tid_a, c);
        policy->PinVcpu(tid_b, c);
        if (is_active) {
            auto body = std::make_shared<workload::BusyLoopBody>();
            busy.push_back(body);
            // Alternate which VM owns the busy vCPU on this core.
            enclave.AddThread(c % 2 == 0 ? tid_a : tid_b, body);
            enclave.AddThread(c % 2 == 0 ? tid_b : tid_a,
                              std::make_shared<workload::IdleVcpuBody>());
        } else {
            enclave.AddThread(tid_a,
                              std::make_shared<workload::IdleVcpuBody>());
            enclave.AddThread(tid_b,
                              std::make_shared<workload::IdleVcpuBody>());
        }
    }
    enclave.Start();

    // Let placement settle, then measure a fixed window.
    sim.RunFor(10'000'000);
    std::vector<sim::DurationNs> snapshot;
    for (const auto& body : busy) snapshot.push_back(body->BusyNs());
    sim.RunFor(kMeasureNs);

    double work_ghz_s = 0;
    for (std::size_t i = 0; i < busy.size(); ++i) {
        const double ran_s =
            sim::ToSec(busy[i]->BusySince(snapshot[i]));
        // Second hyperthreads yield less than a full core.
        const int logical = static_cast<int>(i);
        const bool smt_shared =
            logical < kPhysicalCores
                ? active_vcpus > kPhysicalCores + logical
                : true;
        const double smt = smt_shared ? kSmtYieldPerSibling : 1.0;
        work_ghz_s += ran_s * freq.ghz() * smt;
    }
    return work_ghz_s;
}

}  // namespace

int
main()
{
    bench::Banner("EXP-F5",
                  "Figure 5: VM compute, Wave (no ticks) vs ghOSt (ticks)");

    struct PaperPoint {
        int active;
        const char* improvement;
    };
    const int counts[] = {1, 2, 4, 8, 16, 31, 32, 48, 64, 96, 128};

    stats::Table table({"active vCPUs", "ghOSt+ticks (GHz-s)",
                        "Wave no-ticks (GHz-s)", "improvement", "paper"});
    for (int n : counts) {
        const double with_ticks = MeasureWorkOutput(n, /*ticks=*/true);
        const double no_ticks = MeasureWorkOutput(n, /*ticks=*/false);
        const char* paper = n == 1     ? "+11.2%"
                            : n == 31  ? "+9.7%"
                            : n == 128 ? "+1.7%"
                                       : "";
        table.AddRow({stats::Table::Fmt("%d", n),
                      stats::Table::Fmt("%.2f", with_ticks),
                      stats::Table::Fmt("%.2f", no_ticks),
                      bench::FmtPct(no_ticks / with_ticks - 1.0), paper});
    }
    table.Print();
    return 0;
}
