/**
 * @file
 * The agent's outcome sweep, end to end: a whole KV deployment run over
 * a bare transport must be the same simulation as the same deployment
 * run through a pass-through decorator, whose sweep is the base-class
 * default built from per-core polls (the path a tracing wrapper takes).
 *
 * The two cases cover both bindings: Wave FIFO, and on-host Shinjuku,
 * whose preemptions read the running_since that each swept outcome's
 * seen_at stamps. A sweep that stamped a record when it was read,
 * rather than when its core's polling finished, would preempt at other
 * times and split the two runs.
 */
// wave-domain: harness
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "ghost/enclave.h"
#include "machine/machine.h"
#include "pass_through_transport.h"
#include "sim/simulator.h"
#include "wave/runtime.h"
#include "workload/kv_service.h"
#include "workload/loadgen.h"
#include "workload/sched_experiment.h"

namespace wave {
namespace {

using workload::Deployment;
using workload::PolicyKind;
using workload::SchedExperimentConfig;

/** What one KV run produced. */
struct KvRun {
    std::uint64_t event_hash = 0;
    std::uint64_t completed = 0;
    sim::DurationNs get_p99 = 0;
    std::uint64_t preemptions = 0;
    ghost::AgentStats agent;
};

/**
 * RunSchedExperiment's deployment, built here so the agent and kernel
 * can reach the transport through the enclave's decorator seam. The
 * construction order is the experiment's, so a bare run reproduces its
 * event hash.
 */
KvRun
RunKv(const SchedExperimentConfig& cfg, bool decorated)
{
    sim::Simulator sim;
    machine::MachineConfig mc;
    mc.host_cores = cfg.worker_cores + 1;
    machine::Machine machine(sim, mc);
    WaveRuntime runtime(sim, machine, cfg.pcie, cfg.opt);

    ghost::EnclaveConfig ec = workload::KvEnclaveConfig(
        cfg, workload::NewPolicy(cfg.policy, cfg.slice_ns));
    if (decorated) {
        ec.wrap_transport = [](ghost::SchedTransport& inner) {
            return std::make_unique<ghost::PassThroughTransport>(inner);
        };
    }
    ghost::Enclave enclave(runtime, std::move(ec));
    enclave.StartAgent();

    const sim::TimeNs end{cfg.warmup_ns + cfg.measure_ns};
    workload::KvService service(sim, enclave.Kernel(), cfg.num_workers,
                                /*first_tid=*/1000);
    service.SetMeasureWindow(sim::TimeNs{cfg.warmup_ns}, end);
    enclave.Start();

    workload::LoadGenConfig lg;
    lg.rate_rps = cfg.offered_rps;
    lg.get_fraction = cfg.get_fraction;
    lg.get_service_ns = cfg.get_service_ns;
    lg.range_service_ns = cfg.range_service_ns;
    lg.end_time = end;
    lg.seed = cfg.seed;
    sim.Spawn(workload::RunLoadGenerator(sim, service, lg));
    sim.RunUntil(end);

    KvRun run;
    run.event_hash = sim.EventHash();
    run.completed = service.CompletedInWindow();
    run.get_p99 =
        service.Latency(workload::RequestKind::kGet).Percentile(0.99);
    run.preemptions = enclave.Kernel().Stats().preemptions;
    run.agent = enclave.CurrentAgent().Stats();
    return run;
}

/** Fig. 4a-style Wave FIFO, scaled down. */
SchedExperimentConfig
WaveFifo(std::uint64_t seed)
{
    SchedExperimentConfig cfg;
    cfg.deployment = Deployment::kWave;
    cfg.policy = PolicyKind::kFifo;
    cfg.worker_cores = 15;
    cfg.num_workers = 64;
    cfg.prestage_min_depth = 4;
    cfg.offered_rps = 600'000;
    cfg.warmup_ns = 2'000'000;
    cfg.measure_ns = 6'000'000;
    cfg.seed = seed;
    return cfg;
}

/**
 * Fig. 4b On-Host Shinjuku at 180k rps (wavebench's kv_shinjuku_onhost):
 * RANGE requests force preemptions. At this length a sweep that stamps
 * seen_at per record splits the runs at seeds 4 and 7; shorter runs
 * did not show it.
 */
SchedExperimentConfig
ShmShinjuku(std::uint64_t seed)
{
    SchedExperimentConfig cfg;
    cfg.deployment = Deployment::kOnHost;
    cfg.policy = PolicyKind::kShinjuku;
    cfg.worker_cores = 15;
    cfg.num_workers = 64;
    cfg.prestage_min_depth = 4;
    cfg.get_fraction = 0.995;
    cfg.slice_ns = 30'000;
    cfg.offered_rps = 180'000;
    cfg.warmup_ns = 10'000'000;
    cfg.measure_ns = 40'000'000;
    cfg.seed = seed;
    return cfg;
}

/** Runs @p cfg bare and decorated, expects one simulation; the bare run. */
KvRun
ExpectSameRun(const SchedExperimentConfig& cfg)
{
    const KvRun bare = RunKv(cfg, /*decorated=*/false);
    const KvRun decorated = RunKv(cfg, /*decorated=*/true);
    EXPECT_EQ(bare.event_hash, decorated.event_hash);
    EXPECT_EQ(bare.completed, decorated.completed);
    EXPECT_EQ(bare.get_p99, decorated.get_p99);
    EXPECT_EQ(bare.preemptions, decorated.preemptions);
    EXPECT_EQ(bare.agent.iterations, decorated.agent.iterations);
    EXPECT_EQ(bare.agent.messages, decorated.agent.messages);
    EXPECT_EQ(bare.agent.decisions, decorated.agent.decisions);
    EXPECT_EQ(bare.agent.prestages, decorated.agent.prestages);
    EXPECT_EQ(bare.agent.preempt_decisions,
              decorated.agent.preempt_decisions);
    EXPECT_EQ(bare.agent.failed_commits, decorated.agent.failed_commits);
    EXPECT_EQ(bare.agent.kicks, decorated.agent.kicks);
    // The builder above is the experiment's deployment.
    EXPECT_EQ(bare.event_hash,
              workload::RunSchedExperiment(cfg).event_hash);
    EXPECT_GT(bare.completed, 0u);
    return bare;
}

class SweepEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SweepEquivalence, WaveFifoMatchesTheDecoratedRun)
{
    (void)ExpectSameRun(WaveFifo(GetParam()));
}

TEST_P(SweepEquivalence, ShmShinjukuMatchesTheDecoratedRun)
{
    // The case is only a check of seen_at if the agent preempts.
    EXPECT_GT(ExpectSameRun(ShmShinjuku(GetParam())).agent.preempt_decisions,
              0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SweepEquivalence,
                         ::testing::Range<std::uint64_t>(0, 8));

}  // namespace
}  // namespace wave
