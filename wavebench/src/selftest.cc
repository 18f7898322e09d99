/**
 * @file
 * The benchmark's own tests (registered with CTest by
 * wavebench/CMakeLists.txt). Exits non-zero on the first failure.
 *
 *   - Composition: the benchmark's KV deployment, bare and decorated,
 *     reproduces workload::RunSchedExperiment's event fingerprint,
 *     completed count and GET p99 on both transports.
 *   - Correctness gate: a wrong pinned hash, or a run that differs from
 *     the first run of its process, counts as failed.
 */
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "deployment.h"
#include "probe.h"
#include "workloads.h"

namespace {

using namespace wave;
using namespace wave::wavebench;

int failures = 0;

void
Expect(bool ok, const char* what)
{
    std::printf("%s %s\n", ok ? "[ ok ]" : "[FAIL]", what);
    if (!ok) ++failures;
}

workload::SchedExperimentConfig
Short(workload::Deployment deployment, workload::PolicyKind policy)
{
    workload::SchedExperimentConfig cfg;
    cfg.deployment = deployment;
    cfg.policy = policy;
    cfg.num_workers = 64;
    cfg.prestage_min_depth = 4;
    cfg.get_fraction = 0.995;
    cfg.offered_rps = 400'000;
    cfg.warmup_ns = 1'000'000;
    cfg.measure_ns = 3'000'000;
    cfg.seed = 7;
    return cfg;
}

void
CompositionMatches(const char* name, const workload::SchedExperimentConfig& cfg)
{
    const workload::SchedExperimentResult want =
        workload::RunSchedExperiment(cfg);

    KvDeployment bare(cfg);
    bare.Run();
    const KvResult b = bare.Result();

    Probe probe(1'000);
    KvDeployment traced(cfg, &probe);
    for (int i = 0; i < 10; ++i) traced.RunSlice(i, 10);
    const KvResult t = traced.Result();

    std::printf("%s: hash 0x%016" PRIx64 " completed %" PRIu64
                " p99 %" PRIu64 "\n",
                name, want.event_hash, want.completed, want.get_p99.ns());
    Expect(want.completed > 0, "the short run completes requests");
    Expect(b.event_hash == want.event_hash, "bare hash == RunSchedExperiment");
    Expect(b.completed == want.completed, "bare completed == RunSchedExperiment");
    Expect(b.get_p99_ns == want.get_p99.ns(), "bare GET p99 == RunSchedExperiment");
    Expect(t.event_hash == want.event_hash, "traced hash == RunSchedExperiment");
    Expect(t.completed == want.completed, "traced completed == RunSchedExperiment");
    Expect(t.get_p99_ns == want.get_p99.ns(), "traced GET p99 == RunSchedExperiment");
    Expect(t.violations == 0, "no checker violations");
    Expect(probe.Stats(Op::kHostPollDecision).calls > 0 &&
               probe.Stats(Op::kPickNext).calls > 0,
           "the probe sees transport and policy calls");
    Expect(probe.Spans().size() == 1'000, "the span buffer stops when full");
}

void
GateRejectsWrongOutputs()
{
    const Outputs good{0x1234, 10, 2000.0, 50'000};
    Outputs wrong_hash = good;
    wrong_hash.event_hash ^= 1;
    Outputs wrong_p99 = good;
    wrong_p99.get_p99_ns += 1;
    Expect(CheckOutputs(good, &good, &good).empty(),
           "matching outputs pass");
    Expect(CheckOutputs(good, nullptr, nullptr).empty(),
           "an unpinned first run passes");
    Expect(!CheckOutputs(good, &wrong_hash, nullptr).empty(),
           "a wrong pinned hash fails the run");
    Expect(!CheckOutputs(good, &wrong_p99, nullptr).empty(),
           "a wrong pinned GET p99 fails the run");
    Expect(!CheckOutputs(good, nullptr, &wrong_hash).empty(),
           "a run that differs from the first run fails");
}

void
PinnedSeedReproduces()
{
    // The cheapest pinned workload, run once through the gate.
    const Workload* base = FindWorkload("kv_shinjuku_onhost");
    Expect(base != nullptr, "kv_shinjuku_onhost exists");
    if (base == nullptr) return;
    const Workload w = WithSeed(*base, 1);
    const Outputs* pin = FindPin(w.name, 1);
    Expect(pin != nullptr, "kv_shinjuku_onhost seed 1 is pinned");
    if (pin == nullptr) return;
    KvDeployment d(w.kv);
    d.Run();
    const KvResult r = d.Result();
    const Outputs got{r.event_hash, r.completed, r.achieved_rps, r.get_p99_ns};
    Expect(CheckOutputs(got, pin, nullptr).empty(),
           "kv_shinjuku_onhost seed 1 reproduces its pin");
}

}  // namespace

int
main()
{
    CompositionMatches("wave/fifo",
                       Short(workload::Deployment::kWave,
                             workload::PolicyKind::kFifo));
    CompositionMatches("onhost/shinjuku",
                       Short(workload::Deployment::kOnHost,
                             workload::PolicyKind::kShinjuku));
    GateRejectsWrongOutputs();
    PinnedSeedReproduces();
    std::printf("%d failure(s)\n", failures);
    return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
