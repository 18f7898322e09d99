/**
 * @file
 * wavebench: host cost per simulated second of four Wave deployments,
 * end to end and per layer.
 *
 *   wavebench run --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *                 [--trace-out <file.json>]
 *   wavebench pin --workload <name> --seed <n>
 *
 * `run` repeats one workload run (an "op") until --seconds of host time
 * are used and prints, as its last stdout line, one JSON object with
 * `correct`, `attempted`, `failed` and `metrics`. Untraced (--trace 0)
 * it reports the end-to-end metrics: medians over ops, plus op time
 * over the time of reference passes run between op slices. Traced it
 * alternates untraced and traced ops of the same workload and seed,
 * reports the per-layer metrics, prints a per-layer self-time table,
 * and writes the first traced op's spans as Chrome trace-event JSON.
 *
 * Every op must reproduce the first op's outputs and event fingerprint
 * (so a traced op must match an untraced one), match the pinned outputs
 * when (workload, seed) is pinned, and, for KV workloads, finish with no
 * checker violation. `pin` prints one pin-table line for pins.inc.
 */
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "calibration.h"
#include "deployment.h"
#include "probe.h"
#include "sim/alloc_guard.h"
#include "sim/simulator.h"
#include "workloads.h"

namespace wave::wavebench {
namespace {

/** Spans kept from the first traced op (about 48 bytes each). */
constexpr std::size_t kSpanCapacity = 200'000;

/**
 * RunUntil slices of a KV op. Traced ops time them for
 * sim.late_over_early; untraced end-to-end ops run a reference pass
 * after each one for norm_wall_per_sim_sec.
 */
constexpr int kSlices = 10;

/** Reference passes before and after an RPC op, which cannot slice. */
constexpr int kRpcReferencePasses = 5;

double
Median(std::vector<double> v)
{
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
Ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

/** Everything one op measured. */
struct OpRecord {
    bool traced = false;
    std::string failure;  ///< empty when the op passed its checks
    Outputs outputs;
    double setup_s = 0;
    std::int64_t run_ns = 0;  ///< host ns from first event to run end
    std::uint64_t events = 0;
    std::int64_t ref_ns = 0;  ///< summed reference passes during the op
    int ref_passes = 0;
    double core_ns = 0;  ///< core calibration pass right after the op
    std::map<std::string, double> layer;  ///< traced KV ops only
};

/** Per-layer metrics of one traced KV op, from its probe and results. */
std::map<std::string, double>
LayerMetrics(const Probe& probe, const KvResult& r,
             const std::vector<std::int64_t>& slices,
             std::uint64_t allocations, std::int64_t run_ns)
{
    std::map<std::string, double> m;
    const double requests = static_cast<double>(r.completed_total);
    const double events = static_cast<double>(r.events);
    m["sim.events_per_request"] = Ratio(events, requests);
    m["sim.allocs_per_event"] =
        Ratio(static_cast<double>(allocations), events);
    m["sim.late_over_early"] =
        Ratio(static_cast<double>(slices.back()),
              static_cast<double>(slices[1]));

    m["check.coherence_ops_per_request"] =
        Ratio(static_cast<double>(r.coherence_ops), requests);
    m["check.hb_ops_per_request"] =
        Ratio(static_cast<double>(r.hb_ops), requests);
    m["check.protocol_ops_per_request"] =
        Ratio(static_cast<double>(r.protocol_ops), requests);

    for (std::size_t i = 0; i < kTransportOps; ++i) {
        const Op op = static_cast<Op>(i);
        m[std::string(OpName(op)) + ".calls_per_request"] =
            Ratio(static_cast<double>(probe.Stats(op).calls), requests);
    }
    const auto hit_ratio = [&probe](Op op) {
        return Ratio(static_cast<double>(probe.Stats(op).hits),
                     static_cast<double>(probe.Stats(op).calls));
    };
    const auto host_ns_per_call = [&probe](Op op) {
        return Ratio(static_cast<double>(probe.Stats(op).host_ns),
                     static_cast<double>(probe.Stats(op).calls));
    };
    m["ghost.host_poll_decision.hit_ratio"] =
        hit_ratio(Op::kHostPollDecision);
    m["ghost.agent_poll_messages.hit_ratio"] =
        hit_ratio(Op::kAgentPollMessages);
    m["ghost.agent.iterations_per_decision"] =
        Ratio(static_cast<double>(r.agent.iterations),
              static_cast<double>(r.agent.decisions));
    m["ghost.host_poll_decision.sim_ns_p50"] =
        static_cast<double>(probe.PollDecisionSimNs().Percentile(0.50));
    m["ghost.host_poll_decision.sim_ns_p99"] =
        static_cast<double>(probe.PollDecisionSimNs().Percentile(0.99));
    m["ghost.agent_commit.sim_ns_p99"] =
        static_cast<double>(probe.CommitSimNs().Percentile(0.99));
    m["ghost.agent_stage_decision.host_ns"] =
        host_ns_per_call(Op::kAgentStageDecision);
    m["ghost.commit_fail_ratio"] =
        Ratio(static_cast<double>(r.commits_failed),
              static_cast<double>(r.commits_ok + r.commits_failed));
    m["ghost.prestage_hit_ratio"] =
        Ratio(static_cast<double>(r.prestage_hits),
              static_cast<double>(r.prestage_hits + r.idle_waits));
    m["ghost.idle_waits_per_request"] =
        Ratio(static_cast<double>(r.idle_waits), requests);
    m["ghost.kicks_per_request"] =
        Ratio(static_cast<double>(r.agent.kicks), requests);

    m["sched.on_message.host_ns"] = host_ns_per_call(Op::kOnMessage);
    m["sched.pick_next.host_ns"] = host_ns_per_call(Op::kPickNext);
    m["sched.pick_next.hit_ratio"] = hit_ratio(Op::kPickNext);
    m["sched.should_preempt.calls_per_request"] = Ratio(
        static_cast<double>(probe.Stats(Op::kShouldPreempt).calls), requests);
    double sched_ns = 0;
    for (Op op : {Op::kOnMessage, Op::kPickNext, Op::kOnDecisionFailed,
                  Op::kShouldPreempt}) {
        sched_ns += static_cast<double>(probe.Stats(op).host_ns);
    }
    m["sched.host_share"] = Ratio(sched_ns, static_cast<double>(run_ns));

    m["machine.agent_core_busy"] = r.agent_core_busy;
    m["machine.worker_core_busy"] = r.worker_core_busy;
    return m;
}

OpRecord
RunKvOp(const Workload& w, Probe* probe, bool reference)
{
    OpRecord rec;
    rec.traced = probe != nullptr;
    std::vector<std::int64_t> slices;
    slices.reserve(kSlices);
    const std::int64_t t0 = HostNs();
    KvDeployment deployment(w.kv, probe);
    rec.setup_s = static_cast<double>(HostNs() - t0) / 1e9;
    const sim::AllocGuard allocs;
    for (int i = 0; i < kSlices; ++i) {
        slices.push_back(deployment.RunSlice(i, kSlices));
        rec.run_ns += slices.back();
        if (reference) {
            rec.ref_ns += ReferencePassNs();
            ++rec.ref_passes;
        }
    }
    const std::uint64_t allocations = allocs.Allocations();

    const KvResult r = deployment.Result();
    rec.events = r.events;
    rec.outputs = Outputs{r.event_hash, r.completed, r.achieved_rps,
                          r.get_p99_ns};
    if (r.violations > 0) {
        rec.failure = std::to_string(r.violations) + " checker violations";
    }
    if (rec.traced) {
        rec.layer = LayerMetrics(*probe, r, slices, allocations, rec.run_ns);
        rec.layer["workload.achieved_rps"] = r.achieved_rps;
        rec.layer["workload.get_p99_sim_ns"] =
            static_cast<double>(r.get_p99_ns);
        rec.layer["workload.completed"] = static_cast<double>(r.completed);
    }
    return rec;
}

/**
 * One RPC op: a zero-length run of the same configuration (its host
 * time is setup_s) and then the full run. The deployment is assembled
 * inside RunRpcExperiment, so the full run's host time includes its own
 * setup and teardown, and the per-layer numbers are its result fields.
 */
OpRecord
RunRpcOp(const Workload& w, bool traced, bool reference)
{
    OpRecord rec;
    rec.traced = traced;
    const auto reference_passes = [&rec, reference] {
        for (int i = 0; reference && i < kRpcReferencePasses; ++i) {
            rec.ref_ns += ReferencePassNs();
            ++rec.ref_passes;
        }
    };
    rpc::RpcExperimentConfig empty = w.rpc;
    empty.warmup_ns = 0;
    empty.measure_ns = 0;
    const std::int64_t t0 = HostNs();
    (void)rpc::RunRpcExperiment(empty);
    rec.setup_s = static_cast<double>(HostNs() - t0) / 1e9;
    reference_passes();
    const std::int64_t t1 = HostNs();
    const rpc::RpcExperimentResult r = rpc::RunRpcExperiment(w.rpc);
    rec.run_ns = HostNs() - t1;
    reference_passes();
    rec.outputs = Outputs{r.event_hash, r.completed, r.achieved_rps,
                          r.get_p99.ns()};
    if (traced) {
        const double requests = static_cast<double>(r.completed);
        rec.layer["workload.achieved_rps"] = r.achieved_rps;
        rec.layer["workload.get_p99_sim_ns"] =
            static_cast<double>(r.get_p99.ns());
        rec.layer["workload.completed"] = requests;
        rec.layer["rpc.steered_per_request"] =
            Ratio(static_cast<double>(r.steered), requests);
        rec.layer["rpc.preemptions_per_request"] =
            Ratio(static_cast<double>(r.preemptions), requests);
    }
    return rec;
}

/** Every per-layer metric name with its unit, in BENCHMARK.json order. */
const std::vector<std::pair<std::string, std::string>>&
LayerMetricUnits()
{
    static const std::vector<std::pair<std::string, std::string>> units =
        [] {
            std::vector<std::pair<std::string, std::string>> u = {
                {"sim.wall_ns_per_sim_sec", "ns/s"},
                {"sim.events_per_request", "count"},
                {"sim.events_per_sec", "1/s"},
                {"sim.core_ns_per_event", "ns"},
                {"sim.model_over_core", "ratio"},
                {"sim.allocs_per_event", "count"},
                {"sim.late_over_early", "ratio"},
                {"check.coherence_ops_per_request", "count"},
                {"check.hb_ops_per_request", "count"},
                {"check.protocol_ops_per_request", "count"},
            };
            for (std::size_t i = 0; i < kTransportOps; ++i) {
                u.emplace_back(std::string(OpName(static_cast<Op>(i))) +
                                   ".calls_per_request",
                               "count");
            }
            const std::vector<std::pair<std::string, std::string>> rest = {
                {"ghost.host_poll_decision.hit_ratio", "ratio"},
                {"ghost.agent_poll_messages.hit_ratio", "ratio"},
                {"ghost.agent.iterations_per_decision", "count"},
                {"ghost.host_poll_decision.sim_ns_p50", "ns"},
                {"ghost.host_poll_decision.sim_ns_p99", "ns"},
                {"ghost.agent_commit.sim_ns_p99", "ns"},
                {"ghost.agent_stage_decision.host_ns", "ns"},
                {"ghost.commit_fail_ratio", "ratio"},
                {"ghost.prestage_hit_ratio", "ratio"},
                {"ghost.idle_waits_per_request", "count"},
                {"ghost.kicks_per_request", "count"},
                {"sched.on_message.host_ns", "ns"},
                {"sched.pick_next.host_ns", "ns"},
                {"sched.pick_next.hit_ratio", "ratio"},
                {"sched.should_preempt.calls_per_request", "count"},
                {"sched.host_share", "ratio"},
                {"machine.agent_core_busy", "ratio"},
                {"machine.worker_core_busy", "ratio"},
                {"workload.achieved_rps", "1/s"},
                {"workload.get_p99_sim_ns", "ns"},
                {"workload.completed", "count"},
                {"rpc.steered_per_request", "count"},
                {"rpc.preemptions_per_request", "count"},
                {"trace.overhead", "ratio"},
            };
            u.insert(u.end(), rest.begin(), rest.end());
            return u;
        }();
    return units;
}

double
PeakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void
PrintResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<std::pair<std::string, std::string>>& units,
            const std::map<std::string, double>& values)
{
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    const char* sep = "";
    for (const auto& [name, unit] : units) {
        const auto it = values.find(name);
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                    name.c_str(), it == values.end() ? 0.0 : it->second,
                    unit.c_str());
        sep = ", ";
    }
    std::printf("}}\n");
}

struct Args {
    std::string command;
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string trace_out;
};

bool
ParseArgs(int argc, char** argv, Args& args)
{
    if (argc < 2) return false;
    args.command = argv[1];
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char* value = argv[i + 1];
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value, nullptr, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value, nullptr);
        } else if (flag == "--trace") {
            args.trace = std::string(value) == "1";
        } else if (flag == "--trace-out") {
            args.trace_out = value;
        } else {
            return false;
        }
    }
    return (argc % 2 == 0) && !args.workload.empty() &&
           (args.command == "run" || args.command == "pin");
}

int
Pin(const Workload& w, std::uint64_t seed)
{
    const OpRecord rec =
        w.is_rpc ? RunRpcOp(w, false, false) : RunKvOp(w, nullptr, false);
    if (!rec.failure.empty()) {
        std::fprintf(stderr, "wavebench: %s\n", rec.failure.c_str());
        return 1;
    }
    std::printf("{\"%s\", %" PRIu64 ", {0x%016" PRIx64 "ull, %" PRIu64
                ", %.17g, %" PRIu64 "}},\n",
                w.name.c_str(), seed, rec.outputs.event_hash,
                rec.outputs.completed, rec.outputs.achieved_rps,
                rec.outputs.get_p99_ns);
    return 0;
}

int
Run(const Workload& w, const Args& args)
{
    const Outputs* pin = FindPin(w.name, args.seed);
    std::printf("wavebench: workload %s seed %" PRIu64 " (%s) trace %d\n",
                w.name.c_str(), args.seed, pin ? "pinned" : "unpinned",
                args.trace ? 1 : 0);

    if (args.trace) (void)CoreNsPerEventPass();  // warm-up
    const std::int64_t deadline =
        HostNs() + static_cast<std::int64_t>(args.seconds * 1e9);
    const std::size_t min_ops = args.trace ? 4 : 3;

    std::vector<OpRecord> ops;
    std::vector<Span> spans;
    std::int64_t longest_op = 0;
    while (true) {
        const bool traced = args.trace && ops.size() % 2 == 1;
        const std::int64_t start = HostNs();
        OpRecord rec;
        if (w.is_rpc) {
            rec = RunRpcOp(w, traced, !args.trace);
        } else if (traced) {
            Probe probe(spans.empty() ? kSpanCapacity : 0);
            rec = RunKvOp(w, &probe, false);
            if (spans.empty()) spans = probe.Spans();
        } else {
            rec = RunKvOp(w, nullptr, !args.trace);
        }
        if (rec.failure.empty()) {
            rec.failure = CheckOutputs(
                rec.outputs, pin, ops.empty() ? nullptr : &ops[0].outputs);
        }
        if (!rec.failure.empty()) {
            std::fprintf(stderr, "wavebench: op %zu failed: %s\n",
                         ops.size(), rec.failure.c_str());
        }
        // Traced runs calibrate the event core after every op, so each
        // op's model cost compares with the machine speed of its moment.
        if (args.trace) rec.core_ns = CoreNsPerEventPass();
        ops.push_back(std::move(rec));
        longest_op = std::max(longest_op, HostNs() - start);
        if (ops.size() >= min_ops && HostNs() + longest_op > deadline) break;
    }

    std::size_t failed = 0;
    std::vector<double> setup_s, untraced_ns, traced_ns, core_ns,
        model_over_core;
    double run_total_ns = 0;
    double ref_total_ns = 0;
    for (const OpRecord& op : ops) {
        if (op.ref_passes > 0) {
            run_total_ns += static_cast<double>(op.run_ns);
            ref_total_ns += static_cast<double>(op.ref_ns) / op.ref_passes;
        }
        failed += op.failure.empty() ? 0 : 1;
        setup_s.push_back(op.setup_s);
        (op.traced ? traced_ns : untraced_ns)
            .push_back(static_cast<double>(op.run_ns));
        core_ns.push_back(op.core_ns);
        if (!op.traced && op.events > 0) {
            model_over_core.push_back(
                Ratio(static_cast<double>(op.run_ns) /
                          static_cast<double>(op.events),
                      op.core_ns));
        }
    }
    const double sim_sec = static_cast<double>(w.SimNs()) / 1e9;
    const double untraced_run_ns = Median(untraced_ns);
    std::printf("wavebench: %zu ops (%zu traced), %zu failed, "
                "untraced run %.3f s for %.3f simulated s\n",
                ops.size(), traced_ns.size(), failed, untraced_run_ns / 1e9,
                sim_sec);

    std::map<std::string, double> values;
    if (!args.trace) {
        // Total op time over the total of each op's mean reference pass:
        // machine speed cancels, so this holds steady when other tenants
        // slow the host.
        values["norm_wall_per_sim_sec"] =
            Ratio(run_total_ns, ref_total_ns) / sim_sec;
        values["setup_s"] = Median(setup_s);
        values["peak_rss_mb"] = PeakRssMb();
        PrintResult(failed == 0, ops.size(), failed,
                    {{"norm_wall_per_sim_sec", "ref/s"},
                     {"setup_s", "s"},
                     {"peak_rss_mb", "MiB"}},
                    values);
        return 0;
    }

    std::map<std::string, std::vector<double>> samples;
    for (const OpRecord& op : ops) {
        for (const auto& [name, value] : op.layer) {
            samples[name].push_back(value);
        }
    }
    for (const auto& [name, v] : samples) values[name] = Median(v);
    values["sim.wall_ns_per_sim_sec"] = untraced_run_ns / sim_sec;
    values["sim.core_ns_per_event"] = Median(core_ns);
    if (!model_over_core.empty()) {
        values["sim.events_per_sec"] =
            Ratio(1e9 * static_cast<double>(ops[0].events), untraced_run_ns);
        values["sim.model_over_core"] = Median(model_over_core);
    }
    values["trace.overhead"] = Ratio(Median(traced_ns), untraced_run_ns) - 1;

    if (!spans.empty()) {
        std::printf("wavebench: per-layer spans of the first traced op\n");
        PrintSelfTimeTable(spans);
        if (!args.trace_out.empty()) {
            if (WriteChromeTrace(spans, args.trace_out)) {
                std::printf("wavebench: wrote %zu spans to %s\n",
                            spans.size(), args.trace_out.c_str());
            } else {
                std::fprintf(stderr, "wavebench: cannot write %s\n",
                             args.trace_out.c_str());
            }
        }
    }
    PrintResult(failed == 0, ops.size(), failed, LayerMetricUnits(), values);
    return 0;
}

}  // namespace
}  // namespace wave::wavebench

int
main(int argc, char** argv)
{
    using namespace wave::wavebench;
    Args args;
    if (!ParseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: wavebench run --workload <name> --seed <n> "
                     "--seconds <s> --trace <0|1> [--trace-out <file>]\n"
                     "       wavebench pin --workload <name> --seed <n>\n");
        return 2;
    }
    const Workload* base = FindWorkload(args.workload);
    if (base == nullptr) {
        std::fprintf(stderr, "wavebench: unknown workload %s\n",
                     args.workload.c_str());
        return 2;
    }
    const Workload w = WithSeed(*base, args.seed);
    return args.command == "pin" ? Pin(w, args.seed) : Run(w, args);
}
