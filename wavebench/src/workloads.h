/**
 * @file
 * The benchmark's workloads and their pinned outputs.
 *
 * Each workload is one figure-family deployment at one fixed offered
 * rate. Simulated load is the repository's open-loop Poisson generator;
 * the benchmark's --seed is its seed. Why each workload exists is in
 * wavebench/README.md.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rpc/rpc_experiment.h"
#include "workload/sched_experiment.h"

namespace wave::wavebench {

/** One benchmark workload: a KV deployment or the RPC experiment. */
struct Workload {
    std::string name;
    bool is_rpc = false;
    workload::SchedExperimentConfig kv;  ///< when !is_rpc
    rpc::RpcExperimentConfig rpc;        ///< when is_rpc

    /** Simulated nanoseconds one run covers. */
    std::uint64_t SimNs() const;
};

/** All workloads, in BENCHMARK.json order. */
const std::vector<Workload>& Workloads();

/** The named workload configured for @p seed, or nullptr. */
const Workload* FindWorkload(const std::string& name);
Workload WithSeed(const Workload& w, std::uint64_t seed);

/** The outputs a run must reproduce exactly. */
struct Outputs {
    std::uint64_t event_hash = 0;
    std::uint64_t completed = 0;
    double achieved_rps = 0;
    std::uint64_t get_p99_ns = 0;

    bool operator==(const Outputs&) const = default;
};

/** Pinned outputs for (workload, seed), or nullptr when unpinned. */
const Outputs* FindPin(const std::string& workload, std::uint64_t seed);

/**
 * Checks one run's outputs. Returns "" when they pass, else why not:
 * they must equal @p pin when one is given, and @p first (the first run
 * of the same workload and seed in this process) when one is given.
 */
std::string CheckOutputs(const Outputs& got, const Outputs* pin,
                         const Outputs* first);

}  // namespace wave::wavebench
