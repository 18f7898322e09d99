#include "workloads.h"

#include <cinttypes>
#include <cstdio>

namespace wave::wavebench {

namespace {

/**
 * Fig. 4a Wave-15: FIFO agent on NIC core 0 over the Wave transport,
 * 15 worker cores, 64 workers, prestage depth 4, 100% 10 us GETs.
 */
workload::SchedExperimentConfig
FifoWave(double rps)
{
    workload::SchedExperimentConfig cfg;
    cfg.deployment = workload::Deployment::kWave;
    cfg.policy = workload::PolicyKind::kFifo;
    cfg.worker_cores = 15;
    cfg.num_workers = 64;
    cfg.prestage_min_depth = 4;
    cfg.offered_rps = rps;
    cfg.warmup_ns = 5'000'000;
    cfg.measure_ns = 15'000'000;
    return cfg;
}

/**
 * Fig. 4b On-Host: Shinjuku agent (30 us slice) on a host core over
 * shared memory, 99.5% 10 us GETs and 0.5% 10 ms RANGEs.
 */
workload::SchedExperimentConfig
ShinjukuOnHost(double rps)
{
    workload::SchedExperimentConfig cfg;
    cfg.deployment = workload::Deployment::kOnHost;
    cfg.policy = workload::PolicyKind::kShinjuku;
    cfg.worker_cores = 15;
    cfg.num_workers = 64;
    cfg.prestage_min_depth = 4;
    cfg.get_fraction = 0.995;
    cfg.slice_ns = 30'000;
    cfg.offered_rps = rps;
    cfg.warmup_ns = 10'000'000;
    cfg.measure_ns = 40'000'000;
    return cfg;
}

/**
 * Fig. 6b Offload-All: multi-queue Shinjuku agent plus the RPC stack
 * on 9 NIC cores (agent + 8 RPC cores), 16 RocksDB cores.
 */
rpc::RpcExperimentConfig
RpcOffload(double rps)
{
    rpc::RpcExperimentConfig cfg;
    cfg.scenario = rpc::RpcScenario::kOffloadAll;
    cfg.multi_queue = true;
    cfg.rocksdb_cores = 16;
    cfg.rpc_cores = 8;
    cfg.offered_rps = rps;
    // Shorter than the KV ops: the reference passes can only run before
    // and after an RPC op, so a short op keeps them close to its time.
    cfg.warmup_ns = 3'000'000;
    cfg.measure_ns = 7'000'000;
    return cfg;
}

Workload
Kv(const char* name, const workload::SchedExperimentConfig& cfg)
{
    Workload w;
    w.name = name;
    w.kv = cfg;
    return w;
}

Workload
Rpc(const char* name, const rpc::RpcExperimentConfig& cfg)
{
    Workload w;
    w.name = name;
    w.is_rpc = true;
    w.rpc = cfg;
    return w;
}

struct PinEntry {
    const char* workload;
    std::uint64_t seed;
    Outputs outputs;
};

// Outputs of the default build for each (workload, seed); regenerate
// with `wavebench pin --workload <name> --seed <n>` after a deliberate
// model change.
const PinEntry kPins[] = {
#include "pins.inc"
};

}  // namespace

std::uint64_t
Workload::SimNs() const
{
    // RunRpcExperiment runs 2 ms past its measure window to drain.
    return is_rpc ? (rpc.warmup_ns + rpc.measure_ns).ns() + 2'000'000
                  : (kv.warmup_ns + kv.measure_ns).ns();
}

const std::vector<Workload>&
Workloads()
{
    static const std::vector<Workload> workloads = {
        Kv("kv_fifo_wave", FifoWave(1'000'000)),
        Kv("kv_fifo_wave_light", FifoWave(150'000)),
        Kv("kv_shinjuku_onhost", ShinjukuOnHost(180'000)),
        Rpc("rpc_slo_offload", RpcOffload(150'000)),
    };
    return workloads;
}

const Workload*
FindWorkload(const std::string& name)
{
    for (const Workload& w : Workloads()) {
        if (w.name == name) return &w;
    }
    return nullptr;
}

Workload
WithSeed(const Workload& w, std::uint64_t seed)
{
    Workload seeded = w;
    seeded.kv.seed = seed;
    seeded.rpc.seed = seed;
    return seeded;
}

const Outputs*
FindPin(const std::string& workload, std::uint64_t seed)
{
    for (const PinEntry& pin : kPins) {
        if (workload == pin.workload && seed == pin.seed) {
            return &pin.outputs;
        }
    }
    return nullptr;
}

std::string
CheckOutputs(const Outputs& got, const Outputs* pin, const Outputs* first)
{
    char why[256];
    if (pin != nullptr && !(got == *pin)) {
        std::snprintf(why, sizeof why,
                      "differs from pin: hash 0x%016" PRIx64
                      " completed %" PRIu64 " p99 %" PRIu64
                      " (pinned 0x%016" PRIx64 " %" PRIu64 " %" PRIu64 ")",
                      got.event_hash, got.completed, got.get_p99_ns,
                      pin->event_hash, pin->completed, pin->get_p99_ns);
        return why;
    }
    if (first != nullptr && !(got == *first)) {
        std::snprintf(why, sizeof why,
                      "not reproducible in-process: hash 0x%016" PRIx64
                      " vs first run 0x%016" PRIx64,
                      got.event_hash, first->event_hash);
        return why;
    }
    return "";
}

}  // namespace wave::wavebench
