#include "deployment.h"

#include "check/coherence.h"
#include "check/hb.h"
#include "check/protocol.h"
#include "sched/fifo.h"
#include "sched/shinjuku.h"
#include "sim/logging.h"
#include "workload/loadgen.h"

namespace wave::wavebench {

namespace {

std::shared_ptr<ghost::SchedPolicy>
MakePolicy(const workload::SchedExperimentConfig& cfg)
{
    // Multi-queue Shinjuku needs the service's on_assign hook; the KV
    // workloads run FIFO and single-queue Shinjuku only.
    WAVE_ASSERT(cfg.policy != workload::PolicyKind::kMultiQueueShinjuku);
    if (cfg.policy == workload::PolicyKind::kFifo) {
        return std::make_shared<sched::FifoPolicy>();
    }
    return std::make_shared<sched::ShinjukuPolicy>(cfg.slice_ns);
}

}  // namespace

// The construction order below is RunSchedExperiment's, statement for
// statement: the event stream depends on it.
KvDeployment::KvDeployment(const workload::SchedExperimentConfig& cfg,
                           Probe* probe)
    : cfg_(cfg), probe_(probe), sim_(std::make_unique<sim::Simulator>())
{
    if (probe_ != nullptr) probe_->Bind(*sim_);
    machine::MachineConfig mc;
    mc.host_cores = cfg.worker_cores + 1;  // +1 for a possible host agent
    if (cfg.nic_speed > 0) mc.nic_speed = cfg.nic_speed;
    machine_ = std::make_unique<machine::Machine>(*sim_, mc);

    runtime_ =
        std::make_unique<WaveRuntime>(*sim_, *machine_, cfg.pcie, cfg.opt);

    for (int i = 0; i < cfg.worker_cores; ++i) worker_cores_.push_back(i);

    const bool wave = cfg.deployment == workload::Deployment::kWave;
    if (wave) {
        transport_ = std::make_unique<ghost::WaveSchedTransport>(
            *runtime_, cfg.worker_cores);
    } else {
        transport_ = std::make_unique<ghost::ShmSchedTransport>(
            *sim_, cfg.worker_cores);
    }
    ghost::SchedTransport* transport = transport_.get();
    if (probe_ != nullptr) {
        traced_transport_ =
            std::make_unique<TracedTransport>(*transport_, *probe_);
        transport = traced_transport_.get();
    }

    ghost::KernelOptions kernel_options;
    kernel_options.prefetch_decisions = !wave || cfg.opt.prestage_prefetch;
    kernel_options.poll_idle = cfg.poll_mode;
    kernel_ = std::make_unique<ghost::KernelSched>(
        *sim_, *machine_, *transport, ghost::GhostCosts{}, kernel_options);

    policy_ = MakePolicy(cfg);
    if (probe_ != nullptr) {
        policy_ = std::make_shared<TracedPolicy>(policy_, *probe_);
    }
    ghost::AgentConfig agent_cfg;
    agent_cfg.cores = worker_cores_;
    agent_cfg.prestage = cfg.prestage;
    agent_cfg.prestage_min_depth = cfg.prestage_min_depth;
    agent_cfg.use_kicks = !cfg.poll_mode;
    agent_ =
        std::make_shared<ghost::GhostAgent>(*transport, policy_, agent_cfg);

    if (wave) {
        runtime_->StartWaveAgent(agent_, /*nic_core=*/0);
    } else {
        host_agent_ctx_ = std::make_unique<AgentContext>(
            *sim_, machine_->HostCpu(cfg.worker_cores));
        sim_->Spawn(agent_->Run(*host_agent_ctx_));
    }

    service_ = std::make_unique<workload::KvService>(
        *sim_, *kernel_, cfg.num_workers, /*first_tid=*/1000);
    service_->SetMeasureWindow(sim::TimeNs{cfg.warmup_ns}, End());

    kernel_->Start(worker_cores_);

    workload::LoadGenConfig lg;
    lg.rate_rps = cfg.offered_rps;
    lg.get_fraction = cfg.get_fraction;
    lg.get_service_ns = cfg.get_service_ns;
    lg.range_service_ns = cfg.range_service_ns;
    lg.end_time = End();
    lg.seed = cfg.seed;
    sim_->Spawn(workload::RunLoadGenerator(*sim_, *service_, lg));
}

KvDeployment::~KvDeployment() = default;

sim::TimeNs
KvDeployment::End() const
{
    return sim::TimeNs{cfg_.warmup_ns + cfg_.measure_ns};
}

std::int64_t
KvDeployment::RunSlice(int index, int slices)
{
    // The last slice lands exactly on End() whatever the rounding.
    const sim::TimeNs until{End().ns() *
                            static_cast<std::uint64_t>(index + 1) /
                            static_cast<std::uint64_t>(slices)};
    if (probe_ != nullptr) probe_->BeginSlice();
    const std::int64_t start = HostNs();
    sim_->RunUntil(until);
    const std::int64_t host_ns = HostNs() - start;
    if (probe_ != nullptr) probe_->EndSlice();
    return host_ns;
}

KvResult
KvDeployment::Result() const
{
    KvResult r;
    r.event_hash = sim_->EventHash();
    r.events = sim_->EventsExecuted();
    r.completed = service_->CompletedInWindow();
    r.completed_total = service_->Completed();
    r.achieved_rps = static_cast<double>(r.completed) /
                     sim::ToSec(cfg_.measure_ns);
    r.get_p99_ns =
        service_->Latency(workload::RequestKind::kGet).Percentile(0.99);
    r.agent = agent_->Stats();
    ghost::KernelStats& ks = kernel_->Stats();
    r.commits_ok = ks.commits_ok;
    r.commits_failed = ks.commits_failed;
    r.prestage_hits = ks.prestage_hits;
    r.idle_waits = ks.idle_waits;

    const double span = static_cast<double>(End().ns());
    machine::Cpu& agent_cpu =
        cfg_.deployment == workload::Deployment::kWave
            ? machine_->NicCpu(0)
            : machine_->HostCpu(cfg_.worker_cores);
    r.agent_core_busy = agent_cpu.BusyNs().ToDouble() / span;
    double worker_busy = 0;
    for (int core : worker_cores_) {
        worker_busy += machine_->HostCpu(core).BusyNs().ToDouble();
    }
    r.worker_core_busy =
        worker_busy / (span * static_cast<double>(worker_cores_.size()));

    if (const check::CoherenceChecker* c = runtime_->Checker()) {
        const check::CheckerStats& s = c->Stats();
        r.coherence_ops = s.reads + s.writes + s.cache_fills +
                          s.cache_drops + s.wc_buffered + s.wc_drains +
                          s.dma_writes + s.ordering_points + s.shm_accesses;
        r.violations += c->Violations().size();
    }
    if (const check::HbRaceDetector* hb = runtime_->Hb()) {
        const check::HbStats& s = hb->Stats();
        r.hb_ops = s.reads + s.writes + s.releases + s.acquires;
        r.violations += hb->Races().size();
    }
    if (const check::ProtocolChecker* p = runtime_->Protocol()) {
        const check::ProtocolStats& s = p->Stats();
        r.protocol_ops = s.txns_created + s.txns_published +
                         s.txns_delivered + s.outcomes_reported +
                         s.outcomes_observed + s.stream_sends +
                         s.stream_recvs + s.commits_checked +
                         s.task_transitions + s.watchdog_feeds;
        r.violations += p->Violations().size();
    }
    return r;
}

}  // namespace wave::wavebench
