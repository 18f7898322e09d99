// wave-domain: host
// wave-owns(host) — the shm transport's queues and the host halves of the wave transport live on the host shard; the NIC-side agent reaches them only through WaveRuntime's seam endpoints
#include "ghost/transport.h"

#include <cstring>

#include "channel/bytes.h"
#include "check/hb.h"
#include "check/protocol.h"

namespace wave::ghost {

namespace {

constexpr std::size_t kDecisionSlot =
    TxnWire::DecisionPayloadSize(GhostWire::kDecisionPayload);

api::Bytes
EncodeMessage(const GhostMessage& message)
{
    return channel::ToBytes(message, GhostWire::kMessagePayload);
}

GhostMessage
DecodeMessage(const api::Bytes& bytes)
{
    return channel::FromBytes<GhostMessage>(bytes);
}

/** Stamps @p out's records from index @p first on with @p seen_at. */
void
StampSeen(std::vector<SweptOutcome>& out, std::size_t first,
          sim::TimeNs seen_at)
{
    for (std::size_t i = first; i < out.size(); ++i) {
        out[i].seen_at = seen_at;
    }
}

}  // namespace

// --- SchedTransport ---

// wave-lifetime(caller-awaits)
sim::Task<>
SchedTransport::AgentSweepOutcomes(const sim::Simulator& clock,
                                   const std::vector<int>& cores,
                                   std::size_t max,
                                   std::vector<SweptOutcome>& out)
{
    for (int core : cores) {
        const auto outcomes = co_await AgentPollOutcomes(core, max);
        const sim::TimeNs seen_at = clock.Now();
        for (const api::TxnOutcome& outcome : outcomes) {
            out.push_back(SweptOutcome{core, outcome, seen_at});
        }
    }
}

// --- WaveSchedTransport ---

namespace {

std::vector<int>
Iota(int n)
{
    std::vector<int> cores;
    for (int i = 0; i < n; ++i) cores.push_back(i);
    return cores;
}

/**
 * Files @p pc at index @p core of a core-indexed table, growing it to
 * fit; each core may be served once.
 */
template <typename PerCore>
void
ServeCore(std::vector<std::unique_ptr<PerCore>>& percore, int& served,
          int core, std::unique_ptr<PerCore> pc)
{
    WAVE_ASSERT(core >= 0, "negative core id %d", core);
    const auto index = static_cast<std::size_t>(core);
    if (index >= percore.size()) percore.resize(index + 1);
    WAVE_ASSERT(percore[index] == nullptr, "core %d is listed twice", core);
    percore[index] = std::move(pc);
    ++served;
}

/** The entry for @p core; asserts the transport serves it. */
template <typename PerCore>
PerCore&
CoreEntry(const std::vector<std::unique_ptr<PerCore>>& percore, int core)
{
    const auto index = static_cast<std::size_t>(core);
    WAVE_ASSERT(core >= 0 && index < percore.size() &&
                    percore[index] != nullptr,
                "core %d is not served by this transport", core);
    return *percore[index];
}

}  // namespace

WaveSchedTransport::WaveSchedTransport(WaveRuntime& runtime, int cores)
    : WaveSchedTransport(runtime, Iota(cores))
{
}

WaveSchedTransport::WaveSchedTransport(WaveRuntime& runtime,
                                       const std::vector<int>& cores)
    : runtime_(runtime), send_lock_(runtime.Sim(), 1)
{
    messages_ = runtime.CreateHostToNicQueue(channel::QueueConfig{
        .capacity = 256,
        .payload_size = GhostWire::kMessagePayload,
        .sync_interval = 32});
    for (int core : cores) {
        auto pc = std::make_unique<PerCore>();
        pc->decisions = runtime.CreateNicToHostQueue(channel::QueueConfig{
            .capacity = 64, .payload_size = kDecisionSlot,
            .sync_interval = 8});
        pc->outcomes = runtime.CreateHostToNicQueue(channel::QueueConfig{
            .capacity = 64, .payload_size = TxnWire::kOutcomeSize,
            .sync_interval = 8});
        pc->msix = runtime.CreateMsiXVector();
        pc->nic_txn = std::make_unique<NicTxnEndpoint>(
            *pc->decisions.nic, *pc->outcomes.nic, pc->msix.get());
        pc->host_txn = std::make_unique<HostTxnEndpoint>(
            *pc->decisions.host, *pc->outcomes.host, pc->msix.get());
        pc->interrupt = std::make_unique<CoreInterrupt>(runtime.Sim());
        // MSI-X delivery raises the core's interrupt line; the kernel
        // loop pays the receive cost when it handles it.
        CoreInterrupt* line = pc->interrupt.get();
        pc->msix->SetDeliveryHandler([line] { line->Raise(); });
        // Fault-injection rigs attach their injector to the runtime
        // before building the transport; the txn endpoint carries the
        // double-commit-bug hook (MSI-X/DMA/MMIO hooks bind inside the
        // runtime's factories).
        pc->nic_txn->SetFaultInjector(runtime.Injector());
        pc->nic_txn->AttachProtocol(runtime.Protocol());
        pc->host_txn->AttachProtocol(runtime.Protocol());
        // The kick's HB edge runs from the committing agent (the
        // decision producer) to the kicked core (the consumer).
        if (runtime.Hb() != nullptr) {
            pc->msix->AttachHb(runtime.Hb(),
                               pc->decisions.nic->HbActor(),
                               pc->decisions.host->HbActor());
        }
        ServeCore(percore_, served_cores_, core, std::move(pc));
    }
}

WaveSchedTransport::PerCore&
WaveSchedTransport::For(int core)
{
    return CoreEntry(percore_, core);
}

// wave-lifetime(caller-awaits)
sim::Task<>
WaveSchedTransport::HostSendMessage(const GhostMessage& message)
{
    std::vector<api::Bytes> batch;
    batch.push_back(EncodeMessage(message));
    co_await send_lock_.Acquire();
    // Lock hand-off edge: each critical section acquires the previous
    // holder's release. The producer endpoint is bound as one actor (all
    // senders are serialized right here), so this edge documents the
    // serialization rather than splitting the senders into actors.
    if (auto* hb = runtime_.Hb()) {
        hb->OnAcquire(messages_.host->HbActor(), &send_lock_, 0);
    }
    const std::size_t sent = co_await messages_.host->Send(batch);
    if (auto* hb = runtime_.Hb()) {
        hb->OnRelease(messages_.host->HbActor(), &send_lock_, 0);
    }
    send_lock_.Release();
    WAVE_ASSERT(sent == 1, "ghOSt message queue overflow");
}

// wave-lifetime(caller-awaits)
sim::Task<std::optional<PendingDecision>>
WaveSchedTransport::HostPollDecision(int core, bool flush_first)
{
    auto txn = co_await For(core).host_txn->PollTxns(flush_first);
    if (!txn) co_return std::nullopt;
    PendingDecision out;
    out.txn_id = txn->id;
    // Decoded at once: the payload views the endpoint's slot buffer.
    out.decision = channel::FromBytes<GhostDecision>(txn->payload);
    co_return out;
}

// The pure forwarding calls (HostPrefetchDecision, AgentCommit,
// AgentPollOutcomes, AgentKick) return the endpoint's task instead of
// awaiting it in a frame of their own. Callers await the result at
// once, so For()'s check still runs before the endpoint does.
sim::Task<>
WaveSchedTransport::HostPrefetchDecision(int core)
{
    return For(core).host_txn->PrefetchTxns();
}

// wave-lifetime(caller-awaits)
sim::Task<>
WaveSchedTransport::HostSendOutcome(int core, const api::TxnOutcome& outcome)
{
    std::vector<api::TxnOutcome> batch;
    batch.push_back(outcome);
    co_await For(core).host_txn->SetTxnsOutcomes(batch);
}

CoreInterrupt&
WaveSchedTransport::InterruptFor(int core)
{
    return *For(core).interrupt;
}

sim::DurationNs
WaveSchedTransport::InterruptReceiveCost() const
{
    return runtime_.PcieCfg().msix_receive_ns;
}

// wave-lifetime(caller-awaits)
sim::Task<std::vector<GhostMessage>>
WaveSchedTransport::AgentPollMessages(std::size_t max)
{
    std::vector<GhostMessage> out;
    while (out.size() < max) {
        const bool ready = co_await messages_.nic->Ready();
        if (!ready) break;
        // Each message is decoded before the next poll reuses the buffer.
        co_await messages_.nic->Take(message_buf_);
        // Reserved on the first message, so an empty poll allocates
        // nothing.
        if (out.empty()) out.reserve(max);
        out.push_back(DecodeMessage(message_buf_));
    }
    co_return out;
}

api::TxnId
WaveSchedTransport::AgentStageDecision(const GhostDecision& d)
{
    return For(d.core).nic_txn->TxnCreate(
        channel::ToBytes(d, GhostWire::kDecisionPayload));
}

sim::Task<std::size_t>
WaveSchedTransport::AgentCommit(int core, bool kick)
{
    return For(core).nic_txn->TxnsCommit(kick);
}

sim::Task<std::vector<api::TxnOutcome>>
WaveSchedTransport::AgentPollOutcomes(int core, std::size_t max)
{
    return For(core).nic_txn->PollTxnsOutcomes(max);
}

// wave-lifetime(caller-awaits)
sim::Task<>
WaveSchedTransport::AgentSweepOutcomes(const sim::Simulator& clock,
                                       const std::vector<int>& cores,
                                       std::size_t max,
                                       std::vector<SweptOutcome>& out)
{
    // NicTxnEndpoint::PollTxnsOutcomes per core, inlined so an empty
    // poll is the flag awaiter alone.
    for (int core : cores) {
        NicTxnEndpoint& txn = *For(core).nic_txn;
        const std::size_t first = out.size();
        while (out.size() - first < max) {
            const bool ready = co_await txn.OutcomeReady();
            if (!ready) break;
            const api::TxnOutcome outcome = co_await txn.TakeOutcome();
            out.push_back(SweptOutcome{core, outcome, {}});
        }
        StampSeen(out, first, clock.Now());
    }
}

sim::Task<>
WaveSchedTransport::AgentKick(int core)
{
    return For(core).msix->Send();
}

// --- ShmSchedTransport ---

pcie::PcieConfig
ShmSchedTransport::IpiCosts()
{
    // Reuse the latched-vector mechanism with IPI-calibrated costs:
    // Table 3 row 3 measures 770 ns for an on-host agent to open a
    // decision and send the interrupt, and interrupt entry costs are
    // comparable to MSI-X receive (~350 ns).
    pcie::PcieConfig cfg;
    cfg.msix_send_ns = 650;
    cfg.msix_send_ioctl_ns = 650;
    cfg.msix_receive_ns = 350;
    cfg.msix_end_to_end_ns = 1250;
    return cfg;
}

ShmSchedTransport::ShmSchedTransport(sim::Simulator& sim, int cores)
    : ShmSchedTransport(sim, Iota(cores))
{
}

ShmSchedTransport::ShmSchedTransport(sim::Simulator& sim,
                                     const std::vector<int>& cores)
    : sim_(sim), messages_(sim, 4096)
{
    for (int core : cores) {
        auto pc = std::make_unique<PerCore>();
        pc->decisions = std::make_unique<ShmQueue>(sim, 256);
        pc->outcomes = std::make_unique<ShmQueue>(sim, 256);
        pc->ipi = std::make_unique<pcie::MsiXVector>(sim, IpiCosts());
        pc->interrupt = std::make_unique<CoreInterrupt>(sim);
        CoreInterrupt* line = pc->interrupt.get();
        pc->ipi->SetDeliveryHandler([line] { line->Raise(); });
        ServeCore(percore_, served_cores_, core, std::move(pc));
    }
}

void
ShmSchedTransport::AttachCheckers(check::HbRaceDetector* hb,
                                  check::ProtocolChecker* protocol)
{
    protocol_ = protocol;
    // The message queue has many sending contexts (every core loop)
    // which the coherent deque serializes per push; they are bound
    // as one producer actor (documented over-approximation).
    messages_.BindCheckers(
        hb, protocol,
        // Both sides of the shm baseline live on the host.
        hb != nullptr  // wave-domain: host
            ? hb->RegisterActor("shm-msg-producers")
            : 0,
        hb != nullptr  // wave-domain: host
            ? hb->RegisterActor("shm-agent")
            : 0);
    // Ascending core order, so HB actor ids do not depend on the
    // order the core set was listed in.
    for (auto& pc : percore_) {
        if (pc == nullptr) continue;
        const sim::ActorId agent =  // wave-domain: host
            hb != nullptr ? hb->RegisterActor("shm-agent") : 0;
        const sim::ActorId core_loop =  // wave-domain: host
            hb != nullptr ? hb->RegisterActor("shm-core-loop") : 0;
        pc->decisions->BindCheckers(hb, protocol, agent, core_loop);
        pc->outcomes->BindCheckers(hb, protocol, core_loop, agent);
        if (hb != nullptr) {
            pc->ipi->AttachHb(hb, agent, core_loop);
        }
    }
}

ShmSchedTransport::PerCore&
ShmSchedTransport::For(int core)
{
    return CoreEntry(percore_, core);
}

// wave-lifetime(caller-awaits)
sim::Task<>
ShmSchedTransport::HostSendMessage(const GhostMessage& message)
{
    std::vector<api::Bytes> batch;
    batch.push_back(EncodeMessage(message));
    const std::size_t sent = co_await messages_.Send(batch);
    WAVE_ASSERT(sent == 1, "ghOSt message queue overflow");
}

// wave-lifetime(caller-awaits)
sim::Task<std::optional<PendingDecision>>
ShmSchedTransport::HostPollDecision(int core, bool /*flush_first*/)
{
    ShmQueue& decisions = *For(core).decisions;
    const bool ready = co_await decisions.Ready();
    if (!ready) co_return std::nullopt;
    std::vector<std::byte> bytes;
    co_await decisions.Take(bytes);
    PendingDecision out;
    std::memcpy(&out.txn_id, bytes.data(), sizeof(out.txn_id));
    std::memcpy(&out.decision, bytes.data() + sizeof(api::TxnId),
                sizeof(out.decision));
    if (protocol_ != nullptr) {
        protocol_->OnTxnDelivered(For(core).decisions.get(),
                                  out.txn_id, check::Domain::kHost,
                                  "ShmSchedTransport::HostPollDecision");
    }
    co_return out;
}

// wave-lifetime(caller-awaits)
sim::Task<>
ShmSchedTransport::HostPrefetchDecision(int /*core*/)
{
    // Coherent shared memory: hardware prefetchers already help; the
    // explicit PCIe prefetch has no analogue here.
    co_return;
}

// wave-lifetime(caller-awaits)
sim::Task<>
ShmSchedTransport::HostSendOutcome(int core, const api::TxnOutcome& outcome)
{
    api::Bytes record(TxnWire::kOutcomeSize);
    std::memcpy(record.data(), &outcome.txn_id, sizeof(outcome.txn_id));
    std::memcpy(record.data() + sizeof(api::TxnId), &outcome.status,
                sizeof(outcome.status));
    if (protocol_ != nullptr) {
        protocol_->OnTxnOutcome(For(core).decisions.get(),
                                outcome.txn_id, check::Domain::kHost,
                                "ShmSchedTransport::HostSendOutcome");
    }
    std::vector<api::Bytes> batch;
    batch.push_back(std::move(record));
    co_await For(core).outcomes->Send(
        batch);
}

CoreInterrupt&
ShmSchedTransport::InterruptFor(int core)
{
    return *For(core).interrupt;
}

sim::DurationNs
ShmSchedTransport::InterruptReceiveCost() const
{
    return IpiCosts().msix_receive_ns;
}

// wave-lifetime(caller-awaits)
sim::Task<std::vector<GhostMessage>>
ShmSchedTransport::AgentPollMessages(std::size_t max)
{
    std::vector<GhostMessage> out;
    while (out.size() < max) {
        const bool ready = co_await messages_.Ready();
        if (!ready) break;
        // Each message is decoded before the next poll reuses the buffer.
        co_await messages_.Take(record_buf_);
        // Reserved on the first message, so an empty poll allocates
        // nothing.
        if (out.empty()) out.reserve(max);
        out.push_back(DecodeMessage(record_buf_));
    }
    co_return out;
}

api::TxnId
ShmSchedTransport::AgentStageDecision(const GhostDecision& d)
{
    const api::TxnId id = next_txn_id_++;
    api::Bytes framed(kDecisionSlot);
    std::memcpy(framed.data(), &id, sizeof(id));
    std::memcpy(framed.data() + sizeof(api::TxnId), &d, sizeof(d));
    if (protocol_ != nullptr) {
        protocol_->OnTxnCreated(For(d.core).decisions.get(), id,
                                check::Domain::kHost,
                                "ShmSchedTransport::AgentStageDecision");
    }
    For(d.core).staged.push_back(
        std::move(framed));
    return id;
}

// wave-lifetime(caller-awaits)
sim::Task<std::size_t>
ShmSchedTransport::AgentCommit(int core, bool kick)
{
    PerCore& pc = For(core);
    const std::size_t sent = co_await pc.decisions->Send(pc.staged);
    if (protocol_ != nullptr) {
        for (std::size_t i = 0; i < sent; ++i) {
            api::TxnId id = 0;
            std::memcpy(&id, pc.staged[i].data(), sizeof(id));
            protocol_->OnTxnPublished(pc.decisions.get(), id,
                                      check::Domain::kHost,
                                      "ShmSchedTransport::AgentCommit");
        }
    }
    pc.staged.erase(pc.staged.begin(),
                    pc.staged.begin() + static_cast<std::ptrdiff_t>(sent));
    if (kick && sent > 0) {
        co_await pc.ipi->Send();
    }
    co_return sent;
}

api::TxnOutcome
ShmSchedTransport::ObserveOutcome(PerCore& pc, const api::Bytes& record)
{
    api::TxnOutcome outcome;
    std::memcpy(&outcome.txn_id, record.data(), sizeof(outcome.txn_id));
    std::memcpy(&outcome.status, record.data() + sizeof(api::TxnId),
                sizeof(outcome.status));
    if (protocol_ != nullptr) {
        protocol_->OnTxnOutcomeObserved(
            pc.decisions.get(), outcome.txn_id, check::Domain::kHost,
            "ShmSchedTransport::AgentPollOutcomes");
    }
    return outcome;
}

// The polls below await ShmQueue::Ready() and then Take(), so an empty
// poll builds no frame; each loop has the Wave binding's shape.

// wave-lifetime(caller-awaits)
sim::Task<std::vector<api::TxnOutcome>>
ShmSchedTransport::AgentPollOutcomes(int core, std::size_t max)
{
    std::vector<api::TxnOutcome> out;
    PerCore& pc = For(core);
    while (out.size() < max) {
        const bool ready = co_await pc.outcomes->Ready();
        if (!ready) break;
        co_await pc.outcomes->Take(record_buf_);
        out.push_back(ObserveOutcome(pc, record_buf_));
    }
    co_return out;
}

// wave-lifetime(caller-awaits)
sim::Task<>
ShmSchedTransport::AgentSweepOutcomes(const sim::Simulator& clock,
                                      const std::vector<int>& cores,
                                      std::size_t max,
                                      std::vector<SweptOutcome>& out)
{
    for (int core : cores) {
        PerCore& pc = For(core);
        const std::size_t first = out.size();
        while (out.size() - first < max) {
            const bool ready = co_await pc.outcomes->Ready();
            if (!ready) break;
            co_await pc.outcomes->Take(record_buf_);
            out.push_back(
                SweptOutcome{core, ObserveOutcome(pc, record_buf_), {}});
        }
        StampSeen(out, first, clock.Now());
    }
}

// wave-lifetime(caller-awaits)
sim::Task<>
ShmSchedTransport::AgentKick(int core)
{
    co_await For(core).ipi->Send();
}

}  // namespace wave::ghost

