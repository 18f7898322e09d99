// wave-domain: pcie
// wave-shared(transaction slots are written by the host endpoint and committed by the NIC endpoint; slot lifecycle is the cross-shard protocol the checkers watch)
#include "wave/txn.h"

#include "check/coherence.h"
#include "check/protocol.h"
#include "sim/inject.h"

namespace wave {

namespace {

api::Bytes
FrameDecision(api::TxnId id, const api::Bytes& payload,
              std::size_t queue_payload_size)
{
    WAVE_ASSERT(TxnWire::kHeaderSize + payload.size() <=
                    queue_payload_size,
                "decision payload %zu too large for queue slot %zu",
                payload.size(), queue_payload_size);
    api::Bytes framed(queue_payload_size);
    std::memcpy(framed.data(), &id, sizeof(id));
    std::memcpy(framed.data() + TxnWire::kHeaderSize, payload.data(),
                payload.size());
    return framed;
}

}  // namespace

NicTxnEndpoint::NicTxnEndpoint(channel::NicProducer& decisions,
                               channel::NicConsumer& outcomes,
                               pcie::MsiXVector* msix)
    : decisions_(decisions), outcomes_(outcomes), msix_(msix)
{
}

api::TxnId
NicTxnEndpoint::TxnCreate(api::Bytes payload)
{
    const api::TxnId id = next_id_++;
    // Frame now so TxnsCommit is a pure queue push. The queue's payload
    // size comes from the storage the producer targets.
    staged_.push_back(FrameDecision(
        id, payload, decisions_.QueuePayloadSize()));
    staged_ids_.push_back(id);
    if (protocol_ != nullptr) {
        protocol_->OnTxnCreated(&decisions_.Queue(), id,
                                check::Domain::kNic,
                                "NicTxnEndpoint::TxnCreate");
    }
    return id;
}

// wave-lifetime(caller-awaits)
sim::Task<std::size_t>
NicTxnEndpoint::TxnsCommit(bool send_msix)
{
    const std::size_t sent = co_await decisions_.SendBatch(staged_);
    // Injected double-commit bug: capture the first record just sent so
    // it can be re-published below under the same transaction id.
    api::Bytes dup_record;
    api::TxnId dup_id = 0;
    bool dup = false;
    if (injector_ != nullptr && sent > 0 &&
        injector_->ShouldDoubleCommit()) {
        dup = true;
        dup_record = staged_.front();
        dup_id = staged_ids_.front();
    }
    staged_.erase(staged_.begin(),
                  staged_.begin() + static_cast<std::ptrdiff_t>(sent));
    if (protocol_ != nullptr) {
        for (std::size_t i = 0; i < sent; ++i) {
            protocol_->OnTxnPublished(&decisions_.Queue(),
                                      staged_ids_[i],
                                      check::Domain::kNic,
                                      "NicTxnEndpoint::TxnsCommit");
        }
    }
    staged_ids_.erase(staged_ids_.begin(),
                      staged_ids_.begin() +
                          static_cast<std::ptrdiff_t>(sent));
    if (auto* checker = decisions_.Queue().Dram().Checker();
        checker != nullptr && sent > 0) {
        checker->OnOrderingPoint("txn-commit");
    }
    if (dup) {
        // The bug on the wire: the same transaction id enters the
        // decision queue twice. The host will deliver, commit, and
        // report it twice — the protocol checker must flag every step.
        const bool resent = co_await decisions_.Send(dup_record);
        if (resent && protocol_ != nullptr) {
            protocol_->OnTxnPublished(&decisions_.Queue(), dup_id,
                                      check::Domain::kNic,
                                      "NicTxnEndpoint::TxnsCommit[dup]");
        }
        (void)resent;
    }
    if (send_msix && sent > 0) {
        WAVE_ASSERT(msix_ != nullptr,
                    "TxnsCommit(send_msix) on an endpoint with no vector");
        co_await msix_->Send();
    }
    co_return sent;
}

// wave-lifetime(caller-awaits)
sim::Task<std::vector<api::TxnOutcome>>
NicTxnEndpoint::PollTxnsOutcomes(std::size_t max)
{
    std::vector<api::TxnOutcome> out;
    while (out.size() < max) {
        const bool ready = co_await OutcomeReady();
        if (!ready) break;
        const api::TxnOutcome outcome = co_await TakeOutcome();
        // Reserved on the first outcome, so an empty poll allocates
        // nothing.
        if (out.empty()) out.reserve(max);
        out.push_back(outcome);
    }
    co_return out;
}

// wave-lifetime(caller-awaits)
sim::Task<api::TxnOutcome>
NicTxnEndpoint::TakeOutcome()
{
    co_await outcomes_.Take(outcome_buf_);
    api::TxnOutcome outcome;
    std::memcpy(&outcome.txn_id, outcome_buf_.data(),
                sizeof(outcome.txn_id));
    std::memcpy(&outcome.status, outcome_buf_.data() + sizeof(api::TxnId),
                sizeof(outcome.status));
    if (protocol_ != nullptr) {
        protocol_->OnTxnOutcomeObserved(&decisions_.Queue(), outcome.txn_id,
                                        check::Domain::kNic,
                                        "NicTxnEndpoint::PollTxnsOutcomes");
    }
    co_return outcome;
}

HostTxnEndpoint::HostTxnEndpoint(channel::HostConsumer& decisions,
                                 channel::HostProducer& outcomes,
                                 pcie::MsiXVector* msix)
    : decisions_(decisions), outcomes_(outcomes), msix_(msix)
{
}

// wave-lifetime(caller-awaits)
sim::Task<std::optional<HostTxn>>
HostTxnEndpoint::PollTxns(bool flush_first)
{
    if (!co_await decisions_.PollInto(slot_buf_, flush_first)) {
        co_return std::nullopt;
    }
    HostTxn txn;
    std::memcpy(&txn.id, slot_buf_.data(), sizeof(txn.id));
    txn.payload =
        std::span<const std::byte>(slot_buf_).subspan(TxnWire::kHeaderSize);
    if (protocol_ != nullptr) {
        protocol_->OnTxnDelivered(&decisions_.Queue(), txn.id,
                                  check::Domain::kHost,
                                  "HostTxnEndpoint::PollTxns");
    }
    co_return txn;
}

sim::Task<>
HostTxnEndpoint::PrefetchTxns()
{
    return decisions_.PrefetchNext();
}

// wave-lifetime(caller-awaits)
sim::Task<>
HostTxnEndpoint::SetTxnsOutcomes(const std::vector<api::TxnOutcome>& outs)
{
    std::vector<api::Bytes> records;
    records.reserve(outs.size());
    if (protocol_ != nullptr) {
        for (const api::TxnOutcome& outcome : outs) {
            protocol_->OnTxnOutcome(&decisions_.Queue(),
                                    outcome.txn_id,
                                    check::Domain::kHost,
                                    "HostTxnEndpoint::SetTxnsOutcomes");
        }
    }
    for (const api::TxnOutcome& outcome : outs) {
        api::Bytes record(outcomes_.QueuePayloadSize());
        std::memcpy(record.data(), &outcome.txn_id,
                    sizeof(outcome.txn_id));
        std::memcpy(record.data() + sizeof(api::TxnId), &outcome.status,
                    sizeof(outcome.status));
        records.push_back(std::move(record));
    }
    const std::size_t sent = co_await outcomes_.Send(records);
    WAVE_ASSERT(sent == records.size(),
                "outcome queue overflow: agent is not draining outcomes");
}

// wave-lifetime(caller-awaits)
sim::Task<>
HostTxnEndpoint::WaitForKick()
{
    WAVE_ASSERT(msix_ != nullptr);
    co_await msix_->WaitAndReceive();
}

bool
HostTxnEndpoint::ConsumeKick()
{
    WAVE_ASSERT(msix_ != nullptr);
    return msix_->ConsumePending();
}

}  // namespace wave
