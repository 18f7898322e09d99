// wave-domain: pcie
// wave-shared(host/nic ring endpoints over one BAR window — the sanctioned cross-domain channel; a parallel executor must treat ring head/tail state as a synchronization point between the two shards)
// wave-hot
#include "channel/mmio_queue.h"

#include <cstring>

#include "check/hb.h"
#include "check/protocol.h"

namespace wave::channel {

namespace {

/**
 * Sync-variable tag for the consumed counter. Slot sync vars are
 * tagged with the slot's absolute index, which never reaches 2^64-1.
 */
constexpr std::uint64_t kCounterSyncTag = ~0ULL;

std::uint64_t
FromFlagBytes(const std::byte* data)
{
    std::uint64_t v;
    std::memcpy(&v, data, sizeof(v));
    return v;
}

}  // namespace

// --- HostProducer ---

HostProducer::HostProducer(MmioQueue& queue, pcie::PteType write_type,
                           pcie::PteType counter_read_type)
    : queue_(queue),
      write_map_(queue.Dram(), write_type),
      counter_map_(queue.Dram(), counter_read_type)
{
}

// wave-lifetime(caller-awaits)
sim::Task<>
HostProducer::RefreshConsumed()
{
    // A stale cached counter only under-reports progress, so flushing
    // before the read is needed only when we actually must see newer
    // data — which is exactly when this is called.
    co_await counter_map_.Clflush(queue_.CounterAddr(),
                                  RingLayout::kFlagSize);
    std::uint64_t counter = 0;
    co_await counter_map_.Read(queue_.CounterAddr(), &counter,
                               sizeof(counter));
    cached_consumed_ = counter;
    // Observing the consumer's counter is the acquire half of the lap
    // handshake: it is what licenses overwriting consumed slots.
    if (hb_ != nullptr) {
        hb_->OnAcquire(actor_, &queue_, kCounterSyncTag);
    }
}

// wave-lifetime(caller-awaits)
sim::Task<std::size_t>
HostProducer::Send(const std::vector<Bytes>& messages)
{
    const auto& layout = queue_.Layout();
    const std::size_t capacity = layout.Config().capacity;
    std::size_t sent = 0;

    for (const Bytes& message : messages) {
        WAVE_ASSERT(message.size() == layout.Config().payload_size,
                    "message size %zu != payload size %zu", message.size(),
                    layout.Config().payload_size);
        if (head_ - cached_consumed_ >= capacity) {
            co_await RefreshConsumed();
            if (head_ - cached_consumed_ >= capacity) {
                break;  // genuinely full
            }
        }
        // Payload first, then the generation flag; posted-write ordering
        // guarantees the consumer never sees a flag without its payload.
        co_await write_map_.Write(queue_.PayloadAddr(head_),
                                  message.data(), message.size());
        const std::uint64_t gen = layout.GenerationOf(head_);
        co_await write_map_.Write(queue_.FlagAddr(head_), &gen,
                                  sizeof(gen));
        // The payload store is a data access; the flag store is the
        // release half of the publication handshake (the flag bytes
        // themselves are never treated as data). The access must be
        // recorded before the release advances this actor's clock.
        if (hb_ != nullptr) {
            hb_->OnAccess(actor_, &queue_, queue_.PayloadAddr(head_),
                          message.size(), /*is_write=*/true,
                          "HostProducer::Send[payload]");
            hb_->OnRelease(actor_, &queue_, head_);
        }
        if (protocol_ != nullptr) {
            protocol_->OnStreamSend(&queue_, head_, check::Domain::kHost,
                                    "HostProducer::Send");
        }
        ++head_;
        ++sent;
    }
    // One fence drains the whole batch (WC batching, §5.3.1). A no-op
    // for uncacheable mappings.
    co_await write_map_.Sfence();
    co_return sent;
}

// --- NicConsumer ---

NicConsumer::NicConsumer(MmioQueue& queue, pcie::PteType local_type)
    : queue_(queue), map_(queue.Dram(), local_type)
{
}

NicConsumer::FlagPoll::FlagPoll(NicConsumer& consumer)
    : consumer_(consumer),
      // The flag poll is the sanctioned optimistic read: host stores may
      // still be parked in the WC buffer, in which case the generation
      // simply does not match yet and we retry later.
      read_(consumer.map_.Read(
          consumer.queue_.FlagAddr(consumer.tail_), &consumer.flag_,
          sizeof(consumer.flag_),
          /*tolerate_stale=*/true))  // gen mismatch => retry
{
}

bool
NicConsumer::FlagPoll::await_resume() const
{
    read_.await_resume();
    return consumer_.flag_ ==
           consumer_.queue_.Layout().GenerationOf(consumer_.tail_);
}

// wave-lifetime(caller-awaits)
sim::Task<>
NicConsumer::Take(Bytes& out)
{
    const auto& layout = queue_.Layout();
    WAVE_ASSERT(flag_ == layout.GenerationOf(tail_),
                "Take() without a Ready() that found the slot ready");
    // Once the flag matched, the payload must have drained too (it is
    // written before the flag and fenced by the same sfence), so this
    // read is checked strictly.
    out.resize(layout.Config().payload_size);
    co_await map_.Read(queue_.PayloadAddr(tail_), out.data(), out.size());
    // The matching flag poll is the acquire half of the publication
    // handshake; it must precede the payload-read race check. Each slot
    // is consumed once, so the acquire retires the slot's sync var.
    if (hb_ != nullptr) {
        hb_->OnConsume(actor_, &queue_, tail_);
        hb_->OnAccess(actor_, &queue_, queue_.PayloadAddr(tail_),
                      out.size(), /*is_write=*/false,
                      "NicConsumer::Poll[payload]");
    }
    if (protocol_ != nullptr) {
        protocol_->OnStreamRecv(&queue_, tail_, check::Domain::kNic,
                                "NicConsumer::Poll");
    }
    ++tail_;
    if (tail_ - last_synced_ >= layout.Config().sync_interval) {
        co_await map_.Write(queue_.CounterAddr(), &tail_, sizeof(tail_));
        // Publishing the counter releases every slot read so far: the
        // producer may overwrite them only after acquiring this value.
        if (hb_ != nullptr) {
            hb_->OnRelease(actor_, &queue_, kCounterSyncTag);
        }
        last_synced_ = tail_;
    }
}

// wave-lifetime(caller-awaits)
sim::Task<bool>
NicConsumer::PollInto(Bytes& out)
{
    const bool ready = co_await Ready();
    if (!ready) {
        co_return false;
    }
    co_await Take(out);
    co_return true;
}

// wave-lifetime(caller-awaits)
sim::Task<std::optional<Bytes>>
NicConsumer::Poll()
{
    // The returned message is caller-owned, so this form pays one
    // buffer per message by contract; PollInto is the reusing form.
    Bytes payload;
    if (!co_await PollInto(payload)) {
        co_return std::nullopt;
    }
    co_return std::move(payload);
}

// wave-lifetime(caller-awaits)
sim::Task<std::vector<Bytes>>
NicConsumer::PollBatch(std::size_t max)
{
    std::vector<Bytes> out;
    while (out.size() < max) {
        Bytes payload;
        if (!co_await PollInto(payload)) break;
        // Reserved on the first message, so an empty poll allocates
        // nothing.
        if (out.empty()) out.reserve(max);
        out.push_back(std::move(payload));
    }
    co_return out;
}

// --- NicProducer ---

NicProducer::NicProducer(MmioQueue& queue, pcie::PteType local_type)
    : queue_(queue), map_(queue.Dram(), local_type)
{
}

// wave-lifetime(caller-awaits)
sim::Task<bool>
NicProducer::Full()
{
    const std::size_t capacity = queue_.Layout().Config().capacity;
    if (head_ - cached_consumed_ < capacity) {
        co_return false;
    }
    // A stale counter only under-reports consumption (the ring looks
    // fuller than it is), which is conservative and safe.
    std::uint64_t counter = 0;
    co_await map_.Read(queue_.CounterAddr(), &counter, sizeof(counter),
                       /*tolerate_stale=*/true);  // stale => looks full
    cached_consumed_ = counter;
    // Acquire the consumer's release; a stale value joins an *older*
    // release state, which only adds edges the producer then does not
    // rely on (it refuses to overwrite), so this stays sound.
    if (hb_ != nullptr) {
        hb_->OnAcquire(actor_, &queue_, kCounterSyncTag);
    }
    co_return head_ - cached_consumed_ >= capacity;
}

// wave-lifetime(caller-awaits)
sim::Task<bool>
NicProducer::Send(const Bytes& message)
{
    const auto& layout = queue_.Layout();
    WAVE_ASSERT(message.size() == layout.Config().payload_size);
    if (co_await Full()) {
        co_return false;
    }
    co_await map_.Write(queue_.PayloadAddr(head_), message.data(),
                        message.size());
    const std::uint64_t gen = layout.GenerationOf(head_);
    co_await map_.Write(queue_.FlagAddr(head_), &gen, sizeof(gen));
    if (hb_ != nullptr) {
        hb_->OnAccess(actor_, &queue_, queue_.PayloadAddr(head_),
                      message.size(), /*is_write=*/true,
                      "NicProducer::Send[payload]");
        hb_->OnRelease(actor_, &queue_, head_);
    }
    if (protocol_ != nullptr) {
        protocol_->OnStreamSend(&queue_, head_, check::Domain::kNic,
                                "NicProducer::Send");
    }
    ++head_;
    co_return true;
}

// wave-lifetime(caller-awaits)
sim::Task<std::size_t>
NicProducer::SendBatch(const std::vector<Bytes>& messages)
{
    std::size_t sent = 0;
    for (const Bytes& message : messages) {
        if (!co_await Send(message)) break;
        ++sent;
    }
    co_return sent;
}

// --- HostConsumer ---

HostConsumer::HostConsumer(MmioQueue& queue, pcie::PteType read_type,
                           pcie::PteType counter_write_type)
    : queue_(queue),
      read_map_(queue.Dram(), read_type),
      counter_map_(queue.Dram(), counter_write_type)
{
}

// wave-lifetime(caller-awaits)
sim::Task<>
HostConsumer::MaybeSyncCounter()
{
    if (tail_ - last_synced_ >= queue_.Layout().Config().sync_interval) {
        co_await counter_map_.Write(queue_.CounterAddr(), &tail_,
                                    sizeof(tail_));
        co_await counter_map_.Sfence();
        if (hb_ != nullptr) {
            hb_->OnRelease(actor_, &queue_, kCounterSyncTag);
        }
        last_synced_ = tail_;
    }
}

// wave-lifetime(caller-awaits)
sim::Task<bool>
HostConsumer::PollInto(Bytes& out, bool flush_first)
{
    if (flush_first) {
        co_await FlushNext();
    }
    const auto& layout = queue_.Layout();
    // Slots are line-aligned with the flag adjacent to the payload, so
    // with a WT mapping this single read pulls flag + payload in one
    // PCIe roundtrip (or hits the cache if prefetched). Without an
    // explicit flush this is the sanctioned optimistic poll: a stale
    // cached slot fails the generation check and we retry after the
    // next flush point, so the checker must not flag it. A reused
    // @p out keeps its capacity across polls, so neither resize here
    // allocates in steady state.
    out.resize(layout.Config().payload_size + RingLayout::kFlagSize);
    co_await read_map_.Read(queue_.PayloadAddr(tail_), out.data(),
                            out.size(),
                            /*tolerate_stale=*/!flush_first);  // gen-checked
    const std::uint64_t flag =
        FromFlagBytes(out.data() + layout.Config().payload_size);
    if (flag != layout.GenerationOf(tail_)) {
        co_return false;
    }
    if (hb_ != nullptr) {
        hb_->OnConsume(actor_, &queue_, tail_);
        hb_->OnAccess(actor_, &queue_, queue_.PayloadAddr(tail_),
                      layout.Config().payload_size,
                      /*is_write=*/false, "HostConsumer::Poll[payload]");
    }
    if (protocol_ != nullptr) {
        protocol_->OnStreamRecv(&queue_, tail_, check::Domain::kHost,
                                "HostConsumer::Poll");
    }
    out.resize(layout.Config().payload_size);
    ++tail_;
    co_await MaybeSyncCounter();
    co_return true;
}

// wave-lifetime(caller-awaits)
sim::Task<std::optional<Bytes>>
HostConsumer::Poll(bool flush_first)
{
    // The returned message is caller-owned, so this form pays one
    // buffer per message by contract; PollInto is the reusing form.
    Bytes slot;
    if (!co_await PollInto(slot, flush_first)) {
        co_return std::nullopt;
    }
    co_return std::move(slot);
}

// wave-lifetime(caller-awaits)
sim::Task<>
HostConsumer::PrefetchNext()
{
    // Drop any stale copy from the previous lap, then start the fill.
    co_await FlushNext();
    read_map_.Prefetch(queue_.PayloadAddr(tail_),
                       queue_.Layout().Config().payload_size +
                           RingLayout::kFlagSize);
}

sim::Task<>
HostConsumer::FlushNext()
{
    return read_map_.Clflush(queue_.PayloadAddr(tail_),
                             queue_.Layout().Config().payload_size +
                                 RingLayout::kFlagSize);
}

}  // namespace wave::channel
