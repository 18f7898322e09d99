/**
 * @file
 * Coherent shared-memory queue — the on-host baseline transport.
 *
 * ghOSt, Snap, and the other userspace resource-management systems in
 * §2.3 communicate over cache-coherent shared memory. This queue models
 * that path: entries move through host DRAM with cross-core cache-miss
 * costs (tens of ns), not PCIe costs. The apples-to-apples experiments
 * in §7 compare system software running over this queue (on-host)
 * against the same software over Wave's PCIe queues (offloaded).
 */
// wave-domain: pcie
// wave-shared(host-memory message ring written by one shard and polled by the other; the Wave one-way host-to-NIC flow crosses here)
// wave-hot
#pragma once

#include <coroutine>
#include <cstdint>
#include <optional>
#include <vector>

#include "check/coherence.h"
#include "check/hb.h"
#include "check/protocol.h"
#include "sim/actor.h"
#include "sim/fifo_ring.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace wave {

/** Cross-core shared-memory access costs. */
struct ShmCosts {
    /** Producer: write one entry + its flag (stores into own L1/L2). */
    sim::DurationNs write_entry_ns = 30;

    /** Consumer: read one entry across the LLC (typically a C2C miss). */
    sim::DurationNs read_entry_ns = 45;

    /** Consumer: poll an empty flag (also a coherence miss, often). */
    sim::DurationNs empty_poll_ns = 25;
};

/** Bounded SPSC queue over coherent host shared memory. */
class ShmQueue {
  public:
    ShmQueue(sim::Simulator& sim, std::size_t capacity,
             ShmCosts costs = {})
        : sim_(sim), capacity_(capacity), costs_(costs), items_(capacity)
    {
    }

    /** Enqueues a batch; returns how many fit. */
    // wave-lifetime(caller-awaits)
    sim::Task<std::size_t>
    Send(const std::vector<std::vector<std::byte>>& messages)
    {
        std::size_t sent = 0;
        for (const auto& message : messages) {
            if (items_.Size() >= capacity_) break;
            co_await sim_.Delay(costs_.write_entry_ns);
            if (checker_ != nullptr) {
                checker_->OnShmAccess(message.size());
            }
            // Entries never alias (absolute index), so each gets
            // its own shadow line; the push is the release.
            if (hb_ != nullptr) {
                hb_->OnAccess(producer_actor_, this,
                              sent_ * check::HbRaceDetector::kLineSize,
                              check::HbRaceDetector::kLineSize,
                              /*is_write=*/true, "ShmQueue::Send");
                hb_->OnRelease(producer_actor_, this, sent_);
            }
            if (protocol_ != nullptr) {
                protocol_->OnStreamSend(this, sent_,
                                        check::Domain::kHost,
                                        "ShmQueue::Send");
            }
            items_.PushBack(message);
            ++sent_;
            ++sent;
        }
        co_return sent;
    }

    /**
     * Awaiter for Ready(): resumes with whether an entry is present. An
     * empty queue costs the empty-flag poll's delay; a non-empty one
     * resumes at once (Take() then pays the entry read). It builds no
     * coroutine frame.
     *
     * "At once" is await_suspend() returning false, not await_ready()
     * returning true: GCC 12 at -O2 miscompiled the agent's poll loops
     * when this awaiter skipped the suspension from await_ready(), and a
     * loop that stopped at its batch limit returned a vector with stale
     * bounds (TransportTest.BatchLimitsKeepEveryRecordIntact pins it).
     */
    class [[nodiscard]] ReadyPoll {
      public:
        bool await_ready() const noexcept { return false; }
        bool
        await_suspend(std::coroutine_handle<> h) const
        {
            if (ready_) return false;
            queue_.sim_.Schedule(queue_.costs_.empty_poll_ns,
                                 [h] { h.resume(); });
            return true;
        }
        bool await_resume() const noexcept { return ready_; }

      private:
        friend class ShmQueue;
        explicit ReadyPoll(ShmQueue& queue)
            : queue_(queue), ready_(!queue.items_.Empty())
        {
        }

        ShmQueue& queue_;
        bool ready_;
    };

    /**
     * The empty half of a poll; Poll() starts with it. A caller that
     * awaits it and then Take() pays for an empty poll without building
     * a frame. Bind the result to a local before testing it (see
     * channel::NicConsumer::Ready).
     */
    ReadyPoll Ready() { return ReadyPoll(*this); }

    /**
     * The entry half of a poll: reads and dequeues the entry the last
     * Ready() found into @p out. Poll() is Ready() followed, when it
     * resumes true, by Take().
     */
    // wave-lifetime(caller-awaits)
    sim::Task<>
    Take(std::vector<std::byte>& out)
    {
        WAVE_ASSERT(!items_.Empty(), "Take() on an empty ShmQueue");
        co_await sim_.Delay(costs_.read_entry_ns);
        out = items_.PopFront();
        if (checker_ != nullptr) {
            checker_->OnShmAccess(out.size());
        }
        if (hb_ != nullptr) {
            // Each entry is dequeued once: retire its sync var.
            hb_->OnConsume(consumer_actor_, this, received_);
            hb_->OnAccess(consumer_actor_, this,
                          received_ * check::HbRaceDetector::kLineSize,
                          check::HbRaceDetector::kLineSize,
                          /*is_write=*/false, "ShmQueue::Poll");
        }
        if (protocol_ != nullptr) {
            protocol_->OnStreamRecv(this, received_,
                                    check::Domain::kHost,
                                    "ShmQueue::Poll");
        }
        ++received_;
    }

    /** Dequeues the next entry if present. */
    sim::Task<std::optional<std::vector<std::byte>>>
    Poll()
    {
        const bool ready = co_await Ready();
        if (!ready) {
            co_return std::nullopt;
        }
        std::vector<std::byte> out;
        co_await Take(out);
        co_return out;
    }

    std::size_t Size() const { return items_.Size(); }

    /**
     * Attaches the wave::check checker. Coherent shared memory cannot
     * race across the PCIe clock domains, so traffic is only counted —
     * it shows up in CheckerStats::shm_accesses, confirming a workload
     * exercised the on-host path.
     */
    void AttachChecker(check::CoherenceChecker* checker)
    {
        checker_ = checker;
    }

    /**
     * Attaches the protocol/HB checkers. The queue is SPSC by design;
     * each side is bound to one actor. Callers with several producing
     * contexts serialized by a lock bind them as one actor (a
     * documented over-approximation, see docs/checker.md).
     */
    void
    BindCheckers(check::HbRaceDetector* hb,
                 check::ProtocolChecker* protocol,
                 sim::ActorId producer_actor, sim::ActorId consumer_actor)
    {
        hb_ = hb;
        protocol_ = protocol;
        producer_actor_ = producer_actor;
        consumer_actor_ = consumer_actor;
    }

    /** Entries enqueued / dequeued over the queue's lifetime. */
    std::uint64_t Enqueued() const { return sent_; }
    std::uint64_t Consumed() const { return received_; }

  private:
    sim::Simulator& sim_;
    std::size_t capacity_;
    ShmCosts costs_;
    sim::FifoRing<std::vector<std::byte>> items_;
    std::uint64_t sent_ = 0;      ///< absolute seqnum of next enqueue
    std::uint64_t received_ = 0;  ///< absolute seqnum of next dequeue
    check::CoherenceChecker* checker_ = nullptr;
    check::HbRaceDetector* hb_ = nullptr;
    check::ProtocolChecker* protocol_ = nullptr;
    sim::ActorId producer_actor_ = sim::kNoActor;
    sim::ActorId consumer_actor_ = sim::kNoActor;
};

}  // namespace wave
