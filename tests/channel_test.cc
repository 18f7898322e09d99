/**
 * @file
 * Unit tests for the Floem-style queues: generation-flag protocol,
 * wraparound, flow control, lazy head sync, WC batching on the send
 * path, WT caching + clflush on the receive path, and DMA queues in
 * sync and async modes.
 */
#include <gtest/gtest.h>

#include <cstring>

#include "channel/bytes.h"
#include "channel/dma_queue.h"
#include "channel/mmio_queue.h"
#include "pcie/config.h"
#include "sim/simulator.h"

namespace wave::channel {
namespace {

/** ASSERT_* returns from the function, which is illegal in a coroutine;
 * CO_ASSERT registers the failure and co_returns instead. */
#define CO_ASSERT(expr)                      \
    do {                                     \
        if (!(expr)) {                       \
            ADD_FAILURE() << "CO_ASSERT failed: " << #expr; \
            co_return;                       \
        }                                    \
    } while (0)


using pcie::DmaEngine;
using pcie::DmaInitiator;
using pcie::NicDram;
using pcie::PcieConfig;
using pcie::PteType;
using sim::Simulator;
using sim::Task;
using sim::DurationNs;
using sim::TimeNs;

Bytes
Msg(std::uint64_t v, std::size_t payload_size = 48)
{
    Bytes b(payload_size);
    std::memcpy(b.data(), &v, sizeof(v));
    return b;
}

std::uint64_t
MsgValue(const Bytes& b)
{
    std::uint64_t v = 0;
    std::memcpy(&v, b.data(), sizeof(v));
    return v;
}

std::vector<Bytes>
One(Bytes message)
{
    std::vector<Bytes> batch;
    batch.push_back(std::move(message));
    return batch;
}

struct HostToNicFixture {
    explicit HostToNicFixture(const QueueConfig& qc,
                              PteType write_type = PteType::kWriteCombining,
                              PteType nic_type = PteType::kWriteBack)
        : dram(sim, PcieConfig{}, 1 << 20),
          queue(dram, 0, qc),
          producer(queue, write_type, PteType::kWriteThrough),
          consumer(queue, nic_type)
    {
    }

    Simulator sim;
    NicDram dram;
    MmioQueue queue;
    HostProducer producer;
    NicConsumer consumer;
};

TEST(Layout, SlotsAreLineAlignedAndSized)
{
    RingLayout layout(QueueConfig{.capacity = 64, .payload_size = 48});
    EXPECT_EQ(layout.SlotSize(), 64u);  // 48 payload + 8 flag -> one line
    EXPECT_EQ(layout.PayloadOffset(1), 64u);
    EXPECT_EQ(layout.FlagOffset(0), 48u);
    EXPECT_EQ(layout.BytesNeeded(), 64u * 64 + 64);
}

TEST(Layout, GenerationDistinguishesLaps)
{
    RingLayout layout(QueueConfig{.capacity = 8, .payload_size = 8});
    EXPECT_EQ(layout.GenerationOf(0), 1u);
    EXPECT_EQ(layout.GenerationOf(7), 1u);
    EXPECT_EQ(layout.GenerationOf(8), 2u);
    EXPECT_EQ(layout.SlotIndex(8), 0u);
    EXPECT_EQ(layout.SlotIndex(13), 5u);
}

TEST(Layout, GenerationIsTheLapNumberAcrossLapBoundaries)
{
    // The shift must agree with index / capacity + 1 at every lap edge,
    // including a one-slot ring and indices past 2^32.
    for (const std::size_t capacity : {1u, 2u, 8u, 64u, 256u}) {
        RingLayout layout(
            QueueConfig{.capacity = capacity, .payload_size = 8});
        for (std::uint64_t lap : {0ull, 1ull, 2ull, 7ull, 1000ull,
                                  (1ull << 33) + 5}) {
            const std::uint64_t first = lap * capacity;
            EXPECT_EQ(layout.GenerationOf(first), lap + 1)
                << "capacity " << capacity << " lap " << lap;
            EXPECT_EQ(layout.GenerationOf(first + capacity - 1), lap + 1)
                << "capacity " << capacity << " lap " << lap;
            EXPECT_EQ(layout.GenerationOf(first + capacity), lap + 2)
                << "capacity " << capacity << " lap " << lap;
        }
    }
}

TEST(MmioQueueH2N, DeliversMessagesInOrder)
{
    HostToNicFixture f(QueueConfig{.capacity = 16, .payload_size = 48});

    f.sim.Spawn([](HostToNicFixture& fx) -> Task<> {
        std::vector<Bytes> batch;
        for (std::uint64_t i = 0; i < 5; ++i) batch.push_back(Msg(i));
        const std::size_t sent = co_await fx.producer.Send(batch);
        EXPECT_EQ(sent, 5u);

        // Wait for posted writes to land, then poll.
        co_await fx.sim.Delay(1000);
        for (std::uint64_t i = 0; i < 5; ++i) {
            auto message = co_await fx.consumer.Poll();
            CO_ASSERT(message.has_value());
            EXPECT_EQ(MsgValue(*message), i);
        }
        EXPECT_FALSE((co_await fx.consumer.Poll()).has_value());
    }(f));
    f.sim.Run();
}

TEST(MmioQueueH2N, ConsumerNeverSeesFlagBeforePayload)
{
    HostToNicFixture f(QueueConfig{.capacity = 16, .payload_size = 48});

    // Concurrent producer and polling consumer; every message the
    // consumer accepts must carry the right payload even while posted
    // writes are still landing.
    auto producer_proc = [](HostToNicFixture& fx) -> Task<> {
        for (std::uint64_t i = 0; i < 50; ++i) {
            co_await fx.producer.Send(One(Msg(i + 1)));
            co_await fx.sim.Delay(37);
        }
    };
    auto consumer_proc = [](HostToNicFixture& fx, int& received) -> Task<> {
        std::uint64_t expected = 1;
        while (expected <= 50) {
            auto message = co_await fx.consumer.Poll();
            if (message) {
                EXPECT_EQ(MsgValue(*message), expected)
                    << "payload/flag ordering violated";
                ++expected;
                ++received;
            } else {
                co_await fx.sim.Delay(13);
            }
        }
    };
    int received = 0;
    f.sim.Spawn(producer_proc(f));
    f.sim.Spawn(consumer_proc(f, received));
    f.sim.Run();
    EXPECT_EQ(received, 50);
}

TEST(MmioQueueH2N, RingFillsWithoutConsumerProgress)
{
    HostToNicFixture f(QueueConfig{.capacity = 8, .payload_size = 48});

    f.sim.Spawn([](HostToNicFixture& fx) -> Task<> {
        std::vector<Bytes> batch;
        for (std::uint64_t i = 0; i < 12; ++i) batch.push_back(Msg(i));
        const std::size_t sent = co_await fx.producer.Send(batch);
        EXPECT_EQ(sent, 8u) << "only capacity slots fit";
    }(f));
    f.sim.Run();
}

TEST(MmioQueueH2N, LazyHeadSyncUnblocksProducerAfterConsumption)
{
    HostToNicFixture f(QueueConfig{
        .capacity = 8, .payload_size = 48, .sync_interval = 4});

    f.sim.Spawn([](HostToNicFixture& fx) -> Task<> {
        std::vector<Bytes> batch;
        for (std::uint64_t i = 0; i < 8; ++i) batch.push_back(Msg(i));
        EXPECT_EQ(co_await fx.producer.Send(batch), 8u);
        co_await fx.sim.Delay(1000);

        // Consume 6; the counter syncs at 4 (sync_interval).
        for (int i = 0; i < 6; ++i) {
            CO_ASSERT((co_await fx.consumer.Poll()).has_value());
        }
        // Producer can now reuse the advertised slots.
        std::vector<Bytes> more;
        for (std::uint64_t i = 8; i < 12; ++i) more.push_back(Msg(i));
        EXPECT_EQ(co_await fx.producer.Send(more), 4u);
    }(f));
    f.sim.Run();
}

TEST(MmioQueueH2N, WrapsAcrossManyLaps)
{
    HostToNicFixture f(QueueConfig{
        .capacity = 4, .payload_size = 48, .sync_interval = 1});

    f.sim.Spawn([](HostToNicFixture& fx) -> Task<> {
        for (std::uint64_t i = 0; i < 100; ++i) {
            std::size_t sent = 0;
            while (sent == 0) {
                sent = co_await fx.producer.Send(One(Msg(i)));
                if (sent == 0) co_await fx.sim.Delay(100);
            }
            co_await fx.sim.Delay(500);
            auto message = co_await fx.consumer.Poll();
            CO_ASSERT(message.has_value());
            EXPECT_EQ(MsgValue(*message), i);
        }
    }(f));
    f.sim.Run();
}

TEST(MmioQueueH2N, WcBatchingIsCheaperThanUncachedSends)
{
    QueueConfig qc{.capacity = 64, .payload_size = 48};
    DurationNs wc_cost{};
    DurationNs uc_cost{};

    {
        HostToNicFixture f(qc, PteType::kWriteCombining);
        f.sim.Spawn([](HostToNicFixture& fx, DurationNs& cost) -> Task<> {
            std::vector<Bytes> batch;
            for (std::uint64_t i = 0; i < 8; ++i) batch.push_back(Msg(i));
            const TimeNs t0 = fx.sim.Now();
            co_await fx.producer.Send(batch);
            cost = fx.sim.Now() - t0;
        }(f, wc_cost));
        f.sim.Run();
    }
    {
        HostToNicFixture f(qc, PteType::kUncacheable);
        f.sim.Spawn([](HostToNicFixture& fx, DurationNs& cost) -> Task<> {
            std::vector<Bytes> batch;
            for (std::uint64_t i = 0; i < 8; ++i) batch.push_back(Msg(i));
            const TimeNs t0 = fx.sim.Now();
            co_await fx.producer.Send(batch);
            cost = fx.sim.Now() - t0;
        }(f, uc_cost));
        f.sim.Run();
    }
    EXPECT_LT(wc_cost * 3, uc_cost)
        << "write-combining should be several times cheaper";
}

struct NicToHostFixture {
    explicit NicToHostFixture(const QueueConfig& qc,
                              PteType nic_type = PteType::kWriteBack,
                              PteType host_read = PteType::kWriteThrough)
        : dram(sim, PcieConfig{}, 1 << 20),
          queue(dram, 0, qc),
          producer(queue, nic_type),
          consumer(queue, host_read, PteType::kWriteCombining)
    {
    }

    Simulator sim;
    NicDram dram;
    MmioQueue queue;
    NicProducer producer;
    HostConsumer consumer;
};

TEST(MmioQueueN2H, DeliversDecisionsWithFlushProtocol)
{
    NicToHostFixture f(QueueConfig{.capacity = 16, .payload_size = 48});

    f.sim.Spawn([](NicToHostFixture& fx) -> Task<> {
        EXPECT_TRUE(co_await fx.producer.Send(Msg(11)));
        EXPECT_TRUE(co_await fx.producer.Send(Msg(22)));

        auto first = co_await fx.consumer.Poll(/*flush_first=*/true);
        CO_ASSERT(first.has_value());
        EXPECT_EQ(MsgValue(*first), 11u);

        auto second = co_await fx.consumer.Poll(true);
        CO_ASSERT(second.has_value());
        EXPECT_EQ(MsgValue(*second), 22u);

        EXPECT_FALSE((co_await fx.consumer.Poll(true)).has_value());
    }(f));
    f.sim.Run();
}

TEST(MmioQueueN2H, StaleCacheHidesNewDecisionWithoutFlush)
{
    NicToHostFixture f(QueueConfig{.capacity = 16, .payload_size = 48});

    f.sim.Spawn([](NicToHostFixture& fx) -> Task<> {
        // Host polls the empty queue: caches the (invalid) slot line.
        EXPECT_FALSE((co_await fx.consumer.Poll(false)).has_value());

        // NIC publishes a decision.
        EXPECT_TRUE(co_await fx.producer.Send(Msg(33)));

        // Host polls again WITHOUT flushing: stale line, still empty.
        EXPECT_FALSE((co_await fx.consumer.Poll(false)).has_value());

        // With the software-coherence flush the decision appears.
        auto decision = co_await fx.consumer.Poll(true);
        CO_ASSERT(decision.has_value());
        EXPECT_EQ(MsgValue(*decision), 33u);
    }(f));
    f.sim.Run();
}

TEST(MmioQueueN2H, PrefetchMakesDecisionReadNearlyFree)
{
    NicToHostFixture f(QueueConfig{.capacity = 16, .payload_size = 48});
    PcieConfig cfg;

    f.sim.Spawn([](NicToHostFixture& fx, const PcieConfig& c) -> Task<> {
        EXPECT_TRUE(co_await fx.producer.Send(Msg(44)));

        // Prefetch the prestaged decision, overlap ~1 us of other work,
        // then read: should be a cache hit.
        co_await fx.consumer.PrefetchNext();
        co_await fx.sim.Delay(1000);
        const TimeNs t0 = fx.sim.Now();
        auto decision = co_await fx.consumer.Poll(false);
        const DurationNs cost = fx.sim.Now() - t0;
        CO_ASSERT(decision.has_value());
        EXPECT_EQ(MsgValue(*decision), 44u);
        EXPECT_LE(cost, c.cache_hit_ns);
    }(f, cfg));
    f.sim.Run();
}

TEST(MmioQueueN2H, ProducerStopsWhenHostLags)
{
    NicToHostFixture f(QueueConfig{
        .capacity = 4, .payload_size = 48, .sync_interval = 1});

    f.sim.Spawn([](NicToHostFixture& fx) -> Task<> {
        for (std::uint64_t i = 0; i < 4; ++i) {
            EXPECT_TRUE(co_await fx.producer.Send(Msg(i)));
        }
        EXPECT_FALSE(co_await fx.producer.Send(Msg(99)));

        // Host consumes one and advertises (sync_interval = 1)...
        CO_ASSERT((co_await fx.consumer.Poll(true)).has_value());
        co_await fx.sim.Delay(1000);  // counter posted write lands

        // ...which frees one slot.
        EXPECT_TRUE(co_await fx.producer.Send(Msg(4)));
        EXPECT_FALSE(co_await fx.producer.Send(Msg(99)));
    }(f));
    f.sim.Run();
}

TEST(Bytes, PodRoundTrip)
{
    struct Message {
        std::uint32_t kind;
        std::uint64_t value;
    };
    const Message in{7, 0xABCDEF};
    const Bytes wire = ToBytes(in, 48);
    EXPECT_EQ(wire.size(), 48u);
    const auto out = FromBytes<Message>(wire);
    EXPECT_EQ(out.kind, 7u);
    EXPECT_EQ(out.value, 0xABCDEFull);
}

struct DmaFixture {
    explicit DmaFixture(const QueueConfig& qc, DmaInitiator initiator)
        : dma(sim, PcieConfig{}), queue(sim, dma, initiator, qc)
    {
    }

    Simulator sim;
    DmaEngine dma;
    DmaQueue queue;
};

TEST(DmaQueue, SyncSendDeliversBatch)
{
    DmaFixture f(QueueConfig{.capacity = 64, .payload_size = 48},
                 DmaInitiator::kNic);

    f.sim.Spawn([](DmaFixture& fx) -> Task<> {
        std::vector<Bytes> batch;
        for (std::uint64_t i = 0; i < 10; ++i) batch.push_back(Msg(i));
        EXPECT_EQ(co_await fx.queue.Send(batch, /*sync=*/true), 10u);

        // Sync mode: messages are consumable immediately on return.
        auto out = co_await fx.queue.PollBatch(100);
        CO_ASSERT(out.size() == 10u);
        for (std::uint64_t i = 0; i < 10; ++i) {
            EXPECT_EQ(MsgValue(out[i]), i);
        }
    }(f));
    f.sim.Run();
}

TEST(DmaQueue, AsyncSendReturnsBeforeDataLands)
{
    DmaFixture f(QueueConfig{.capacity = 64, .payload_size = 48},
                 DmaInitiator::kNic);
    PcieConfig cfg;

    f.sim.Spawn([](DmaFixture& fx, const PcieConfig& c) -> Task<> {
        const TimeNs t0 = fx.sim.Now();
        co_await fx.queue.Send(One(Msg(5)), /*sync=*/false);
        const DurationNs kick_cost = fx.sim.Now() - t0;
        EXPECT_LT(kick_cost, c.dma_setup_ns)
            << "async send should return after the doorbell";

        // Not yet visible...
        EXPECT_FALSE((co_await fx.queue.Poll()).has_value());
        // ...but lands after the transfer time.
        co_await fx.sim.Delay(c.dma_setup_ns + 1000);
        auto message = co_await fx.queue.Poll();
        CO_ASSERT(message.has_value());
        EXPECT_EQ(MsgValue(*message), 5u);
    }(f, cfg));
    f.sim.Run();
}

TEST(DmaQueue, LargeBatchAmortizesSetup)
{
    // Per-message cost of a 64-message batch must be far below the
    // per-message cost of 64 single-message sends (Floem/iPipe insight).
    QueueConfig qc{.capacity = 256, .payload_size = 48,
                   .sync_interval = 64};
    DurationNs batched{};
    DurationNs singles{};
    {
        DmaFixture f(qc, DmaInitiator::kNic);
        f.sim.Spawn([](DmaFixture& fx, DurationNs& cost) -> Task<> {
            std::vector<Bytes> batch;
            for (std::uint64_t i = 0; i < 64; ++i) batch.push_back(Msg(i));
            const TimeNs t0 = fx.sim.Now();
            co_await fx.queue.Send(batch, true);
            cost = fx.sim.Now() - t0;
        }(f, batched));
        f.sim.Run();
    }
    {
        DmaFixture f(qc, DmaInitiator::kNic);
        f.sim.Spawn([](DmaFixture& fx, DurationNs& cost) -> Task<> {
            const TimeNs t0 = fx.sim.Now();
            for (std::uint64_t i = 0; i < 64; ++i) {
                co_await fx.queue.Send(One(Msg(i)), true);
            }
            cost = fx.sim.Now() - t0;
        }(f, singles));
        f.sim.Run();
    }
    EXPECT_LT(batched * 5, singles);
}

TEST(DmaQueue, FlowControlAcrossWrap)
{
    DmaFixture f(QueueConfig{.capacity = 8, .payload_size = 48,
                             .sync_interval = 2},
                 DmaInitiator::kNic);

    f.sim.Spawn([](DmaFixture& fx) -> Task<> {
        std::uint64_t next_send = 0;
        std::uint64_t next_recv = 0;
        for (int round = 0; round < 20; ++round) {
            std::vector<Bytes> batch;
            for (int i = 0; i < 6; ++i) batch.push_back(Msg(next_send + i));
            const std::size_t sent = co_await fx.queue.Send(batch, true);
            next_send += sent;
            auto got = co_await fx.queue.PollBatch(100);
            for (const auto& message : got) {
                EXPECT_EQ(MsgValue(message), next_recv);
                ++next_recv;
            }
            co_await fx.sim.Delay(5000);  // let counter DMA land
        }
        EXPECT_EQ(next_recv, next_send);
        EXPECT_GT(next_recv, 8u * 8) << "must have wrapped many times";
    }(f));
    f.sim.Run();
}

}  // namespace
}  // namespace wave::channel
