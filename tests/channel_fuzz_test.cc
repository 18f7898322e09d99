/**
 * @file
 * Property/fuzz tests for the Floem-style queues: random interleavings
 * of producer batches, consumer polls, stalls, and (for the host
 * consumer) flush/prefetch operations are checked against a reference
 * FIFO model. Invariants: no loss, no duplication, no reordering, no
 * torn reads (payload always matches the sequence number it carries),
 * and flow control never admits more than `capacity` unconsumed
 * entries.
 *
 * Every scenario runs twice on the same seed. The checked run attaches
 * the coherence checker, the protocol state-machine verifier and the
 * happens-before race detector as oracles: random interleavings must
 * never produce a stale read, a seqnum violation or an unordered
 * conflicting access, no matter how the batches, stalls, and
 * flush/prefetch mixes land. The bare run attaches nothing. Both runs
 * must deliver the same message sequence with the same event-stream
 * fingerprint (Simulator::EventHash), which proves the checker hooks
 * only observe: attaching them changes no simulated behaviour.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <vector>

#include "channel/dma_queue.h"
#include "channel/mmio_queue.h"
#include "pcie/config.h"
#include "sim/random.h"
#include "sim/simulator.h"

#include "check/coherence.h"
#include "check/hb.h"
#include "check/protocol.h"

namespace wave::channel {
namespace {

using pcie::NicDram;
using pcie::PcieConfig;
using pcie::PteType;
using sim::Rng;
using sim::Simulator;
using sim::Task;

#define CO_ASSERT(expr)                                     \
    do {                                                    \
        if (!(expr)) {                                      \
            ADD_FAILURE() << "CO_ASSERT failed: " << #expr; \
            co_return;                                      \
        }                                                   \
    } while (0)

/** Payload: sequence number + a value derived from it (torn-read bait). */
Bytes
SeqMsg(std::uint64_t seq, std::size_t payload_size)
{
    Bytes b(payload_size);
    std::memcpy(b.data(), &seq, sizeof(seq));
    const std::uint64_t check = seq * 0x9E3779B97F4A7C15ull + 1;
    std::memcpy(b.data() + 8, &check, sizeof(check));
    return b;
}

/** Returns the sequence number; fails the test on a torn payload. */
std::uint64_t
CheckMsg(const Bytes& b)
{
    std::uint64_t seq = 0;
    std::uint64_t check = 0;
    std::memcpy(&seq, b.data(), sizeof(seq));
    std::memcpy(&check, b.data() + 8, sizeof(check));
    EXPECT_EQ(check, seq * 0x9E3779B97F4A7C15ull + 1)
        << "torn read: payload does not match its sequence number";
    return seq;
}

/** What one run delivered, and the fingerprint of its event stream. */
struct RunOutcome {
    std::vector<std::uint64_t> delivered;  ///< seqnums in delivery order
    std::uint64_t event_hash = 0;
};

/** The three checkers, as WaveRuntime attaches them to its fabric. */
struct Oracles {
    explicit Oracles(const Simulator& sim)
        : coherence(sim), protocol(sim), hb(sim)
    {
    }

    /** Fails the test on any report; @p recvs is the expected count. */
    void ExpectClean(std::size_t recvs) const
    {
        for (const auto& v : coherence.Violations()) {
            ADD_FAILURE() << v.Describe();
        }
        for (const auto& v : protocol.Violations()) {
            ADD_FAILURE() << v.Describe();
        }
        for (const auto& race : hb.Races()) {
            ADD_FAILURE() << race.Describe();
        }
        EXPECT_EQ(protocol.Stats().stream_recvs, recvs);
    }

    check::CoherenceChecker coherence;
    check::ProtocolChecker protocol;
    check::HbRaceDetector hb;
};

/** The checked and the bare run of one scenario must be identical. */
template <typename Scenario>
void
ExpectCheckersOnlyObserve(Scenario run, std::size_t total)
{
    const RunOutcome checked = run(/*checked=*/true);
    const RunOutcome bare = run(/*checked=*/false);
    EXPECT_EQ(checked.delivered.size(), total)
        << "messages lost or duplicated";
    EXPECT_EQ(checked.delivered, bare.delivered)
        << "attaching the checkers changed the delivered sequence";
    EXPECT_EQ(checked.event_hash, bare.event_hash)
        << "attaching the checkers changed the event stream";
}

RunOutcome
RunHostToNic(std::uint64_t seed, std::size_t capacity, bool checked)
{
    const std::size_t total = 400;

    Simulator sim;
    NicDram dram(sim, PcieConfig{}, 1 << 20);
    QueueConfig qc{.capacity = capacity,
                   .payload_size = 48,
                   .sync_interval = 4};
    MmioQueue queue(dram, 0, qc);
    HostProducer producer(queue, PteType::kWriteCombining,
                          PteType::kWriteThrough);
    NicConsumer consumer(queue, PteType::kWriteBack);

    std::optional<Oracles> oracles;
    if (checked) {
        oracles.emplace(sim);
        dram.AttachChecker(&oracles->coherence);
        producer.BindCheckers(&oracles->hb, &oracles->protocol,
                              oracles->hb.RegisterActor(
                                  "fuzz-host-producer"));
        consumer.BindCheckers(&oracles->hb, &oracles->protocol,
                              oracles->hb.RegisterActor(
                                  "fuzz-nic-consumer"));
    }

    bool producer_done = false;
    RunOutcome outcome;

    sim.Spawn([](Simulator& s, HostProducer& p, std::uint64_t sd,
                 bool& done) -> Task<> {
        Rng rng(sd);
        std::uint64_t next = 0;
        while (next < total) {
            // Random batch sizes, random pauses, retry on full.
            const std::size_t batch_size = 1 + rng.NextBounded(7);
            std::vector<Bytes> batch;
            for (std::size_t i = 0;
                 i < batch_size && next + i < total; ++i) {
                batch.push_back(SeqMsg(next + i, 48));
            }
            const std::size_t sent = co_await p.Send(batch);
            next += sent;
            co_await s.Delay(rng.NextBounded(3000) + 1);
        }
        done = true;
    }(sim, producer, seed, producer_done));

    sim.Spawn([](Simulator& s, NicConsumer& c, std::uint64_t sd,
                 std::vector<std::uint64_t>& rcv) -> Task<> {
        Rng rng(sd ^ 0xABCDEF);
        while (rcv.size() < total) {
            if (rng.NextBernoulli(0.2)) {
                // Occasional consumer stall exercises flow control.
                co_await s.Delay(rng.NextBounded(5000) + 100);
            }
            auto message = co_await c.Poll();
            if (!message) {
                co_await s.Delay(97);
                continue;
            }
            const std::uint64_t seq = CheckMsg(*message);
            CO_ASSERT(seq == rcv.size());
            rcv.push_back(seq);
        }
    }(sim, consumer, seed, outcome.delivered));

    sim.RunFor(1'000'000'000ull);  // plenty; ends when drained
    EXPECT_TRUE(producer_done);
    if (oracles) oracles->ExpectClean(total);
    outcome.event_hash = sim.EventHash();
    return outcome;
}

RunOutcome
RunNicToHost(std::uint64_t seed, std::size_t capacity, bool checked)
{
    const std::size_t total = 300;

    Simulator sim;
    NicDram dram(sim, PcieConfig{}, 1 << 20);
    QueueConfig qc{.capacity = capacity,
                   .payload_size = 48,
                   .sync_interval = 2};
    MmioQueue queue(dram, 0, qc);
    NicProducer producer(queue, PteType::kWriteBack);
    HostConsumer consumer(queue, PteType::kWriteThrough,
                          PteType::kWriteCombining);

    std::optional<Oracles> oracles;
    if (checked) {
        oracles.emplace(sim);
        dram.AttachChecker(&oracles->coherence);
        producer.BindCheckers(&oracles->hb, &oracles->protocol,
                              oracles->hb.RegisterActor(
                                  "fuzz-nic-producer"));
        consumer.BindCheckers(&oracles->hb, &oracles->protocol,
                              oracles->hb.RegisterActor(
                                  "fuzz-host-consumer"));
    }

    RunOutcome outcome;

    sim.Spawn([](Simulator& s, NicProducer& p, std::uint64_t sd) -> Task<> {
        Rng rng(sd);
        std::uint64_t next = 0;
        while (next < total) {
            if (co_await p.Send(SeqMsg(next, 48))) {
                ++next;
            } else {
                co_await s.Delay(500);
            }
            co_await s.Delay(rng.NextBounded(2000));
        }
    }(sim, producer, seed));

    sim.Spawn([](Simulator& s, HostConsumer& c, std::uint64_t sd,
                 std::vector<std::uint64_t>& rcv) -> Task<> {
        Rng rng(sd ^ 0x5555);
        while (rcv.size() < total) {
            // Mix of the host's three read strategies.
            const int strategy = static_cast<int>(rng.NextBounded(3));
            std::optional<Bytes> message;
            if (strategy == 0) {
                message = co_await c.Poll(/*flush_first=*/true);
            } else if (strategy == 1) {
                co_await c.PrefetchNext();
                co_await s.Delay(1000);  // overlap
                message = co_await c.Poll(/*flush_first=*/false);
            } else {
                // Unflushed poll: may legally see a stale empty slot,
                // but anything it accepts must still be correct.
                message = co_await c.Poll(/*flush_first=*/false);
            }
            if (!message) {
                co_await s.Delay(433);
                continue;
            }
            const std::uint64_t seq = CheckMsg(*message);
            CO_ASSERT(seq == rcv.size());
            rcv.push_back(seq);
        }
    }(sim, consumer, seed, outcome.delivered));

    sim.RunFor(2'000'000'000ull);
    if (oracles) oracles->ExpectClean(total);
    outcome.event_hash = sim.EventHash();
    return outcome;
}

class MmioFuzzTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MmioFuzzTest, HostToNicRandomInterleavings)
{
    const auto [seed, capacity] = GetParam();
    ExpectCheckersOnlyObserve(
        [&](bool checked) {
            return RunHostToNic(static_cast<std::uint64_t>(seed),
                                static_cast<std::size_t>(capacity),
                                checked);
        },
        400);
}

TEST_P(MmioFuzzTest, NicToHostWithRandomFlushPrefetchMix)
{
    const auto [seed, capacity] = GetParam();
    ExpectCheckersOnlyObserve(
        [&](bool checked) {
            return RunNicToHost(static_cast<std::uint64_t>(seed),
                                static_cast<std::size_t>(capacity),
                                checked);
        },
        300);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndCapacities, MmioFuzzTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(4, 16, 64)));

RunOutcome
RunDma(std::uint64_t seed, bool checked)
{
    const std::size_t total = 500;

    Simulator sim;
    pcie::DmaEngine dma(sim, PcieConfig{});
    DmaQueue queue(sim, dma, pcie::DmaInitiator::kNic,
                   QueueConfig{.capacity = 32,
                               .payload_size = 48,
                               .sync_interval = 4});

    std::optional<Oracles> oracles;
    if (checked) {
        oracles.emplace(sim);
        dma.AttachChecker(&oracles->coherence);
        queue.AttachProtocol(&oracles->protocol);
    }

    RunOutcome outcome;

    sim.Spawn([](Simulator& s, DmaQueue& q, std::uint64_t sd) -> Task<> {
        Rng rng(sd);
        std::uint64_t next = 0;
        while (next < total) {
            const std::size_t batch_size = 1 + rng.NextBounded(9);
            std::vector<Bytes> batch;
            for (std::size_t i = 0;
                 i < batch_size && next + i < total; ++i) {
                batch.push_back(SeqMsg(next + i, 48));
            }
            // Randomly sync or async (iPipe exercises both).
            next += co_await q.Send(batch, rng.NextBernoulli(0.5));
            co_await s.Delay(rng.NextBounded(4000) + 1);
        }
    }(sim, queue, seed));

    sim.Spawn([](Simulator& s, DmaQueue& q, std::uint64_t sd,
                 std::vector<std::uint64_t>& rcv) -> Task<> {
        Rng rng(sd ^ 0xF00D);
        while (rcv.size() < total) {
            auto message = co_await q.Poll();
            if (!message) {
                co_await s.Delay(rng.NextBounded(2000) + 100);
                continue;
            }
            const std::uint64_t seq = CheckMsg(*message);
            CO_ASSERT(seq == rcv.size());
            rcv.push_back(seq);
        }
    }(sim, queue, seed, outcome.delivered));

    sim.RunFor(2'000'000'000ull);
    if (oracles) oracles->ExpectClean(total);
    outcome.event_hash = sim.EventHash();
    return outcome;
}

class DmaFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(DmaFuzzTest, RandomBatchesSyncAndAsync)
{
    const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
    ExpectCheckersOnlyObserve(
        [&](bool checked) { return RunDma(seed, checked); }, 500);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DmaFuzzTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace wave::channel
