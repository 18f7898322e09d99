/**
 * @file
 * The virtual-time happens-before race detector (check/hb.h).
 *
 * Unit-level properties of the vector-clock engine first: program order
 * and release/acquire chains suppress reports, unsynchronized conflicts
 * are reported with tie-break vs virtual-time classification, and
 * AllowUnordered() annotations are honoured. Then seeded races through
 * the real MMIO queue endpoints: two producers driving one ring (an
 * aliasing bug no protocol edge orders) are caught with both access
 * sites attributed, while the correct single-producer flow — including
 * ring wraparound, where slot reuse is ordered only by the lazy
 * consumed-counter handshake — stays race-free.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "channel/mmio_queue.h"
#include "check/hb.h"
#include "check/protocol.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "wave/runtime.h"
#include "wave/shm_queue.h"

namespace wave {
namespace {

using namespace sim::time_literals;
using check::HbRaceDetector;
using check::RaceKind;

/** Runs a coroutine to completion on @p sim. */
template <typename MakeTask>
void
RunToCompletion(sim::Simulator& sim, MakeTask make_task)
{
    sim.Spawn(make_task());
    sim.Run();
}

// --- Vector-clock engine ---------------------------------------------

TEST(HbRaceDetector, ProgramOrderIsNotARace)
{
    sim::Simulator sim;
    HbRaceDetector hb(sim);
    const sim::ActorId actor = hb.RegisterActor("solo");
    int region = 0;

    hb.OnAccess(actor, &region, 0, 8, /*is_write=*/true, "first");
    hb.OnAccess(actor, &region, 0, 8, /*is_write=*/true, "second");
    hb.OnAccess(actor, &region, 0, 8, /*is_write=*/false, "third");

    EXPECT_TRUE(hb.Races().empty());
    EXPECT_EQ(hb.Stats().writes, 2u);
    EXPECT_EQ(hb.Stats().reads, 1u);
}

TEST(HbRaceDetector, UnsynchronizedWritesAtSameTimeAreTieBreakRaces)
{
    sim::Simulator sim;
    HbRaceDetector hb(sim);
    const sim::ActorId a = hb.RegisterActor("a");
    const sim::ActorId b = hb.RegisterActor("b");
    int region = 0;

    // Same timestamp, no happens-before edge: whichever ran first did
    // so purely by event-queue tie-break.
    hb.OnAccess(a, &region, 0, 8, true, "a-write");
    hb.OnAccess(b, &region, 0, 8, true, "b-write");

    ASSERT_EQ(hb.Races().size(), 1u);
    const auto& race = hb.Races().front();
    EXPECT_EQ(race.kind, RaceKind::kTieBreak);
    EXPECT_STREQ(race.first.label, "a-write");
    EXPECT_STREQ(race.second.label, "b-write");
}

TEST(HbRaceDetector, UnsynchronizedWritesAcrossTimeAreVirtualTimeRaces)
{
    sim::Simulator sim;
    HbRaceDetector hb(sim);
    const sim::ActorId a = hb.RegisterActor("a");
    const sim::ActorId b = hb.RegisterActor("b");
    int region = 0;

    RunToCompletion(sim, [&]() -> sim::Task<> {
        hb.OnAccess(a, &region, 0, 8, true, "a-write");
        co_await sim.Delay(100);
        // 100 ns later and still no protocol edge: the order is this
        // run's timing luck, not a guarantee.
        hb.OnAccess(b, &region, 0, 8, true, "b-write");
    });

    ASSERT_EQ(hb.Races().size(), 1u);
    EXPECT_EQ(hb.Races().front().kind, RaceKind::kVirtualTime);
}

TEST(HbRaceDetector, ReleaseAcquireChainOrdersConflictingAccesses)
{
    sim::Simulator sim;
    HbRaceDetector hb(sim);
    const sim::ActorId producer = hb.RegisterActor("producer");
    const sim::ActorId consumer = hb.RegisterActor("consumer");
    int region = 0;
    int flag = 0;

    RunToCompletion(sim, [&]() -> sim::Task<> {
        hb.OnAccess(producer, &region, 0, 8, true, "publish");
        hb.OnRelease(producer, &flag, 0);
        co_await sim.Delay(100);
        hb.OnAcquire(consumer, &flag, 0);
        hb.OnAccess(consumer, &region, 0, 8, false, "consume");
        // Even a consumer *write* (e.g. in-place ack) is ordered.
        hb.OnAccess(consumer, &region, 0, 8, true, "ack");
    });

    EXPECT_TRUE(hb.Races().empty());
    EXPECT_EQ(hb.Stats().releases, 1u);
    EXPECT_EQ(hb.Stats().acquires, 1u);
}

TEST(HbRaceDetector, AcquireWithoutMatchingReleaseDoesNotOrder)
{
    sim::Simulator sim;
    HbRaceDetector hb(sim);
    const sim::ActorId a = hb.RegisterActor("a");
    const sim::ActorId b = hb.RegisterActor("b");
    int region = 0;
    int flag = 0;

    RunToCompletion(sim, [&]() -> sim::Task<> {
        hb.OnAccess(a, &region, 0, 8, true, "a-write");
        hb.OnRelease(a, &flag, /*tag=*/0);
        co_await sim.Delay(100);
        // The consumer acquires a *different* sync var (wrong slot tag):
        // no edge, so the conflict stays racy.
        hb.OnAcquire(b, &flag, /*tag=*/1);
        hb.OnAccess(b, &region, 0, 8, true, "b-write");
    });

    ASSERT_EQ(hb.Races().size(), 1u);
}

TEST(HbRaceDetector, ConcurrentReadsDoNotRaceButReadWriteDoes)
{
    sim::Simulator sim;
    HbRaceDetector hb(sim);
    const sim::ActorId a = hb.RegisterActor("a");
    const sim::ActorId b = hb.RegisterActor("b");
    const sim::ActorId c = hb.RegisterActor("c");
    int region = 0;

    hb.OnAccess(a, &region, 0, 8, false, "a-read");
    hb.OnAccess(b, &region, 0, 8, false, "b-read");
    EXPECT_TRUE(hb.Races().empty());

    hb.OnAccess(c, &region, 0, 8, true, "c-write");
    EXPECT_FALSE(hb.Races().empty());
}

TEST(HbRaceDetector, DistinctLinesNeverConflict)
{
    sim::Simulator sim;
    HbRaceDetector hb(sim);
    const sim::ActorId a = hb.RegisterActor("a");
    const sim::ActorId b = hb.RegisterActor("b");
    int region = 0;

    hb.OnAccess(a, &region, 0, 8, true, "line-0");
    hb.OnAccess(b, &region, HbRaceDetector::kLineSize, 8, true, "line-1");

    // The same line index in another region is another line.
    int other = 0;
    hb.OnAccess(b, &other, 0, 8, true, "other-line-0");
    EXPECT_TRUE(hb.Races().empty());

    // An AllowUnordered annotation covers its own region only.
    hb.AllowUnordered(&region, 2 * HbRaceDetector::kLineSize, 8);
    hb.OnAccess(a, &other, 2 * HbRaceDetector::kLineSize, 8, true,
                "other-a");
    hb.OnAccess(b, &other, 2 * HbRaceDetector::kLineSize, 8, true,
                "other-b");
    ASSERT_EQ(hb.Races().size(), 1u);
    EXPECT_STREQ(hb.Races().front().second.label, "other-b");
}

TEST(HbRaceDetector, AccessesAfterClearStartClean)
{
    sim::Simulator sim;
    HbRaceDetector hb(sim);
    const sim::ActorId a = hb.RegisterActor("a");
    const sim::ActorId b = hb.RegisterActor("b");
    int region = 0;
    int fresh = 0;

    hb.OnAccess(a, &region, 0, 8, true, "a-write");
    hb.OnAccess(b, &region, 0, 8, true, "b-write");
    ASSERT_EQ(hb.Races().size(), 1u);

    hb.Clear();
    EXPECT_TRUE(hb.Races().empty());
    // The region looked up last before Clear() starts untouched, as
    // does a fresh one; actors persist.
    hb.OnAccess(b, &region, 0, 8, true, "b-write-again");
    hb.OnAccess(a, &fresh, 0, 8, false, "a-fresh-read");
    EXPECT_TRUE(hb.Races().empty());
    hb.OnAccess(b, &fresh, 0, 8, true, "b-fresh");
    ASSERT_EQ(hb.Races().size(), 1u);
    EXPECT_STREQ(hb.Races().front().first.label, "a-fresh-read");
}

TEST(HbRaceDetector, SecondAcquireOfAConsumedSyncVarAddsNoEdge)
{
    sim::Simulator sim;
    HbRaceDetector hb(sim);
    const sim::ActorId producer = hb.RegisterActor("producer");
    const sim::ActorId consumer = hb.RegisterActor("consumer");
    const sim::ActorId late = hb.RegisterActor("late-reader");
    int slot = 0;

    hb.OnAccess(producer, &slot, 0, 8, true, "publish");
    hb.OnRelease(producer, &slot, /*tag=*/0);
    EXPECT_EQ(hb.LiveSyncVars(), 1u);
    hb.OnConsume(consumer, &slot, 0);
    hb.OnAccess(consumer, &slot, 0, 8, false, "consume");
    EXPECT_TRUE(hb.Races().empty());
    EXPECT_EQ(hb.LiveSyncVars(), 0u);

    // The slot's sync var is retired, so a second acquire joins nothing
    // and the late read stays unordered with the producer's write.
    hb.OnAcquire(late, &slot, 0);
    hb.OnAccess(late, &slot, 0, 8, false, "late-read");
    ASSERT_EQ(hb.Races().size(), 1u);
    EXPECT_STREQ(hb.Races().front().first.label, "publish");
    EXPECT_STREQ(hb.Races().front().second.label, "late-read");
    EXPECT_EQ(hb.Stats().acquires, 2u);
}

TEST(HbRaceDetector, ReusedSyncVarStorageStartsFromAnEmptyClock)
{
    sim::Simulator sim;
    HbRaceDetector hb(sim);
    const sim::ActorId a = hb.RegisterActor("a");
    const sim::ActorId b = hb.RegisterActor("b");
    const sim::ActorId c = hb.RegisterActor("c");
    const sim::ActorId d = hb.RegisterActor("d");
    int region = 0;
    int flag = 0;

    // B retires a sync var carrying A's clock; its storage is reused
    // for C's release, which must not hand A's history on to D.
    hb.OnAccess(a, &region, 0, 8, true, "a-write");
    hb.OnRelease(a, &flag, 0);
    hb.OnConsume(b, &flag, 0);
    hb.OnRelease(c, &flag, 1);
    hb.OnConsume(d, &flag, 1);
    hb.OnAccess(d, &region, 0, 8, true, "d-write");

    ASSERT_EQ(hb.Races().size(), 1u);
    EXPECT_STREQ(hb.Races().front().first.label, "a-write");
    EXPECT_STREQ(hb.Races().front().second.label, "d-write");
}

TEST(HbRaceDetector, AllowUnorderedSuppressesTheReport)
{
    sim::Simulator sim;
    HbRaceDetector hb(sim);
    const sim::ActorId a = hb.RegisterActor("a");
    const sim::ActorId b = hb.RegisterActor("b");
    int region = 0;

    // A diagnostic snapshot line: readers tolerate any interleaving.
    hb.AllowUnordered(&region, 0, 8);
    hb.OnAccess(a, &region, 0, 8, true, "a-write");
    hb.OnAccess(b, &region, 0, 8, true, "b-write");

    EXPECT_TRUE(hb.Races().empty());
    EXPECT_GT(hb.Stats().allowed_unordered, 0u);
}

TEST(HbRaceDetector, FailFastPanicsOnFirstRace)
{
    sim::Simulator sim;
    HbRaceDetector hb(sim);
    hb.SetFailFast(true);
    const sim::ActorId a = hb.RegisterActor("a");
    const sim::ActorId b = hb.RegisterActor("b");
    int region = 0;

    hb.OnAccess(a, &region, 0, 8, true, "a-write");
    EXPECT_DEATH(hb.OnAccess(b, &region, 0, 8, true, "b-write"),
                 "virtual-time race");
}

// --- Seeded races through the real queue endpoints -------------------

struct QueueWorld {
    sim::Simulator sim;
    machine::Machine machine{sim};
    WaveRuntime runtime{sim, machine, pcie::PcieConfig{},
                        api::OptimizationConfig::Full()};
    HostToNicChannel chan;

    explicit QueueWorld(std::size_t capacity = 64)
    {
        channel::QueueConfig qc;
        qc.capacity = capacity;
        qc.payload_size = 32;
        qc.sync_interval = 2;
        chan = runtime.CreateHostToNicQueue(qc);
    }

    channel::Bytes
    Msg() const
    {
        return channel::Bytes(32);
    }
};

TEST(HbRaceDetector, TwoProducersSharingOneRingIsAVirtualTimeRace)
{
    QueueWorld w;
    // SEEDED BUG: a second producer endpoint aliases the same ring
    // storage (say, a restarted sender whose predecessor still holds
    // the queue). Each keeps its own head index, so both write absolute
    // slot 0 — and no flag/counter handshake orders producer against
    // producer.
    channel::HostProducer rogue(w.chan.host->Queue(),
                                pcie::PteType::kUncacheable,
                                pcie::PteType::kUncacheable);
    rogue.BindCheckers(w.runtime.Hb(), w.runtime.Protocol(),
                       w.runtime.Hb()->RegisterActor("rogue-producer"));

    RunToCompletion(w.sim, [&]() -> sim::Task<> {
        const std::vector<channel::Bytes> batch{w.Msg()};
        co_await w.chan.host->Send(batch);
        co_await w.sim.Delay(1_us);
        co_await rogue.Send(batch);
    });

    ASSERT_FALSE(w.runtime.Hb()->Races().empty());
    const auto& race = w.runtime.Hb()->Races().front();
    EXPECT_EQ(race.kind, RaceKind::kVirtualTime);
    EXPECT_TRUE(race.first.is_write);
    EXPECT_TRUE(race.second.is_write);
    EXPECT_STREQ(race.second.actor, "rogue-producer");
}

TEST(HbRaceDetector, SingleProducerConsumerFlowIsRaceFreeAcrossLaps)
{
    QueueWorld w(/*capacity=*/4);

    RunToCompletion(w.sim, [&]() -> sim::Task<> {
        // 3 laps of a 4-slot ring: every slot is reused, so the only
        // thing ordering a new write against the old read is the lazy
        // consumed-counter release/acquire chain.
        const std::vector<channel::Bytes> batch{w.Msg()};
        for (int i = 0; i < 12; ++i) {
            while ((co_await w.chan.host->Send(batch)) == 0) {
                co_await w.sim.Delay(100);
            }
            std::optional<channel::Bytes> got;
            while (!got.has_value()) {
                got = co_await w.chan.nic->Poll();
            }
        }
    });

    for (const auto& race : w.runtime.Hb()->Races()) {
        ADD_FAILURE() << race.Describe();
    }
    EXPECT_EQ(w.runtime.Hb()->Stats().writes, 12u);
    EXPECT_GT(w.runtime.Hb()->Stats().acquires, 0u);
    EXPECT_TRUE(w.runtime.Protocol()->Violations().empty());
}

TEST(HbRaceDetector, MmioSlotClocksRetireOnConsume)
{
    constexpr std::size_t kCapacity = 4;
    QueueWorld w(kCapacity);
    HbRaceDetector& hb = *w.runtime.Hb();
    std::size_t max_live = 0;
    std::size_t received = 0;

    RunToCompletion(w.sim, [&]() -> sim::Task<> {
        // 10 laps, each filling the ring before draining it, so every
        // slot is in flight at once.
        const std::vector<channel::Bytes> batch{w.Msg()};
        for (int lap = 0; lap < 10; ++lap) {
            while ((co_await w.chan.host->Send(batch)) == 1) {
                max_live = std::max(max_live, hb.LiveSyncVars());
            }
            co_await w.sim.Delay(1_us);  // let the posted stores land
            while ((co_await w.chan.nic->Poll()).has_value()) {
                ++received;
            }
        }
    });

    for (const auto& race : hb.Races()) {
        ADD_FAILURE() << race.Describe();
    }
    EXPECT_GE(received, 10 * kCapacity);
    // In-flight slots plus the consumed-counter sync var; without
    // retirement this would be one per message ever sent.
    EXPECT_LE(max_live, kCapacity + 1);
    EXPECT_LE(hb.LiveSyncVars(), 1u);
}

TEST(HbRaceDetector, ShmSlotClocksRetireOnConsume)
{
    constexpr std::size_t kCapacity = 4;
    sim::Simulator sim;
    HbRaceDetector hb(sim);
    ShmQueue queue(sim, kCapacity);
    queue.BindCheckers(&hb, nullptr, hb.RegisterActor("shm-producer"),
                       hb.RegisterActor("shm-consumer"));
    std::size_t max_live = 0;

    RunToCompletion(sim, [&]() -> sim::Task<> {
        const std::vector<std::vector<std::byte>> batch(
            kCapacity, std::vector<std::byte>(8));
        for (int lap = 0; lap < 10; ++lap) {
            co_await queue.Send(batch);
            max_live = std::max(max_live, hb.LiveSyncVars());
            while ((co_await queue.Poll()).has_value()) {
            }
        }
    });

    for (const auto& race : hb.Races()) {
        ADD_FAILURE() << race.Describe();
    }
    EXPECT_EQ(queue.Consumed(), 10 * kCapacity);
    EXPECT_EQ(max_live, kCapacity);
    EXPECT_EQ(hb.LiveSyncVars(), 0u);
}

}  // namespace
}  // namespace wave
