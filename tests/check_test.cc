/**
 * @file
 * The wave::check correctness-tooling layer itself.
 *
 * Two kinds of properties are pinned down here:
 *
 *   1. The coherence checker finds seeded protocol bugs — a host that
 *      re-reads a write-through-cached line the NIC has since written,
 *      without the clflush the §5.3.2 software-coherence protocol
 *      requires — and reports exactly the offending access pair. Clean
 *      runs of the same flows (with the clflush) report nothing, and
 *      the full Wave runtime stack stays violation-free end to end.
 *
 *   2. The determinism auditor: the simulator's event-stream FNV
 *      fingerprint is reproducible, keyed same-timestamp events
 *      execute in key order regardless of insertion order, and the
 *      tie audit counts unkeyed same-timestamp insertions.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "check/coherence.h"
#include "pcie/config.h"
#include "pcie/dma.h"
#include "pcie/mmio.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace wave {
namespace {

using check::CoherenceChecker;
using check::Domain;
using check::ViolationKind;

struct Fabric {
    sim::Simulator sim;
    pcie::PcieConfig config;
    pcie::NicDram dram{sim, config, 4096};
    CoherenceChecker checker{sim};

    Fabric() { dram.AttachChecker(&checker); }
};

/** Runs a coroutine to completion on the fixture simulator. */
template <typename MakeTask>
void
RunToCompletion(sim::Simulator& sim, MakeTask make_task)
{
    sim.Spawn(make_task());
    sim.Run();
}

// --- Seeded coherence bugs -------------------------------------------

TEST(CoherenceChecker, MissingClflushAcrossDomainsIsReportedOnce)
{
    Fabric f;
    pcie::HostMmioMapping host(f.dram, pcie::PteType::kWriteThrough);
    pcie::NicLocalMapping nic(f.dram, pcie::PteType::kWriteBack);

    RunToCompletion(f.sim, [&]() -> sim::Task<> {
        std::uint64_t value = 0;

        // Host caches line 0.
        co_await host.Read(0, &value, sizeof(value));

        // NIC dirties the same line in its clock domain.
        const std::uint64_t fresh = 0xfeedULL;
        co_await nic.Write(0, &fresh, sizeof(fresh));

        // SEEDED BUG: the host re-reads the line with no clflush in
        // between — a cross-domain read of a line dirty in the other
        // domain. The data served is the stale cached copy.
        co_await host.Read(0, &value, sizeof(value));
        EXPECT_NE(value, fresh);  // the model really served stale bytes
    });

    ASSERT_EQ(f.checker.Violations().size(), 1u)
        << "expected exactly the seeded access pair";
    const check::Violation& violation = f.checker.Violations().front();
    EXPECT_EQ(violation.kind, ViolationKind::kStaleCachedRead);
    EXPECT_EQ(violation.line, 0u);
    // Both access sites are identified: the racing host read...
    EXPECT_EQ(violation.read.domain, Domain::kHost);
    EXPECT_STREQ(violation.read.label, "HostMmioMapping::ReadCachedWt");
    // ...and the conflicting NIC write.
    EXPECT_EQ(violation.write.domain, Domain::kNic);
    EXPECT_STREQ(violation.write.label, "NicLocalMapping::Write");
    EXPECT_EQ(violation.write.offset, 0u);
    EXPECT_FALSE(violation.Describe().empty());
}

TEST(CoherenceChecker, ClflushBeforeReadReportsNothing)
{
    Fabric f;
    pcie::HostMmioMapping host(f.dram, pcie::PteType::kWriteThrough);
    pcie::NicLocalMapping nic(f.dram, pcie::PteType::kWriteBack);

    RunToCompletion(f.sim, [&]() -> sim::Task<> {
        std::uint64_t value = 0;
        co_await host.Read(0, &value, sizeof(value));

        const std::uint64_t fresh = 0xfeedULL;
        co_await nic.Write(0, &fresh, sizeof(fresh));

        // Correct protocol: flush the line, then read fresh data.
        co_await host.Clflush(0, sizeof(value));
        co_await host.Read(0, &value, sizeof(value));
        EXPECT_EQ(value, fresh);
    });

    EXPECT_TRUE(f.checker.Violations().empty());
    EXPECT_GT(f.checker.Stats().cache_drops, 0u);
}

TEST(CoherenceChecker, RepeatedStaleReadsDeduplicateToOneReport)
{
    Fabric f;
    pcie::HostMmioMapping host(f.dram, pcie::PteType::kWriteThrough);
    pcie::NicLocalMapping nic(f.dram, pcie::PteType::kWriteBack);

    RunToCompletion(f.sim, [&]() -> sim::Task<> {
        std::uint64_t value = 0;
        co_await host.Read(0, &value, sizeof(value));
        const std::uint64_t fresh = 1;
        co_await nic.Write(0, &fresh, sizeof(fresh));
        // A polling loop hammering the same stale line must not flood
        // the report list with copies of one race.
        for (int i = 0; i < 100; ++i) {
            co_await host.Read(0, &value, sizeof(value));
        }
    });

    EXPECT_EQ(f.checker.Violations().size(), 1u);
}

TEST(CoherenceChecker, UnflushedWriteCombiningReadIsReported)
{
    Fabric f;
    pcie::HostMmioMapping host(f.dram, pcie::PteType::kWriteCombining);
    pcie::NicLocalMapping nic(f.dram, pcie::PteType::kWriteBack);

    RunToCompletion(f.sim, [&]() -> sim::Task<> {
        // Host parks a store in the write-combining buffer and never
        // fences; the NIC then consumes the line. On hardware this is
        // the classic lost-doorbell-payload bug.
        const std::uint64_t payload = 0xabcdULL;
        co_await host.Write(0, &payload, sizeof(payload));

        std::uint64_t seen = 0;
        co_await nic.Read(0, &seen, sizeof(seen));
        EXPECT_NE(seen, payload);  // the bytes really were not there
    });

    ASSERT_EQ(f.checker.Violations().size(), 1u);
    const check::Violation& violation = f.checker.Violations().front();
    EXPECT_EQ(violation.kind, ViolationKind::kUnflushedWcRead);
    EXPECT_EQ(violation.read.domain, Domain::kNic);
    EXPECT_STREQ(violation.write.label, "HostMmioMapping::Write[WC]");
}

TEST(CoherenceChecker, SfenceBeforeNicReadReportsNothing)
{
    Fabric f;
    pcie::HostMmioMapping host(f.dram, pcie::PteType::kWriteCombining);
    pcie::NicLocalMapping nic(f.dram, pcie::PteType::kWriteBack);

    RunToCompletion(f.sim, [&]() -> sim::Task<> {
        const std::uint64_t payload = 0xabcdULL;
        co_await host.Write(0, &payload, sizeof(payload));
        co_await host.Sfence();
        // Wait out posted-write visibility, then read on the NIC side.
        co_await f.sim.Delay(f.config.posted_visibility_ns + 1);
        std::uint64_t seen = 0;
        co_await nic.Read(0, &seen, sizeof(seen));
        EXPECT_EQ(seen, payload);
    });

    EXPECT_TRUE(f.checker.Violations().empty());
    EXPECT_GT(f.checker.Stats().wc_drains, 0u);
}

TEST(CoherenceChecker, DmaLandingMarksHostCachedLinesStale)
{
    Fabric f;
    pcie::DmaEngine dma(f.sim, f.config);
    dma.AttachChecker(&f.checker);
    pcie::HostMmioMapping host(f.dram, pcie::PteType::kWriteThrough);
    pcie::MemoryRegion host_buffer(4096);

    RunToCompletion(f.sim, [&]() -> sim::Task<> {
        std::uint64_t value = 0;
        co_await host.Read(0, &value, sizeof(value));

        // DMA lands a batch over the cached line (e.g. a page-table
        // batch from the host's own DRAM).
        co_await dma.Transfer(pcie::DmaInitiator::kNic, host_buffer, 0,
                              f.dram.Backing(), 0, 64);

        // SEEDED BUG: no clflush before trusting the cached copy.
        co_await host.Read(0, &value, sizeof(value));
    });

    ASSERT_EQ(f.checker.Violations().size(), 1u);
    EXPECT_EQ(f.checker.Violations().front().kind,
              ViolationKind::kStaleCachedRead);
    EXPECT_EQ(f.checker.Violations().front().write.domain, Domain::kDma);
    EXPECT_GE(f.checker.Stats().dma_writes, 1u);
}

TEST(CoherenceChecker, FailFastPanicsOnFirstViolation)
{
    Fabric f;
    f.checker.SetFailFast(true);
    pcie::HostMmioMapping host(f.dram, pcie::PteType::kWriteThrough);
    pcie::NicLocalMapping nic(f.dram, pcie::PteType::kWriteBack);

    EXPECT_DEATH(
        {
            RunToCompletion(f.sim, [&]() -> sim::Task<> {
                std::uint64_t value = 0;
                co_await host.Read(0, &value, sizeof(value));
                const std::uint64_t fresh = 1;
                co_await nic.Write(0, &fresh, sizeof(fresh));
                co_await host.Read(0, &value, sizeof(value));
            });
        },
        "coherence violation");
}

TEST(CoherenceChecker, CoherentInterconnectNeedsNoClflush)
{
    sim::Simulator sim;
    pcie::PcieConfig config = pcie::PcieConfig::Upi();
    pcie::NicDram dram(sim, config, 4096);
    CoherenceChecker checker(sim);
    dram.AttachChecker(&checker);
    pcie::HostMmioMapping host(dram, pcie::PteType::kWriteThrough);
    pcie::NicLocalMapping nic(dram, pcie::PteType::kWriteBack);

    RunToCompletion(sim, [&]() -> sim::Task<> {
        std::uint64_t value = 0;
        co_await host.Read(0, &value, sizeof(value));
        const std::uint64_t fresh = 0xfeedULL;
        co_await nic.Write(0, &fresh, sizeof(fresh));
        // Hardware invalidated the cached line; the re-read misses and
        // fetches fresh data — no software flush, no violation.
        co_await host.Read(0, &value, sizeof(value));
        EXPECT_EQ(value, fresh);
    });

    EXPECT_TRUE(checker.Violations().empty());
}

TEST(CoherenceChecker, SameLineInTwoRegionsNeverAliases)
{
    sim::Simulator sim;
    CoherenceChecker checker(sim);
    int region_a = 0;
    int region_b = 0;

    // The host caches line 0 of A; the NIC writes line 0 of B. A's
    // cached copy is still fresh.
    checker.OnCacheFill(&region_a, 0);
    checker.OnWrite(&region_b, Domain::kNic, 0, 8, "nic-write-b");
    checker.OnRead(&region_a, Domain::kHost, 0, 8, /*from_host_cache=*/true,
                   /*tolerate_stale=*/false, "host-read-a");
    // Host WC stores parked on line 0 of A do not make a NIC read of
    // line 0 of B unflushed.
    checker.OnWcBuffered(&region_a, 0, 8, "host-wc-a");
    checker.OnRead(&region_b, Domain::kNic, 0, 8, /*from_host_cache=*/false,
                   /*tolerate_stale=*/false, "nic-read-b");
    EXPECT_TRUE(checker.Violations().empty());

    // The same write to A itself does make the cached copy stale.
    checker.OnWrite(&region_a, Domain::kNic, 0, 8, "nic-write-a");
    checker.OnRead(&region_a, Domain::kHost, 0, 8, /*from_host_cache=*/true,
                   /*tolerate_stale=*/false, "host-read-a");
    ASSERT_EQ(checker.Violations().size(), 1u);
    EXPECT_STREQ(checker.Violations().front().write.label, "nic-write-a");
}

TEST(CoherenceChecker, AccessesAfterClearStartClean)
{
    sim::Simulator sim;
    CoherenceChecker checker(sim);
    int old_region = 0;
    int fresh_region = 0;

    checker.OnCacheFill(&old_region, 3);
    checker.OnWrite(&old_region, Domain::kNic, 3 * 64, 8, "nic-write");
    checker.OnRead(&old_region, Domain::kHost, 3 * 64, 8, true, false,
                   "host-read");
    ASSERT_EQ(checker.Violations().size(), 1u);

    checker.Clear();
    EXPECT_TRUE(checker.Violations().empty());
    // The last region looked up before Clear() is gone: touching it
    // again, or a fresh one, starts from untouched lines.
    checker.OnRead(&old_region, Domain::kHost, 3 * 64, 8, true, false,
                   "host-read");
    checker.OnCacheFill(&fresh_region, 3);
    checker.OnWrite(&old_region, Domain::kNic, 3 * 64, 8, "nic-write");
    checker.OnRead(&fresh_region, Domain::kHost, 3 * 64, 8, true, false,
                   "host-read");
    EXPECT_TRUE(checker.Violations().empty());
}

// --- Determinism auditor ---------------------------------------------

TEST(DeterminismAuditor, EventHashIsRunToRunReproducible)
{
    auto run = [] {
        sim::Simulator sim;
        int counter = 0;
        for (int i = 0; i < 64; ++i) {
            sim.Schedule(i * 10, [&counter] { ++counter; });
        }
        sim.Run();
        return sim.EventHash();
    };
    EXPECT_EQ(run(), run());
}

TEST(DeterminismAuditor, KeyedTiesExecuteInKeyOrderNotInsertionOrder)
{
    auto run = [](const std::vector<std::uint64_t>& insertion_order) {
        sim::Simulator sim;
        std::vector<std::uint64_t> executed;
        for (std::uint64_t key : insertion_order) {
            sim.ScheduleKeyed(100, key,
                              [&executed, key] { executed.push_back(key); });
        }
        sim.Run();
        return executed;
    };
    const std::vector<std::uint64_t> a = run({0, 1, 2, 3, 4});
    const std::vector<std::uint64_t> b = run({3, 1, 4, 0, 2});
    EXPECT_EQ(a, b);
    EXPECT_EQ(a, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
}

TEST(DeterminismAuditor, TieAuditCountsUnkeyedSameTimestampInsertions)
{
    sim::Simulator sim;
    sim.EnableTieAudit();
    sim.Schedule(100, [] {});
    sim.Schedule(100, [] {});          // unkeyed collision: counted
    sim.ScheduleKeyed(100, 7, [] {});  // keyed: explicitly ordered, fine
    sim.Schedule(200, [] {});          // different timestamp: fine
    sim.Run();
    EXPECT_EQ(sim.UnkeyedTieInsertions(), 1u);
}

}  // namespace
}  // namespace wave
