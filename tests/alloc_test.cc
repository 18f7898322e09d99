/**
 * @file
 * Steady-state zero-allocation assertions for the hot loops.
 *
 * These are the dynamic twin of wave_analyze's W101 rule: the static
 * checker proves hot code *looks* allocation-free, these tests prove
 * the loops *are*. Each test runs one warmup pass — growing every ring,
 * pool, and reused buffer to its steady-state capacity — then measures
 * an identical pass under sim::AllocGuard and asserts the global
 * operator new was never entered.
 *
 * This binary links wave_alloc_guard, which replaces the global
 * allocation functions with counting wrappers; production targets must
 * not.
 */
// wave-domain: harness
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include "channel/dma_queue.h"
#include "channel/mmio_queue.h"
#include "check/coherence.h"
#include "ghost/transport.h"
#include "machine/cpu.h"
#include "machine/machine.h"
#include "offload/kernels.h"
#include "offload/packet.h"
#include "offload/pipeline.h"
#include "offload/stage.h"
#include "pcie/mmio.h"
#include "sim/alloc_guard.h"
#include "sim/frame_pool.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "stats/histogram.h"
#include "wave/runtime.h"

namespace wave {
namespace {

using channel::Bytes;
using channel::QueueConfig;
using sim::AllocGuard;
using sim::DurationNs;
using sim::Simulator;
using sim::Task;

Bytes
Msg(std::uint64_t v)
{
    Bytes b(48);
    std::memcpy(b.data(), &v, sizeof(v));
    return b;
}

/**
 * Spawns @p body and runs the simulator until it is idle, so every
 * referent the body borrows from the caller's frame outlives it.
 */
void
RunToCompletion(Simulator& sim, Task<> body)
{
    sim.Spawn(std::move(body));
    sim.Run();
}

// The zero-allocation assertions below are vacuous if the counting
// operator new somehow failed to replace the default one, so first
// prove the guard sees a deliberate allocation.
TEST(AllocGuard, CountsDeliberateAllocations)
{
    AllocGuard guard;
    auto owned = std::make_unique<std::uint64_t>(42);
    EXPECT_GE(guard.Allocations(), 1u);
    EXPECT_GE(guard.Bytes(), sizeof(std::uint64_t));
    owned.reset();
    EXPECT_GE(guard.Frees(), 1u);
}

TEST(AllocGuard, SimulatorEventLoopIsAllocationFreeInSteadyState)
{
    Simulator sim;
    std::uint64_t sink = 0;
    const auto run_round = [&] {
        for (int i = 0; i < 1000; ++i) {
            sim.Schedule(static_cast<DurationNs>(i % 64),
                         [&sink] { ++sink; });
        }
        sim.Run();
    };

    run_round();  // warmup: event queue reaches steady-state capacity

    AllocGuard guard;
    for (int round = 0; round < 10; ++round) {
        run_round();
    }
    EXPECT_EQ(guard.Allocations(), 0u)
        << "scheduling/running pooled events should reuse warm capacity";
    EXPECT_EQ(sink, 11'000u);
}

TEST(AllocGuard, TimingWheelStaysAllocationFreeAcrossAllTiers)
{
    // Exercises every tier of the wheel in the measured region: sub-page
    // delays (near wheel), multi-page delays (far ring), and delays
    // beyond the ~16.8 ms far horizon (overflow heap), plus keyed
    // events for the sorted-insert path. After warmup the node pool and
    // the overflow heap's reserved capacity must absorb all of it.
    Simulator sim;
    std::uint64_t sink = 0;
    const auto run_round = [&] {
        for (int i = 0; i < 500; ++i) {
            const DurationNs delay = i % 97 == 0 ? DurationNs{30'000'000}
                                     : i % 31 == 0
                                         ? DurationNs{200'000}
                                         : static_cast<DurationNs>(i % 64);
            if (i % 16 == 0) {
                sim.ScheduleKeyed(delay, static_cast<std::uint64_t>(i),
                                  [&sink] { ++sink; });
            } else {
                sim.Schedule(delay, [&sink] { ++sink; });
            }
        }
        sim.Run();
    };

    run_round();  // warmup: node pool covers the peak backlog

    AllocGuard guard;
    for (int round = 0; round < 10; ++round) {
        run_round();
    }
    EXPECT_EQ(guard.Allocations(), 0u)
        << "near/far/overflow wheel traffic should reuse pooled nodes";
    EXPECT_EQ(sink, 5'500u);
}

TEST(AllocGuard, ChannelCoroutineLoopIsAllocationFreeInSteadyState)
{
    // The measured region lives inside one long-running producer /
    // consumer pair: that is the steady state the W101 annotations
    // claim is allocation-free. (Spawning fresh root processes is NOT
    // allocation-free per spawn — completed root frames recycle in
    // batches at the simulator's sweep interval.)
    constexpr int kWarmup = 256;
    constexpr int kMeasured = 1024;

    Simulator sim;
    sim::Channel<int> channel(sim);
    channel.Reserve(64);

    std::uint64_t received = 0;
    std::uint64_t measured_allocs = ~0ull;
    // Consumer first so Receive() parks a waiter in the signal ring.
    sim.Spawn([](sim::Channel<int>& ch, std::uint64_t& sum,
                 std::uint64_t& allocs) -> Task<> {
        for (int i = 0; i < kWarmup; ++i) {
            sum += static_cast<std::uint64_t>(co_await ch.Receive());
        }
        const AllocGuard guard;  // frame pool + rings now warm
        for (int i = 0; i < kMeasured; ++i) {
            sum += static_cast<std::uint64_t>(co_await ch.Receive());
        }
        allocs = guard.Allocations();
    }(channel, received, measured_allocs));
    sim.Spawn([](Simulator& s, sim::Channel<int>& ch) -> Task<> {
        for (int i = 0; i < kWarmup + kMeasured; ++i) {
            ch.Push(i);
            co_await s.Delay(10);
        }
    }(sim, channel));
    sim.Run();

    EXPECT_EQ(measured_allocs, 0u)
        << "Push/Receive over a warm channel should recycle pooled "
           "frames and ring slots";
    const std::uint64_t n = kWarmup + kMeasured;
    EXPECT_EQ(received, n * (n - 1) / 2);
}

TEST(AllocGuard, DmaQueueSendPollLoopIsAllocationFreeInSteadyState)
{
    // Like the channel test, one long-running process measures its own
    // steady state. The Delay between Send and the polls lets the async
    // DMA land so every round exercises the poll-success path, and
    // sync_interval=16 forces the counter-sync DMA inside the measured
    // region too. Warmup must include successful polls: the reused
    // payload buffer and the counter-sync completion only warm up once
    // a poll has succeeded.
    constexpr int kWarmupRounds = 8;
    constexpr int kMeasuredRounds = 16;

    Simulator sim;
    pcie::DmaEngine dma(sim, pcie::PcieConfig{});
    channel::DmaQueue queue(sim, dma, pcie::DmaInitiator::kNic,
                            QueueConfig{.capacity = 256,
                                        .payload_size = 48,
                                        .sync_interval = 16});

    // Send copies out of the reused batch; PollInto resizes the reused
    // payload within retained capacity. Neither touches the heap warm.
    std::vector<Bytes> batch;
    for (std::uint64_t i = 0; i < 8; ++i) batch.push_back(Msg(i));

    std::uint64_t polled = 0;
    std::uint64_t measured_allocs = ~0ull;
    sim.Spawn([](Simulator& s, channel::DmaQueue& q,
                 std::vector<Bytes>& b, std::uint64_t& n,
                 std::uint64_t& allocs) -> Task<> {
        Bytes payload;
        for (int r = 0; r < kWarmupRounds; ++r) {
            co_await q.Send(b, /*sync=*/false);
            co_await s.Delay(50'000);  // async transfer lands
            for (std::size_t i = 0; i < b.size(); ++i) {
                if (co_await q.PollInto(payload)) ++n;
            }
        }
        const AllocGuard guard;
        for (int r = 0; r < kMeasuredRounds; ++r) {
            co_await q.Send(b, /*sync=*/false);
            co_await s.Delay(50'000);
            for (std::size_t i = 0; i < b.size(); ++i) {
                if (co_await q.PollInto(payload)) ++n;
            }
        }
        allocs = guard.Allocations();
    }(sim, queue, batch, polled, measured_allocs));
    sim.Run();

    EXPECT_EQ(measured_allocs, 0u)
        << "warm DmaQueue Send/PollInto cycles should be allocation-free";
    EXPECT_EQ(polled,
              static_cast<std::uint64_t>(kWarmupRounds + kMeasuredRounds) *
                  8);
}

TEST(AllocGuard, EmptyPollBatchAllocatesNothing)
{
    // Batch polls of an empty queue are the common case for a busy-
    // polling agent; the result vector is reserved only once a message
    // has arrived, so an empty poll must not touch the heap.
    constexpr int kPolls = 16;
    const QueueConfig qc{.capacity = 16, .payload_size = 48,
                         .sync_interval = 4};

    Simulator sim;
    pcie::PcieConfig config;
    pcie::NicDram dram(sim, config, 4096);
    channel::MmioQueue ring(dram, 0, qc);
    channel::NicConsumer mmio(ring, pcie::PteType::kWriteBack);
    pcie::DmaEngine dma(sim, config);
    channel::DmaQueue dmaq(sim, dma, pcie::DmaInitiator::kNic, qc);

    std::uint64_t mmio_allocs = ~0ull;
    std::uint64_t dma_allocs = ~0ull;
    std::size_t polled = 0;
    RunToCompletion(sim, [](channel::NicConsumer& c, channel::DmaQueue& q,
                            std::uint64_t& ma, std::uint64_t& da,
                            std::size_t& got) -> Task<> {
        // Warmup: the poll frames' size classes reach the pool.
        got += (co_await c.PollBatch(8)).size();
        got += (co_await q.PollBatch(8)).size();
        std::uint64_t start = sim::AllocSnapshot().allocations;
        for (int i = 0; i < kPolls; ++i) {
            got += (co_await c.PollBatch(8)).size();
        }
        ma = sim::AllocSnapshot().allocations - start;
        start = sim::AllocSnapshot().allocations;
        for (int i = 0; i < kPolls; ++i) {
            got += (co_await q.PollBatch(8)).size();
        }
        da = sim::AllocSnapshot().allocations - start;
    }(mmio, dmaq, mmio_allocs, dma_allocs, polled));

    EXPECT_EQ(polled, 0u);
    EXPECT_EQ(mmio_allocs, 0u) << "empty NicConsumer::PollBatch allocated";
    EXPECT_EQ(dma_allocs, 0u) << "empty DmaQueue::PollBatch allocated";
}

TEST(AllocGuard, WaveAgentEmptySweepBuildsOneFrameAndNoHeap)
{
    // The offloaded agent sweeps every core's outcome queue once per
    // loop iteration, and most of those polls come back empty. An empty
    // poll is the NIC-local flag awaiter alone, so a whole empty sweep
    // over the 15 cores of Fig. 4a builds one frame (the sweep's own)
    // and never touches the heap. Checkers stay attached (WaveRuntime's
    // default), as in every Wave deployment. A frame the pool cannot
    // reuse comes from operator new, so with no allocations the pool's
    // reuse count is every frame built.
    constexpr int kCores = 15;
    constexpr int kWarmup = 4;
    constexpr int kMeasured = 64;

    Simulator sim;
    machine::Machine machine(sim);
    WaveRuntime runtime(sim, machine, pcie::PcieConfig{},
                        api::OptimizationConfig::Full());
    ghost::WaveSchedTransport transport(runtime, kCores);
    std::vector<int> cores;
    for (int c = 0; c < kCores; ++c) cores.push_back(c);

    struct Measured {
        std::uint64_t frames = ~0ull;
        std::uint64_t allocs = ~0ull;
        std::size_t swept = 0;
    } m;
    std::vector<ghost::SweptOutcome> buffer;
    RunToCompletion(sim, [](Simulator& s, ghost::WaveSchedTransport& t,
                            const std::vector<int>& cs,
                            std::vector<ghost::SweptOutcome>& buf,
                            Measured& out) -> Task<> {
        for (int i = 0; i < kWarmup; ++i) {
            co_await t.AgentSweepOutcomes(s, cs, 8, buf);
        }
        const std::uint64_t allocs = sim::AllocSnapshot().allocations;
        const std::uint64_t frames = sim::detail::FramePoolReuses();
        for (int i = 0; i < kMeasured; ++i) {
            co_await t.AgentSweepOutcomes(s, cs, 8, buf);
        }
        out.frames = sim::detail::FramePoolReuses() - frames;
        out.allocs = sim::AllocSnapshot().allocations - allocs;
        out.swept = buf.size();
    }(sim, transport, cores, buffer, m));

    EXPECT_EQ(m.swept, 0u);
    EXPECT_LE(m.frames, 1u * kMeasured)
        << "an empty sweep over " << kCores
        << " cores should build at most one frame";
    EXPECT_EQ(m.allocs, 0u);
}

TEST(AllocGuard, WaveAgentEmptyPerCorePollsBuildOneFrame)
{
    // The per-core forms a decorator forwards to: an empty
    // AgentPollOutcomes or AgentPollMessages builds its own frame and
    // no other, and allocates nothing.
    constexpr int kWarmup = 4;
    constexpr int kMeasured = 64;

    Simulator sim;
    machine::Machine machine(sim);
    WaveRuntime runtime(sim, machine, pcie::PcieConfig{},
                        api::OptimizationConfig::Full());
    ghost::WaveSchedTransport transport(runtime, 2);

    struct Measured {
        std::uint64_t outcome_frames = ~0ull;
        std::uint64_t outcome_allocs = ~0ull;
        std::uint64_t message_frames = ~0ull;
        std::uint64_t message_allocs = ~0ull;
        std::size_t polled = 0;
    } m;
    RunToCompletion(sim, [](ghost::WaveSchedTransport& t,
                            Measured& out) -> Task<> {
        for (int i = 0; i < kWarmup; ++i) {
            out.polled += (co_await t.AgentPollOutcomes(1, 8)).size();
            out.polled += (co_await t.AgentPollMessages(8)).size();
        }
        std::uint64_t allocs = sim::AllocSnapshot().allocations;
        std::uint64_t frames = sim::detail::FramePoolReuses();
        for (int i = 0; i < kMeasured; ++i) {
            out.polled += (co_await t.AgentPollOutcomes(1, 8)).size();
        }
        out.outcome_frames = sim::detail::FramePoolReuses() - frames;
        out.outcome_allocs = sim::AllocSnapshot().allocations - allocs;
        allocs = sim::AllocSnapshot().allocations;
        frames = sim::detail::FramePoolReuses();
        for (int i = 0; i < kMeasured; ++i) {
            out.polled += (co_await t.AgentPollMessages(8)).size();
        }
        out.message_frames = sim::detail::FramePoolReuses() - frames;
        out.message_allocs = sim::AllocSnapshot().allocations - allocs;
    }(transport, m));

    EXPECT_EQ(m.polled, 0u);
    EXPECT_LE(m.outcome_frames, 1u * kMeasured)
        << "an empty AgentPollOutcomes should build at most one frame";
    EXPECT_EQ(m.outcome_allocs, 0u);
    EXPECT_LE(m.message_frames, 1u * kMeasured)
        << "an empty AgentPollMessages should build at most one frame";
    EXPECT_EQ(m.message_allocs, 0u);
}

TEST(AllocGuard, WaveHostPollDecisionAllocatesNothingWhenDelivering)
{
    // Every request's decision reaches its host core through
    // HostPollDecision. The payload is decoded from a view of the txn
    // endpoint's slot buffer, so a delivered decision allocates nothing
    // once the buffers are warm. Only the poll is measured: staging a
    // decision and reporting its outcome allocate by contract. The
    // warmup runs more than one lap of the 64-slot decision ring, so
    // every slot's cache line and checker shadow already exist.
    constexpr int kWarmup = 72;
    constexpr int kMeasured = 64;

    Simulator sim;
    machine::Machine machine(sim);
    WaveRuntime runtime(sim, machine, pcie::PcieConfig{},
                        api::OptimizationConfig::Full());
    ghost::WaveSchedTransport transport(runtime, 1);

    struct Measured {
        std::uint64_t allocs = 0;
        int delivered = 0;
        bool tids_match = true;
    } m;
    RunToCompletion(sim, [](Simulator& s, ghost::WaveSchedTransport& t,
                            Measured& out) -> Task<> {
        for (int r = 0; r < kWarmup + kMeasured; ++r) {
            ghost::GhostDecision d{};
            d.type = ghost::DecisionType::kRunThread;
            d.tid = 100 + r;
            d.core = 0;
            t.AgentStageDecision(d);
            co_await t.AgentCommit(0, /*kick=*/false);
            co_await s.Delay(2'000);  // the posted writes land
            const std::uint64_t before = sim::AllocSnapshot().allocations;
            const auto pd = co_await t.HostPollDecision(0, true);
            if (r >= kWarmup) {
                out.allocs += sim::AllocSnapshot().allocations - before;
            }
            if (!pd) continue;
            ++out.delivered;
            out.tids_match = out.tids_match && pd->decision.tid == 100 + r;
            co_await t.HostSendOutcome(
                0, {pd->txn_id, api::TxnStatus::kCommitted});
            co_await s.Delay(2'000);
            (void)co_await t.AgentPollOutcomes(0, 8);
        }
    }(sim, transport, m));

    EXPECT_EQ(m.delivered, kWarmup + kMeasured);
    EXPECT_TRUE(m.tids_match);
    EXPECT_EQ(m.allocs, 0u)
        << "a delivered HostPollDecision should not allocate";
}

TEST(AllocGuard, WtRefillAfterClflushIsAllocationFreeInSteadyState)
{
    // The software-coherence cycle of a WT-mapped queue slot, with the
    // coherence checker attached: the host clflushes the line, re-reads
    // it (a refill over PCIe), and the NIC stores to it again. The
    // cached line keeps its bytes inline, so the refill reuses them.
    constexpr int kWarmupRounds = 4;
    constexpr int kMeasuredRounds = 64;

    Simulator sim;
    pcie::PcieConfig config;
    pcie::NicDram dram(sim, config, 4096);
    check::CoherenceChecker checker(sim);
    dram.AttachChecker(&checker);
    pcie::HostMmioMapping host(dram, pcie::PteType::kWriteThrough);
    pcie::NicLocalMapping nic(dram, pcie::PteType::kWriteBack);

    std::uint64_t last_seen = 0;
    std::uint64_t measured_allocs = ~0ull;
    sim.Spawn([](pcie::HostMmioMapping& h, pcie::NicLocalMapping& n,
                 std::uint64_t& seen, std::uint64_t& allocs) -> Task<> {
        constexpr std::size_t kSlot = 128;  // line 2
        std::uint64_t value = 0;
        std::optional<AllocGuard> guard;
        for (int r = 0; r < kWarmupRounds + kMeasuredRounds; ++r) {
            if (r == kWarmupRounds) guard.emplace();
            co_await h.Clflush(kSlot, sizeof(value));
            co_await h.Read(kSlot, &seen, sizeof(seen));
            ++value;
            co_await n.Write(kSlot, &value, sizeof(value));
        }
        allocs = guard->Allocations();
    }(host, nic, last_seen, measured_allocs));
    sim.Run();

    EXPECT_EQ(measured_allocs, 0u)
        << "a WT refill after clflush should reuse the cached line";
    EXPECT_EQ(last_seen, static_cast<std::uint64_t>(kWarmupRounds +
                                                    kMeasuredRounds - 1));
    EXPECT_TRUE(checker.Violations().empty());
    EXPECT_EQ(host.Stats().clflushes,
              static_cast<std::uint64_t>(kWarmupRounds + kMeasuredRounds -
                                         1));
}

offload::FiveTuple
FlowTupleFor(std::uint32_t flow)
{
    return offload::FiveTuple{
        .src_ip = 0x0a000000u | flow,
        .dst_ip = 0xc0a80001u,
        .src_port = static_cast<std::uint16_t>(1024 + flow),
        .dst_port = 80,
        .proto = 6};
}

TEST(AllocGuard, OffloadStageDispatchIsAllocationFreeInSteadyState)
{
    // StageChain construction allocates (ACL, automaton, sketches,
    // connection-table reserve); dispatch must not. The warmup pass
    // covers the full flow universe so the load balancer's connection
    // table takes every node insert before the guard goes up — the
    // measured passes are pure lookups plus the compute kernels over
    // the inline payload.
    constexpr std::uint32_t kFlows = 64;

    offload::StageChainConfig cfg;
    cfg.expected_flows = kFlows;
    offload::StageChain chain(cfg);

    auto packet = std::make_unique<offload::Packet>();
    const auto run_pass = [&] {
        for (std::uint32_t flow = 0; flow < kFlows; ++flow) {
            offload::Packet& p = *packet;
            p.tuple = FlowTupleFor(flow);
            const std::size_t header = offload::RenderHttpGet(
                flow, p.payload.data(), offload::kMaxPayloadBytes);
            offload::FillRandomBytes(flow * 7919ull + 1,
                                     p.payload.data() + header, 512);
            p.payload_len = static_cast<std::uint32_t>(header + 512);
            p.acl_allowed = 1;
            p.http_ok = 0;
            p.backend = 0;
            p.scan_hits = 0;
            p.digest = 0;
            bool alive = true;
            chain.Process(p, &alive);
            EXPECT_TRUE(alive);
        }
    };

    run_pass();  // warmup: every flow inserted into the connection table

    AllocGuard guard;
    for (int r = 0; r < 8; ++r) {
        run_pass();
    }
    EXPECT_EQ(guard.Allocations(), 0u)
        << "full-chain dispatch over a warm connection table should "
           "never allocate";
    EXPECT_EQ(chain.ConnectionCount(), kFlows);
    EXPECT_EQ(chain.Stats(offload::StageKind::kFirewall).packets,
              9ull * kFlows);
}

TEST(AllocGuard, OffloadPipelineLoopIsAllocationFreeInSteadyState)
{
    // End-to-end: Inject materializes into the pooled packet slots and
    // the long-lived worker coroutines (spawned once by Start) pull,
    // Work, and Route. After one round the packet pool, segment rings,
    // Work-coroutine frame pool, and connection table are all warm;
    // further rounds — including the event loop driving them — must
    // stay off the heap.
    constexpr std::uint32_t kFlows = 64;
    constexpr int kMeasuredRounds = 6;

    Simulator sim;
    machine::ClockDomain nic(0.61);
    machine::Cpu cpu0(sim, "nic0", &nic);
    machine::Cpu cpu1(sim, "nic1", &nic);

    offload::PipelineConfig cfg;
    cfg.pool_size = 256;
    cfg.chain.expected_flows = kFlows;
    offload::OffloadPipeline pipeline(sim, cfg);
    pipeline.AddWorker(cpu0);
    pipeline.AddWorker(cpu1);
    pipeline.Start();

    const auto run_round = [&] {
        for (std::uint32_t flow = 0; flow < kFlows; ++flow) {
            offload::PacketDesc d;
            d.tuple = FlowTupleFor(flow);
            d.payload_len = 600;
            d.payload_seed = flow * 6364136223846793005ull + 11;
            d.http = true;
            d.http_key = flow;
            EXPECT_TRUE(pipeline.Inject(d));
        }
        sim.RunFor(sim::DurationNs{2'000'000});  // drain the burst
    };

    run_round();  // warmup

    AllocGuard guard;
    for (int r = 0; r < kMeasuredRounds; ++r) {
        run_round();
    }
    const std::uint64_t measured_allocs = guard.Allocations();

    pipeline.RequestStop();
    sim.RunFor(sim::DurationNs{10'000});  // workers observe the stop

    EXPECT_EQ(measured_allocs, 0u)
        << "warm Inject/worker/Retire rounds should reuse pooled "
           "packets, ring slots, and coroutine frames";
    EXPECT_EQ(pipeline.Stats().completed,
              static_cast<std::uint64_t>(kFlows) * (1 + kMeasuredRounds));
    EXPECT_EQ(pipeline.Stats().dropped, 0u);
    EXPECT_EQ(pipeline.Pending(), 0u);
}

TEST(AllocGuard, HistogramRecordIsAllocationFreeInSteadyState)
{
    stats::Histogram histogram;
    std::uint64_t v = 1;
    const auto run_pass = [&](int n) {
        for (int i = 0; i < n; ++i) {
            histogram.Record(v);
            v = v * 2862933555777941757ull + 3037000493ull;
            v >>= (v & 15);
        }
    };

    run_pass(4096);  // warmup: bucket table fully materialized

    AllocGuard guard;
    run_pass(4096);
    EXPECT_EQ(guard.Allocations(), 0u)
        << "Record into a warm histogram should never allocate";
}

}  // namespace
}  // namespace wave
