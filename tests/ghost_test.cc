/**
 * @file
 * Unit tests for the ghOSt substrate: interrupt controller semantics,
 * transport message/decision round trips on both bindings, kernel
 * atomic-commit behaviour (including clean failure on dead threads),
 * preemption via kicks, and wake-while-running handling.
 */
#include <gtest/gtest.h>

#include "ghost/agent.h"
#include "ghost/interrupt.h"
#include "ghost/kernel.h"
#include "ghost/transport.h"
#include "pass_through_transport.h"
#include "machine/machine.h"
#include "sched/fifo.h"
#include "sim/simulator.h"
#include "wave/runtime.h"

namespace wave::ghost {
namespace {

using sim::Simulator;
using sim::Task;
using sim::TimeNs;
using namespace sim::time_literals;

#define CO_ASSERT(expr)                                     \
    do {                                                    \
        if (!(expr)) {                                      \
            ADD_FAILURE() << "CO_ASSERT failed: " << #expr; \
            co_return;                                      \
        }                                                   \
    } while (0)

TEST(CoreInterrupt, SleepInterruptibleRunsToDeadlineWhenQuiet)
{
    Simulator sim;
    CoreInterrupt irq(sim);
    sim.Spawn([](Simulator& s, CoreInterrupt& i) -> Task<> {
        const auto slept = co_await i.SleepInterruptible(10_us);
        EXPECT_EQ(slept, 10'000u);
        EXPECT_EQ(s.Now().ns(), 10'000u);
    }(sim, irq));
    sim.Run();
}

TEST(CoreInterrupt, RaiseCutsSleepShortAtArrivalTime)
{
    Simulator sim;
    CoreInterrupt irq(sim);
    sim.Schedule(3000, [&] { irq.Raise(); });
    sim.Spawn([](CoreInterrupt& i) -> Task<> {
        const auto slept = co_await i.SleepInterruptible(10_us);
        EXPECT_EQ(slept, 3000u);
        EXPECT_TRUE(i.KickPending());
    }(irq));
    sim.Run();
}

TEST(CoreInterrupt, TickAndKickLatchSeparately)
{
    Simulator sim;
    CoreInterrupt irq(sim);
    irq.RaiseTick();
    EXPECT_TRUE(irq.Pending());
    EXPECT_FALSE(irq.KickPending());
    EXPECT_TRUE(irq.ConsumeTick());
    EXPECT_FALSE(irq.Pending());
    irq.Raise();
    EXPECT_TRUE(irq.ConsumeKick());
    EXPECT_FALSE(irq.ConsumeKick());
}

TEST(CoreInterrupt, WaitForInterruptReturnsOnLatchedRaise)
{
    Simulator sim;
    CoreInterrupt irq(sim);
    irq.Raise();  // raised before the wait: no lost wakeup
    bool woke = false;
    sim.Spawn([](CoreInterrupt& i, bool& w) -> Task<> {
        co_await i.WaitForInterrupt();
        w = true;
    }(irq, woke));
    sim.RunFor(1000);
    EXPECT_TRUE(woke);
}

/** Builds a transport of either binding for parameterized tests. */
struct TransportFixture {
    /** @p cores is a core count (cores 0..n-1) or an explicit core set. */
    template <typename Cores = int>
    explicit TransportFixture(bool wave, const Cores& cores = 2)
        : machine(sim),
          runtime(sim, machine, pcie::PcieConfig{},
                  api::OptimizationConfig::Full())
    {
        if (wave) {
            transport =
                std::make_unique<WaveSchedTransport>(runtime, cores);
        } else {
            transport = std::make_unique<ShmSchedTransport>(sim, cores);
        }
    }

    Simulator sim;
    machine::Machine machine;
    WaveRuntime runtime;
    std::unique_ptr<SchedTransport> transport;
};

class TransportTest : public ::testing::TestWithParam<bool> {};

TEST_P(TransportTest, MessageRoundTrip)
{
    TransportFixture f(GetParam());
    f.sim.Spawn([](TransportFixture& fx) -> Task<> {
        GhostMessage message{};
        message.type = MsgType::kThreadWakeup;
        message.tid = 42;
        message.core = 1;
        message.payload = 777;
        co_await fx.transport->HostSendMessage(message);
        co_await fx.sim.Delay(2_us);  // let posted writes land

        auto got = co_await fx.transport->AgentPollMessages(8);
        CO_ASSERT(got.size() == 1u);
        EXPECT_EQ(got[0].type, MsgType::kThreadWakeup);
        EXPECT_EQ(got[0].tid, 42);
        EXPECT_EQ(got[0].core, 1);
        EXPECT_EQ(got[0].payload, 777u);
    }(f));
    f.sim.Run();
}

TEST_P(TransportTest, DecisionCommitKicksAndDelivers)
{
    TransportFixture f(GetParam());
    f.sim.Spawn([](TransportFixture& fx) -> Task<> {
        GhostDecision d{};
        d.type = DecisionType::kRunThread;
        d.tid = 7;
        d.core = 1;
        d.slice_ns = 30'000;
        const api::TxnId id = fx.transport->AgentStageDecision(d);
        co_await fx.transport->AgentCommit(1, /*kick=*/true);

        // The kick raises core 1's interrupt line after the wire delay.
        co_await fx.transport->InterruptFor(1).WaitForInterrupt();
        EXPECT_TRUE(fx.transport->InterruptFor(1).ConsumeKick());

        auto pd = co_await fx.transport->HostPollDecision(1, true);
        CO_ASSERT(pd.has_value());
        EXPECT_EQ(pd->txn_id, id);
        EXPECT_EQ(pd->decision.tid, 7);
        EXPECT_EQ(pd->decision.slice_ns, 30'000u);

        // Outcome flows back.
        co_await fx.transport->HostSendOutcome(
            1, {pd->txn_id, api::TxnStatus::kCommitted});
        co_await fx.sim.Delay(2_us);
        auto outs = co_await fx.transport->AgentPollOutcomes(1, 4);
        CO_ASSERT(outs.size() == 1u);
        EXPECT_EQ(outs[0].status, api::TxnStatus::kCommitted);
    }(f));
    f.sim.Run();
}

TEST_P(TransportTest, DecisionsForDifferentCoresAreIndependent)
{
    TransportFixture f(GetParam());
    f.sim.Spawn([](TransportFixture& fx) -> Task<> {
        GhostDecision d0{};
        d0.type = DecisionType::kRunThread;
        d0.tid = 1;
        d0.core = 0;
        GhostDecision d1 = d0;
        d1.tid = 2;
        d1.core = 1;
        fx.transport->AgentStageDecision(d0);
        fx.transport->AgentStageDecision(d1);
        co_await fx.transport->AgentCommit(0, false);
        co_await fx.transport->AgentCommit(1, false);
        co_await fx.sim.Delay(2_us);

        auto p0 = co_await fx.transport->HostPollDecision(0, true);
        auto p1 = co_await fx.transport->HostPollDecision(1, true);
        CO_ASSERT(p0.has_value());
        CO_ASSERT(p1.has_value());
        EXPECT_EQ(p0->decision.tid, 1);
        EXPECT_EQ(p1->decision.tid, 2);
    }(f));
    f.sim.Run();
}

TEST_P(TransportTest, ConcurrentMessageSendersDoNotCorruptTheQueue)
{
    TransportFixture f(GetParam());
    // 20 concurrent host-side senders (the bug class that motivates the
    // transport's internal send serialization).
    for (int i = 0; i < 20; ++i) {
        f.sim.Spawn([](TransportFixture& fx, int id) -> Task<> {
            GhostMessage message{};
            message.type = MsgType::kThreadWakeup;
            message.tid = id;
            co_await fx.transport->HostSendMessage(message);
        }(f, i));
    }
    bool checked = false;
    f.sim.Spawn([](TransportFixture& fx, bool& done) -> Task<> {
        co_await fx.sim.Delay(50_us);
        std::vector<bool> seen(20, false);
        auto got = co_await fx.transport->AgentPollMessages(64);
        CO_ASSERT(got.size() == 20u);
        for (const auto& m : got) {
            CO_ASSERT(m.tid >= 0 && m.tid < 20);
            EXPECT_FALSE(seen[static_cast<std::size_t>(m.tid)])
                << "duplicate tid " << m.tid;
            seen[static_cast<std::size_t>(m.tid)] = true;
        }
        done = true;
    }(f, checked));
    f.sim.Run();
    EXPECT_TRUE(checked);
}

TEST_P(TransportTest, SparseCoreSetIsIndexedByCoreId)
{
    // One enclave's partition: cores that neither start at 0 nor are
    // contiguous.
    TransportFixture f(GetParam(), std::vector<int>{2, 5});
    EXPECT_EQ(f.transport->CoreCount(), 2);
    f.sim.Spawn([](TransportFixture& fx) -> Task<> {
        GhostDecision d2{};
        d2.type = DecisionType::kRunThread;
        d2.tid = 20;
        d2.core = 2;
        GhostDecision d5 = d2;
        d5.tid = 50;
        d5.core = 5;
        fx.transport->AgentStageDecision(d2);
        fx.transport->AgentStageDecision(d5);
        co_await fx.transport->AgentCommit(5, /*kick=*/true);
        co_await fx.transport->InterruptFor(5).WaitForInterrupt();
        EXPECT_TRUE(fx.transport->InterruptFor(5).ConsumeKick());
        EXPECT_FALSE(fx.transport->InterruptFor(2).ConsumeKick());
        co_await fx.transport->AgentCommit(2, /*kick=*/false);
        co_await fx.sim.Delay(2_us);

        auto p5 = co_await fx.transport->HostPollDecision(5, true);
        auto p2 = co_await fx.transport->HostPollDecision(2, true);
        CO_ASSERT(p5.has_value());
        CO_ASSERT(p2.has_value());
        EXPECT_EQ(p5->decision.tid, 50);
        EXPECT_EQ(p2->decision.tid, 20);

        co_await fx.transport->HostSendOutcome(
            5, {p5->txn_id, api::TxnStatus::kCommitted});
        co_await fx.sim.Delay(2_us);
        auto outs2 = co_await fx.transport->AgentPollOutcomes(2, 4);
        auto outs5 = co_await fx.transport->AgentPollOutcomes(5, 4);
        EXPECT_TRUE(outs2.empty());
        CO_ASSERT(outs5.size() == 1u);
        EXPECT_EQ(outs5[0].txn_id, p5->txn_id);
    }(f));
    f.sim.Run();

    // Cores below, between and above the served set are not served.
    for (int core : {0, 3, 6, -1}) {
        EXPECT_DEATH(f.transport->InterruptFor(core),
                     "is not served by this transport")
            << "core " << core;
    }
}

/** What one batch-limit script observed (see RunBatchLimitScript). */
struct BatchLimitTrace {
    std::vector<std::size_t> message_batches;
    std::vector<Tid> message_tids;
    std::vector<api::TxnId> per_core_ids;
    std::vector<std::vector<SweptOutcome>> sweeps;
    std::vector<TimeNs> sweep_starts;
    TimeNs end{};
    std::uint64_t event_hash = 0;
};

// wave-lifetime(spawn-safe: RunBatchLimitScript runs the simulator to completion before the fixture and trace it borrows go out of scope)
Task<>
BatchLimitScript(Simulator& sim, SchedTransport& t, BatchLimitTrace& out)
{
    // 40 messages drain as batches of 32, 8 and 0.
    for (int i = 0; i < 40; ++i) {
        GhostMessage message{};
        message.type = MsgType::kThreadWakeup;
        message.tid = i;
        co_await t.HostSendMessage(message);
    }
    co_await sim.Delay(5_us);
    for (int i = 0; i < 3; ++i) {
        const auto got = co_await t.AgentPollMessages(32);
        out.message_batches.push_back(got.size());
        for (const GhostMessage& m : got) out.message_tids.push_back(m.tid);
    }
    // Ten committed decisions per core, each reported back.
    for (int core : {0, 1}) {
        for (int i = 0; i < 10; ++i) {
            GhostDecision d{};
            d.type = DecisionType::kRunThread;
            d.tid = core * 100 + i;
            d.core = core;
            t.AgentStageDecision(d);
        }
        co_await t.AgentCommit(core, /*kick=*/false);
    }
    co_await sim.Delay(5_us);
    for (int core : {0, 1}) {
        for (int i = 0; i < 10; ++i) {
            const auto pd = co_await t.HostPollDecision(core, true);
            if (!pd) continue;
            co_await t.HostSendOutcome(
                core, {pd->txn_id, i % 3 == 0 ? api::TxnStatus::kFailedStale
                                              : api::TxnStatus::kCommitted});
        }
    }
    co_await sim.Delay(5_us);
    // Eight outcomes from core 0 alone, then sweeps of both cores at
    // eight records per core until one comes back empty.
    for (const api::TxnOutcome& o : co_await t.AgentPollOutcomes(0, 8)) {
        out.per_core_ids.push_back(o.txn_id);
    }
    const std::vector<int> cores{0, 1};
    for (;;) {
        out.sweep_starts.push_back(sim.Now());
        std::vector<SweptOutcome> swept;
        co_await t.AgentSweepOutcomes(sim, cores, 8, swept);
        const bool empty = swept.empty();
        out.sweeps.push_back(std::move(swept));
        if (empty) break;
    }
    out.end = sim.Now();
    out.event_hash = sim.EventHash();
}

BatchLimitTrace
RunBatchLimitScript(bool wave, bool decorated)
{
    TransportFixture f(wave);
    PassThroughTransport pass(*f.transport);
    SchedTransport& t = decorated ? pass : *f.transport;
    BatchLimitTrace trace;
    f.sim.Spawn(BatchLimitScript(f.sim, t, trace));
    f.sim.Run();
    return trace;
}

TEST_P(TransportTest, BatchLimitsKeepEveryRecordIntact)
{
    const BatchLimitTrace trace = RunBatchLimitScript(GetParam(), false);
    EXPECT_EQ(trace.message_batches, (std::vector<std::size_t>{32, 8, 0}));
    ASSERT_EQ(trace.message_tids.size(), 40u);
    for (std::size_t i = 0; i < trace.message_tids.size(); ++i) {
        EXPECT_EQ(trace.message_tids[i], static_cast<Tid>(i));
    }
    // Each core's ids run 1..10 in commit order on the Wave binding and
    // 1..20 across cores on the shm one; either way they ascend.
    ASSERT_EQ(trace.per_core_ids.size(), 8u);
    for (std::size_t i = 1; i < trace.per_core_ids.size(); ++i) {
        EXPECT_LT(trace.per_core_ids[i - 1], trace.per_core_ids[i]);
    }
    // Sweep 1: core 0's last 2, core 1's first 8. Sweep 2: core 1's
    // last 2. Sweep 3: empty.
    ASSERT_EQ(trace.sweeps.size(), 3u);
    const std::vector<int> want_cores1{0, 0, 1, 1, 1, 1, 1, 1, 1, 1};
    std::vector<int> cores1;
    for (const SweptOutcome& s : trace.sweeps[0]) cores1.push_back(s.core);
    EXPECT_EQ(cores1, want_cores1);
    ASSERT_EQ(trace.sweeps[1].size(), 2u);
    EXPECT_EQ(trace.sweeps[1][0].core, 1);
    EXPECT_TRUE(trace.sweeps[2].empty());
    for (const auto& sweep : trace.sweeps) {
        for (std::size_t i = 1; i < sweep.size(); ++i) {
            if (sweep[i].core == sweep[i - 1].core) {
                EXPECT_LT(sweep[i - 1].outcome.txn_id,
                          sweep[i].outcome.txn_id);
                // One stamp per core: when its polling finished.
                EXPECT_EQ(sweep[i - 1].seen_at, sweep[i].seen_at);
            } else {
                EXPECT_LT(sweep[i - 1].seen_at, sweep[i].seen_at);
            }
        }
    }
    EXPECT_GT(trace.sweeps[0].front().seen_at, trace.sweep_starts[0]);
}

TEST_P(TransportTest, SweepMatchesTheDefaultBuiltFromPerCorePolls)
{
    // The binding's own sweep against the base-class default reached
    // through a decorator: same records, same seen_at stamps, same
    // event stream.
    const BatchLimitTrace bare = RunBatchLimitScript(GetParam(), false);
    const BatchLimitTrace decorated = RunBatchLimitScript(GetParam(), true);
    ASSERT_EQ(bare.sweeps.size(), decorated.sweeps.size());
    for (std::size_t i = 0; i < bare.sweeps.size(); ++i) {
        ASSERT_EQ(bare.sweeps[i].size(), decorated.sweeps[i].size());
        for (std::size_t j = 0; j < bare.sweeps[i].size(); ++j) {
            const SweptOutcome& a = bare.sweeps[i][j];
            const SweptOutcome& b = decorated.sweeps[i][j];
            EXPECT_EQ(a.core, b.core);
            EXPECT_EQ(a.outcome.txn_id, b.outcome.txn_id);
            EXPECT_EQ(a.outcome.status, b.outcome.status);
            EXPECT_EQ(a.seen_at, b.seen_at)
                << "sweep " << i << " record " << j;
        }
    }
    EXPECT_EQ(bare.end, decorated.end);
    EXPECT_EQ(bare.event_hash, decorated.event_hash);
}

INSTANTIATE_TEST_SUITE_P(Bindings, TransportTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& param_info) {
                             return param_info.param ? "Wave" : "OnHostShm";
                         });

/** Thread body burning a fixed amount of service time per wake. */
class FixedWorkBody : public ThreadBody {
  public:
    explicit FixedWorkBody(sim::DurationNs work, int& completions)
        : work_(work), completions_(completions)
    {
    }

    Task<RunStop>
    Run(RunContext& ctx) override
    {
        sim::DurationNs remaining = work_;
        while (remaining > 0) {
            const auto ran =
                co_await ctx.interrupt.SleepInterruptible(remaining);
            remaining -= std::min(ran, remaining);
            if (remaining > 0) co_return RunStop::kPreempted;
        }
        ++completions_;
        co_return RunStop::kBlocked;
    }

  private:
    sim::DurationNs work_;
    int& completions_;
};

/** Full-stack fixture: kernel + agent + FIFO policy on a transport. */
struct StackFixture {
    explicit StackFixture(bool wave, int cores = 2)
        : machine(sim),
          runtime(sim, machine, pcie::PcieConfig{},
                  api::OptimizationConfig::Full())
    {
        if (wave) {
            transport =
                std::make_unique<WaveSchedTransport>(runtime, cores);
        } else {
            transport = std::make_unique<ShmSchedTransport>(sim, cores);
        }
        kernel = std::make_unique<KernelSched>(sim, machine, *transport);
        policy = std::make_shared<sched::FifoPolicy>();
        AgentConfig config;
        for (int i = 0; i < cores; ++i) config.cores.push_back(i);
        config.prestage_min_depth = 2;
        agent = std::make_shared<GhostAgent>(*transport, policy, config);
        if (wave) {
            runtime.StartWaveAgent(agent, 0);
        } else {
            agent_ctx = std::make_unique<AgentContext>(
                sim, machine.NicCpu(0));  // any spare CPU model works
            sim.Spawn(agent->Run(*agent_ctx));
        }
    }

    Simulator sim;
    machine::Machine machine;
    WaveRuntime runtime;
    std::unique_ptr<SchedTransport> transport;
    std::unique_ptr<KernelSched> kernel;
    std::shared_ptr<sched::FifoPolicy> policy;
    std::shared_ptr<GhostAgent> agent;
    std::unique_ptr<AgentContext> agent_ctx;
};

class StackTest : public ::testing::TestWithParam<bool> {};

TEST_P(StackTest, SchedulesARunnableThreadEndToEnd)
{
    StackFixture f(GetParam());
    int completions = 0;
    f.kernel->AddThread(1, std::make_shared<FixedWorkBody>(5_us,
                                                           completions));
    f.kernel->Start({0, 1});
    f.sim.RunFor(1'000'000);  // 1 ms
    EXPECT_EQ(completions, 1);
    EXPECT_GE(f.kernel->Stats().commits_ok, 1u);
}

TEST_P(StackTest, ManyThreadsAllGetScheduled)
{
    StackFixture f(GetParam());
    int completions = 0;
    for (Tid tid = 1; tid <= 20; ++tid) {
        f.kernel->AddThread(
            tid, std::make_shared<FixedWorkBody>(5_us, completions));
    }
    f.kernel->Start({0, 1});
    f.sim.RunFor(5'000'000);
    EXPECT_EQ(completions, 20);
}

TEST_P(StackTest, WakeupReschedulesABlockedThread)
{
    StackFixture f(GetParam());
    int completions = 0;
    f.kernel->AddThread(1, std::make_shared<FixedWorkBody>(5_us,
                                                           completions));
    f.kernel->Start({0, 1});
    f.sim.RunFor(1'000'000);
    ASSERT_EQ(completions, 1);

    f.kernel->WakeThread(1);
    f.sim.RunFor(1'000'000);
    EXPECT_EQ(completions, 2);
}

TEST_P(StackTest, CommitAgainstDeadThreadFailsCleanly)
{
    StackFixture f(GetParam());
    f.kernel->Start({0, 1});
    f.sim.RunFor(100'000);

    // Forge a decision for a thread the kernel never knew. The commit
    // must fail with kFailedStale and host state must stay intact.
    f.sim.Spawn([](StackFixture& fx) -> Task<> {
        GhostDecision d{};
        d.type = DecisionType::kRunThread;
        d.tid = 999;  // unknown thread
        d.core = 0;
        fx.transport->AgentStageDecision(d);
        co_await fx.transport->AgentCommit(0, /*kick=*/true);
    }(f));
    f.sim.RunFor(1'000'000);
    EXPECT_GE(f.kernel->Stats().commits_failed, 1u);
    // The kernel survives: a real thread still schedules fine.
    int completions = 0;
    f.kernel->AddThread(
        1, std::make_shared<FixedWorkBody>(5_us, completions));
    f.sim.RunFor(1'000'000);
    EXPECT_EQ(completions, 1);
}

TEST_P(StackTest, WakeWhileRunningIsNotLost)
{
    StackFixture f(GetParam());
    int completions = 0;
    f.kernel->AddThread(1, std::make_shared<FixedWorkBody>(50_us,
                                                           completions));
    f.kernel->Start({0, 1});
    // Wake the thread while it is mid-run; the wake must convert the
    // eventual block into a re-enqueue, producing a second completion.
    f.sim.Schedule(30'000, [&] { f.kernel->WakeThread(1); });
    f.sim.RunFor(2'000'000);
    EXPECT_EQ(completions, 2);
}

INSTANTIATE_TEST_SUITE_P(Bindings, StackTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& param_info) {
                             return param_info.param ? "Wave" : "OnHostShm";
                         });

TEST(Preemption, AgentKickPreemptsLongRunner)
{
    StackFixture f(/*wave=*/true, /*cores=*/1);
    int completions = 0;
    // One long thread hogs the single core; a second thread arrives.
    f.kernel->AddThread(1, std::make_shared<FixedWorkBody>(500_us,
                                                           completions));
    f.kernel->Start({0});
    f.sim.RunFor(50'000);

    f.kernel->AddThread(2, std::make_shared<FixedWorkBody>(5_us,
                                                           completions));
    f.sim.RunFor(50'000);

    // FIFO never preempts: the short thread waits for the long one.
    EXPECT_EQ(f.kernel->Stats().preemptions, 0u);

    // Force a preemption decision directly (policy-independent check
    // of the MSI-X preemption path).
    f.sim.Spawn([](StackFixture& fx) -> Task<> {
        GhostDecision d{};
        d.type = DecisionType::kRunThread;
        d.tid = 2;
        d.core = 0;
        d.preempt = 1;  // explicit preemption intent
        fx.transport->AgentStageDecision(d);
        co_await fx.transport->AgentCommit(0, /*kick=*/true);
    }(f));
    f.sim.RunFor(100'000);
    EXPECT_GE(f.kernel->Stats().preemptions, 1u);
    EXPECT_GE(completions, 1);  // the short thread completed
}

}  // namespace
}  // namespace wave::ghost

namespace wave::ghost {
namespace {

TEST(KernelSched, IdleDecisionCommitsAndLeavesCoreIdle)
{
    // An explicit kIdle decision commits successfully (outcome
    // kCommitted) but schedules nothing.
    StackFixture f(/*wave=*/true, /*cores=*/1);
    f.kernel->Start({0});
    f.sim.RunFor(100'000);

    f.sim.Spawn([](StackFixture& fx) -> sim::Task<> {
        GhostDecision d{};
        d.type = DecisionType::kIdle;
        d.core = 0;
        fx.transport->AgentStageDecision(d);
        co_await fx.transport->AgentCommit(0, /*kick=*/true);
    }(f));
    f.sim.RunFor(1'000'000);
    EXPECT_GE(f.kernel->Stats().commits_ok, 1u);
    EXPECT_EQ(f.kernel->Stats().commits_failed, 0u);
}

TEST(KernelSched, PollIdleModeSchedulesWithoutKicks)
{
    // Kickless agent + polling kernel still makes progress.
    Simulator sim;
    machine::Machine machine(sim);
    WaveRuntime runtime(sim, machine, pcie::PcieConfig{},
                        api::OptimizationConfig::Full());
    WaveSchedTransport transport(runtime, 2);
    KernelOptions options;
    options.poll_idle = true;
    KernelSched kernel(sim, machine, transport, GhostCosts{}, options);

    auto policy = std::make_shared<sched::FifoPolicy>();
    AgentConfig cfg;
    cfg.cores = {0, 1};
    cfg.use_kicks = false;
    auto agent = std::make_shared<GhostAgent>(transport, policy, cfg);
    runtime.StartWaveAgent(agent, 0);

    int completions = 0;
    for (Tid tid = 1; tid <= 10; ++tid) {
        kernel.AddThread(tid, std::make_shared<FixedWorkBody>(
                                  5'000, completions));
    }
    kernel.Start({0, 1});
    sim.RunFor(3'000'000);
    EXPECT_EQ(completions, 10);
    EXPECT_EQ(agent->Stats().kicks, 0u) << "no MSI-X in polling mode";
    EXPECT_GT(kernel.Stats().idle_polls, 0u);
}

}  // namespace
}  // namespace wave::ghost
