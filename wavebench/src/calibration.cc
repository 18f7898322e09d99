#include "calibration.h"

#include <functional>
#include <queue>
#include <vector>

#include "probe.h"
#include "sim/simulator.h"

namespace wave::wavebench {

double
CoreNsPerEventPass()
{
    struct Chain {
        sim::Simulator* sim;
        std::uint64_t state;
        std::uint64_t remaining;

        void
        Fire()
        {
            if (remaining-- == 0) return;
            state = state * 6364136223846793005ull + 1442695040888963407ull;
            sim->Schedule(sim::DurationNs{1 + (state >> 52)},
                          [this] { Fire(); });
        }
    };
    constexpr std::size_t kChains = 64;
    constexpr std::uint64_t kEventsPerChain = 4'000;
    sim::Simulator sim;
    std::vector<Chain> chains(kChains);
    for (std::size_t i = 0; i < kChains; ++i) {
        chains[i] = Chain{&sim, i + 1, kEventsPerChain};
        Chain* chain = &chains[i];
        sim.Schedule(sim::DurationNs{0}, [chain] { chain->Fire(); });
    }
    const std::int64_t start = HostNs();
    sim.Run();
    return static_cast<double>(HostNs() - start) /
           static_cast<double>(sim.EventsExecuted());
}

namespace {

// The reference loop: a small discrete-event loop of its own. Events are
// 64 bytes, ordered in a binary heap and dispatched through a table of
// function pointers; each handler reads and writes a pseudo-random word
// of a 16 MiB table and reschedules its event. That mix of heap moves,
// indirect calls and cache misses tracks the simulator's own host cost
// far better than a plain loop over the table does.

struct RefEvent {
    std::uint64_t when;
    std::uint32_t kind;
    std::uint32_t pad;
    std::uint64_t payload[6];
};

struct RefLater {
    bool
    operator()(const RefEvent& a, const RefEvent& b) const
    {
        return a.when > b.when;
    }
};

struct RefState {
    std::vector<std::uint64_t>& table;
    std::uint64_t x;  ///< xorshift64 state
    std::uint64_t acc;

    std::uint64_t
    Next()
    {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    }
};

/** Handles one event; returns the delay to its next firing. */
template <int K>
std::uint64_t
RefHandler(RefState& s, const RefEvent& e)
{
    const std::uint64_t r = s.Next();
    std::uint64_t& cell =
        s.table[(r ^ e.payload[K % 6]) & (s.table.size() - 1)];
    s.acc += cell + K;
    cell = s.acc;
    return 1 + ((r >> (K * 3)) & 0x3ff);
}

}  // namespace

std::int64_t
ReferencePassNs()
{
    constexpr std::size_t kTableWords = std::size_t{1} << 21;  // 16 MiB
    constexpr int kPending = 1024;
    constexpr int kSteps = 20'000;
    using Handler = std::uint64_t (*)(RefState&, const RefEvent&);
    static constexpr Handler kHandlers[8] = {
        RefHandler<0>, RefHandler<1>, RefHandler<2>, RefHandler<3>,
        RefHandler<4>, RefHandler<5>, RefHandler<6>, RefHandler<7>,
    };
    // The table is allocated once; every allocation precedes the timing.
    static std::vector<std::uint64_t> table(kTableWords, 1);
    std::vector<RefEvent> storage;
    storage.reserve(kPending + 1);
    std::priority_queue<RefEvent, std::vector<RefEvent>, RefLater> heap(
        RefLater{}, std::move(storage));
    RefState s{table, 88172645463325252ull, 0};

    const std::int64_t start = HostNs();
    for (int i = 0; i < kPending; ++i) {
        RefEvent e{};
        e.when = s.Next() & 0xffff;
        e.kind = static_cast<std::uint32_t>(s.Next() & 7);
        e.payload[0] = s.Next();
        heap.push(e);
    }
    for (int i = 0; i < kSteps; ++i) {
        RefEvent e = heap.top();
        heap.pop();
        const std::uint64_t delay = kHandlers[e.kind](s, e);
        e.when += delay;
        e.kind = static_cast<std::uint32_t>((e.kind + delay) & 7);
        e.payload[delay % 6] ^= s.acc;
        heap.push(e);
    }
    const std::int64_t ns = HostNs() - start;
    table[0] += s.acc;  // keeps the loop's result observable
    return ns;
}

}  // namespace wave::wavebench
