/**
 * @file
 * The wave_analyze rule catalog and the Finding record every rule
 * module produces. See docs/static-analysis.md for the full catalog
 * with rationale; tools/analyze/file_rules.h holds the per-file W00x/
 * W10x/W20x rules and tools/analyze/graph_rules.h the cross-TU W30x
 * rules.
 */
// wave-domain: harness
#pragma once

#include <string>

namespace wa {

struct Finding {
    std::string path;  ///< as reported (relative to root when possible)
    int line = 0;
    std::string rule;
    std::string message;
};

/** Which rule set a file gets. */
enum class Scope { kModel, kHarness };

struct Rule {
    const char* id;
    const char* name;
    const char* summary;
};

inline constexpr Rule kRules[] = {
    {"W001", "missing-domain",
     "every model source file carries a wave-domain annotation"},
    {"W002", "cross-domain-include",
     "includes respect the host/nic/pcie/neutral matrix"},
    {"W003", "cross-domain-symbol",
     "no naming symbols owned by the opposite domain"},
    {"W004", "actor-domain",
     "RegisterActor call sites declare the actor's domain"},
    {"W005", "hook-coverage",
     "queue/txn endpoint files call into wave::check"},
    {"W006", "stale-reason",
     "tolerate_stale != false carries a same-line justification"},
    {"W007", "wall-clock-rng",
     "no wall clock, std::rand, or unseeded RNG in model code"},
    {"W008", "time-narrowing",
     "double<->integer time conversion only through sim/time.h"},
    {"W101", "hot-alloc",
     "no heap allocation on wave-hot paths (new, make_unique/shared, "
     "unreserved push_back, std::string, std::function)"},
    {"W102", "hot-throw",
     "no throw/try/catch inside wave-hot regions"},
    {"W103", "hot-lock",
     "no mutexes or atomics in the single-threaded sim core hot set"},
    {"W104", "hot-by-value",
     "no pass-by-value of heavy types across wave-hot signatures"},
    {"W105", "hot-io",
     "no printf-family or iostream I/O on wave-hot paths"},
    {"W106", "hot-unbatched",
     "no per-element Channel ops inside wave-hot loops (bulk API)"},
    {"W201", "dangling-after-suspend",
     "Task coroutines taking refs/pointers/views (or implicit this) "
     "carry a wave-lifetime(caller-awaits|spawn-safe: ...) contract"},
    {"W202", "lambda-coroutine",
     "no capturing-lambda coroutines (captures live in the closure, "
     "which dies at the first suspension when temporary)"},
    {"W203", "spawn-dangling",
     "Spawn() only detaches spawn-safe tasks; never caller-awaits "
     "coroutines or lambdas bound to the spawner's stack"},
    {"W204", "shard-ownership",
     "pcie-seam and actor-registering files classify their mutable "
     "state with wave-owns(<shard>) or wave-shared(<reason>)"},
    {"W205", "unstable-iteration",
     "no iteration over pointer-keyed unordered containers in model "
     "code (address-dependent order breaks determinism fingerprints)"},
    {"W206", "suspend-under-guard",
     "no co_await while a scoped guard or borrowed view local is live"},
    {"W301", "transitive-hot",
     "no wave-hot call site reaches, through any call chain, a cold "
     "function that allocates, throws, locks, or does I/O"},
    {"W302", "shard-closure-leak",
     "no wave-owns(A) file references mutable state defined in a "
     "wave-owns(B) file except through the pcie seam or wave-shared"},
    {"W303", "mutable-global-census",
     "every namespace-scope mutable variable (and dynamically-"
     "initialized mutable local static) in model code carries a "
     "wave-shared justification — cross-shard nondeterminism hazard"},
    {"W304", "dead-annotation",
     "no wave-lifetime contract, inline allow(), or baseline entry "
     "that names nothing in the tree anymore"},
    {"W305", "seam-bypass",
     "no host<->nic call edges at symbol granularity; cross-domain "
     "calls route through the pcie seam"},
};

}  // namespace wa
