// wave-domain: harness
#include "analyze/graph_rules.h"

#include <algorithm>

#include "analyze/coroutines.h"
#include <deque>
#include <set>

namespace wa {

std::string
ShardOf(const SourceFile& f)
{
    if (!f.owns.empty()) return f.owns;
    if (f.domain == Domain::kHost) return "host";
    if (f.domain == Domain::kNic) return "nic";
    return "";
}

const SourceFile*
GraphRules::FileOf(const std::string& path) const
{
    const auto it = files_.find(path);
    return it == files_.end() ? nullptr : it->second;
}

std::vector<Finding>
GraphRules::Run()
{
    std::vector<Finding> out;
    CheckTransitiveHot(out);
    CheckShardClosure(out);
    CheckMutableGlobals(out);
    CheckDeadLifetimes(out);
    CheckSeamBypass(out);
    return out;
}

void
GraphRules::CheckTransitiveHot(std::vector<Finding>& out)
{
    const auto& symbols = graph_.symbols();
    const auto& calls = graph_.calls();

    // caller symbol -> outgoing edge indices, in insertion (and
    // therefore deterministic sorted-file) order.
    std::map<int, std::vector<std::size_t>> adj;
    for (std::size_t i = 0; i < calls.size(); ++i) {
        adj[calls[i].caller].push_back(i);
    }

    // Calls into src/check/ are observer-side (the checkers only read
    // the clock), so neither the site nor any path through it counts.
    std::set<std::string> reported;
    for (const CallEdge& site : calls) {
        if (!site.hot || site.checker_callee) continue;

        // BFS from the callee; the shortest explain path to each
        // faulty sink is reconstructed through `parent`.
        std::map<int, int> parent;  // symbol -> predecessor symbol
        parent[site.callee] = -1;
        std::deque<int> queue{site.callee};
        while (!queue.empty()) {
            const int at = queue.front();
            queue.pop_front();
            const Symbol& sym =
                symbols[static_cast<std::size_t>(at)];
            // Abort paths ([[noreturn]] anywhere in the overload set)
            // are not steady-state cost: neither their facts nor
            // anything behind them counts.
            if (graph_.IsNoReturn(sym)) continue;
            if (!sym.facts.empty()) {
                const FactSite& fact = sym.facts.front();
                std::string path_str = sym.full;
                for (int p = parent[at]; p != -1; p = parent[p]) {
                    path_str =
                        symbols[static_cast<std::size_t>(p)].full +
                        " -> " + path_str;
                }
                const std::string key = site.file + ":" +
                                        std::to_string(site.line) +
                                        ":" + sym.full;
                if (reported.insert(key).second) {
                    out.push_back(
                        {site.file, site.line, "W301",
                         "wave-hot call site reaches `" + sym.full +
                             "`, which " + FactName(fact.fact) +
                             " (`" + fact.detail + "`, " + sym.file +
                             ":" + std::to_string(fact.line) +
                             "); call path: " + path_str});
                }
                // Keep walking: other sinks behind this one still
                // deserve their own explain paths.
            }
            const auto it = adj.find(at);
            if (it == adj.end()) continue;
            for (std::size_t e : it->second) {
                const CallEdge& next = calls[e];
                if (next.checker_callee) continue;
                if (parent.count(next.callee)) continue;
                parent[next.callee] = at;
                queue.push_back(next.callee);
            }
        }
    }
}

void
GraphRules::CheckShardClosure(std::vector<Finding>& out)
{
    const auto& symbols = graph_.symbols();
    std::set<std::string> reported;
    for (const RefEdge& ref : graph_.refs()) {
        const Symbol& g = symbols[static_cast<std::size_t>(ref.global)];
        const SourceFile* def_file = FileOf(g.file);
        const SourceFile* use_file = FileOf(ref.file);
        if (def_file == nullptr || use_file == nullptr) continue;
        if (def_file->has_shared) continue;
        if (def_file->domain == Domain::kPcie ||
            use_file->domain == Domain::kPcie) {
            continue;  // the seam is the sanctioned crossing point
        }
        const std::string def_shard = ShardOf(*def_file);
        const std::string use_shard = ShardOf(*use_file);
        if (def_shard.empty() || use_shard.empty()) continue;
        if (def_shard == use_shard) continue;
        const std::string key =
            ref.file + ":" + std::to_string(ref.line) + ":" + g.full;
        if (!reported.insert(key).second) continue;
        out.push_back(
            {ref.file, ref.line, "W302",
             "shard-closure leak: references mutable state `" + g.full +
                 "` owned by shard `" + def_shard + "` (" + g.file +
                 ":" + std::to_string(g.line) +
                 ") from a shard-`" + use_shard +
                 "` file; route through the pcie seam or mark the "
                 "definition wave-shared(<reason>)"});
    }
}

void
GraphRules::CheckMutableGlobals(std::vector<Finding>& out)
{
    for (const Symbol& s : graph_.symbols()) {
        if (s.kind == SymKind::kFunction || s.is_const) continue;
        const SourceFile* f = FileOf(s.file);
        if (f == nullptr) continue;
        // Checker shadow state is observer-side by construction: no
        // model code reads it.
        if (PathHas(s.file, "check/")) continue;
        if (f->has_shared) continue;
        const char* what = s.kind == SymKind::kGlobal
                               ? "namespace-scope mutable variable"
                               : "mutable function-local static";
        out.push_back(
            {s.file, s.line, "W303",
             std::string(what) + " `" + s.full +
                 "` is a cross-shard nondeterminism hazard: mark the "
                 "file wave-shared(<reason>) or justify inline with "
                 "allow(W303 <reason>)"});
    }
}

void
GraphRules::CheckDeadLifetimes(std::vector<Finding>& out)
{
    for (const auto& [path, file] : files_) {
        for (int line : DeadLifetimeLines(*file)) {
            out.push_back(
                {path, line, "W304",
                 "dead annotation: this wave-lifetime contract is "
                 "attached to no Task-returning function head — the "
                 "function it named moved or no longer exists"});
        }
    }
}

void
GraphRules::CheckSeamBypass(std::vector<Finding>& out)
{
    const auto& symbols = graph_.symbols();
    std::set<std::string> reported;
    for (const CallEdge& e : graph_.calls()) {
        if (e.checker_callee) continue;  // checkers observe both domains
        const Symbol& callee =
            symbols[static_cast<std::size_t>(e.callee)];
        const SourceFile* caller_file = FileOf(e.file);
        const SourceFile* callee_file = FileOf(callee.file);
        if (caller_file == nullptr || callee_file == nullptr) continue;
        const Domain from = caller_file->domain;
        const Domain to = callee_file->domain;
        const bool bypass =
            (from == Domain::kHost && to == Domain::kNic) ||
            (from == Domain::kNic && to == Domain::kHost);
        if (!bypass) continue;
        const std::string key =
            e.file + ":" + std::to_string(e.line) + ":" + callee.full;
        if (!reported.insert(key).second) continue;
        out.push_back(
            {e.file, e.line, "W305",
             "seam bypass: " + std::string(DomainName(from)) +
                 "-domain code calls `" + callee.full +
                 "` defined in " + DomainName(to) + "-domain file " +
                 callee.file +
                 "; cross-domain calls route through the pcie seam"});
    }
}

}  // namespace wa
