// wave-domain: harness
#include "analyze/report.h"

#include <cstdio>
#include <fstream>
#include <regex>
#include <set>

#include "analyze/graph_rules.h"

namespace wa {

std::vector<BaselineEntry>
LoadBaseline(const std::filesystem::path& path)
{
    std::vector<BaselineEntry> entries;
    std::ifstream in(path);
    std::string line;
    int line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        const auto hash = line.find('#');
        if (hash != std::string::npos) line.erase(hash);
        while (!line.empty() &&
               (line.back() == ' ' || line.back() == '\t' ||
                line.back() == '\r')) {
            line.pop_back();
        }
        if (!line.empty()) entries.push_back({line, line_no});
    }
    return entries;
}

bool
BaselineMatches(const std::string& entry, const Finding& finding)
{
    const auto colon = entry.rfind(':');
    if (colon == std::string::npos) return false;
    const std::string epath = entry.substr(0, colon);
    const std::string erule = entry.substr(colon + 1);
    if (erule != finding.rule) return false;
    if (!epath.empty() && epath.back() == '/') {
        return finding.path.compare(0, epath.size(), epath) == 0;
    }
    return finding.path == epath;
}

/**
 * One allow() may list several rule ids before the justification:
 * `allow(W101 W105 formatting happens once at shutdown)`. The allow
 * must sit in a comment: the splitter blanks string literals out of
 * the comment channel, so quoting the incantation never suppresses.
 */
bool
InlineSuppressed(const SourceFile& f, const Finding& finding,
                 int* allow_line)
{
    static const std::regex kAllowRe(
        R"(wave-analyze:\s*allow\(\s*((?:W[0-9]{3}[\s,]+)*W[0-9]{3}))");
    static const std::regex kIdRe(R"(W[0-9]{3})");
    const auto check = [&](int line_no) {
        if (line_no < 1 ||
            line_no > static_cast<int>(f.lines.size())) {
            return false;
        }
        const std::string& comment =
            f.lines[static_cast<std::size_t>(line_no - 1)].comment;
        std::smatch m;
        if (!std::regex_search(comment, m, kAllowRe)) return false;
        const std::string ids = m[1].str();
        auto begin =
            std::sregex_iterator(ids.begin(), ids.end(), kIdRe);
        for (auto it = begin; it != std::sregex_iterator(); ++it) {
            if (it->str() == finding.rule) {
                if (allow_line != nullptr) *allow_line = line_no;
                return true;
            }
        }
        return false;
    };
    return check(finding.line) || check(finding.line - 1);
}

void
ListRules()
{
    std::printf("wave_analyze rule catalog:\n");
    for (const Rule& r : kRules) {
        std::printf("  %s %-22s %s\n", r.id, r.name, r.summary);
    }
}

std::string
JsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            case '\r': out += "\\r"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

void
EmitText(const ReportInput& in)
{
    for (std::size_t i = 0; i < in.findings->size(); ++i) {
        if ((*in.status)[i] != Status::kReported) continue;
        const Finding& fd = (*in.findings)[i];
        std::printf("%s:%d: %s: %s\n", fd.path.c_str(), fd.line,
                    fd.rule.c_str(), fd.message.c_str());
    }
    if (in.reported == 0) {
        std::printf("wave_analyze: OK (%zu files, %d suppressed)\n",
                    in.file_count, in.suppressed);
        return;
    }
    std::printf(
        "wave_analyze: %d finding%s (%d suppressed, %zu stale "
        "baseline entr%s)\n",
        in.reported, in.reported == 1 ? "" : "s", in.suppressed,
        in.stale->size(), in.stale->size() == 1 ? "y" : "ies");
}

namespace {

const char*
KindName(SymKind kind)
{
    switch (kind) {
        case SymKind::kFunction: return "function";
        case SymKind::kGlobal: return "global";
        case SymKind::kLocalStatic: return "local-static";
    }
    return "?";
}

const char*
FactTag(Fact fact)
{
    switch (fact) {
        case Fact::kAlloc: return "alloc";
        case Fact::kThrow: return "throw";
        case Fact::kLock: return "lock";
        case Fact::kIo: return "io";
    }
    return "?";
}

/** Shard of a file for closure reporting: owns/derived/shared. */
std::string
ClosureShard(const SourceFile& f)
{
    if (f.has_shared) return "shared";
    const std::string shard = ShardOf(f);
    return shard.empty() ? "neutral" : shard;
}

}  // namespace

void
EmitJson(const ReportInput& in)
{
    std::printf("{\n  \"schema\": \"wave-analyze-v2\",\n");
    std::printf("  \"files\": %zu,\n", in.file_count);
    std::printf("  \"reported\": %d,\n", in.reported);
    std::printf("  \"suppressed\": %d,\n", in.suppressed);
    std::printf("  \"findings\": [");
    for (std::size_t i = 0; i < in.findings->size(); ++i) {
        const Finding& fd = (*in.findings)[i];
        const Status st = (*in.status)[i];
        const char* sup = st == Status::kReported
                              ? "null"
                              : (st == Status::kInline ? "\"inline\""
                                                       : "\"baseline\"");
        std::printf(
            "%s\n    {\"rule\": \"%s\", \"path\": \"%s\", "
            "\"line\": %d, \"message\": \"%s\", "
            "\"suppressed\": %s, \"suppression\": %s}",
            i == 0 ? "" : ",", fd.rule.c_str(),
            JsonEscape(fd.path).c_str(), fd.line,
            JsonEscape(fd.message).c_str(),
            st == Status::kReported ? "false" : "true", sup);
    }
    std::printf("\n  ],\n");

    // The shard-ownership map: explicit annotations, with ownership
    // derived from the domain where unambiguous. This is the artifact
    // the parallel-executor work consumes.
    std::printf("  \"ownership\": [");
    bool first = true;
    for (const auto& [path, f] : *in.model_files) {
        std::string owns = f->owns_line != 0 ? f->owns : "";
        std::string shared = f->has_shared ? f->shared_reason : "";
        bool derived = false;
        if (owns.empty() && !f->has_shared) {
            if (f->domain == Domain::kHost) {
                owns = "host";
                derived = true;
            } else if (f->domain == Domain::kNic) {
                owns = "nic";
                derived = true;
            }
        }
        const std::string owns_json =
            owns.empty() ? std::string("null")
                         : "\"" + JsonEscape(owns) + "\"";
        const std::string shared_json =
            f->has_shared ? "\"" + JsonEscape(shared) + "\""
                          : std::string("null");
        std::printf(
            "%s\n    {\"path\": \"%s\", \"domain\": \"%s\", "
            "\"owns\": %s, \"shared\": %s, \"derived\": %s}",
            first ? "" : ",", JsonEscape(path).c_str(),
            DomainName(f->domain), owns_json.c_str(),
            shared_json.c_str(), derived ? "true" : "false");
        first = false;
    }
    std::printf("\n  ],\n");

    // The name-resolved cross-TU graph (pass 1 output, verified by
    // pass 2). Symbol ids index into "symbols".
    const SymbolGraph& g = *in.graph;
    std::printf("  \"call_graph\": {\n    \"symbols\": [");
    const auto& symbols = g.symbols();
    for (std::size_t i = 0; i < symbols.size(); ++i) {
        const Symbol& s = symbols[i];
        std::printf(
            "%s\n      {\"id\": %zu, \"name\": \"%s\", "
            "\"kind\": \"%s\", \"file\": \"%s\", \"line\": %d, "
            "\"file_local\": %s, \"hot\": %s, \"const\": %s, "
            "\"facts\": [",
            i == 0 ? "" : ",", i, JsonEscape(s.full).c_str(),
            KindName(s.kind), JsonEscape(s.file).c_str(), s.line,
            s.file_local ? "true" : "false", s.hot ? "true" : "false",
            s.is_const ? "true" : "false");
        for (std::size_t k = 0; k < s.facts.size(); ++k) {
            const FactSite& fact = s.facts[k];
            std::printf(
                "%s{\"fact\": \"%s\", \"line\": %d, "
                "\"detail\": \"%s\"}",
                k == 0 ? "" : ", ", FactTag(fact.fact), fact.line,
                JsonEscape(fact.detail).c_str());
        }
        std::printf("]}");
    }
    std::printf("\n    ],\n    \"calls\": [");
    const auto& calls = g.calls();
    for (std::size_t i = 0; i < calls.size(); ++i) {
        const CallEdge& e = calls[i];
        std::printf(
            "%s\n      {\"caller\": %d, \"callee\": %d, "
            "\"file\": \"%s\", \"line\": %d, \"hot\": %s, "
            "\"checker_callee\": %s}",
            i == 0 ? "" : ",", e.caller, e.callee,
            JsonEscape(e.file).c_str(), e.line,
            e.hot ? "true" : "false",
            e.checker_callee ? "true" : "false");
    }
    std::printf("\n    ],\n    \"refs\": [");
    const auto& refs = g.refs();
    for (std::size_t i = 0; i < refs.size(); ++i) {
        const RefEdge& r = refs[i];
        std::printf(
            "%s\n      {\"referrer\": %d, \"global\": %d, "
            "\"file\": \"%s\", \"line\": %d}",
            i == 0 ? "" : ",", r.referrer, r.global,
            JsonEscape(r.file).c_str(), r.line);
    }
    std::printf("\n    ]\n  },\n");

    // The ownership closure: which shard each model file belongs to,
    // and every cross-shard mutable-state reference with whether the
    // crossing is sanctioned (seam or wave-shared definition).
    std::printf("  \"ownership_closure\": {\n    \"shards\": {");
    std::map<std::string, std::vector<std::string>> shards;
    for (const auto& [path, f] : *in.model_files) {
        shards[ClosureShard(*f)].push_back(path);
    }
    bool first_shard = true;
    for (const auto& [shard, paths] : shards) {
        std::printf("%s\n      \"%s\": [", first_shard ? "" : ",",
                    JsonEscape(shard).c_str());
        for (std::size_t i = 0; i < paths.size(); ++i) {
            std::printf("%s\"%s\"", i == 0 ? "" : ", ",
                        JsonEscape(paths[i]).c_str());
        }
        std::printf("]");
        first_shard = false;
    }
    std::printf("\n    },\n    \"cross_shard_refs\": [");
    bool first_ref = true;
    for (const RefEdge& r : refs) {
        const Symbol& sym =
            symbols[static_cast<std::size_t>(r.global)];
        const auto def_it = in.model_files->find(sym.file);
        const auto use_it = in.model_files->find(r.file);
        if (def_it == in.model_files->end() ||
            use_it == in.model_files->end()) {
            continue;
        }
        const std::string def_shard = ShardOf(*def_it->second);
        const std::string use_shard = ShardOf(*use_it->second);
        if (def_shard == use_shard) continue;
        const bool sanctioned =
            def_it->second->has_shared ||
            def_it->second->domain == Domain::kPcie ||
            use_it->second->domain == Domain::kPcie ||
            def_shard.empty() || use_shard.empty();
        std::printf(
            "%s\n      {\"symbol\": \"%s\", \"from\": \"%s\", "
            "\"to\": \"%s\", \"file\": \"%s\", \"line\": %d, "
            "\"sanctioned\": %s}",
            first_ref ? "" : ",", JsonEscape(sym.full).c_str(),
            JsonEscape(use_shard.empty() ? "neutral" : use_shard)
                .c_str(),
            JsonEscape(def_shard.empty() ? "neutral" : def_shard)
                .c_str(),
            JsonEscape(r.file).c_str(), r.line,
            sanctioned ? "true" : "false");
        first_ref = false;
    }
    std::printf("\n    ]\n  },\n");

    std::printf("  \"stale_baseline\": [");
    for (std::size_t i = 0; i < in.stale->size(); ++i) {
        std::printf("%s\n    \"%s\"", i == 0 ? "" : ",",
                    JsonEscape((*in.stale)[i]).c_str());
    }
    std::printf("\n  ]\n}\n");
}

void
EmitSarif(const ReportInput& in)
{
    std::printf(
        "{\n"
        "  \"$schema\": "
        "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
        "  \"version\": \"2.1.0\",\n"
        "  \"runs\": [\n"
        "    {\n"
        "      \"tool\": {\n"
        "        \"driver\": {\n"
        "          \"name\": \"wave_analyze\",\n"
        "          \"rules\": [");
    constexpr std::size_t kRuleCount =
        sizeof(kRules) / sizeof(kRules[0]);
    for (std::size_t i = 0; i < kRuleCount; ++i) {
        const Rule& r = kRules[i];
        std::printf(
            "%s\n            {\"id\": \"%s\", \"name\": \"%s\", "
            "\"shortDescription\": {\"text\": \"%s\"}}",
            i == 0 ? "" : ",", r.id, JsonEscape(r.name).c_str(),
            JsonEscape(r.summary).c_str());
    }
    std::printf(
        "\n          ]\n"
        "        }\n"
        "      },\n"
        "      \"results\": [");
    bool first = true;
    for (std::size_t i = 0; i < in.findings->size(); ++i) {
        if ((*in.status)[i] != Status::kReported) continue;
        const Finding& fd = (*in.findings)[i];
        std::printf(
            "%s\n        {\"ruleId\": \"%s\", \"level\": \"error\", "
            "\"message\": {\"text\": \"%s\"}, \"locations\": "
            "[{\"physicalLocation\": {\"artifactLocation\": "
            "{\"uri\": \"%s\"}, \"region\": {\"startLine\": %d}}}]}",
            first ? "" : ",", fd.rule.c_str(),
            JsonEscape(fd.message).c_str(),
            JsonEscape(fd.path).c_str(), fd.line > 0 ? fd.line : 1);
        first = false;
    }
    std::printf(
        "\n      ]\n"
        "    }\n"
        "  ]\n"
        "}\n");
}

}  // namespace wa
