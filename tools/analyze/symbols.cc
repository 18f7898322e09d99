// wave-domain: harness
#include "analyze/symbols.h"

#include <algorithm>
#include <cctype>
#include <regex>
#include <set>

namespace wa {

const char*
FactName(Fact fact)
{
    switch (fact) {
        case Fact::kAlloc: return "allocates";
        case Fact::kThrow: return "throws";
        case Fact::kLock: return "locks";
        case Fact::kIo: return "does I/O";
    }
    return "?";
}

namespace {

/** Names that look like calls but never are. */
bool
IsCallKeyword(const std::string& name)
{
    static const std::set<std::string> kKeywords = {
        "if",           "for",         "while",      "switch",
        "return",       "sizeof",      "alignof",    "alignas",
        "decltype",     "static_cast", "const_cast", "dynamic_cast",
        "reinterpret_cast",            "new",        "delete",
        "co_await",     "co_return",   "co_yield",   "catch",
        "throw",        "static_assert",             "noexcept",
        "assert",       "defined",     "typeid",     "requires",
        "explicit",     "operator",    "int",        "bool",
        "char",         "double",      "float",      "long",
        "short",        "unsigned",    "signed",     "void",
        "auto",
    };
    return kKeywords.count(name) != 0;
}

/** Leading keywords that rule a line out as a declaration head. */
bool
StartsWithNonDecl(const std::string& code)
{
    static const std::regex kNonDeclRe(
        R"(^\s*(using|typedef|friend|template|return|case|default\b)"
        R"(|public|private|protected|goto|else|do\b)\b)");
    return std::regex_search(code, kNonDeclRe);
}

struct Frame {
    enum Kind { kNamespace, kClass, kFunction, kBlock };
    Kind kind;
    std::string name;  ///< namespace chain component or class name
    int open_depth;    ///< brace depth before this frame's '{'
    int symbol = -1;   ///< function frames: index into symbols_
};

/** Cold-line fact patterns (the W301 sink markers). */
struct FactPattern {
    Fact fact;
    const std::regex re;
};

const std::vector<FactPattern>&
FactPatterns()
{
    static const std::vector<FactPattern> kPatterns = [] {
        std::vector<FactPattern> v;
        v.push_back({Fact::kAlloc,
                     std::regex(R"(\bnew\s+[A-Za-z_:])")});
        v.push_back({Fact::kAlloc,
                     std::regex(R"(\bstd::make_(unique|shared)\s*<)")});
        v.push_back({Fact::kAlloc,
                     std::regex(R"((\.|->)\s*(push_back|emplace_back)"
                                R"(|resize|reserve)\s*\()")});
        v.push_back({Fact::kAlloc,
                     std::regex(R"(\bstd::string\s+[A-Za-z_]\w*\s*[;({=])"
                                R"(|\bstd::(to_string|ostringstream)"
                                R"(|stringstream)\b)")});
        v.push_back({Fact::kAlloc,
                     std::regex(R"(\bstd::function\s*<)")});
        v.push_back({Fact::kThrow, std::regex(R"(\bthrow\b)")});
        v.push_back({Fact::kLock,
                     std::regex(R"(\bstd::(mutex|lock_guard|scoped_lock)"
                                R"(|unique_lock|condition_variable)\b)")});
        v.push_back({Fact::kIo,
                     std::regex(R"(\b(printf|fprintf|sprintf|snprintf)"
                                R"(|puts|fputs|putchar|fwrite|fflush)\s*\()"
                                R"(|\bstd::(cout|cerr|clog|ofstream)"
                                R"(|ifstream|fstream)\b)")});
        return v;
    }();
    return kPatterns;
}

/** A parsed candidate head: name + where its parens/terminator sit. */
struct Head {
    std::string written;   ///< callee as written ("TimingWheel::Push")
    bool is_definition = false;
    bool is_static = false;
    int body_open_line = 0;  ///< 1-based line of the '{'
    int end_line = 0;        ///< 1-based line of the terminator
};

/**
 * Tries to parse a function head whose *name* sits on line @p i —
 * either name-first style (return type on the previous line, the
 * codebase norm at namespace scope) or type-and-name on one line
 * (in-class one-liner members). Returns nullopt when line @p i does
 * not start a head.
 */
std::optional<Head>
ParseHead(const SourceFile& f, std::size_t i)
{
    const std::size_t n = f.lines.size();
    std::string head;
    std::vector<std::size_t> line_of;
    const std::size_t window = std::min(n, i + 16);
    for (std::size_t j = i; j < window; ++j) {
        for (char c : f.lines[j].code) {
            head += c;
            line_of.push_back(j);
        }
        head += '\n';
        line_of.push_back(j);
    }

    // First '(' in the window that still belongs to this line's
    // declarator: the name and its '(' share a line in this codebase.
    const std::string& first = f.lines[i].code;
    const auto paren = first.find('(');
    if (paren == std::string::npos) return std::nullopt;
    // Scan the qualified identifier ending just before the '('.
    std::size_t e = paren;
    while (e > 0 &&
           std::isspace(static_cast<unsigned char>(first[e - 1]))) {
        --e;
    }
    std::size_t s = e;
    while (s > 0 && (std::isalnum(static_cast<unsigned char>(
                         first[s - 1])) ||
                     first[s - 1] == '_' || first[s - 1] == ':')) {
        --s;
    }
    if (s == e) return std::nullopt;
    std::string written = first.substr(s, e - s);
    while (!written.empty() && written.front() == ':') {
        written.erase(written.begin());
    }
    if (written.empty()) return std::nullopt;
    const auto last_sep = written.rfind("::");
    const std::string last = last_sep == std::string::npos
                                 ? written
                                 : written.substr(last_sep + 2);
    if (last.empty() || IsCallKeyword(last) || IsCallKeyword(written)) {
        return std::nullopt;
    }
    if (std::isdigit(static_cast<unsigned char>(last[0]))) {
        return std::nullopt;
    }

    // Walk the joined head from that '(': match the parameter list,
    // then scan to the terminator. A ':' after the params is a ctor
    // initializer list — keep scanning to its '{'.
    std::size_t p = 0;
    {
        // Index of the '(' within the joined head.
        std::size_t count = 0;
        for (std::size_t j = 0; j < head.size(); ++j) {
            if (line_of[j] == i) {
                if (count == paren) {
                    p = j;
                    break;
                }
                ++count;
            } else if (line_of[j] > i) {
                return std::nullopt;
            }
        }
    }
    int parens = 0;
    for (; p < head.size(); ++p) {
        if (head[p] == '(') ++parens;
        if (head[p] == ')' && --parens == 0) break;
        if (head[p] == ';' && parens == 0) return std::nullopt;
    }
    if (p >= head.size()) return std::nullopt;
    ++p;
    bool in_init_list = false;
    std::size_t term = std::string::npos;
    char term_char = '\0';
    int depth = 0;
    for (; p < head.size(); ++p) {
        const char c = head[p];
        if (c == '(') ++depth;
        if (c == ')') --depth;
        if (depth > 0) continue;
        if (c == '{') {
            term = p;
            term_char = '{';
            break;
        }
        if (in_init_list) continue;
        if (c == ';' || c == '=') {
            term = p;
            term_char = c;
            break;
        }
        if (c == ':') {
            if (p + 1 < head.size() && head[p + 1] == ':') {
                ++p;  // `::` inside a trailing type — not an init list
                continue;
            }
            in_init_list = true;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c)) ||
            std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
            c == '&' || c == '-' || c == '>' || c == '[' || c == ']') {
            continue;  // const / noexcept / override / -> ret / [[..]]
        }
        return std::nullopt;
    }
    if (term == std::string::npos) return std::nullopt;

    Head h;
    h.written = written;
    h.is_definition = term_char == '{';
    static const std::regex kStaticRe(R"(^\s*static\b)");
    h.is_static = std::regex_search(first, kStaticRe) ||
                  (i > 0 && std::regex_search(f.lines[i - 1].code,
                                              kStaticRe));
    h.body_open_line = static_cast<int>(line_of[term] + 1);
    h.end_line = h.body_open_line;
    return h;
}

/** Joined scope qualification of the enclosing frames. */
std::string
ScopeOf(const std::vector<Frame>& frames)
{
    std::string out;
    for (const Frame& fr : frames) {
        if (fr.kind != Frame::kNamespace && fr.kind != Frame::kClass) {
            continue;
        }
        if (fr.name.empty() || fr.name == "(anon)") continue;
        if (!out.empty()) out += "::";
        out += fr.name;
    }
    return out;
}

bool
InAnonNamespace(const std::vector<Frame>& frames)
{
    for (const Frame& fr : frames) {
        if (fr.kind == Frame::kNamespace && fr.name == "(anon)") {
            return true;
        }
    }
    return false;
}

}  // namespace

void
SymbolGraph::AddFile(const SourceFile& f)
{
    static const std::regex kNamespaceRe(
        R"(^\s*(?:inline\s+)?namespace(\s+([\w:]+))?\s*\{)");
    static const std::regex kClassRe(
        R"(^\s*(?:template\s*<[^;{}]*>\s*)?(class|struct|union)\s+)"
        R"((?:\[\[[^\]]*\]\]\s*)?([A-Za-z_]\w*))");
    static const std::regex kEnumRe(R"(^\s*enum\b)");
    static const std::regex kGlobalVarRe(
        R"(^\s*((?:static|inline|extern|thread_local|constexpr)"
        R"(|constinit|const|mutable)\s+)*)"
        R"([\w:]+(\s*<[^;{}()]*>)?(\s*[&*]|\s)\s*)"
        R"(((?:\w+::)*[A-Za-z_]\w*)(\s*\[[^\]]*\])?\s*(=|;|\{))");
    static const std::regex kConstRe(
        R"(\b(const|constexpr|constinit)\b)");
    static const std::regex kExternRe(R"(^\s*extern\b)");
    // Forward declarations (`class ProtocolChecker;`) and friends are
    // not variables, however var-shaped the line is.
    static const std::regex kTypeDeclRe(
        R"(^\s*(class|struct|union|enum)\b)");
    static const std::regex kLocalStaticRe(
        R"(^\s*static\s+[\w:]+(\s*<[^;{}()]*>)?\s+)"
        R"(([A-Za-z_]\w*)\s*(=|;|\{|\())");

    std::vector<Frame> frames;
    int depth = 0;
    // A class/namespace head seen without its '{' yet.
    std::optional<Frame> pending;

    for (std::size_t i = 0; i < f.lines.size(); ++i) {
        const std::string& code = f.lines[i].code;
        const std::string& raw = f.raw[i];
        const int line_no = static_cast<int>(i + 1);
        const bool preprocessor =
            raw.find_first_not_of(" \t") != std::string::npos &&
            raw[raw.find_first_not_of(" \t")] == '#';
        if (preprocessor) continue;

        // [[noreturn]] names: the attribute marks abort paths W301
        // must not traverse. The name usually follows on the same
        // line (`[[noreturn]] void Panic(...)`).
        if (code.find("[[noreturn]]") != std::string::npos) {
            static const std::regex kNoReturnNameRe(
                R"(([A-Za-z_]\w*)\s*\()");
            std::smatch nm;
            std::string after =
                code.substr(code.find("[[noreturn]]") + 12);
            if (!std::regex_search(after, nm, kNoReturnNameRe) &&
                i + 1 < f.lines.size()) {
                after = f.lines[i + 1].code;
                std::regex_search(after, nm, kNoReturnNameRe);
            }
            if (!nm.empty()) noreturn_names_.insert(nm[1].str());
        }

        Frame* fn = nullptr;
        for (auto it = frames.rbegin(); it != frames.rend(); ++it) {
            if (it->kind == Frame::kFunction) {
                fn = &*it;
                break;
            }
        }

        if (fn != nullptr) {
            // Body line of the innermost open function.
            Symbol& sym = symbols_[static_cast<std::size_t>(fn->symbol)];
            sym.body_end = line_no;
            const bool hot = f.IsHot(line_no);
            sym.hot |= hot;
            if (!hot) {
                for (const FactPattern& pat : FactPatterns()) {
                    std::smatch m;
                    if (std::regex_search(code, m, pat.re)) {
                        sym.facts.push_back(
                            {pat.fact, line_no, m[0].str()});
                    }
                }
            }
            // Mutable local statics: cross-shard nondeterminism
            // hazard regardless of the enclosing function (W303).
            std::smatch lm;
            if (std::regex_search(code, lm, kLocalStaticRe) &&
                !std::regex_search(code, kConstRe)) {
                Symbol s;
                s.name = lm[2].str();
                s.qual = sym.full;
                s.full = sym.full + "::" + s.name;
                s.kind = SymKind::kLocalStatic;
                s.file = f.path;
                s.line = line_no;
                s.file_local = true;
                by_name_[s.name].push_back(
                    static_cast<int>(symbols_.size()));
                symbols_.push_back(std::move(s));
            }
        } else if (!StartsWithNonDecl(code)) {
            std::smatch m;
            if (pending) {
                if (code.find('{') != std::string::npos) {
                    pending->open_depth = depth;
                    frames.push_back(*pending);
                    pending.reset();
                }
            } else if (std::regex_search(code, m, kEnumRe)) {
                if (code.find('{') != std::string::npos) {
                    frames.push_back(
                        {Frame::kBlock, "", depth, -1});
                } else if (code.find(';') == std::string::npos) {
                    pending = Frame{Frame::kBlock, "", depth, -1};
                }
            } else if (std::regex_search(code, m, kNamespaceRe)) {
                const std::string name =
                    m[2].matched ? m[2].str() : "(anon)";
                frames.push_back(
                    {Frame::kNamespace, name, depth, -1});
            } else if (std::regex_search(code, m, kClassRe) &&
                       code.find(';') == std::string::npos) {
                Frame fr{Frame::kClass, m[2].str(), depth, -1};
                if (code.find('{') != std::string::npos) {
                    frames.push_back(fr);
                } else {
                    pending = fr;
                }
            } else if (auto h = ParseHead(f, i)) {
                if (h->is_definition) {
                    Symbol s;
                    const auto sep = h->written.rfind("::");
                    s.name = sep == std::string::npos
                                 ? h->written
                                 : h->written.substr(sep + 2);
                    std::string scope = ScopeOf(frames);
                    if (sep != std::string::npos) {
                        const std::string prefix =
                            h->written.substr(0, sep);
                        scope = scope.empty() ? prefix
                                              : scope + "::" + prefix;
                    }
                    s.qual = scope;
                    s.full =
                        scope.empty() ? s.name : scope + "::" + s.name;
                    s.kind = SymKind::kFunction;
                    s.file = f.path;
                    s.line = line_no;
                    s.file_local =
                        InAnonNamespace(frames) || h->is_static;
                    s.member =
                        sep != std::string::npos ||
                        (!frames.empty() &&
                         frames.back().kind == Frame::kClass);
                    s.body_begin = h->body_open_line;
                    s.body_end = h->body_open_line;
                    s.hot = f.IsHot(line_no);
                    const int idx = static_cast<int>(symbols_.size());
                    by_name_[s.name].push_back(idx);
                    symbols_.push_back(std::move(s));

                    // Account the braces of the consumed head lines
                    // up to (not including) the body '{' line, then
                    // open the function frame there.
                    for (std::size_t j = i;
                         j + 1 < static_cast<std::size_t>(
                                     h->body_open_line);
                         ++j) {
                        depth += BraceBalance(f.lines[j].code);
                    }
                    frames.push_back(
                        {Frame::kFunction, "", depth, idx});
                    i = static_cast<std::size_t>(h->body_open_line) - 1;
                    // One-line bodies fall through to the generic
                    // depth bookkeeping below, which pops the frame
                    // on this same line.
                } else {
                    // Declaration: skip past its terminator so the
                    // parameter list is not mistaken for globals.
                    i = static_cast<std::size_t>(h->end_line) - 1;
                    depth += BraceBalance(f.lines[i].code);
                    while (!frames.empty() &&
                           depth <= frames.back().open_depth) {
                        frames.pop_back();
                    }
                    continue;
                }
            } else if (std::regex_search(code, m, kGlobalVarRe) &&
                       (frames.empty() ||
                        frames.back().kind == Frame::kNamespace) &&
                       !std::regex_search(code, kExternRe) &&
                       !std::regex_search(code, kTypeDeclRe)) {
                Symbol s;
                s.name = m[4].str();
                s.qual = ScopeOf(frames);
                s.full = s.qual.empty() ? s.name
                                        : s.qual + "::" + s.name;
                s.kind = SymKind::kGlobal;
                s.file = f.path;
                s.line = line_no;
                s.file_local = InAnonNamespace(frames) ||
                               code.find("static") != std::string::npos;
                s.is_const = std::regex_search(code, kConstRe);
                by_name_[s.name].push_back(
                    static_cast<int>(symbols_.size()));
                symbols_.push_back(std::move(s));
            }
        }

        depth += BraceBalance(f.lines[i].code);
        while (!frames.empty() && depth <= frames.back().open_depth) {
            frames.pop_back();
        }
    }
}

std::vector<int>
SymbolGraph::Lookup(const std::string& name) const
{
    const auto it = by_name_.find(name);
    if (it == by_name_.end()) return {};
    return it->second;
}

int
SymbolGraph::Resolve(const std::string& text, const std::string& file,
                     bool member_call) const
{
    const auto sep = text.rfind("::");
    const std::string name =
        sep == std::string::npos ? text : text.substr(sep + 2);
    const auto it = by_name_.find(name);
    if (it == by_name_.end()) return -1;

    std::vector<int> candidates;
    for (int idx : it->second) {
        const Symbol& s = symbols_[static_cast<std::size_t>(idx)];
        if (s.kind != SymKind::kFunction) continue;
        if (member_call && !s.member) continue;
        if (sep != std::string::npos) {
            // Qualified: the written path must be a suffix of the
            // symbol's full name ("TimingWheel::Push" matches
            // "wave::sim::TimingWheel::Push").
            if (!PathEndsWith(s.full, text)) continue;
            const std::size_t at = s.full.size() - text.size();
            if (at != 0 && s.full.compare(at - 2, 2, "::") != 0) {
                continue;
            }
        }
        candidates.push_back(idx);
    }
    if (candidates.empty()) return -1;

    // Same file wins — including file-local symbols.
    std::vector<int> same_file;
    for (int idx : candidates) {
        if (symbols_[static_cast<std::size_t>(idx)].file == file) {
            same_file.push_back(idx);
        }
    }
    if (same_file.size() == 1) return same_file[0];
    if (!same_file.empty()) return same_file[0];  // overloads: any

    // Cross-file: file-local symbols are invisible; the name must be
    // unique (overloads of one function collapse to one defining
    // file) or it resolves nowhere.
    std::vector<int> visible;
    std::set<std::string> files;
    for (int idx : candidates) {
        const Symbol& s = symbols_[static_cast<std::size_t>(idx)];
        if (s.file_local) continue;
        visible.push_back(idx);
        files.insert(s.file + "|" + s.full);
    }
    if (visible.empty()) return -1;
    if (files.size() == 1) return visible[0];
    return -1;
}

int
SymbolGraph::EnclosingFunction(const std::string& file, int line) const
{
    int best = -1;
    int best_span = 0;
    for (std::size_t i = 0; i < symbols_.size(); ++i) {
        const Symbol& s = symbols_[i];
        if (s.kind != SymKind::kFunction || s.file != file) continue;
        if (line < s.body_begin || line > s.body_end) continue;
        const int span = s.body_end - s.body_begin;
        if (best == -1 || span < best_span) {
            best = static_cast<int>(i);
            best_span = span;
        }
    }
    return best;
}

void
SymbolGraph::ResolveFile(const SourceFile& f)
{
    static const std::regex kCallRe(
        R"(((?:[A-Za-z_]\w*::)*[A-Za-z_]\w*)\s*\()");
    static const std::regex kIdentRe(
        R"(((?:[A-Za-z_]\w*::)*[A-Za-z_]\w*))");

    for (std::size_t i = 0; i < f.lines.size(); ++i) {
        const int line_no = static_cast<int>(i + 1);
        std::string code = f.lines[i].code;

        const int enclosing = EnclosingFunction(f.path, line_no);
        if (enclosing < 0) continue;
        const Symbol& fn = symbols_[static_cast<std::size_t>(enclosing)];
        if (line_no == fn.body_begin) {
            // The head may share the '{' line (one-line members):
            // only the text after the '{' is body.
            const auto brace = code.find('{');
            if (brace == std::string::npos) continue;
            code = code.substr(brace + 1);
        }

        // Call edges.
        for (auto it = std::sregex_iterator(code.begin(), code.end(),
                                            kCallRe);
             it != std::sregex_iterator(); ++it) {
            const std::string written = (*it)[1].str();
            const auto sep = written.rfind("::");
            const std::string last = sep == std::string::npos
                                         ? written
                                         : written.substr(sep + 2);
            if (IsCallKeyword(last) || IsCallKeyword(written)) continue;
            // Member call? Look at what precedes the match.
            std::size_t at = static_cast<std::size_t>(it->position(0));
            bool member_call = false;
            while (at > 0 && std::isspace(static_cast<unsigned char>(
                                 code[at - 1]))) {
                --at;
            }
            if (at > 0 && (code[at - 1] == '.' ||
                           (at > 1 && code[at - 2] == '-' &&
                            code[at - 1] == '>'))) {
                member_call = true;
            }
            const int callee =
                Resolve(written, f.path, member_call);
            if (callee < 0 || callee == enclosing) continue;
            CallEdge e;
            e.caller = enclosing;
            e.callee = callee;
            e.file = f.path;
            e.line = line_no;
            e.hot = f.IsHot(line_no);
            e.checker_callee = PathHas(
                symbols_[static_cast<std::size_t>(callee)].file,
                "src/check/");
            calls_.push_back(e);
        }

        // Reference edges to namespace-scope mutable state defined in
        // *other* files. Declarations that shadow a global (`int
        // counter = 0;`) are skipped: a type name directly precedes
        // the identifier there.
        for (auto it = std::sregex_iterator(code.begin(), code.end(),
                                            kIdentRe);
             it != std::sregex_iterator(); ++it) {
            const std::string written = (*it)[1].str();
            const auto sep = written.rfind("::");
            const std::string last = sep == std::string::npos
                                         ? written
                                         : written.substr(sep + 2);
            const std::size_t at =
                static_cast<std::size_t>(it->position(0));
            const std::size_t end = at + written.size();
            if (end < code.size() &&
                (code[end] == '(' || code[end] == ':')) {
                continue;  // calls handled above; longer qualification
            }
            if (at > 0 &&
                (code[at - 1] == '.' || code[at - 1] == ':' ||
                 (at > 1 && code[at - 2] == '-' &&
                  code[at - 1] == '>'))) {
                continue;  // member access / already-consumed prefix
            }
            const auto cands = by_name_.find(last);
            if (cands == by_name_.end()) continue;
            // Shadowing declaration? An identifier (the type) with
            // only whitespace between it and this one — unless the
            // preceding word is a statement keyword, not a type.
            if (at > 0) {
                std::size_t b = at;
                while (b > 0 && std::isspace(static_cast<unsigned char>(
                                    code[b - 1]))) {
                    --b;
                }
                if (b > 0 && b != at &&
                    (std::isalnum(
                         static_cast<unsigned char>(code[b - 1])) ||
                     code[b - 1] == '_' || code[b - 1] == '>')) {
                    std::size_t w = b;
                    while (w > 0 &&
                           (std::isalnum(static_cast<unsigned char>(
                                code[w - 1])) ||
                            code[w - 1] == '_')) {
                        --w;
                    }
                    static const std::set<std::string> kStmtKeywords =
                        {"return", "co_return", "co_yield",
                         "co_await", "throw",     "case",
                         "delete",  "typeid",     "sizeof"};
                    if (!kStmtKeywords.count(
                            code.substr(w, b - w))) {
                        continue;
                    }
                }
            }
            for (int idx : cands->second) {
                const Symbol& s =
                    symbols_[static_cast<std::size_t>(idx)];
                if (s.kind != SymKind::kGlobal) continue;
                if (s.is_const || s.file == f.path) continue;
                if (s.file_local) continue;
                if (sep != std::string::npos &&
                    !PathEndsWith(s.full, written)) {
                    continue;
                }
                refs_.push_back({enclosing, idx, f.path, line_no});
            }
        }
    }
}

}  // namespace wa
