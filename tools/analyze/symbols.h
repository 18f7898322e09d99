/**
 * @file
 * Pass 1 of the cross-TU analysis: a tree-wide symbol table and
 * name-resolved call/reference graph, built from the same text-level
 * view the per-file rules use (no libclang).
 *
 * What goes in the table:
 *  - free functions and out-of-line member definitions, exploiting the
 *    codebase's return-type-first style (the function name starts a
 *    line at namespace scope) plus one-line in-class member bodies;
 *  - namespace-scope variable definitions, with const/constexpr-ness
 *    recorded (the W303 mutable-global census input);
 *  - mutable function-local statics.
 *
 * What comes out besides symbols:
 *  - call edges: every resolvable `Name(`, `ns::Name(`, `Cls::Name(`
 *    or `obj.Name(` site inside a function body, attributed to the
 *    enclosing function (lambda bodies attribute to the enclosing
 *    function too);
 *  - reference edges: identifier uses of namespace-scope variables
 *    from other files (the W302 shard-closure input);
 *  - per-function facts: allocation/throw/lock/IO constructs on the
 *    function's *cold* lines (hot lines are the per-file W10x rules'
 *    jurisdiction), the W301 transitive-hot sink markers.
 *
 * Name resolution is deliberately conservative: same file wins, then
 * an exact qualified match, then a unique name tree-wide; ambiguous
 * names resolve nowhere rather than wrongly. Known approximations are
 * documented in docs/static-analysis.md §3d.
 */
// wave-domain: harness
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "analyze/source.h"

namespace wa {

enum class SymKind { kFunction, kGlobal, kLocalStatic };

/** What a reachable function does that a hot path must not. */
enum class Fact { kAlloc, kThrow, kLock, kIo };

const char* FactName(Fact fact);

struct FactSite {
    Fact fact;
    int line = 0;          ///< 1-based line in the defining file
    std::string detail;    ///< matched construct, for messages
};

struct Symbol {
    std::string name;   ///< last component ("Refill")
    std::string qual;   ///< scope as written ("wave::sim::TimingWheel")
    std::string full;   ///< qual + "::" + name (display form)
    SymKind kind = SymKind::kFunction;
    std::string file;   ///< report path of the defining file
    int line = 0;       ///< 1-based definition line
    bool file_local = false;  ///< anonymous namespace / static linkage
    bool member = false;      ///< class member function
    bool is_const = false;    ///< globals: const/constexpr/constinit
    bool hot = false;         ///< any body line inside a wave-hot region
    int body_begin = 0;       ///< 1-based first body line (functions)
    int body_end = 0;         ///< 1-based last body line (functions)
    std::vector<FactSite> facts;  ///< cold-line W301 sink facts
};

/** One resolved call edge, attributed to the enclosing function. */
struct CallEdge {
    int caller = -1;     ///< symbol index, -1 for file-scope initializers
    int callee = 0;      ///< symbol index
    std::string file;    ///< call-site file
    int line = 0;        ///< 1-based call-site line
    bool hot = false;    ///< call site is inside a wave-hot region
    bool checker_callee = false;  ///< callee is defined under src/check/
};

/** One use of a namespace-scope variable from a function body. */
struct RefEdge {
    int referrer = -1;   ///< enclosing function symbol index, or -1
    int global = 0;      ///< symbol index of the variable
    std::string file;    ///< referencing file
    int line = 0;        ///< 1-based reference line
};

class SymbolGraph {
  public:
    /** Adds one file's symbols (pass 1a). Call for every model file. */
    void AddFile(const SourceFile& f);

    /**
     * Resolves call/reference sites against the completed table
     * (pass 1b). Call after every AddFile, once per file.
     */
    void ResolveFile(const SourceFile& f);

    const std::vector<Symbol>& symbols() const { return symbols_; }
    const std::vector<CallEdge>& calls() const { return calls_; }
    const std::vector<RefEdge>& refs() const { return refs_; }

    /** Indices of symbols named @p name (any qualification). */
    std::vector<int> Lookup(const std::string& name) const;

    /**
     * Conservative resolution of a callee written @p text (possibly
     * qualified) at a site in @p file: same file wins, then exact
     * qualified suffix, then unique tree-wide; -1 when ambiguous or
     * unknown. File-local symbols never resolve from other files.
     */
    int Resolve(const std::string& text, const std::string& file,
                bool member_call) const;

    /** Function symbol whose body spans @p line of @p file, or -1. */
    int EnclosingFunction(const std::string& file, int line) const;

    /**
     * Is @p s an abort-path function? True when any declaration or
     * definition of the name carries [[noreturn]] — the attribute
     * usually sits on the header declaration while the symbol table
     * holds the .cc definition, so this is name-keyed. W301 does not
     * traverse into abort paths: they are not steady-state cost.
     */
    bool IsNoReturn(const Symbol& s) const
    {
        return noreturn_names_.count(s.name) != 0;
    }

  private:
    std::vector<Symbol> symbols_;
    std::vector<CallEdge> calls_;
    std::vector<RefEdge> refs_;
    std::map<std::string, std::vector<int>> by_name_;
    std::set<std::string> noreturn_names_;
};

}  // namespace wa
