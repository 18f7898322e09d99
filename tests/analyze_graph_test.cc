/**
 * @file
 * Unit tests for the wave_analyze cross-TU symbol-graph builder
 * (tools/analyze/symbols.h): head parsing against this codebase's
 * return-type-first style, conservative name resolution (overload
 * sets, shadowed names, out-of-line members, anonymous namespaces),
 * fact collection on cold lines, and the dead-lifetime scan. These
 * link wave_analyze_core directly — no subprocess, no fixtures on
 * disk.
 */
// wave-domain: harness
#include <gtest/gtest.h>

#include <string>

#include "analyze/coroutines.h"
#include "analyze/source.h"
#include "analyze/symbols.h"

namespace {

using wa::ParseSource;
using wa::SourceFile;
using wa::SymbolGraph;
using wa::SymKind;

const wa::Symbol*
FindSymbol(const SymbolGraph& g, const std::string& full)
{
    for (const wa::Symbol& s : g.symbols()) {
        if (s.full == full) return &s;
    }
    return nullptr;
}

TEST(SymbolGraph, ParsesNameFirstStyleFreeFunction)
{
    const SourceFile f = ParseSource("a.cc",
                                     "// wave-domain: neutral\n"
                                     "namespace wave::x {\n"
                                     "int\n"
                                     "Twice(int v)\n"
                                     "{\n"
                                     "    return v * 2;\n"
                                     "}\n"
                                     "}  // namespace wave::x\n");
    SymbolGraph g;
    g.AddFile(f);
    const wa::Symbol* s = FindSymbol(g, "wave::x::Twice");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->kind, SymKind::kFunction);
    EXPECT_EQ(s->line, 4);
    EXPECT_FALSE(s->file_local);
    EXPECT_FALSE(s->member);
}

TEST(SymbolGraph, ParsesOutOfLineMemberAndOneLinerBody)
{
    const SourceFile f = ParseSource(
        "ring.cc",
        "// wave-domain: neutral\n"
        "namespace wave::x {\n"
        "void\n"
        "Ring::Push(int v)\n"
        "{\n"
        "    Store(v);\n"
        "}\n"
        "bool Ring::Empty() const { return size_ == 0; }\n"
        "}  // namespace wave::x\n");
    SymbolGraph g;
    g.AddFile(f);
    const wa::Symbol* push = FindSymbol(g, "wave::x::Ring::Push");
    ASSERT_NE(push, nullptr);
    EXPECT_TRUE(push->member);
    const wa::Symbol* empty = FindSymbol(g, "wave::x::Ring::Empty");
    ASSERT_NE(empty, nullptr);
    EXPECT_TRUE(empty->member);
    EXPECT_EQ(empty->body_begin, empty->body_end);
}

TEST(SymbolGraph, ResolvesQualifiedCallToOutOfLineMember)
{
    const SourceFile def = ParseSource(
        "wheel.cc",
        "// wave-domain: neutral\n"
        "namespace wave::x {\n"
        "void\n"
        "Wheel::Refill()\n"
        "{\n"
        "    grow();\n"
        "}\n"
        "}  // namespace wave::x\n");
    const SourceFile use = ParseSource(
        "caller.cc",
        "// wave-domain: neutral\n"
        "namespace wave::x {\n"
        "void\n"
        "Caller::Run(Wheel& w)\n"
        "{\n"
        "    Wheel::Refill();\n"
        "}\n"
        "}  // namespace wave::x\n");
    SymbolGraph g;
    g.AddFile(def);
    g.AddFile(use);
    g.ResolveFile(use);
    ASSERT_EQ(g.calls().size(), 1u);
    const wa::Symbol& callee = g.symbols()[static_cast<std::size_t>(
        g.calls()[0].callee)];
    EXPECT_EQ(callee.full, "wave::x::Wheel::Refill");
}

TEST(SymbolGraph, MarksCallEdgesIntoTheCheckers)
{
    // W301/W305 skip edges whose callee is defined under src/check/:
    // the checkers observe both domains and sit off the hot budget.
    const SourceFile checker = ParseSource(
        "src/check/coherence.cc",
        "// wave-domain: neutral\n"
        "namespace wave::check {\n"
        "void\n"
        "CoherenceChecker::OnWrite(int line)\n"
        "{\n"
        "    Record(line);\n"
        "}\n"
        "}  // namespace wave::check\n");
    const SourceFile model = ParseSource(
        "src/pcie/mmio.cc",
        "// wave-domain: pcie\n"
        "namespace wave::pcie {\n"
        "void\n"
        "Mapping::Flush()\n"
        "{\n"
        "}\n"
        "void\n"
        "Mapping::Store(int line)\n"
        "{\n"
        "    checker_->OnWrite(line);\n"
        "    Flush();\n"
        "}\n"
        "}  // namespace wave::pcie\n");
    SymbolGraph g;
    g.AddFile(checker);
    g.AddFile(model);
    g.ResolveFile(model);
    ASSERT_EQ(g.calls().size(), 2u);
    for (const wa::CallEdge& e : g.calls()) {
        const wa::Symbol& callee =
            g.symbols()[static_cast<std::size_t>(e.callee)];
        EXPECT_EQ(e.checker_callee, callee.file == "src/check/coherence.cc")
            << callee.full;
    }
}

TEST(SymbolGraph, OverloadSetResolvesToTheUniqueDefiningFile)
{
    // Two overloads of one name in one file: a cross-file call still
    // resolves (any overload pins the same defining file).
    const SourceFile def = ParseSource("enc.cc",
                                       "// wave-domain: neutral\n"
                                       "namespace wave::x {\n"
                                       "int\n"
                                       "Encode(int v)\n"
                                       "{\n"
                                       "    return v;\n"
                                       "}\n"
                                       "int\n"
                                       "Encode(int v, int shift)\n"
                                       "{\n"
                                       "    return v << shift;\n"
                                       "}\n"
                                       "}  // namespace wave::x\n");
    const SourceFile use = ParseSource("use.cc",
                                       "// wave-domain: neutral\n"
                                       "namespace wave::x {\n"
                                       "int\n"
                                       "Wrap(int v)\n"
                                       "{\n"
                                       "    return Encode(v, 3);\n"
                                       "}\n"
                                       "}  // namespace wave::x\n");
    SymbolGraph g;
    g.AddFile(def);
    g.AddFile(use);
    g.ResolveFile(use);
    ASSERT_EQ(g.calls().size(), 1u);
    EXPECT_EQ(g.symbols()[static_cast<std::size_t>(
                              g.calls()[0].callee)]
                  .file,
              "enc.cc");
}

TEST(SymbolGraph, AmbiguousNameAcrossFilesResolvesNowhere)
{
    const SourceFile a = ParseSource("a.cc",
                                     "// wave-domain: neutral\n"
                                     "namespace wave::a {\n"
                                     "void\n"
                                     "Tick()\n"
                                     "{\n"
                                     "}\n"
                                     "}  // namespace wave::a\n");
    const SourceFile b = ParseSource("b.cc",
                                     "// wave-domain: neutral\n"
                                     "namespace wave::b {\n"
                                     "void\n"
                                     "Tick()\n"
                                     "{\n"
                                     "}\n"
                                     "}  // namespace wave::b\n");
    const SourceFile use = ParseSource("use.cc",
                                       "// wave-domain: neutral\n"
                                       "namespace wave::c {\n"
                                       "void\n"
                                       "Run()\n"
                                       "{\n"
                                       "    Tick();\n"
                                       "}\n"
                                       "}  // namespace wave::c\n");
    SymbolGraph g;
    g.AddFile(a);
    g.AddFile(b);
    g.AddFile(use);
    g.ResolveFile(use);
    EXPECT_TRUE(g.calls().empty())
        << "an unqualified call to an ambiguous name must not "
           "fabricate an edge";
    // A qualified call disambiguates.
    EXPECT_GE(g.Resolve("wave::b::Tick", "use.cc", false), 0);
}

TEST(SymbolGraph, AnonymousNamespaceSymbolsNeverResolveCrossFile)
{
    const SourceFile def = ParseSource("impl.cc",
                                       "// wave-domain: neutral\n"
                                       "namespace wave::x {\n"
                                       "namespace {\n"
                                       "void\n"
                                       "Helper()\n"
                                       "{\n"
                                       "}\n"
                                       "}  // namespace\n"
                                       "}  // namespace wave::x\n");
    SymbolGraph g;
    g.AddFile(def);
    const wa::Symbol* s = FindSymbol(g, "wave::x::Helper");
    ASSERT_NE(s, nullptr);
    EXPECT_TRUE(s->file_local);
    EXPECT_LT(g.Resolve("Helper", "other.cc", false), 0);
    EXPECT_GE(g.Resolve("Helper", "impl.cc", false), 0);
}

TEST(SymbolGraph, LocalDeclarationShadowingAGlobalIsNotAReference)
{
    const SourceFile def = ParseSource("owner.cc",
                                       "// wave-domain: neutral\n"
                                       "namespace wave::x {\n"
                                       "int g_count = 0;\n"
                                       "}  // namespace wave::x\n");
    const SourceFile use = ParseSource(
        "user.cc",
        "// wave-domain: neutral\n"
        "namespace wave::x {\n"
        "int\n"
        "Sum()\n"
        "{\n"
        "    int g_count = 1;\n"
        "    return g_count;\n"
        "}\n"
        "}  // namespace wave::x\n");
    SymbolGraph g;
    g.AddFile(def);
    g.AddFile(use);
    g.ResolveFile(use);
    // The declaration on line 6 must not count; the `return` use does
    // (conservative: the local actually shadows, but text-level
    // resolution cannot know — the rule errs toward reporting).
    for (const wa::RefEdge& r : g.refs()) {
        EXPECT_NE(r.line, 6) << "declaration counted as a reference";
    }
}

TEST(SymbolGraph, MutableAndConstGlobalsAreClassified)
{
    const SourceFile f = ParseSource(
        "globals.cc",
        "// wave-domain: neutral\n"
        "namespace wave::x {\n"
        "constexpr int kLimit = 8;\n"
        "int g_hits = 0;\n"
        "}  // namespace wave::x\n");
    SymbolGraph g;
    g.AddFile(f);
    const wa::Symbol* limit = FindSymbol(g, "wave::x::kLimit");
    ASSERT_NE(limit, nullptr);
    EXPECT_TRUE(limit->is_const);
    const wa::Symbol* hits = FindSymbol(g, "wave::x::g_hits");
    ASSERT_NE(hits, nullptr);
    EXPECT_FALSE(hits->is_const);
    EXPECT_EQ(hits->kind, SymKind::kGlobal);
}

TEST(SymbolGraph, ColdLineFactsAreCollectedAndHotLinesAreNot)
{
    const SourceFile f = ParseSource(
        "facts.cc",
        "// wave-domain: neutral\n"
        "namespace wave::x {\n"
        "int*\n"
        "ColdAlloc()\n"
        "{\n"
        "    return new int(1);\n"
        "}\n"
        "// wave-hot: begin\n"
        "int*\n"
        "HotAlloc()\n"
        "{\n"
        "    return new int(2);\n"
        "}\n"
        "// wave-hot: end\n"
        "}  // namespace wave::x\n");
    SymbolGraph g;
    g.AddFile(f);
    const wa::Symbol* cold = FindSymbol(g, "wave::x::ColdAlloc");
    ASSERT_NE(cold, nullptr);
    ASSERT_EQ(cold->facts.size(), 1u);
    EXPECT_EQ(cold->facts[0].fact, wa::Fact::kAlloc);
    // The hot function's allocation is the per-file W101 rule's
    // jurisdiction, not a W301 sink fact.
    const wa::Symbol* hot = FindSymbol(g, "wave::x::HotAlloc");
    ASSERT_NE(hot, nullptr);
    EXPECT_TRUE(hot->hot);
    EXPECT_TRUE(hot->facts.empty());
}

TEST(SymbolGraph, EnclosingFunctionPicksTheTightestBody)
{
    const SourceFile f = ParseSource("encl.cc",
                                     "// wave-domain: neutral\n"
                                     "namespace wave::x {\n"
                                     "int\n"
                                     "Outer(int v)\n"
                                     "{\n"
                                     "    return v + 1;\n"
                                     "}\n"
                                     "}  // namespace wave::x\n");
    SymbolGraph g;
    g.AddFile(f);
    const int idx = g.EnclosingFunction("encl.cc", 6);
    ASSERT_GE(idx, 0);
    EXPECT_EQ(g.symbols()[static_cast<std::size_t>(idx)].full,
              "wave::x::Outer");
    EXPECT_LT(g.EnclosingFunction("encl.cc", 2), 0);
}

TEST(DeadLifetime, AnnotationWithNoTaskHeadIsDead)
{
    const SourceFile f = ParseSource(
        "dead.cc",
        "// wave-domain: neutral\n"
        "namespace wave::x {\n"
        "// wave-lifetime(caller-awaits)\n"
        "int\n"
        "PlainFunction(int v)\n"
        "{\n"
        "    return v;\n"
        "}\n"
        "}  // namespace wave::x\n");
    const auto dead = wa::DeadLifetimeLines(f);
    ASSERT_EQ(dead.size(), 1u);
    EXPECT_EQ(dead[0], 3);
}

TEST(DeadLifetime, AnnotationOnATaskHeadIsAlive)
{
    SourceFile f = ParseSource(
        "alive.cc",
        "// wave-domain: neutral\n"
        "namespace wave::x {\n"
        "// wave-lifetime(caller-awaits)\n"
        "Task<int>\n"
        "Pump(Queue& q)\n"
        "{\n"
        "    co_return co_await q.Receive();\n"
        "}\n"
        "}  // namespace wave::x\n");
    f.coroutines = wa::ParseCoroutines(f);
    EXPECT_TRUE(wa::DeadLifetimeLines(f).empty());
}

}  // namespace
