/**
 * @file
 * End-to-end tests for tools/wave_analyze.
 *
 * Two halves:
 *  - planted-violation fixtures under tests/analyze_fixtures/, one per
 *    rule W001..W008, W101..W106, W201..W206, and the cross-TU
 *    W301..W305 (the W302/W305 fixtures are two-file pairs analyzed in
 *    one invocation), each asserted to trip exactly the rule it plants
 *    (plus suppression, region-scoping, JSON/stale-baseline, and
 *    clean-file fixtures);
 *  - a clean-tree run over the real src/ with the shipped baseline,
 *    asserted to report zero violations — the same invocation the
 *    `analyze` build target and CI run.
 *
 * Unit tests for the symbol-graph builder itself (overload sets,
 * shadowed names, out-of-line members, anonymous namespaces) live in
 * analyze_graph_test.cc, which links the wave_analyze_core library
 * directly.
 *
 * The analyzer binary location and the repo root are injected by CMake
 * as WAVE_ANALYZE_BIN / WAVE_SOURCE_ROOT compile definitions.
 */
// wave-domain: harness
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>

#ifndef WAVE_ANALYZE_BIN
#error "WAVE_ANALYZE_BIN must be defined by the build"
#endif
#ifndef WAVE_SOURCE_ROOT
#error "WAVE_SOURCE_ROOT must be defined by the build"
#endif

namespace {

struct RunResult {
    int exit_code = -1;
    std::string output;
};

/** Run a shell command, capturing interleaved stdout+stderr. */
RunResult
Exec(const std::string& cmd)
{
    RunResult r;
    const std::string full = cmd + " 2>&1";
    FILE* pipe = popen(full.c_str(), "r");
    if (pipe == nullptr) return r;
    std::array<char, 4096> buf;
    std::size_t n;
    while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0) {
        r.output.append(buf.data(), n);
    }
    const int status = pclose(pipe);
    if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
    return r;
}

const std::string kBin = WAVE_ANALYZE_BIN;
const std::string kRoot = WAVE_SOURCE_ROOT;
const std::string kFixtures = kRoot + "/tests/analyze_fixtures";

/** Analyze one fixture file in model mode against the real tree. */
RunResult
AnalyzeFixture(const std::string& name)
{
    return Exec(kBin + " --root " + kRoot + " --as-src " + kFixtures +
               "/" + name);
}

/** Planted fixture must trip its rule and exit with findings (1). */
void
ExpectDetected(const std::string& fixture, const std::string& rule)
{
    const RunResult r = AnalyzeFixture(fixture);
    EXPECT_EQ(r.exit_code, 1) << fixture << ":\n" << r.output;
    EXPECT_NE(r.output.find(rule), std::string::npos)
        << fixture << " did not trip " << rule << ":\n"
        << r.output;
}

TEST(AnalyzeFixtures, W001MissingDomain)
{
    ExpectDetected("w001_missing_domain.cc", "W001");
}

TEST(AnalyzeFixtures, W002CrossDomainInclude)
{
    ExpectDetected("w002_cross_include.cc", "W002");
}

TEST(AnalyzeFixtures, W003CrossDomainSymbol)
{
    ExpectDetected("w003_cross_symbol.cc", "W003");
}

TEST(AnalyzeFixtures, W004ActorWithoutDomain)
{
    ExpectDetected("w004_actor_domain.cc", "W004");
}

TEST(AnalyzeFixtures, W005EndpointBlindSpot)
{
    ExpectDetected("w005_blind_spot/pcie/msix.cc", "W005");
}

TEST(AnalyzeFixtures, W006StaleWithoutReason)
{
    ExpectDetected("w006_stale_reason.cc", "W006");
}

TEST(AnalyzeFixtures, W007WallClockRng)
{
    ExpectDetected("w007_wall_clock.cc", "W007");
}

TEST(AnalyzeFixtures, W008TimeNarrowing)
{
    ExpectDetected("w008_time_narrowing.cc", "W008");
}

TEST(AnalyzeFixtures, W101HotAllocation)
{
    ExpectDetected("w101_hot_alloc.cc", "W101");
}

TEST(AnalyzeFixtures, W102HotThrow)
{
    ExpectDetected("w102_hot_throw.cc", "W102");
}

TEST(AnalyzeFixtures, W103HotLock)
{
    ExpectDetected("w103_hot_lock.cc", "W103");
}

TEST(AnalyzeFixtures, W104HotHeavyByValue)
{
    ExpectDetected("w104_hot_by_value.cc", "W104");
}

TEST(AnalyzeFixtures, W105HotIo)
{
    ExpectDetected("w105_hot_io.cc", "W105");
}

TEST(AnalyzeFixtures, W106UnbatchedChannelOpInHotLoop)
{
    ExpectDetected("w106_hot_unbatched.cc", "W106");
}

/** Occurrences of @p needle in @p haystack (for finding counts). */
std::size_t
Count(const std::string& haystack, const std::string& needle)
{
    std::size_t n = 0;
    for (std::size_t at = haystack.find(needle); at != std::string::npos;
         at = haystack.find(needle, at + needle.size())) {
        ++n;
    }
    return n;
}

/** Planted fixture must trip its rule exactly once, nothing else. */
void
ExpectDetectedOnce(const std::string& fixture, const std::string& rule)
{
    const RunResult r = AnalyzeFixture(fixture);
    EXPECT_EQ(r.exit_code, 1) << fixture << ":\n" << r.output;
    EXPECT_EQ(Count(r.output, rule + ":"), 1u)
        << fixture << " did not trip " << rule << " exactly once:\n"
        << r.output;
    EXPECT_NE(r.output.find("1 finding"), std::string::npos)
        << fixture << " tripped more than its planted rule:\n"
        << r.output;
}

TEST(AnalyzeFixtures, W201DanglingRefAcrossSuspension)
{
    ExpectDetectedOnce("w201_dangling_ref.cc", "W201");
}

TEST(AnalyzeFixtures, W202CapturingLambdaCoroutine)
{
    ExpectDetectedOnce("w202_lambda_coroutine.cc", "W202");
}

TEST(AnalyzeFixtures, W203SpawnBindsStackReference)
{
    ExpectDetectedOnce("w203_spawn_stack_ref.cc", "W203");
}

TEST(AnalyzeFixtures, W204UnclassifiedSeamFile)
{
    ExpectDetectedOnce("w204_unclassified_seam.cc", "W204");
}

TEST(AnalyzeFixtures, W205PointerKeyedUnorderedIteration)
{
    ExpectDetectedOnce("w205_unordered_ptr_iter.cc", "W205");
}

TEST(AnalyzeFixtures, W206AwaitUnderScopedGuard)
{
    ExpectDetectedOnce("w206_await_under_guard.cc", "W206");
}

/** Two-file fixture pair analyzed in one invocation (cross-TU rules). */
void
ExpectPairDetectedOnce(const std::string& fixture_a,
                       const std::string& fixture_b,
                       const std::string& rule)
{
    const RunResult r =
        Exec(kBin + " --root " + kRoot + " --as-src " + kFixtures +
            "/" + fixture_a + " " + kFixtures + "/" + fixture_b);
    EXPECT_EQ(r.exit_code, 1) << fixture_a << ":\n" << r.output;
    EXPECT_EQ(Count(r.output, rule + ":"), 1u)
        << fixture_a << " did not trip " << rule << " exactly once:\n"
        << r.output;
    EXPECT_NE(r.output.find("1 finding"), std::string::npos)
        << fixture_a << " tripped more than its planted rule:\n"
        << r.output;
}

TEST(AnalyzeFixtures, W101SizedBufferWithMixedCaseName)
{
    // Regression: the sized-buffer pattern only matched snake_case
    // identifiers, so CamelCase locals escaped the rule.
    ExpectDetectedOnce("w101_mixed_case.cc", "W101");
}

TEST(AnalyzeFixtures, W301TransitiveHotReachesColdAllocator)
{
    ExpectDetectedOnce("w301_transitive_alloc.cc", "W301");
}

TEST(AnalyzeFixtures, W302CrossShardMutableStateReference)
{
    ExpectPairDetectedOnce("w302_closure_leak.cc",
                           "w302_closure_leak_b.cc", "W302");
}

TEST(AnalyzeFixtures, W303MutableGlobalWithoutJustification)
{
    ExpectDetectedOnce("w303_mutable_global.cc", "W303");
}

TEST(AnalyzeFixtures, W304DeadLifetimeAnnotation)
{
    ExpectDetectedOnce("w304_dead_annotation.cc", "W304");
}

TEST(AnalyzeFixtures, W305HostCallsNicSymbolDirectly)
{
    ExpectPairDetectedOnce("w305_seam_bypass.cc",
                           "w305_seam_bypass_b.cc", "W305");
}

TEST(AnalyzeFixtures, W301ExplainsTheCallPath)
{
    // The finding must carry the full chain from the hot call site to
    // the allocating sink, not just the endpoints.
    const RunResult r = AnalyzeFixture("w301_transitive_alloc.cc");
    EXPECT_NE(r.output.find("call path: wave::fixture::Acquire -> "
                            "wave::fixture::GrowPool"),
              std::string::npos)
        << r.output;
}

TEST(AnalyzeFixtures, RegionScopedHotOnlyFlagsInsideRegion)
{
    // Three identical allocations; only the one between `wave-hot:
    // begin` and `wave-hot: end` may be reported.
    const RunResult r = AnalyzeFixture("hot_region.cc");
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_EQ(Count(r.output, "W101"), 1u) << r.output;
}

TEST(AnalyzeFixtures, JustifiedAllowSilencesHotRule)
{
    const RunResult r = AnalyzeFixture("hot_allow.cc");
    EXPECT_EQ(r.exit_code, 0) << r.output;
    EXPECT_NE(r.output.find("1 suppressed"), std::string::npos)
        << r.output;
}

TEST(AnalyzeFixtures, InlineSuppressionSilencesFinding)
{
    const RunResult r = AnalyzeFixture("suppressed.cc");
    EXPECT_EQ(r.exit_code, 0) << r.output;
    EXPECT_NE(r.output.find("1 suppressed"), std::string::npos)
        << r.output;
}

TEST(AnalyzeFixtures, AllowOnLineAboveSuppresses)
{
    const RunResult r = AnalyzeFixture("allow_line_above.cc");
    EXPECT_EQ(r.exit_code, 0) << r.output;
    EXPECT_NE(r.output.find("1 suppressed"), std::string::npos)
        << r.output;
}

TEST(AnalyzeFixtures, OneAllowCommentMaySuppressMultipleRules)
{
    // One allow(W101 W105 ...) comment covers both findings on the
    // line below it.
    const RunResult r = AnalyzeFixture("allow_multi_rule.cc");
    EXPECT_EQ(r.exit_code, 0) << r.output;
    EXPECT_NE(r.output.find("2 suppressed"), std::string::npos)
        << r.output;
}

TEST(AnalyzeFixtures, AllowInsideStringLiteralDoesNotSuppress)
{
    // The incantation quoted in a string literal is data, not a
    // suppression comment.
    const RunResult r = AnalyzeFixture("allow_in_string.cc");
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_NE(r.output.find("W007"), std::string::npos) << r.output;
    EXPECT_EQ(r.output.find("suppressed)"), std::string::npos)
        << "nothing should have been inline-suppressed:\n"
        << r.output;
}

TEST(AnalyzeFixtures, StaleBaselineEntryFailsTheRun)
{
    // clean.cc has no findings, so the fixture baseline's entry for it
    // matches nothing and must fail the run with a stale message.
    const RunResult r =
        Exec(kBin + " --root " + kRoot + " --as-src " + kFixtures +
            "/clean.cc --baseline " + kFixtures + "/stale_baseline.txt");
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_NE(r.output.find("stale baseline"), std::string::npos)
        << r.output;
}

TEST(AnalyzeFixtures, JsonFormatEmitsFindingsAndOwnership)
{
    const RunResult r =
        Exec(kBin + " --root " + kRoot + " --as-src --format=json " +
            kFixtures + "/w201_dangling_ref.cc");
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_NE(r.output.find("\"schema\": \"wave-analyze-v2\""),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("\"rule\": \"W201\""), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("\"suppressed\": false"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("\"ownership\""), std::string::npos)
        << r.output;
}

TEST(AnalyzeFixtures, JsonV2EmitsCallGraphAndOwnershipClosure)
{
    const RunResult r =
        Exec(kBin + " --root " + kRoot + " --as-src --format=json " +
            kFixtures + "/w301_transitive_alloc.cc");
    EXPECT_NE(r.output.find("\"call_graph\""), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("\"ownership_closure\""), std::string::npos)
        << r.output;
    // The planted chain's symbols and its alloc fact must be in the
    // artifact, not just the finding.
    EXPECT_NE(r.output.find("\"wave::fixture::GrowPool\""),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("\"fact\": \"alloc\""), std::string::npos)
        << r.output;
}

TEST(AnalyzeFixtures, SarifFormatEmitsReportedFindings)
{
    const RunResult r =
        Exec(kBin + " --root " + kRoot + " --as-src --format=sarif " +
            kFixtures + "/w201_dangling_ref.cc");
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_NE(r.output.find("\"version\": \"2.1.0\""),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("\"ruleId\": \"W201\""), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("\"startLine\""), std::string::npos)
        << r.output;
}

TEST(AnalyzeFixtures, SarifSuppressedFindingsAreOmitted)
{
    const RunResult r =
        Exec(kBin + " --root " + kRoot + " --as-src --format=sarif " +
            kFixtures + "/suppressed.cc");
    EXPECT_EQ(r.exit_code, 0) << r.output;
    EXPECT_EQ(r.output.find("\"ruleId\": \"W"), std::string::npos)
        << r.output;
}

TEST(AnalyzeFixtures, JsonFormatMarksSuppressedFindings)
{
    const RunResult r =
        Exec(kBin + " --root " + kRoot + " --as-src --format=json " +
            kFixtures + "/suppressed.cc");
    EXPECT_EQ(r.exit_code, 0) << r.output;
    EXPECT_NE(r.output.find("\"suppression\": \"inline\""),
              std::string::npos)
        << r.output;
}

TEST(AnalyzeFixtures, CleanFixtureHasNoFindings)
{
    const RunResult r = AnalyzeFixture("clean.cc");
    EXPECT_EQ(r.exit_code, 0) << r.output;
    EXPECT_NE(r.output.find("wave_analyze: OK"), std::string::npos)
        << r.output;
}

TEST(AnalyzeTree, CleanTreeHasZeroViolations)
{
    const RunResult r =
        Exec(kBin + " --root " + kRoot + " --baseline " + kRoot +
            "/tools/wave_analyze_baseline.txt");
    EXPECT_EQ(r.exit_code, 0) << r.output;
    EXPECT_NE(r.output.find("wave_analyze: OK"), std::string::npos)
        << r.output;
}

TEST(AnalyzeTree, ListRulesCoversFullCatalog)
{
    const RunResult r = Exec(kBin + " --list-rules");
    EXPECT_EQ(r.exit_code, 0) << r.output;
    for (const char* rule : {"W001", "W002", "W003", "W004", "W005",
                             "W006", "W007", "W008", "W101", "W102",
                             "W103", "W104", "W105", "W106", "W201",
                             "W202", "W203", "W204", "W205", "W206",
                             "W301", "W302", "W303", "W304", "W305"}) {
        EXPECT_NE(r.output.find(rule), std::string::npos)
            << "missing " << rule << ":\n"
            << r.output;
    }
}

}  // namespace
