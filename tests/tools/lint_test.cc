// Tests for the costsense-lint analyzer — lexer hygiene (strings/comments
// never produce findings), suppression grammar and coverage, R4 declaration
// detection edge cases, layers.toml parsing, the R7 include-graph and R8
// lock-discipline whole-program passes, the JSON diagnostic format, and a
// fixture-corpus golden run (known-violation files under
// tests/tools/lint/corpus, compared byte-exact).
// (The directive prefix itself cannot appear in this comment: the tree
// lint parses it in every scanned file, including this one.)
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "lint.h"

namespace costsense::lint {
namespace {

namespace fs = std::filesystem;

std::vector<std::string> TokenTexts(const std::string& src) {
  std::vector<std::string> out;
  for (const Token& t : Lex(src).tokens) out.push_back(t.text);
  return out;
}

int CountRule(const std::vector<Finding>& findings, Rule rule) {
  return static_cast<int>(
      std::count_if(findings.begin(), findings.end(),
                    [rule](const Finding& f) { return f.rule == rule; }));
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

TEST(LexerTest, StripsCommentsAndStrings) {
  const auto toks = TokenTexts(
      "int a; // rand() in a comment\n"
      "const char* s = \"srand(1) \\\" rand()\";\n"
      "/* system_clock */ char c = 'r';\n");
  EXPECT_EQ(std::count(toks.begin(), toks.end(), "rand"), 0);
  EXPECT_EQ(std::count(toks.begin(), toks.end(), "srand"), 0);
  EXPECT_EQ(std::count(toks.begin(), toks.end(), "system_clock"), 0);
  EXPECT_EQ(std::count(toks.begin(), toks.end(), "a"), 1);
}

TEST(LexerTest, RawStringsAndDigitSeparators) {
  const auto toks = TokenTexts(
      "auto s = R\"(rand() and printf())\";\n"
      "int big = 1'000'000;\n");
  EXPECT_EQ(std::count(toks.begin(), toks.end(), "rand"), 0);
  EXPECT_EQ(std::count(toks.begin(), toks.end(), "printf"), 0);
  EXPECT_EQ(std::count(toks.begin(), toks.end(), "1'000'000"), 1);
}

TEST(LexerTest, TracksLinesAndScopeResolution) {
  const LexedFile lexed = Lex("int a;\n\ncostsense::Status b;\n");
  ASSERT_GE(lexed.tokens.size(), 6u);
  EXPECT_EQ(lexed.tokens[0].line, 1);
  const Token& qual = lexed.tokens[4];
  EXPECT_EQ(qual.text, "::");
  EXPECT_EQ(qual.line, 3);
}

TEST(LexerTest, ClassifiesTrailingVersusStandaloneComments) {
  const LexedFile lexed = Lex(
      "// standalone\n"
      "int a;  // trailing\n");
  ASSERT_EQ(lexed.comments.size(), 2u);
  EXPECT_FALSE(lexed.comments[0].trailing);
  EXPECT_TRUE(lexed.comments[1].trailing);
}

// ---------------------------------------------------------------------------
// R1 / R2 / R3 scoping
// ---------------------------------------------------------------------------

TEST(RulesTest, R1BansRandomnessOutsideRng) {
  const auto findings =
      AnalyzeSource("src/linalg/matrix.cc", "int x = rand();\n");
  EXPECT_EQ(CountRule(findings, Rule::kNondeterminism), 1);
}

TEST(RulesTest, R1SanctionsRngAndClockFiles) {
  EXPECT_TRUE(
      AnalyzeSource("src/common/rng.cc", "int x = rand();\n").empty());
  EXPECT_TRUE(AnalyzeSource("src/runtime/resilience/clock.cc",
                            "auto t = std::chrono::steady_clock::now();\n")
                  .empty());
  // The sanction is per-family: a clock read inside rng.cc still fires.
  EXPECT_EQ(CountRule(AnalyzeSource("src/common/rng.cc",
                                    "auto t = system_clock::now();\n"),
                      Rule::kNondeterminism),
            1);
}

TEST(RulesTest, R2StrictInCoreIgnoresSuppression) {
  const std::string src =
      "// costsense-lint: allow(R2, \"should not be honored\")\n"
      "std::unordered_map<int, int> m;\n";
  EXPECT_EQ(CountRule(AnalyzeSource("src/core/discovery.cc", src),
                      Rule::kUnorderedContainer),
            1);
  EXPECT_EQ(CountRule(AnalyzeSource("src/exp/report.cc", src),
                      Rule::kUnorderedContainer),
            1);
  // Outside core/exp the same suppression silences the finding.
  EXPECT_EQ(CountRule(AnalyzeSource("src/runtime/cache.cc", src),
                      Rule::kUnorderedContainer),
            0);
}

TEST(RulesTest, R3OnlyAppliesToLibraryCode) {
  const std::string src = "void f() { printf(\"x\"); }\n";
  EXPECT_EQ(CountRule(AnalyzeSource("src/opt/plan.cc", src),
                      Rule::kRawOutput),
            1);
  EXPECT_TRUE(AnalyzeSource("src/exp/report.cc", src).empty());
  EXPECT_TRUE(AnalyzeSource("bench/fig5_shared_device.cc", src).empty());
  EXPECT_TRUE(AnalyzeSource("tests/opt/optimizer_test.cc", src).empty());
}

TEST(RulesTest, R3StrictInServeIgnoresSuppression) {
  const std::string src =
      "// costsense-lint: allow(R3, \"should not be honored\")\n"
      "void f() { printf(\"x\"); }\n";
  EXPECT_EQ(CountRule(AnalyzeSource("src/serve/server.cc", src),
                      Rule::kRawOutput),
            1);
  EXPECT_EQ(CountRule(AnalyzeSource("src/serve/dispatcher.h", src),
                      Rule::kRawOutput),
            1);
  // Outside serve the same suppression silences the finding, and only R3
  // is strict there: a justified R1/R2 allow() still works in serve.
  EXPECT_EQ(CountRule(AnalyzeSource("src/opt/plan.cc", src),
                      Rule::kRawOutput),
            0);
  EXPECT_EQ(
      CountRule(AnalyzeSource(
                    "src/serve/session.cc",
                    "// costsense-lint: allow(R2, \"never iterated\")\n"
                    "std::unordered_map<int, int> m;\n"),
                Rule::kUnorderedContainer),
      0);
}

TEST(RulesTest, R5BansGetenvOutsideEngineConfig) {
  const std::string src = "const char* v = std::getenv(\"X\");\n";
  EXPECT_EQ(CountRule(AnalyzeSource("src/exp/report.cc", src), Rule::kGetenv),
            1);
  EXPECT_EQ(CountRule(AnalyzeSource("bench/bench_util.cc", src),
                      Rule::kGetenv),
            1);
  EXPECT_EQ(CountRule(AnalyzeSource("tests/core/kernels_test.cc", src),
                      Rule::kGetenv),
            1);
  EXPECT_EQ(CountRule(AnalyzeSource("src/runtime/thread_pool.cc",
                                    "char* v = secure_getenv(\"X\");\n"),
                      Rule::kGetenv),
            1);
  // The single sanctioned reader: both the header and the implementation.
  EXPECT_TRUE(AnalyzeSource("src/engine/config.cc", src).empty());
  EXPECT_TRUE(AnalyzeSource("src/engine/config.h", src).empty());
  // Writing the environment is not reading it around the config.
  EXPECT_TRUE(AnalyzeSource("tests/engine/config_test.cc",
                            "setenv(\"COSTSENSE_THREADS\", \"2\", 1);\n")
                  .empty());
  // Suppressions are honored with a justification, same grammar as R2.
  EXPECT_TRUE(AnalyzeSource(
                  "src/exp/report.cc",
                  "// costsense-lint: allow(R5, \"legacy shim, tracked\")\n" +
                      src)
                  .empty());
}

TEST(RulesTest, R6BansIntrinsicsOutsideLinalgSimd) {
  const std::string src =
      "#include <immintrin.h>\n"
      "__m256d Load(const double* p) { return _mm256_loadu_pd(p); }\n";
  // Include line fires once; the vector type and the call fire on line 2.
  const auto findings = AnalyzeSource("src/core/worst_case.cc", src);
  EXPECT_EQ(CountRule(findings, Rule::kRawIntrinsics), 3);
  EXPECT_EQ(CountRule(AnalyzeSource("bench/micro_worstcase.cc", src),
                      Rule::kRawIntrinsics),
            3);
  EXPECT_EQ(CountRule(AnalyzeSource("tests/core/kernels_test.cc", src),
                      Rule::kRawIntrinsics),
            3);
  // The sanctioned tree: headers and implementations alike.
  EXPECT_TRUE(AnalyzeSource("src/linalg/simd_dot.cc", src).empty());
  EXPECT_TRUE(AnalyzeSource("src/linalg/simd_dot.h", src).empty());
  // SSE-era prefixes and types are the same rule.
  EXPECT_EQ(CountRule(AnalyzeSource("src/opt/plan.cc",
                                    "__m128i v = _mm_setzero_si128();\n"),
                      Rule::kRawIntrinsics),
            2);
  // Suppressions are honored with a justification, same grammar as R2.
  EXPECT_TRUE(
      AnalyzeSource("src/storage/layout.cc",
                    "// costsense-lint: allow(R6, \"measured, documented\")\n"
                    "__m256i v = _mm256_setzero_si256();\n")
          .empty());
  // Names that merely mention simd stay clean: a linalg kernel API must
  // not trip the rule at call sites.
  EXPECT_TRUE(AnalyzeSource("src/core/risk.cc",
                            "double m = linalg::DotSimd(x, y, n);\n")
                  .empty());
}

TEST(RulesTest, FprintfToStderrIsNotRawOutput) {
  EXPECT_TRUE(AnalyzeSource("src/opt/plan.cc",
                            "void f() { std::fprintf(stderr, \"d\"); }\n")
                  .empty());
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

TEST(SuppressionTest, TrailingCoversItsOwnLineOnly) {
  const auto findings = AnalyzeSource(
      "src/opt/plan.cc",
      "void f() {\n"
      "  printf(\"a\");  // costsense-lint: allow(R3, \"render shim\")\n"
      "  printf(\"b\");\n"
      "}\n");
  ASSERT_EQ(CountRule(findings, Rule::kRawOutput), 1);
  EXPECT_EQ(findings[0].line, 3);
}

TEST(SuppressionTest, StandaloneCoversNextLine) {
  const auto findings = AnalyzeSource(
      "src/opt/plan.cc",
      "// costsense-lint: allow(R3, \"render shim\")\n"
      "void f() { printf(\"a\"); }\n");
  EXPECT_TRUE(findings.empty());
}

TEST(SuppressionTest, WrongRuleDoesNotSuppress) {
  const auto findings = AnalyzeSource(
      "src/opt/plan.cc",
      "void f() { printf(\"a\"); }  // costsense-lint: allow(R1, \"wrong rule\")\n");
  EXPECT_EQ(CountRule(findings, Rule::kRawOutput), 1);
}

TEST(SuppressionTest, BareAllowIsAFindingAndDoesNotSuppress) {
  const auto findings = AnalyzeSource(
      "src/opt/plan.cc",
      "void f() { printf(\"a\"); }  // costsense-lint: allow(R3)\n");
  EXPECT_EQ(CountRule(findings, Rule::kBadSuppression), 1);
  EXPECT_EQ(CountRule(findings, Rule::kRawOutput), 1);
}

TEST(SuppressionTest, EmptyOrQuotedEmptyJustificationRejected) {
  EXPECT_EQ(CountRule(AnalyzeSource("src/a/b.cc",
                                    "// costsense-lint: allow(R2, )\n"),
                      Rule::kBadSuppression),
            1);
  EXPECT_EQ(CountRule(AnalyzeSource("src/a/b.cc",
                                    "// costsense-lint: allow(R2, \"\")\n"),
                      Rule::kBadSuppression),
            1);
}

TEST(SuppressionTest, SemanticRuleNamesAccepted) {
  const auto findings = AnalyzeSource(
      "src/opt/plan.cc",
      "// costsense-lint: allow(raw-output, \"render shim\")\n"
      "void f() { printf(\"a\"); }\n");
  EXPECT_TRUE(findings.empty());
}

// ---------------------------------------------------------------------------
// R4
// ---------------------------------------------------------------------------

TEST(NodiscardTest, FlagsMissingAnnotationInHeaders) {
  const auto findings = AnalyzeSource(
      "src/opt/optimizer.h",
      "Status Save(int id);\n"
      "Result<int> Load(int id);\n"
      "[[nodiscard]] Status SaveChecked(int id);\n"
      "[[nodiscard]] Result<int> LoadChecked(int id);\n");
  EXPECT_EQ(CountRule(findings, Rule::kNodiscard), 2);
}

TEST(NodiscardTest, CoversSpecifiersQualifiersAndTemplates) {
  EXPECT_EQ(CountRule(AnalyzeSource("src/a/b.h",
                                    "class C {\n"
                                    " public:\n"
                                    "  virtual Result<double> Get() = 0;\n"
                                    "  static Status Flush();\n"
                                    "};\n"),
                      Rule::kNodiscard),
            2);
  EXPECT_EQ(CountRule(AnalyzeSource("src/a/b.h",
                                    "costsense::Status Save(int id);\n"),
                      Rule::kNodiscard),
            1);
  EXPECT_EQ(CountRule(AnalyzeSource("src/a/b.h",
                                    "template <typename T>\n"
                                    "Result<T> LoadAs(int id);\n"),
                      Rule::kNodiscard),
            1);
  EXPECT_TRUE(AnalyzeSource("src/a/b.h",
                            "template <typename T>\n"
                            "[[nodiscard]] Result<T> LoadAs(int id);\n")
                  .empty());
}

TEST(NodiscardTest, IgnoresUsesConstructorsAndNonHeaderFiles) {
  // Calls, returns, parameters and template-argument positions are uses,
  // not declarations.
  EXPECT_TRUE(AnalyzeSource("src/a/b.h",
                            "inline int f() {\n"
                            "  return Status::Ok().ok() ? 1 : 0;\n"
                            "}\n"
                            "void Consume(Status status);\n"
                            "std::vector<Result<int>> LoadMany();\n"
                            "using Fn = std::function<Status(int)>;\n")
                  .empty());
  // Constructors of Status/Result themselves are not return types.
  EXPECT_TRUE(AnalyzeSource("src/a/b.h",
                            "class Status2 {\n"
                            "  Status() : code_(0) {}\n"
                            "  Result(int value);\n"
                            "};\n")
                  .empty());
  // .cc files are out of scope for R4 (the header declaration carries the
  // attribute for the whole program).
  EXPECT_TRUE(
      AnalyzeSource("src/a/b.cc", "Status Save(int id) { return Status(); }\n")
          .empty());
}

// ---------------------------------------------------------------------------
// Layer manifest parsing
// ---------------------------------------------------------------------------

constexpr const char* kTestManifest =
    "[layers]\n"
    "common = []\n"
    "core = [\"common\"]\n"
    "engine = [\"common\", \"core\"]\n"
    "\n"
    "[[exception]]\n"
    "from = \"core\"\n"
    "to = \"engine/legacy.h\"\n"
    "why = \"documented inversion kept for the test\"\n";

LayerManifest TestManifest() {
  LayerManifest manifest;
  std::string error;
  EXPECT_TRUE(ParseLayerManifest(kTestManifest, &manifest, &error)) << error;
  return manifest;
}

TEST(ManifestTest, ParsesOrderAllowedEdgesAndExceptions) {
  const LayerManifest m = TestManifest();
  ASSERT_EQ(m.order.size(), 3u);
  EXPECT_EQ(m.order[0], "common");
  EXPECT_EQ(m.order[2], "engine");
  EXPECT_TRUE(m.allowed.at("common").empty());
  EXPECT_EQ(m.allowed.at("engine").count("core"), 1u);
  ASSERT_EQ(m.exceptions.size(), 1u);
  EXPECT_EQ(m.exceptions[0].from, "core");
  EXPECT_EQ(m.exceptions[0].to, "engine/legacy.h");
  EXPECT_FALSE(m.exceptions[0].why.empty());
}

TEST(ManifestTest, RejectsUndeclaredModuleInAllowList) {
  LayerManifest m;
  std::string error;
  EXPECT_FALSE(ParseLayerManifest(
      "[layers]\ncommon = []\ncore = [\"mystery\"]\n", &m, &error));
  EXPECT_NE(error.find("mystery"), std::string::npos) << error;
}

TEST(ManifestTest, RejectsCycleInAllowedGraph) {
  LayerManifest m;
  std::string error;
  EXPECT_FALSE(ParseLayerManifest(
      "[layers]\nalpha = [\"beta\"]\nbeta = [\"alpha\"]\n", &m, &error));
}

TEST(ManifestTest, RejectsIncompleteException) {
  LayerManifest m;
  std::string error;
  EXPECT_FALSE(ParseLayerManifest(
      std::string("[layers]\ncommon = []\ncore = [\"common\"]\n") +
          "[[exception]]\nfrom = \"core\"\nto = \"common/x.h\"\n",
      &m, &error));
  // Diagnostics carry a line anchor so a broken manifest is fixable.
  EXPECT_EQ(error.rfind("layers.toml:", 0), 0u) << error;
}

// ---------------------------------------------------------------------------
// R7: include-graph layering
// ---------------------------------------------------------------------------

TEST(LayeringTest, FlagsBackEdgeAndAcceptsSanctionedEdges) {
  const LayerManifest m = TestManifest();
  const std::vector<SourceFile> files = {
      {"src/core/plan.cc", "#include \"engine/config.h\"\nint x;\n"},
      {"src/engine/config.cc", "#include \"core/plan.h\"\nint y;\n"},
  };
  const auto findings = CheckIncludeGraph(files, m);
  ASSERT_EQ(CountRule(findings, Rule::kLayering), 1);
  EXPECT_EQ(findings[0].file, "src/core/plan.cc");
  EXPECT_EQ(findings[0].line, 1);
}

TEST(LayeringTest, ManifestExceptionCoversOneTargetOnly) {
  const LayerManifest m = TestManifest();
  EXPECT_TRUE(CheckIncludeGraph({{"src/core/plan.cc",
                                  "#include \"engine/legacy.h\"\n"}},
                                m)
                  .empty());
  EXPECT_EQ(CountRule(CheckIncludeGraph({{"src/core/plan.cc",
                                          "#include \"engine/other.h\"\n"}},
                                        m),
                      Rule::kLayering),
            1);
}

TEST(LayeringTest, SuppressionOnTheIncludeLineIsHonored) {
  const LayerManifest m = TestManifest();
  EXPECT_TRUE(
      CheckIncludeGraph(
          {{"src/core/plan.cc",
            "#include \"engine/other.h\"  // costsense-lint: allow(R7, "
            "\"transitional, tracked in the migration issue\")\n"}},
          m)
          .empty());
}

TEST(LayeringTest, LibraryCodeMustNotIncludeTestsOrBench) {
  const LayerManifest m = TestManifest();
  const auto findings = CheckIncludeGraph(
      {{"src/core/plan.cc", "#include \"tests/util.h\"\n"}}, m);
  ASSERT_EQ(CountRule(findings, Rule::kLayering), 1);
  EXPECT_NE(findings[0].message.find("bench/, tests/ or tools/"),
            std::string::npos);
}

TEST(LayeringTest, UndeclaredTargetModuleIsAFinding) {
  const auto findings = CheckIncludeGraph(
      {{"src/core/plan.cc", "#include \"mystery/box.h\"\n"}}, TestManifest());
  ASSERT_EQ(CountRule(findings, Rule::kLayering), 1);
  EXPECT_NE(findings[0].message.find("does not declare"), std::string::npos);
}

TEST(LayeringTest, FileCyclesAreNeverSuppressible) {
  const LayerManifest m = TestManifest();
  const std::vector<SourceFile> files = {
      {"src/core/a.h",
       "#include \"core/b.h\"  // costsense-lint: allow(R7, \"no\")\n"},
      {"src/core/b.h",
       "#include \"core/a.h\"  // costsense-lint: allow(R7, \"no\")\n"},
  };
  const auto findings = CheckIncludeGraph(files, m);
  ASSERT_EQ(CountRule(findings, Rule::kLayering), 1);
  EXPECT_NE(findings[0].message.find("include cycle"), std::string::npos);
}

constexpr const char* kNestedManifest =
    "[layers]\n"
    "common = []\n"
    "runtime/sink = [\"common\"]\n"
    "runtime = [\"common\", \"runtime/sink\"]\n";

LayerManifest NestedManifest() {
  LayerManifest manifest;
  std::string error;
  EXPECT_TRUE(ParseLayerManifest(kNestedManifest, &manifest, &error)) << error;
  return manifest;
}

TEST(ManifestTest, NestedModuleKeysParseAndResolveExceptions) {
  const LayerManifest m = NestedManifest();
  EXPECT_EQ(m.allowed.at("runtime").count("runtime/sink"), 1u);
  EXPECT_TRUE(m.allowed.at("runtime/sink").count("common"));
  // A file-level exception spec under a nested module resolves to the
  // longest declared prefix, so the manifest validates.
  LayerManifest with_exception;
  std::string error;
  EXPECT_TRUE(ParseLayerManifest(
      std::string(kNestedManifest) +
          "[[exception]]\n"
          "from = \"runtime/sink/stages.cc\"\n"
          "to = \"runtime/cache_store.h\"\n"
          "why = \"test fixture\"\n",
      &with_exception, &error))
      << error;
}

TEST(LayeringTest, DeclaredSubdirectoryIsItsOwnLayer) {
  const LayerManifest m = NestedManifest();
  // Child -> parent is a back-edge: "runtime/sink" may only include
  // common, and runtime/cache_store.h belongs to the parent module.
  const auto findings = CheckIncludeGraph(
      {{"src/runtime/sink/stages.cc",
        "#include \"runtime/cache_store.h\"\n"}},
      m);
  ASSERT_EQ(CountRule(findings, Rule::kLayering), 1);
  EXPECT_NE(findings[0].message.find("'runtime/sink'"), std::string::npos)
      << findings[0].message;
  // The declared parent -> child edge and intra-child includes are clean.
  EXPECT_TRUE(CheckIncludeGraph(
                  {{"src/runtime/cache_store.cc",
                    "#include \"runtime/sink/stages.h\"\n"},
                   {"src/runtime/sink/compress.cc",
                    "#include \"runtime/sink/sink.h\"\n"}},
                  m)
                  .empty());
}

TEST(LayeringTest, UndeclaredSubdirectoryFoldsIntoItsParent) {
  // Without the nested entry the same file is just part of runtime, so
  // the include that was a back-edge above is intra-module here.
  LayerManifest m;
  std::string error;
  ASSERT_TRUE(ParseLayerManifest("[layers]\ncommon = []\nruntime = [\"common\"]\n",
                                 &m, &error))
      << error;
  EXPECT_TRUE(CheckIncludeGraph(
                  {{"src/runtime/sink/stages.cc",
                    "#include \"runtime/cache_store.h\"\n"}},
                  m)
                  .empty());
}

// ---------------------------------------------------------------------------
// R8: lock discipline
// ---------------------------------------------------------------------------

TEST(LockDisciplineTest, FlagsAbbaOrderCycle) {
  const std::vector<SourceFile> files = {
      {"src/serve/abba.cc",
       "#include <mutex>\n"
       "class Abba {\n"
       " public:\n"
       "  void F() { std::lock_guard<std::mutex> a(a_mu_);\n"
       "             std::lock_guard<std::mutex> b(b_mu_); }\n"
       "  void G() { std::lock_guard<std::mutex> b(b_mu_);\n"
       "             std::lock_guard<std::mutex> a(a_mu_); }\n"
       " private:\n"
       "  std::mutex a_mu_;\n"
       "  std::mutex b_mu_;\n"
       "};\n"}};
  const auto findings = CheckLockDiscipline(files);
  ASSERT_EQ(CountRule(findings, Rule::kLockDiscipline), 1);
  EXPECT_NE(findings[0].message.find("inconsistent lock acquisition order"),
            std::string::npos);
}

TEST(LockDisciplineTest, FlagsLockHeldAcrossOracleCall) {
  const std::vector<SourceFile> files = {
      {"src/serve/held.cc",
       "#include <mutex>\n"
       "class Held {\n"
       " public:\n"
       "  double F(int q) {\n"
       "    std::lock_guard<std::mutex> lock(mu_);\n"
       "    return oracle_.Optimize(q);\n"
       "  }\n"
       " private:\n"
       "  std::mutex mu_;\n"
       "  Oracle oracle_;\n"
       "};\n"}};
  const auto findings = CheckLockDiscipline(files);
  ASSERT_EQ(CountRule(findings, Rule::kLockDiscipline), 1);
  EXPECT_NE(findings[0].message.find("oracle boundary"), std::string::npos);
}

TEST(LockDisciplineTest, ReachesTransportBoundaryThroughTheCallGraph) {
  // F holds the lock and calls a helper; only the helper touches the
  // transport. The whole-program pass must follow the call edge.
  const std::vector<SourceFile> files = {
      {"src/serve/deep.cc",
       "#include <mutex>\n"
       "class Deep {\n"
       " public:\n"
       "  void F() {\n"
       "    std::lock_guard<std::mutex> lock(mu_);\n"
       "    Helper();\n"
       "  }\n"
       " private:\n"
       "  void Helper() { (void)transport_->SendFrame(0, \"x\"); }\n"
       "  std::mutex mu_;\n"
       "  FrameTransport* transport_;\n"
       "};\n"}};
  const auto findings = CheckLockDiscipline(files);
  ASSERT_EQ(CountRule(findings, Rule::kLockDiscipline), 1);
  EXPECT_EQ(findings[0].line, 6);
}

TEST(LockDisciplineTest, FlagsLockHeldAcrossBurstSend) {
  // SendBurst is the one send every transport implements; a lock held
  // across it waits on the peer exactly as one held across SendFrame.
  const std::vector<SourceFile> files = {
      {"src/serve/burst.cc",
       "#include <mutex>\n"
       "class Burst {\n"
       " public:\n"
       "  void F() {\n"
       "    std::lock_guard<std::mutex> lock(mu_);\n"
       "    (void)transport_->SendBurst(frames_);\n"
       "  }\n"
       " private:\n"
       "  std::mutex mu_;\n"
       "  FrameTransport* transport_;\n"
       "  Frames frames_;\n"
       "};\n"}};
  const auto findings = CheckLockDiscipline(files);
  ASSERT_EQ(CountRule(findings, Rule::kLockDiscipline), 1);
  EXPECT_EQ(findings[0].line, 6);
  EXPECT_NE(findings[0].message.find("transport boundary"), std::string::npos);
  EXPECT_NE(findings[0].message.find("SendBurst"), std::string::npos);
}

TEST(LockDisciplineTest, ScopedLockGroupAndScopedReleaseAreClean) {
  const std::vector<SourceFile> files = {
      {"src/serve/clean.cc",
       "#include <mutex>\n"
       "class Clean {\n"
       " public:\n"
       "  void Atomic() { std::scoped_lock lock(a_mu_, b_mu_); n_ = 1; }\n"
       "  double Staged(int q) {\n"
       "    { std::lock_guard<std::mutex> lock(a_mu_); n_ = 2; }\n"
       "    return oracle_.Optimize(q);\n"  // lock released before the call
       "  }\n"
       " private:\n"
       "  std::mutex a_mu_;\n"
       "  std::mutex b_mu_;\n"
       "  Oracle oracle_;\n"
       "  int n_ = 0;\n"
       "};\n"}};
  EXPECT_TRUE(CheckLockDiscipline(files).empty());
}

TEST(LockDisciplineTest, JustifiedSuppressionVouchesTheEdge) {
  const std::vector<SourceFile> files = {
      {"src/serve/vouched.cc",
       "#include <mutex>\n"
       "class Vouched {\n"
       " public:\n"
       "  void F() {\n"
       "    std::lock_guard<std::mutex> a(a_mu_);\n"
       "    // costsense-lint: allow(R8, \"startup-only path, cannot race "
       "G\")\n"
       "    std::lock_guard<std::mutex> b(b_mu_);\n"
       "  }\n"
       "  void G() { std::lock_guard<std::mutex> b(b_mu_);\n"
       "             std::lock_guard<std::mutex> a(a_mu_); }\n"
       " private:\n"
       "  std::mutex a_mu_;\n"
       "  std::mutex b_mu_;\n"
       "};\n"}};
  EXPECT_TRUE(CheckLockDiscipline(files).empty());
}

// ---------------------------------------------------------------------------
// Diagnostic formats
// ---------------------------------------------------------------------------

TEST(FormatTest, JsonCarriesFileLineColRuleAndFingerprint) {
  const std::string json = FormatFindingsJson(
      AnalyzeSource("src/opt/plan.cc", "void f() { printf(\"x\"); }\n"));
  EXPECT_NE(json.find("\"version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"file\": \"src/opt/plan.cc\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"rule\": \"R3\""), std::string::npos);
  EXPECT_NE(json.find("\"fingerprint\": \""), std::string::npos);
}

TEST(FormatTest, JsonWithNoFindingsIsStillWellFormed) {
  EXPECT_EQ(FormatFindingsJson({}),
            "{\"version\": 1, \"count\": 0, \"findings\": []}\n");
}

TEST(FormatTest, FingerprintsSurviveLineShifts) {
  std::vector<Finding> before =
      AnalyzeSource("src/opt/plan.cc", "void f() { printf(\"x\"); }\n");
  std::vector<Finding> after = AnalyzeSource(
      "src/opt/plan.cc", "\n\n\nvoid f() { printf(\"x\"); }\n");
  AssignFingerprints(&before);
  AssignFingerprints(&after);
  ASSERT_EQ(before.size(), 1u);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_NE(before[0].line, after[0].line);
  EXPECT_EQ(before[0].fingerprint, after[0].fingerprint);
}

TEST(FormatTest, DuplicateFindingsGetDistinctStableFingerprints) {
  std::vector<Finding> findings = AnalyzeSource(
      "src/opt/plan.cc",
      "void f() { printf(\"x\"); }\nvoid g() { printf(\"x\"); }\n");
  AssignFingerprints(&findings);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_NE(findings[0].fingerprint, findings[1].fingerprint);
}

// ---------------------------------------------------------------------------
// Fixture corpus golden test
// ---------------------------------------------------------------------------

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(CorpusTest, GoldenFindings) {
  const fs::path corpus(COSTSENSE_LINT_CORPUS_DIR);
  ASSERT_TRUE(fs::exists(corpus)) << corpus;

  LayerManifest manifest;
  std::string manifest_error;
  ASSERT_TRUE(ParseLayerManifest(ReadFile(corpus / "layers.toml"), &manifest,
                                 &manifest_error))
      << manifest_error;

  std::vector<fs::path> paths;
  for (const auto& entry : fs::recursive_directory_iterator(corpus)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext == ".h" || ext == ".cc") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  ASSERT_GE(paths.size(), 15u) << "corpus lost fixture files";

  std::vector<SourceFile> files;
  for (const fs::path& path : paths) {
    files.push_back(
        {fs::relative(path, corpus).generic_string(), ReadFile(path)});
  }

  const std::string expected = ReadFile(corpus / "expected_findings.txt");
  EXPECT_EQ(FormatFindings(AnalyzeRepo(files, &manifest)), expected)
      << "fixture corpus findings drifted; if the rule set changed on "
         "purpose, regenerate with: costsense_lint --root "
         "tests/tools/lint/corpus --relative-to tests/tools/lint/corpus "
         "--layers tests/tools/lint/corpus/layers.toml";
}

/// Every rule must appear at least once in the golden file, so a rule
/// silently going dead cannot pass the corpus test.
TEST(CorpusTest, GoldenCoversEveryRule) {
  const std::string expected =
      ReadFile(fs::path(COSTSENSE_LINT_CORPUS_DIR) / "expected_findings.txt");
  for (const char* id : {"[R1]", "[R2]", "[R3]", "[R4]", "[R5]", "[R6]",
                         "[R7]", "[R8]", "[SUP]"}) {
    EXPECT_NE(expected.find(id), std::string::npos)
        << id << " missing from expected_findings.txt";
  }
}

}  // namespace
}  // namespace costsense::lint
