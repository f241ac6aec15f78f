// sfcheck's own test bed: fixture snippets with known-good and
// known-bad code per rule, checked for *exact* diagnostics (rule,
// file, line) and for suppression semantics. The fixtures live under
// tests/sfcheck_fixtures/ in a miniature src/ tree so path-based
// scoping (modules, D3 scope, layer ranks) is exercised for real.
#include "sfcheck.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

namespace {

using sf::lint::Config;
using sf::lint::ScanResult;
using sf::lint::SourceFile;

SourceFile load_fixture(const std::string& rel) {
  const std::filesystem::path p = std::filesystem::path(SFCHECK_FIXTURE_DIR) / rel;
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << p;
  std::ostringstream ss;
  ss << in.rdbuf();
  return {rel, ss.str()};
}

ScanResult scan(std::initializer_list<std::string> rels) {
  std::vector<SourceFile> files;
  for (const auto& r : rels) files.push_back(load_fixture(r));
  return sf::lint::run(files, Config::project_default());
}

void expect_diag(const ScanResult& r, std::size_t i, const std::string& file, int line,
                 const std::string& rule) {
  ASSERT_LT(i, r.diagnostics.size());
  EXPECT_EQ(r.diagnostics[i].file, file);
  EXPECT_EQ(r.diagnostics[i].line, line);
  EXPECT_EQ(r.diagnostics[i].rule, rule);
}

TEST(Sfcheck, D1FlagsRandRandomDeviceAndUnseededMt19937) {
  const auto r = scan({"src/core/d1_bad.cpp"});
  ASSERT_EQ(r.diagnostics.size(), 3u);
  expect_diag(r, 0, "src/core/d1_bad.cpp", 6, "D1");
  expect_diag(r, 1, "src/core/d1_bad.cpp", 7, "D1");
  expect_diag(r, 2, "src/core/d1_bad.cpp", 8, "D1");
  EXPECT_NE(r.diagnostics[0].message.find("rand()"), std::string::npos);
  EXPECT_NE(r.diagnostics[1].message.find("random_device"), std::string::npos);
  EXPECT_NE(r.diagnostics[2].message.find("unseeded"), std::string::npos);
  EXPECT_TRUE(r.suppressed.empty());
}

TEST(Sfcheck, D1AllowsSeededEnginesAndSfRng) {
  const auto r = scan({"src/core/d1_good.cpp"});
  EXPECT_TRUE(r.diagnostics.empty());
}

TEST(Sfcheck, D1ExemptsTheRngHome) {
  // The same bad content is legal inside src/util/rng.*.
  auto bad = load_fixture("src/core/d1_bad.cpp");
  bad.path = "src/util/rng.cpp";
  const auto r = sf::lint::run({bad}, Config::project_default());
  for (const auto& d : r.diagnostics) EXPECT_NE(d.rule, "D1") << d.message;
}

TEST(Sfcheck, D2FlagsSystemClockAndTimeCalls) {
  const auto r = scan({"src/core/d2_bad.cpp"});
  ASSERT_EQ(r.diagnostics.size(), 2u);
  expect_diag(r, 0, "src/core/d2_bad.cpp", 6, "D2");
  expect_diag(r, 1, "src/core/d2_bad.cpp", 7, "D2");
}

TEST(Sfcheck, D2IgnoresLookalikeIdentifiers) {
  const auto r = scan({"src/core/d2_good.cpp"});
  EXPECT_TRUE(r.diagnostics.empty());
}

TEST(Sfcheck, D3FlagsRangeForAndIteratorWalks) {
  const auto r = scan({"src/core/d3_bad.cpp"});
  ASSERT_EQ(r.diagnostics.size(), 2u);
  expect_diag(r, 0, "src/core/d3_bad.cpp", 8, "D3");
  expect_diag(r, 1, "src/core/d3_bad.cpp", 11, "D3");
  EXPECT_NE(r.diagnostics[0].message.find("totals_by_id"), std::string::npos);
}

TEST(Sfcheck, D3AllowsSortKeysFirstPattern) {
  const auto r = scan({"src/core/d3_good.cpp"});
  EXPECT_TRUE(r.diagnostics.empty());
}

TEST(Sfcheck, D3OnlyAppliesToDeterministicOutputModules) {
  const auto r = scan({"src/geom/d3_unscoped.cpp"});
  EXPECT_TRUE(r.diagnostics.empty());
}

TEST(Sfcheck, D3SeesMembersDeclaredInTheModuleHeader) {
  // A member declared unordered in the .hpp is tracked when the .cpp of
  // the same module iterates it.
  SourceFile hpp{"src/core/widget.hpp",
                 "#pragma once\n#include <unordered_map>\n"
                 "struct W { std::unordered_map<int, int> by_id_; };\n"};
  SourceFile cpp{"src/core/widget.cpp",
                 "#include \"core/widget.hpp\"\n"
                 "int sum(const W& w) {\n"
                 "  int s = 0;\n"
                 "  for (const auto& [k, v] : w.by_id_) s += v;\n"
                 "  return s;\n"
                 "}\n"};
  const auto r = sf::lint::run({hpp, cpp}, Config::project_default());
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(r.diagnostics[0].file, "src/core/widget.cpp");
  EXPECT_EQ(r.diagnostics[0].line, 4);
  EXPECT_EQ(r.diagnostics[0].rule, "D3");
}

TEST(Sfcheck, D4FlagsNakedOfstream) {
  const auto r = scan({"src/core/d4_bad.cpp"});
  ASSERT_EQ(r.diagnostics.size(), 1u);
  expect_diag(r, 0, "src/core/d4_bad.cpp", 5, "D4");
}

TEST(Sfcheck, D4AllowsAtomicHelperAndJournal) {
  const auto good = scan({"src/core/d4_good.cpp"});
  EXPECT_TRUE(good.diagnostics.empty());
  // The helper itself is the one sanctioned home; the journal appends
  // through it and has no exemption of its own.
  auto bad = load_fixture("src/core/d4_bad.cpp");
  bad.path = "src/util/file_io.cpp";
  const auto helper = sf::lint::run({bad}, Config::project_default());
  EXPECT_TRUE(helper.diagnostics.empty());
  bad.path = "src/core/journal.cpp";
  const auto journal = sf::lint::run({bad}, Config::project_default());
  ASSERT_EQ(journal.diagnostics.size(), 1u);
  EXPECT_EQ(journal.diagnostics[0].rule, "D4");
}

TEST(Sfcheck, L1FlagsUpwardInclude) {
  const auto r = scan({"src/bio/l1_bad.hpp"});
  ASSERT_EQ(r.diagnostics.size(), 1u);
  expect_diag(r, 0, "src/bio/l1_bad.hpp", 3, "L1");
  EXPECT_NE(r.diagnostics[0].message.find("'bio'"), std::string::npos);
  EXPECT_NE(r.diagnostics[0].message.find("'geom'"), std::string::npos);
}

TEST(Sfcheck, L1AllowsDownwardIncludes) {
  const auto r = scan({"src/fold/l1_good.cpp"});
  EXPECT_TRUE(r.diagnostics.empty());
}

TEST(Sfcheck, L1DetectsEqualRankCycles) {
  const auto r = scan({"src/fold/cycle_a.hpp", "src/sim/cycle_b.hpp"});
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(r.diagnostics[0].file, "(include-graph)");
  EXPECT_EQ(r.diagnostics[0].line, 0);
  EXPECT_EQ(r.diagnostics[0].rule, "L1");
  EXPECT_NE(r.diagnostics[0].message.find("include cycle"), std::string::npos);
  EXPECT_NE(r.diagnostics[0].message.find("fold -> sim -> fold"), std::string::npos);
}

TEST(Sfcheck, L1CoversObsModule) {
  const auto r = scan({"src/obs/l1_bad.hpp"});
  ASSERT_EQ(r.diagnostics.size(), 1u);
  expect_diag(r, 0, "src/obs/l1_bad.hpp", 3, "L1");
  EXPECT_NE(r.diagnostics[0].message.find("'obs'"), std::string::npos);
  EXPECT_NE(r.diagnostics[0].message.find("'core'"), std::string::npos);
}

TEST(Sfcheck, L1CoversSftraceTool) {
  const auto r = scan({"tools/sftrace/l1_bad.cpp"});
  ASSERT_EQ(r.diagnostics.size(), 1u);
  expect_diag(r, 0, "tools/sftrace/l1_bad.cpp", 3, "L1");
  EXPECT_NE(r.diagnostics[0].message.find("'sftrace'"), std::string::npos);
  EXPECT_NE(r.diagnostics[0].message.find("'core'"), std::string::npos);
}

TEST(Sfcheck, L1AllowsSftraceToIncludeObs) {
  SourceFile f{"tools/sftrace/sftrace.cpp",
               "#include \"obs/trace_io.hpp\"\n#include \"util/stats.hpp\"\n"};
  const auto r = sf::lint::run({f}, Config::project_default());
  EXPECT_TRUE(r.diagnostics.empty());
}

TEST(Sfcheck, L1CoversStoreModule) {
  const auto r = scan({"src/store/l1_bad.hpp"});
  ASSERT_EQ(r.diagnostics.size(), 1u);
  expect_diag(r, 0, "src/store/l1_bad.hpp", 3, "L1");
  EXPECT_NE(r.diagnostics[0].message.find("'store'"), std::string::npos);
  EXPECT_NE(r.diagnostics[0].message.find("'core'"), std::string::npos);
}

TEST(Sfcheck, L1AllowsStoreDownwardAndCoreToIncludeStore) {
  SourceFile store_cpp{"src/store/artifact_store.cpp",
                       "#include \"sim/filesystem.hpp\"\n#include \"util/file_io.hpp\"\n"
                       "#include \"seqsearch/msa.hpp\"\n"};
  SourceFile core_cpp{"src/core/stage_features.cpp",
                      "#include \"store/artifact_store.hpp\"\n"};
  const auto r = sf::lint::run({store_cpp, core_cpp}, Config::project_default());
  EXPECT_TRUE(r.diagnostics.empty());
}

TEST(Sfcheck, L1CoversDistModule) {
  const auto r = scan({"src/dist/l1_bad.hpp"});
  ASSERT_EQ(r.diagnostics.size(), 1u);
  expect_diag(r, 0, "src/dist/l1_bad.hpp", 3, "L1");
  EXPECT_NE(r.diagnostics[0].message.find("'dist'"), std::string::npos);
  EXPECT_NE(r.diagnostics[0].message.find("'core'"), std::string::npos);
}

TEST(Sfcheck, L1RanksDistAboveDataflowAndBelowCore) {
  // dist composes the rank-3 machinery (dataflow, store) over the rank-2
  // simulation; core sits above and may include it.
  SourceFile dist_cpp{"src/dist/executor.cpp",
                      "#include \"dataflow/executor.hpp\"\n#include \"store/key.hpp\"\n"
                      "#include \"sim/network.hpp\"\n#include \"obs/trace.hpp\"\n"};
  SourceFile core_cpp{"src/core/stage_context.cpp", "#include \"dist/executor.hpp\"\n"};
  const auto ok = sf::lint::run({dist_cpp, core_cpp}, Config::project_default());
  EXPECT_TRUE(ok.diagnostics.empty());
  // The reverse edge -- dataflow reaching up into dist -- is a violation.
  SourceFile dataflow_bad{"src/dataflow/simulated.cpp", "#include \"dist/types.hpp\"\n"};
  const auto r = sf::lint::run({dataflow_bad}, Config::project_default());
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(r.diagnostics[0].rule, "L1");
  EXPECT_NE(r.diagnostics[0].message.find("'dataflow'"), std::string::npos);
  EXPECT_NE(r.diagnostics[0].message.find("'dist'"), std::string::npos);
}

TEST(Sfcheck, L1CoversClusterModule) {
  const auto r = scan({"src/cluster/l1_bad.hpp"});
  ASSERT_EQ(r.diagnostics.size(), 1u);
  expect_diag(r, 0, "src/cluster/l1_bad.hpp", 3, "L1");
  EXPECT_NE(r.diagnostics[0].message.find("'cluster'"), std::string::npos);
  EXPECT_NE(r.diagnostics[0].message.find("'core'"), std::string::npos);
}

TEST(Sfcheck, L1RanksClusterAboveAnalysisAndBelowCore) {
  // cluster composes the rank-3 analysis machinery over the rank-2
  // scoring/geometry layers; core sits above and may include it.
  SourceFile cluster_cpp{"src/cluster/cluster.cpp",
                         "#include \"analysis/struct_align.hpp\"\n"
                         "#include \"score/lddt.hpp\"\n#include \"geom/structure.hpp\"\n"};
  SourceFile core_cpp{"src/core/stage_cluster.cpp", "#include \"cluster/cluster.hpp\"\n"};
  const auto ok = sf::lint::run({cluster_cpp, core_cpp}, Config::project_default());
  EXPECT_TRUE(ok.diagnostics.empty());
  // The reverse edge -- analysis reaching up into cluster -- is a
  // violation.
  SourceFile analysis_bad{"src/analysis/fold_library.cpp", "#include \"cluster/sketch.hpp\"\n"};
  const auto r = sf::lint::run({analysis_bad}, Config::project_default());
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(r.diagnostics[0].rule, "L1");
  EXPECT_NE(r.diagnostics[0].message.find("'analysis'"), std::string::npos);
  EXPECT_NE(r.diagnostics[0].message.find("'cluster'"), std::string::npos);
}

TEST(Sfcheck, D3CoversClusterModule) {
  const auto r = scan({"src/cluster/d3_bad.cpp"});
  ASSERT_EQ(r.diagnostics.size(), 1u);
  expect_diag(r, 0, "src/cluster/d3_bad.cpp", 10, "D3");
  EXPECT_NE(r.diagnostics[0].message.find("tm_by_pair"), std::string::npos);
}

TEST(Sfcheck, C1CoversDistModule) {
  const auto r = scan({"src/dist/c1_bad.cpp"});
  ASSERT_EQ(r.diagnostics.size(), 4u);
  expect_diag(r, 0, "src/dist/c1_bad.cpp", 7, "C1");
  expect_diag(r, 1, "src/dist/c1_bad.cpp", 7, "C1");
  expect_diag(r, 2, "src/dist/c1_bad.cpp", 7, "C1");
  expect_diag(r, 3, "src/dist/c1_bad.cpp", 14, "C1");
}

TEST(Sfcheck, R1CoversDistModule) {
  const auto r = scan({"src/dist/r1_bad.cpp"});
  ASSERT_EQ(r.diagnostics.size(), 1u);
  expect_diag(r, 0, "src/dist/r1_bad.cpp", 5, "R1");
  EXPECT_NE(r.diagnostics[0].message.find("fn -> wallclock_now()"), std::string::npos);
}

TEST(Sfcheck, D3CoversStoreModule) {
  const auto r = scan({"src/store/d3_bad.cpp"});
  ASSERT_EQ(r.diagnostics.size(), 1u);
  expect_diag(r, 0, "src/store/d3_bad.cpp", 10, "D3");
  EXPECT_NE(r.diagnostics[0].message.find("bytes_by_key"), std::string::npos);
}

TEST(Sfcheck, D4AllowsStoreManifestAppenderOnly) {
  // The manifest appends its end-sealed lines through util/file_io, so
  // neither it nor the rest of src/store/ carries an exemption.
  auto bad = load_fixture("src/core/d4_bad.cpp");
  bad.path = "src/store/manifest.cpp";
  const auto manifest = sf::lint::run({bad}, Config::project_default());
  ASSERT_EQ(manifest.diagnostics.size(), 1u);
  EXPECT_EQ(manifest.diagnostics[0].rule, "D4");
  bad.path = "src/store/artifact_store.cpp";
  const auto rest = sf::lint::run({bad}, Config::project_default());
  ASSERT_EQ(rest.diagnostics.size(), 1u);
  EXPECT_EQ(rest.diagnostics[0].rule, "D4");
}

TEST(Sfcheck, D3CoversObsModule) {
  const auto r = scan({"src/obs/d3_bad.cpp"});
  ASSERT_EQ(r.diagnostics.size(), 1u);
  expect_diag(r, 0, "src/obs/d3_bad.cpp", 9, "D3");
  EXPECT_NE(r.diagnostics[0].message.find("busy_by_worker"), std::string::npos);
}

TEST(Sfcheck, D4CoversSftraceTool) {
  const auto r = scan({"tools/sftrace/d4_bad.cpp"});
  ASSERT_EQ(r.diagnostics.size(), 1u);
  expect_diag(r, 0, "tools/sftrace/d4_bad.cpp", 6, "D4");
}

TEST(Sfcheck, SuppressionWithReasonSilencesAndIsReported) {
  const auto r = scan({"src/core/suppress_ok.cpp"});
  EXPECT_TRUE(r.diagnostics.empty());
  ASSERT_EQ(r.suppressed.size(), 1u);
  EXPECT_EQ(r.suppressed[0].file, "src/core/suppress_ok.cpp");
  EXPECT_EQ(r.suppressed[0].line, 5);
  EXPECT_EQ(r.suppressed[0].rule, "D4");
  EXPECT_EQ(r.suppressed[0].reason, "fixture demonstrating a reasoned suppression");
}

TEST(Sfcheck, SuppressionWithoutReasonFailsAndSilencesNothing) {
  const auto r = scan({"src/core/suppress_noreason.cpp"});
  ASSERT_EQ(r.diagnostics.size(), 2u);
  expect_diag(r, 0, "src/core/suppress_noreason.cpp", 6, "D4");
  expect_diag(r, 1, "src/core/suppress_noreason.cpp", 6, "SUP");
  EXPECT_TRUE(r.suppressed.empty());
}

TEST(Sfcheck, SuppressionOnlySilencesTheNamedRule) {
  SourceFile f{"src/core/wrong_rule.cpp",
               "#include <fstream>\n"
               "void f(const char* p) {\n"
               "  std::ofstream out(p);  // sfcheck:allow(D1): wrong rule named\n"
               "}\n"};
  const auto r = sf::lint::run({f}, Config::project_default());
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(r.diagnostics[0].rule, "D4");
  EXPECT_TRUE(r.suppressed.empty());
}

TEST(Sfcheck, LiteralsAndCommentsNeverFire) {
  const auto r = scan({"src/core/strings_ok.cpp"});
  EXPECT_TRUE(r.diagnostics.empty());
}

TEST(Sfcheck, WholeFixtureTreeCounts) {
  const auto r = scan({
      "examples/d3_bad.cpp", "src/bio/l1_bad.hpp", "src/core/c1_bad.cpp",
      "src/core/c1_fill_slots.cpp", "src/core/c1_good.cpp", "src/core/d1_bad.cpp", "src/core/d1_good.cpp",
      "src/core/d2_bad.cpp", "src/core/d2_good.cpp", "src/core/d3_bad.cpp",
      "src/core/d3_good.cpp", "src/core/d4_bad.cpp", "src/core/d4_good.cpp",
      "src/cluster/d3_bad.cpp", "src/cluster/l1_bad.hpp",
      "src/core/r1_entry.cpp", "src/core/r1_mid.cpp", "src/core/strings_ok.cpp",
      "src/core/suppress_noreason.cpp", "src/core/suppress_ok.cpp",
      "src/dist/c1_bad.cpp", "src/dist/l1_bad.hpp", "src/dist/r1_bad.cpp",
      "src/fold/cycle_a.hpp", "src/fold/l1_good.cpp", "src/geom/d3_unscoped.cpp",
      "src/geom/r1_sink.cpp", "src/obs/d3_bad.cpp", "src/obs/d5_bad.cpp",
      "src/obs/d5_good.cpp", "src/obs/l1_bad.hpp", "src/sim/cycle_b.hpp",
      "src/store/d3_bad.cpp", "src/store/l1_bad.hpp", "tools/sftrace/d4_bad.cpp",
      "tools/sftrace/l1_bad.cpp",
  });
  // 3 D1 + 3 D2 + 6 D3 + 3 D4 + 4 D5 + 1 SUP + 6 L1 includes + 1 L1
  // cycle + 2 R1 + 9 C1.
  EXPECT_EQ(r.diagnostics.size(), 38u);
  EXPECT_EQ(r.suppressed.size(), 1u);
  // Ordered by (file, line, rule): the include-graph cycle sorts first.
  EXPECT_EQ(r.diagnostics[0].file, "(include-graph)");
}

TEST(Sfcheck, PathScoping) {
  EXPECT_TRUE(sf::lint::is_scanned_path("src/core/pipeline.cpp"));
  EXPECT_TRUE(sf::lint::is_scanned_path("tools/sfcheck/main.cpp"));
  EXPECT_TRUE(sf::lint::is_scanned_path("examples/quickstart.cpp"));
  EXPECT_FALSE(sf::lint::is_scanned_path("tests/test_rng.cpp"));
  EXPECT_FALSE(sf::lint::is_scanned_path("bench/bench_micro.cpp"));
  EXPECT_FALSE(sf::lint::is_scanned_path("src/core/notes.md"));
  EXPECT_EQ(sf::lint::module_of("src/geom/vec3.hpp"), "geom");
  EXPECT_EQ(sf::lint::module_of("tools/sfcheck/main.cpp"), "sfcheck");
  EXPECT_EQ(sf::lint::module_of("tools/sftrace/main.cpp"), "sftrace");
  EXPECT_EQ(sf::lint::module_of("src/CMakeLists.txt"), "");
  // examples/ is a pseudo-module so the emit-scoped rules cover the
  // CLIs' report bytes.
  EXPECT_EQ(sf::lint::module_of("examples/quickstart.cpp"), "examples");
  EXPECT_EQ(sf::lint::module_of("examples/sub/tool.cpp"), "examples");
}

// ---------------------------------------------------------------------
// Interprocedural rules (R1 taint, C1 closure purity).
// ---------------------------------------------------------------------

TEST(Sfcheck, R1ReportsCrossFileCallChainToClock) {
  const auto r =
      scan({"src/core/r1_entry.cpp", "src/core/r1_mid.cpp", "src/geom/r1_sink.cpp"});
  ASSERT_EQ(r.diagnostics.size(), 2u);
  // The entry anchors the interprocedural finding; the sink file also
  // gets the plain file-local D2.
  expect_diag(r, 0, "src/core/r1_entry.cpp", 7, "R1");
  expect_diag(r, 1, "src/geom/r1_sink.cpp", 7, "D2");
  EXPECT_NE(r.diagnostics[0].message.find(
                "fn -> helper_a() -> geom_helper() -> std::chrono::steady_clock"),
            std::string::npos);
  const std::vector<std::string> want_chain = {
      "fn@src/core/r1_entry.cpp:7",
      "helper_a@src/core/r1_mid.cpp:4",
      "geom_helper@src/geom/r1_sink.cpp:6",
      "std::chrono::steady_clock@src/geom/r1_sink.cpp:7",
  };
  EXPECT_EQ(r.diagnostics[0].chain, want_chain);
}

TEST(Sfcheck, R1SilentWithoutTheSinkFile) {
  // Same entry + mid, but the sink's definition is not in the scan set:
  // the chain dead-ends at an unresolved name and nothing fires.
  const auto r = scan({"src/core/r1_entry.cpp", "src/core/r1_mid.cpp"});
  EXPECT_TRUE(r.diagnostics.empty());
}

TEST(Sfcheck, R1TreatsWallclockShimCallAsSink) {
  SourceFile f{"src/core/uses_shim.cpp",
               "void go() {\n"
               "  const TaskFn fn = [&](const TaskSpec& t, const TaskAttempt&) {\n"
               "    return wallclock_now();\n"
               "  };\n"
               "}\n"};
  const auto r = sf::lint::run({f}, Config::project_default());
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(r.diagnostics[0].rule, "R1");
  EXPECT_EQ(r.diagnostics[0].line, 2);
  EXPECT_NE(r.diagnostics[0].message.find("fn -> wallclock_now()"), std::string::npos);
}

TEST(Sfcheck, R1SuppressibleAtTheEntryLine) {
  SourceFile f{"src/core/uses_shim.cpp",
               "void go() {\n"
               "  const TaskFn fn = [&](const TaskSpec& t, const TaskAttempt&) {  "
               "// sfcheck:allow(R1): measured span feeds the stats CSV only\n"
               "    return wallclock_now();\n"
               "  };\n"
               "}\n"};
  const auto r = sf::lint::run({f}, Config::project_default());
  EXPECT_TRUE(r.diagnostics.empty());
  ASSERT_EQ(r.suppressed.size(), 1u);
  EXPECT_EQ(r.suppressed[0].rule, "R1");
}

TEST(Sfcheck, C1FlagsImpureTaskLambdas) {
  const auto r = scan({"src/core/c1_bad.cpp"});
  ASSERT_EQ(r.diagnostics.size(), 4u);
  // Same (file, line, rule) sorts by message: store call, mutating
  // method, compound assignment -- then the mutable lambda.
  expect_diag(r, 0, "src/core/c1_bad.cpp", 7, "C1");
  expect_diag(r, 1, "src/core/c1_bad.cpp", 7, "C1");
  expect_diag(r, 2, "src/core/c1_bad.cpp", 7, "C1");
  expect_diag(r, 3, "src/core/c1_bad.cpp", 14, "C1");
  EXPECT_NE(r.diagnostics[0].message.find("'store->put()'"), std::string::npos);
  EXPECT_NE(r.diagnostics[1].message.find("'acc.push_back()'"), std::string::npos);
  EXPECT_NE(r.diagnostics[2].message.find("'acc_total'"), std::string::npos);
  EXPECT_NE(r.diagnostics[3].message.find("'mutable'"), std::string::npos);
}

TEST(Sfcheck, C1CoversSlotComputerLambdas) {
  // fill_slots runs its lambda on pool threads: the lambda is a task
  // entry, so a store call inside it is flagged and its slot write is not.
  const auto r = scan({"src/core/c1_fill_slots.cpp"});
  ASSERT_EQ(r.diagnostics.size(), 1u);
  expect_diag(r, 0, "src/core/c1_fill_slots.cpp", 6, "C1");
  EXPECT_NE(r.diagnostics[0].message.find("'store->put()'"), std::string::npos);
}

TEST(Sfcheck, C1AllowsLocalsAndPerTaskSlotWrites) {
  const auto r = scan({"src/core/c1_good.cpp"});
  EXPECT_TRUE(r.diagnostics.empty());
}

TEST(Sfcheck, C1AndR1SkipTheExecutorFrameworkItself) {
  // The executor's own fault-injection wrapper is a TaskFn too, but it
  // implements the contract (mutex-guarded accounting by design).
  auto bad = load_fixture("src/core/c1_bad.cpp");
  bad.path = "src/dataflow/executor.cpp";
  const auto r = sf::lint::run({bad}, Config::project_default());
  for (const auto& d : r.diagnostics) EXPECT_NE(d.rule, "C1") << d.message;
}

// ---------------------------------------------------------------------
// D5: canonical float formatting.
// ---------------------------------------------------------------------

TEST(Sfcheck, D5FlagsNonCanonicalFloatFormatting) {
  const auto r = scan({"src/obs/d5_bad.cpp"});
  ASSERT_EQ(r.diagnostics.size(), 4u);
  expect_diag(r, 0, "src/obs/d5_bad.cpp", 10, "D5");  // bare << of float
  expect_diag(r, 1, "src/obs/d5_bad.cpp", 11, "D5");  // std::to_string
  expect_diag(r, 2, "src/obs/d5_bad.cpp", 12, "D5");  // direct printf
  expect_diag(r, 3, "src/obs/d5_bad.cpp", 12, "D5");  // %f without precision
  EXPECT_NE(r.diagnostics[0].message.find("'total'"), std::string::npos);
  EXPECT_NE(r.diagnostics[1].message.find("to_string"), std::string::npos);
  EXPECT_NE(r.diagnostics[2].message.find("printf"), std::string::npos);
  EXPECT_NE(r.diagnostics[3].message.find("precision-less"), std::string::npos);
}

TEST(Sfcheck, D5AllowsCanonicalSfFormat) {
  const auto r = scan({"src/obs/d5_good.cpp"});
  EXPECT_TRUE(r.diagnostics.empty());
}

TEST(Sfcheck, D5ExemptsTheFormatterHomeFromTheStdioBan) {
  // sf::format's own vsnprintf lives in src/util/string_util.*; the
  // stdio ban does not apply there (the other D5 checks still do).
  auto bad = load_fixture("src/obs/d5_bad.cpp");
  bad.path = "src/util/string_util.cpp";
  const auto r = sf::lint::run({bad}, Config::project_default());
  for (const auto& d : r.diagnostics) {
    EXPECT_EQ(d.message.find("direct printf"), std::string::npos) << d.message;
    EXPECT_EQ(d.message.find("precision-less"), std::string::npos) << d.message;
  }
}

TEST(Sfcheck, D5OnlyAppliesToEmitModules) {
  // geom (and examples/) are outside the D5 scope.
  auto bad = load_fixture("src/obs/d5_bad.cpp");
  bad.path = "src/geom/d5_unscoped.cpp";
  const auto geom = sf::lint::run({bad}, Config::project_default());
  EXPECT_TRUE(geom.diagnostics.empty());
  bad.path = "examples/d5_unscoped.cpp";
  const auto ex = sf::lint::run({bad}, Config::project_default());
  EXPECT_TRUE(ex.diagnostics.empty());
}

// ---------------------------------------------------------------------
// Scoping changes: examples/ pseudo-module, wallclock home.
// ---------------------------------------------------------------------

TEST(Sfcheck, D3CoversExamplesPseudoModule) {
  const auto r = scan({"examples/d3_bad.cpp"});
  ASSERT_EQ(r.diagnostics.size(), 1u);
  expect_diag(r, 0, "examples/d3_bad.cpp", 9, "D3");
  EXPECT_NE(r.diagnostics[0].message.find("counts"), std::string::npos);
}

TEST(Sfcheck, D2ExemptsTheWallclockHome) {
  // The same clock reads are legal inside src/util/wallclock.* -- the
  // one sanctioned shim.
  auto bad = load_fixture("src/core/d2_bad.cpp");
  bad.path = "src/util/wallclock.cpp";
  const auto r = sf::lint::run({bad}, Config::project_default());
  for (const auto& d : r.diagnostics) EXPECT_NE(d.rule, "D2") << d.message;
}

// ---------------------------------------------------------------------
// Baseline gating.
// ---------------------------------------------------------------------

TEST(Sfcheck, BaselineRoundTripAndDiff) {
  const auto r = scan({"src/core/d4_bad.cpp"});
  ASSERT_EQ(r.diagnostics.size(), 1u);
  const std::string key = sf::lint::baseline_key(r.diagnostics[0]);
  EXPECT_EQ(key.rfind("D4|src/core/d4_bad.cpp|", 0), 0u) << key;

  const std::string image = sf::lint::render_baseline(r);
  const auto keys = sf::lint::parse_baseline(image);
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0], key);

  EXPECT_TRUE(sf::lint::baseline_new(r.diagnostics, keys).empty());
  const auto fresh = sf::lint::baseline_new(r.diagnostics, {});
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].rule, "D4");
}

TEST(Sfcheck, BaselineKeysAreAMultiset) {
  // Two identical findings on different lines share a key (keys omit
  // line numbers); one baseline entry absorbs exactly one of them.
  SourceFile f{"src/core/two_ofstreams.cpp",
               "#include <fstream>\n"
               "void a(const char* p) { std::ofstream out(p); }\n"
               "void b(const char* p) { std::ofstream out(p); }\n"};
  const auto r = sf::lint::run({f}, Config::project_default());
  ASSERT_EQ(r.diagnostics.size(), 2u);
  EXPECT_EQ(sf::lint::baseline_key(r.diagnostics[0]),
            sf::lint::baseline_key(r.diagnostics[1]));
  const auto fresh = sf::lint::baseline_new(
      r.diagnostics, {sf::lint::baseline_key(r.diagnostics[0])});
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].line, 3);
}

TEST(Sfcheck, BaselineParserIgnoresCommentsAndBlanks) {
  const auto keys = sf::lint::parse_baseline(
      "# header\n\n  \nB|b.cpp|msg\n# tail\nA|a.cpp|msg\n");
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "A|a.cpp|msg");  // sorted
  EXPECT_EQ(keys[1], "B|b.cpp|msg");
}

// ---------------------------------------------------------------------
// SARIF rendering.
// ---------------------------------------------------------------------

TEST(Sfcheck, SarifMatchesGoldenByteForByte) {
  const auto r = scan({"src/core/r1_entry.cpp", "src/core/r1_mid.cpp",
                       "src/geom/r1_sink.cpp", "src/core/suppress_ok.cpp"});
  const std::filesystem::path golden_path =
      std::filesystem::path(SFCHECK_FIXTURE_DIR) / "golden.sarif";
  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << golden_path;
  std::ostringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(sf::lint::render_sarif(r), ss.str());
}

TEST(Sfcheck, SarifCarriesRuleTableChainAndSuppression) {
  const auto r = scan({"src/core/r1_entry.cpp", "src/core/r1_mid.cpp",
                       "src/geom/r1_sink.cpp", "src/core/suppress_ok.cpp"});
  const std::string sarif = sf::lint::render_sarif(r);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"R1\""), std::string::npos);
  EXPECT_NE(sarif.find("\"codeFlows\""), std::string::npos);
  EXPECT_NE(sarif.find("\"kind\": \"inSource\""), std::string::npos);
  EXPECT_NE(sarif.find("fixture demonstrating a reasoned suppression"),
            std::string::npos);
  // Every rule id is present in the driver table whether or not it
  // fired, so ruleIndex stays stable across reports.
  for (const char* id : {"\"id\": \"D1\"", "\"id\": \"D5\"", "\"id\": \"C1\"",
                         "\"id\": \"SUP\""}) {
    EXPECT_NE(sarif.find(id), std::string::npos) << id;
  }
}

TEST(Sfcheck, RendersTextAndJson) {
  const auto r = scan({"src/core/d4_bad.cpp"});
  const std::string text = sf::lint::render_text(r);
  EXPECT_NE(text.find("src/core/d4_bad.cpp:5: error: [D4]"), std::string::npos);
  EXPECT_NE(text.find("1 violation(s)"), std::string::npos);
  const std::string json = sf::lint::render_json(r);
  EXPECT_NE(json.find("\"rule\":\"D4\""), std::string::npos);
  EXPECT_NE(json.find("\"line\":5"), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
}

}  // namespace
