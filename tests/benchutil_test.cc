// Tests for benchutil/: table rendering, CLI parsing, the experiment
// runner's protocol (shared hidden realizations, ATEUC one-shot semantics,
// Table 3's N/A rule).

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <utility>

#include "benchutil/cli.h"
#include "benchutil/experiment.h"
#include "benchutil/table.h"
#include "graph/generators.h"
#include "util/timer.h"

namespace asti {
namespace {

TEST(TextTableTest, AlignsColumns) {
  TextTable table({"name", "value"});
  table.AddRow({"x", "1"});
  table.AddRow({"longer-name", "22"});
  std::ostringstream out;
  table.Print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("longer-name"), std::string::npos);
  EXPECT_NE(text.find("---"), std::string::npos);
  EXPECT_EQ(table.NumRows(), 2u);
}

TEST(FormatTest, DoublePrecision) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(2.0, 1), "2.0");
}

TEST(FormatTest, Counts) {
  EXPECT_EQ(FormatCount(950), "950");
  EXPECT_EQ(FormatCount(31400), "31.4K");
  EXPECT_EQ(FormatCount(1130000), "1.13M");
}

TEST(CommandLineTest, ParsesAllForms) {
  const char* argv[] = {"prog", "--alpha=0.5", "--beta", "7", "--gamma"};
  CommandLine cli(5, argv, {"alpha", "beta", "gamma", "missing"});
  EXPECT_TRUE(cli.Has("alpha"));
  EXPECT_DOUBLE_EQ(cli.GetDouble("alpha", 0.0), 0.5);
  EXPECT_EQ(cli.GetInt("beta", 0), 7);
  EXPECT_TRUE(cli.Has("gamma"));
  EXPECT_EQ(cli.GetString("gamma", ""), "1");
  EXPECT_EQ(cli.GetInt("missing", 42), 42);
}

// A flag the binary does not read is refused by name, whatever its form,
// with exit status 2; accepted flags alone parse as before.
TEST(CommandLineDeathTest, UnknownFlagExitsTwoNamingIt) {
  const char* convert[] = {"asm_tool", "--convert-asmg", "x", "--snapshot-out", "y"};
  EXPECT_EXIT(CommandLine(5, convert, {"seed", "snapshot-out"}),
              ::testing::ExitedWithCode(2), "unknown flag --convert-asmg; accepted: --seed");
  const char* typo[] = {"prog", "--seed=3", "--thread=4"};
  EXPECT_EXIT(CommandLine(3, typo, {"seed", "threads"}), ::testing::ExitedWithCode(2),
              "unknown flag --thread;");
  const char* bare[] = {"prog", "--quiet"};
  EXPECT_EXIT(CommandLine(2, bare, {}), ::testing::ExitedWithCode(2), "unknown flag --quiet");
  const char* known[] = {"prog", "--seed=3"};
  EXPECT_EQ(CommandLine(2, known, {"seed"}).GetInt("seed", 0), 3);
}

// A token that is neither a flag nor a flag's value is refused by name:
// `asm_tool epinions` must not serve the default graph.
TEST(CommandLineDeathTest, PositionalTokenExitsTwoNamingIt) {
  const char* leading[] = {"asm_tool", "epinions", "--scale", "0.05"};
  EXPECT_EXIT(CommandLine(4, leading, {"scale"}), ::testing::ExitedWithCode(2),
              "unexpected argument 'epinions'");
  const char* after_equals[] = {"prog", "--seed=3", "positional"};
  EXPECT_EXIT(CommandLine(3, after_equals, {"seed"}), ::testing::ExitedWithCode(2),
              "unexpected argument 'positional'");
  const char* second_value[] = {"prog", "--seed", "3", "4"};
  EXPECT_EXIT(CommandLine(4, second_value, {"seed"}), ::testing::ExitedWithCode(2),
              "unexpected argument '4'");
}

TEST(CommandLineDeathTest, ReadingAnUndeclaredFlagAborts) {
  const char* argv[] = {"prog"};
  const CommandLine cli(1, argv, {"seed"});
  EXPECT_DEATH(cli.Has("threads"), "--threads is read but not in the binary's accepted list");
}

// A numeric read takes the whole token or exits 2 naming the flag and the
// token; a malformed value never falls back to the default.
TEST(CommandLineDeathTest, MalformedNumberExitsTwoNamingIt) {
  const char* argv[] = {"prog",           "--eta=abc", "--threads", "four",
                        "--partial=4x",   "--exp=1e1", "--empty=",  "--neg=-3",
                        "--frac=0.25"};
  const CommandLine cli(9, argv,
                        {"eta", "threads", "partial", "exp", "empty", "neg", "frac"});
  EXPECT_EXIT(cli.GetDouble("eta", 1.5), ::testing::ExitedWithCode(2),
              "bad value for --eta: 'abc'");
  EXPECT_EXIT(cli.GetInt("eta", 3), ::testing::ExitedWithCode(2),
              "bad value for --eta: 'abc'");
  EXPECT_EXIT(cli.GetInt("threads", 1), ::testing::ExitedWithCode(2),
              "bad value for --threads: 'four'");
  EXPECT_EXIT(cli.GetInt("partial", 1), ::testing::ExitedWithCode(2),
              "bad value for --partial: '4x'");
  EXPECT_EXIT(cli.GetDouble("partial", 1.0), ::testing::ExitedWithCode(2),
              "bad value for --partial: '4x'");
  EXPECT_EXIT(cli.GetInt("exp", 1), ::testing::ExitedWithCode(2),
              "bad value for --exp: '1e1'");
  EXPECT_EXIT(cli.GetInt("empty", 1), ::testing::ExitedWithCode(2),
              "bad value for --empty: ''");
  // Whole tokens still parse.
  EXPECT_DOUBLE_EQ(cli.GetDouble("exp", 0.0), 10.0);
  EXPECT_EQ(cli.GetInt("neg", 0), -3);
  EXPECT_DOUBLE_EQ(cli.GetDouble("frac", 0.0), 0.25);
}

// A set ASM_BENCH_* value is read whole or refused with exit 2, like a
// flag's: `ASM_BENCH_SCALE=abc` must not run the default scale, and a
// negative or partial size must not run another one.
TEST(EnvDeathTest, MalformedValueExitsTwoNamingIt) {
  const std::pair<const char*, const char*> doubles[] = {
      {"abc", "bad value for ASM_TEST_ENV_D: 'abc'"},
      {"0.5x", "bad value for ASM_TEST_ENV_D: '0.5x'"},
      {"", "bad value for ASM_TEST_ENV_D: ''"}};
  for (const auto& [value, message] : doubles) {
    ::setenv("ASM_TEST_ENV_D", value, 1);
    EXPECT_EXIT(EnvDouble("ASM_TEST_ENV_D", 0.5), ::testing::ExitedWithCode(2), message);
  }
  const std::pair<const char*, const char*> sizes[] = {
      {"four", "bad value for ASM_TEST_ENV_S: 'four'"},
      {"1x", "bad value for ASM_TEST_ENV_S: '1x'"},
      {"-3", "bad value for ASM_TEST_ENV_S: '-3'"},
      {"2.5", "bad value for ASM_TEST_ENV_S: '2.5'"}};
  for (const auto& [value, message] : sizes) {
    ::setenv("ASM_TEST_ENV_S", value, 1);
    EXPECT_EXIT(EnvSize("ASM_TEST_ENV_S", 1), ::testing::ExitedWithCode(2), message);
  }
  ::unsetenv("ASM_TEST_ENV_D");
  ::unsetenv("ASM_TEST_ENV_S");
}

TEST(EnvTest, ReadsAndFallsBack) {
  ::setenv("ASM_TEST_ENV_D", "2.5", 1);
  ::setenv("ASM_TEST_ENV_S", "12", 1);
  EXPECT_DOUBLE_EQ(EnvDouble("ASM_TEST_ENV_D", 0.0), 2.5);
  EXPECT_EQ(EnvSize("ASM_TEST_ENV_S", 0), 12u);
  EXPECT_DOUBLE_EQ(EnvDouble("ASM_TEST_ENV_MISSING", 7.0), 7.0);
  EXPECT_EQ(EnvSize("ASM_TEST_ENV_MISSING", 9), 9u);
  ::unsetenv("ASM_TEST_ENV_D");
  ::unsetenv("ASM_TEST_ENV_S");
}

TEST(WallTimerTest, MeasuresNonNegative) {
  WallTimer timer;
  double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink += i;
  EXPECT_GT(sink, 0.0);  // keep the loop observable
  EXPECT_GE(timer.Seconds(), 0.0);
  timer.Restart();
  EXPECT_LT(timer.Seconds(), 1.0);
}

class ExperimentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(201);
    auto graph = BuildWeightedGraph(MakeBarabasiAlbert(300, 2, rng),
                                    WeightScheme::kWeightedCascade);
    ASSERT_TRUE(graph.ok());
    graph_ = std::make_unique<DirectedGraph>(std::move(graph).value());
  }

  std::unique_ptr<DirectedGraph> graph_;
};

TEST_F(ExperimentTest, AdaptiveCellAlwaysReaches) {
  CellConfig config;
  config.eta = 30;
  config.algorithm = AlgorithmId::kAsti;
  config.realizations = 3;
  config.seed = 5;
  const CellResult result = RunCell(*graph_, config);
  EXPECT_TRUE(result.always_reached);
  EXPECT_EQ(result.spreads.size(), 3u);
  EXPECT_EQ(result.seed_counts.size(), 3u);
  for (double spread : result.spreads) EXPECT_GE(spread, 30.0);
  EXPECT_TRUE(result.traces.empty());  // keep_traces off
}

TEST_F(ExperimentTest, KeepTracesRetainsRounds) {
  CellConfig config;
  config.eta = 20;
  config.algorithm = AlgorithmId::kAsti;
  config.realizations = 2;
  config.keep_traces = true;
  const CellResult result = RunCell(*graph_, config);
  ASSERT_EQ(result.traces.size(), 2u);
  EXPECT_FALSE(result.traces[0].rounds.empty());
}

TEST_F(ExperimentTest, AteucCellSelectsOnce) {
  CellConfig config;
  config.eta = 30;
  config.algorithm = AlgorithmId::kAteuc;
  config.realizations = 4;
  const CellResult result = RunCell(*graph_, config);
  EXPECT_EQ(result.seed_counts.size(), 4u);
  // Non-adaptive: identical seed count on every realization.
  for (size_t count : result.seed_counts) {
    EXPECT_EQ(count, result.seed_counts[0]);
  }
}

TEST_F(ExperimentTest, SameSeedSameHiddenWorlds) {
  // Two different algorithms with the same config.seed must face the same
  // hidden realizations; verify via the deterministic degree heuristic
  // (same seed twice => identical spreads).
  CellConfig config;
  config.eta = 25;
  config.algorithm = AlgorithmId::kDegree;
  config.realizations = 3;
  config.seed = 9;
  const CellResult a = RunCell(*graph_, config);
  const CellResult b = RunCell(*graph_, config);
  EXPECT_EQ(a.spreads, b.spreads);
  EXPECT_EQ(a.seed_counts, b.seed_counts);
}

TEST_F(ExperimentTest, BatchedAlgorithmsRun) {
  for (AlgorithmId id : {AlgorithmId::kAsti2, AlgorithmId::kAsti4, AlgorithmId::kAsti8}) {
    CellConfig config;
    config.eta = 30;
    config.algorithm = id;
    config.realizations = 2;
    const CellResult result = RunCell(*graph_, config);
    EXPECT_TRUE(result.always_reached) << AlgorithmName(id);
  }
}

TEST_F(ExperimentTest, BisectionCellSelectsOnce) {
  CellConfig config;
  config.eta = 30;
  config.algorithm = AlgorithmId::kBisection;
  config.realizations = 3;
  const CellResult result = RunCell(*graph_, config);
  EXPECT_EQ(result.seed_counts.size(), 3u);
  for (size_t count : result.seed_counts) {
    EXPECT_EQ(count, result.seed_counts[0]);  // non-adaptive
  }
  EXPECT_GT(result.aggregate.mean_spread, 0.0);
}

TEST_F(ExperimentTest, ImprovementRatioFormats) {
  CellResult asti;
  asti.aggregate.mean_seeds = 10.0;
  asti.always_reached = true;
  CellResult ateuc;
  ateuc.aggregate.mean_seeds = 14.0;
  ateuc.always_reached = true;
  EXPECT_EQ(ImprovementRatio(asti, ateuc), "40.0%");
  ateuc.always_reached = false;
  EXPECT_EQ(ImprovementRatio(asti, ateuc), "N/A");
}

TEST(AlgorithmNameTest, MatchesPaperLegends) {
  EXPECT_STREQ(AlgorithmName(AlgorithmId::kAsti), "ASTI");
  EXPECT_STREQ(AlgorithmName(AlgorithmId::kAsti8), "ASTI-8");
  EXPECT_STREQ(AlgorithmName(AlgorithmId::kAdaptIm), "AdaptIM");
  EXPECT_STREQ(AlgorithmName(AlgorithmId::kAteuc), "ATEUC");
  EXPECT_STREQ(AlgorithmName(AlgorithmId::kBisection), "Bisection");
}

}  // namespace
}  // namespace asti
