// The shared bench/tool flag parsers (bench/flags.h): numeric values parse
// whole, and a malformed one stops the binary with exit code 2 and a
// message naming the flag, instead of running with a truncated value or
// aborting on an uncaught exception.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/flags.h"

namespace canon::bench {
namespace {

/// An argv of {"prog", args...} that outlives the parse calls.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : args_(std::move(args)) {
    args_.insert(args_.begin(), "prog");
    for (std::string& a : args_) ptrs_.push_back(a.data());
  }
  int argc() { return static_cast<int>(ptrs_.size()); }
  char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> args_;
  std::vector<char*> ptrs_;
};

std::uint64_t parse_u64(const std::string& arg, const char* name) {
  Argv a({arg});
  return flag_u64(a.argc(), a.argv(), name, 7);
}

double parse_double(const std::string& arg, const char* name) {
  Argv a({arg});
  return flag_double(a.argc(), a.argv(), name, 7.0);
}

TEST(Flags, ParsesWellFormedValues) {
  EXPECT_EQ(parse_u64("--min-nodes=200", "min-nodes"), 200u);
  EXPECT_EQ(parse_u64("--seed=18446744073709551615", "seed"),
            18446744073709551615ull);
  EXPECT_EQ(parse_u64("--threads", "threads"), 7u);  // bare: the fallback
  EXPECT_EQ(parse_u64("--other=1", "threads"), 7u);  // absent: the fallback
  EXPECT_EQ(parse_double("--crash-rate=0.1", "crash-rate"), 0.1);
  EXPECT_EQ(parse_double("--theta=1e-3", "theta"), 1e-3);
  EXPECT_EQ(parse_double("--theta", "theta"), 7.0);
}

TEST(FlagsDeathTest, NegativeThreadsExitsWithUsageError) {
  EXPECT_EXIT(parse_u64("--threads=-1", "threads"),
              ::testing::ExitedWithCode(2),
              "bad value for --threads: '-1'");
}

TEST(FlagsDeathTest, GarbageSeedExitsWithUsageError) {
  EXPECT_EXIT(parse_u64("--seed=abc", "seed"), ::testing::ExitedWithCode(2),
              "bad value for --seed: 'abc'");
}

TEST(FlagsDeathTest, TrailingGarbageExitsWithUsageError) {
  EXPECT_EXIT(parse_u64("--min-nodes=2e2", "min-nodes"),
              ::testing::ExitedWithCode(2),
              "bad value for --min-nodes: '2e2'");
}

ExecKnobs parse_knobs(const std::vector<std::string>& args) {
  Argv a(args);
  return exec_knobs(a.argc(), a.argv(), 16);
}

TEST(Flags, ExecKnobsParseAtAndBelowTheirCaps) {
  const ExecKnobs none = parse_knobs({});
  EXPECT_EQ(none.threads, 0);
  EXPECT_EQ(none.grain, 0u);
  EXPECT_EQ(none.batch_width, 16);
  const ExecKnobs set =
      parse_knobs({"--threads=4", "--grain=512", "--batch-width=0"});
  EXPECT_EQ(set.threads, 4);
  EXPECT_EQ(set.grain, 512u);
  EXPECT_EQ(set.batch_width, 0);
  const ExecKnobs caps = parse_knobs(
      {"--threads=" + std::to_string(kMaxThreadsFlag),
       "--grain=" + std::to_string(kMaxGrainFlag),
       "--batch-width=" + std::to_string(kMaxBatchWidthFlag)});
  EXPECT_EQ(static_cast<std::uint64_t>(caps.threads), kMaxThreadsFlag);
  EXPECT_EQ(caps.grain, kMaxGrainFlag);
  EXPECT_EQ(static_cast<std::uint64_t>(caps.batch_width), kMaxBatchWidthFlag);
}

// These only parse: exec_knobs exits before any setter could start a
// thread pool of the requested size.
TEST(FlagsDeathTest, ExecKnobsAboveTheirCapsExitWithUsageError) {
  EXPECT_EXIT(parse_knobs({"--threads=4294967295"}),
              ::testing::ExitedWithCode(2),
              "bad value for --threads: '4294967295'");
  EXPECT_EXIT(parse_knobs({"--threads=" + std::to_string(kMaxThreadsFlag + 1)}),
              ::testing::ExitedWithCode(2), "bad value for --threads");
  EXPECT_EXIT(parse_knobs({"--threads=18446744073709551615"}),
              ::testing::ExitedWithCode(2), "bad value for --threads");
  EXPECT_EXIT(parse_knobs({"--grain=" + std::to_string(kMaxGrainFlag + 1)}),
              ::testing::ExitedWithCode(2), "bad value for --grain");
  EXPECT_EXIT(parse_knobs({"--batch-width=65"}), ::testing::ExitedWithCode(2),
              "bad value for --batch-width: '65'");
  EXPECT_EXIT(parse_knobs({"--batch-width=4294967312"}),
              ::testing::ExitedWithCode(2), "bad value for --batch-width");
}

TEST(FlagsDeathTest, OverflowSignAndGarbageRejectedForEveryParser) {
  EXPECT_EXIT(parse_u64("--seed=18446744073709551616", "seed"),
              ::testing::ExitedWithCode(2), "bad value for --seed");
  EXPECT_EXIT(parse_u64("--seed=+5", "seed"), ::testing::ExitedWithCode(2),
              "bad value for --seed");
  EXPECT_EXIT(parse_double("--crash-rate=-0.1", "crash-rate"),
              ::testing::ExitedWithCode(2), "bad value for --crash-rate");
  EXPECT_EXIT(parse_double("--crash-rate=0.1x", "crash-rate"),
              ::testing::ExitedWithCode(2), "bad value for --crash-rate");
  EXPECT_EXIT(parse_double("--crash-rate=1e999", "crash-rate"),
              ::testing::ExitedWithCode(2), "bad value for --crash-rate");
}

}  // namespace
}  // namespace canon::bench
