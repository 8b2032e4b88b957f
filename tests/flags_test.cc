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
