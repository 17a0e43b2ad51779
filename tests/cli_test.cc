// Tests for the shared command-line parser (engine/cli.h): values parse
// completely or the binary exits with status 2 — a malformed number,
// trailing garbage, a repeated option or a missing value never turns
// into a silently different run.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/cli.h"

namespace dcn {
namespace {

/// Owns argv storage for an Args built from `tokens` (program name
/// first).
class Argv {
 public:
  explicit Argv(std::vector<std::string> tokens) : tokens_(std::move(tokens)) {
    for (std::string& t : tokens_) pointers_.push_back(t.data());
  }
  [[nodiscard]] cli::Args args() {
    return cli::Args(static_cast<int>(pointers_.size()), pointers_.data());
  }

 private:
  std::vector<std::string> tokens_;
  std::vector<char*> pointers_;
};

TEST(Cli, WellFormedValuesParse) {
  Argv argv({"prog", "--epoch", "0.25", "--arrivals", "-20", "--seeds", "1,,3",
             "--rates", "0.5,8", "--serve", "--scenario", "a,b"});
  const cli::Args args = argv.args();
  EXPECT_EQ(args.get_double("epoch", 9.0), 0.25);
  EXPECT_EQ(args.get_int("arrivals", 9), -20);
  EXPECT_EQ(args.get_int_list("seeds", {}), (std::vector<std::int64_t>{1, 3}));
  EXPECT_EQ(args.get_double_list("rates", {}), (std::vector<double>{0.5, 8.0}));
  EXPECT_EQ(args.get_list("scenario", {}), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(args.has_flag("serve"));
  // Absent options fall back.
  EXPECT_EQ(args.get_double("window", 2.0), 2.0);
  EXPECT_EQ(args.get_int("jobs", 1), 1);
  EXPECT_EQ(args.get("solver", "mcf"), "mcf");
}

TEST(CliDeathTest, MalformedNumbersAreUsageErrors) {
  EXPECT_EXIT((void)Argv({"prog", "--epoch", "abc"}).args().get_double("epoch", 0.5),
              ::testing::ExitedWithCode(2), "--epoch: 'abc' is not a number");
  EXPECT_EXIT((void)Argv({"prog", "--epoch", "0.5s"}).args().get_double("epoch", 0.5),
              ::testing::ExitedWithCode(2), "not a number");
  EXPECT_EXIT((void)Argv({"prog", "--epoch", ""}).args().get_double("epoch", 0.5),
              ::testing::ExitedWithCode(2), "not a number");
  EXPECT_EXIT((void)Argv({"prog", "--arrivals", "20x"}).args().get_int("arrivals", 1),
              ::testing::ExitedWithCode(2), "--arrivals: '20x' is not an integer");
  EXPECT_EXIT((void)Argv({"prog", "--arrivals", "1.5"}).args().get_int("arrivals", 1),
              ::testing::ExitedWithCode(2), "not an integer");
  EXPECT_EXIT((void)Argv({"prog", "--arrivals", "99999999999999999999"})
                  .args()
                  .get_int("arrivals", 1),
              ::testing::ExitedWithCode(2), "out of range");
  EXPECT_EXIT((void)Argv({"prog", "--seeds", "1,2x"}).args().get_int_list("seeds", {}),
              ::testing::ExitedWithCode(2), "--seeds: '2x' is not an integer");
  EXPECT_EXIT((void)Argv({"prog", "--rates", "8,y"}).args().get_double_list("rates", {}),
              ::testing::ExitedWithCode(2), "--rates: 'y' is not a number");
  EXPECT_EXIT((void)Argv({"prog", "--solver", ","}).args().get_list("solver", {}),
              ::testing::ExitedWithCode(2), "--solver: empty list");
}

TEST(CliDeathTest, RepeatedOrMissingValuesAreUsageErrors) {
  EXPECT_EXIT((void)Argv({"prog", "--arrivals", "20", "--arrivals", "5"})
                  .args()
                  .get_int("arrivals", 1),
              ::testing::ExitedWithCode(2), "--arrivals given more than once");
  EXPECT_EXIT((void)Argv({"prog", "--scenario", "a", "--scenario", "b"})
                  .args()
                  .get("scenario", ""),
              ::testing::ExitedWithCode(2), "given more than once");
  EXPECT_EXIT((void)Argv({"prog", "--serve", "--arrivals"}).args().get_int("arrivals", 1),
              ::testing::ExitedWithCode(2), "--arrivals needs a value");
}

}  // namespace
}  // namespace dcn
