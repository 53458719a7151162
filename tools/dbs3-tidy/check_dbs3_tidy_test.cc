// check_dbs3_tidy: fixture-driven regression tests for the dbs3-tidy
// checks (portable engine). Every `*_violation.cc` fixture seeds findings
// annotated in place with `// DBS3-TIDY: <check-name>`; its `*_clean.cc`
// twin rebuilds the same shapes conformingly and must stay silent. The
// annotations are the contract shared with the clang-tidy plugin (see
// plugin/run_fixture_tests.py), so a check whose behavior drifts fails
// here before it reaches CI.

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "portable/tidy_checks.h"
#include "portable/tidy_source.h"

#ifndef DBS3_TIDY_FIXTURE_DIR
#error "DBS3_TIDY_FIXTURE_DIR must point at tools/dbs3-tidy/fixtures"
#endif

namespace dbs3_tidy {
namespace {

std::string FixturePath(const std::string& name) {
  return std::string(DBS3_TIDY_FIXTURE_DIR) + "/" + name;
}

/// (line, check) pairs expected by a fixture's `// DBS3-TIDY:` annotations.
std::set<std::pair<int, std::string>> ExpectedFindings(
    const std::string& path) {
  std::set<std::pair<int, std::string>> expected;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open fixture " << path;
  std::string text;
  int line = 0;
  while (std::getline(in, text)) {
    ++line;
    const std::string marker = "// DBS3-TIDY:";
    const size_t at = text.find(marker);
    if (at == std::string::npos) continue;
    std::istringstream names(text.substr(at + marker.size()));
    std::string check;
    while (names >> check) expected.emplace(line, check);
  }
  return expected;
}

std::set<std::pair<int, std::string>> ActualFindings(const std::string& path) {
  std::string error;
  TidySource src = LoadSource(path, &error);
  EXPECT_TRUE(error.empty()) << error;
  std::vector<TidySource> corpus;
  corpus.push_back(std::move(src));
  std::set<std::pair<int, std::string>> actual;
  for (const Diag& d : RunChecks(corpus)) actual.emplace(d.line, d.check);
  return actual;
}

void ExpectFixtureMatches(const std::string& fixture) {
  const std::string path = FixturePath(fixture);
  const auto expected = ExpectedFindings(path);
  const auto actual = ActualFindings(path);
  for (const auto& [line, check] : expected) {
    EXPECT_TRUE(actual.count({line, check}) > 0)
        << fixture << ":" << line << " expected a " << check
        << " finding that did not fire";
  }
  for (const auto& [line, check] : actual) {
    EXPECT_TRUE(expected.count({line, check}) > 0)
        << fixture << ":" << line << " unexpected " << check << " finding";
  }
}

void ExpectFixtureSilent(const std::string& fixture) {
  const std::string path = FixturePath(fixture);
  ASSERT_TRUE(ExpectedFindings(path).empty())
      << "clean fixture " << fixture << " carries DBS3-TIDY annotations";
  for (const auto& [line, check] : ActualFindings(path)) {
    ADD_FAILURE() << fixture << ":" << line << " false positive: " << check;
  }
}

// gtest prints a parameter that has no PrintTo as its raw bytes, and
// gtest_discover_tests bakes that print into the ctest test names. An
// inline, zero-padded buffer keeps those bytes (and so the names) the same
// from run to run; std::string members would print heap addresses.
struct CheckCase {
  char prefix[64];  // Fixture file prefix.
};

class Dbs3TidyFixtureTest : public ::testing::TestWithParam<CheckCase> {};

TEST_P(Dbs3TidyFixtureTest, ViolationFixtureFiresOnEveryAnnotatedLine) {
  ExpectFixtureMatches(std::string(GetParam().prefix) + "_violation.cc");
}

TEST_P(Dbs3TidyFixtureTest, CleanTwinStaysSilent) {
  ExpectFixtureSilent(std::string(GetParam().prefix) + "_clean.cc");
}

TEST_P(Dbs3TidyFixtureTest, ViolationFixtureSeedsAtLeastThreeFindings) {
  // A fixture that degenerates to one trivial case no longer pins the
  // check's behavior; keep the corpus meaningfully adversarial.
  EXPECT_GE(ExpectedFindings(
                FixturePath(std::string(GetParam().prefix) + "_violation.cc"))
                .size(),
            3u);
}

INSTANTIATE_TEST_SUITE_P(
    AllChecks, Dbs3TidyFixtureTest,
    ::testing::Values(
        CheckCase{"no_lock_across_emit"}, CheckCase{"no_alloc_in_hot_path"},
        CheckCase{"quota_pairing"}, CheckCase{"cancel_check_in_consume_loop"},
        CheckCase{"guarded_member_init"}),
    [](const ::testing::TestParamInfo<CheckCase>& info) {
      std::string label(info.param.prefix);
      for (char& c : label) {
        if (c == '-') c = '_';
      }
      return label;
    });

TEST(Dbs3TidySuppressionTest, NolintOnTheLineSuppressesTheNamedCheck) {
  const std::string code =
      "void f(MemoryQuota* q) {\n"
      "  q->TryCharge(1);  // NOLINT(dbs3-quota-pairing) // test\n"
      "}\n";
  std::vector<TidySource> corpus;
  corpus.emplace_back("inline.cc", code);
  EXPECT_TRUE(RunChecks(corpus).empty());
}

TEST(Dbs3TidySuppressionTest, NolintNextlineSuppressesTheFollowingLine) {
  const std::string code =
      "void f(MemoryQuota* q) {\n"
      "  // NOLINTNEXTLINE(dbs3-quota-pairing) // test\n"
      "  q->TryCharge(1);\n"
      "}\n";
  std::vector<TidySource> corpus;
  corpus.emplace_back("inline.cc", code);
  EXPECT_TRUE(RunChecks(corpus).empty());
}

TEST(Dbs3TidySuppressionTest, NolintForAnotherCheckDoesNotSuppress) {
  const std::string code =
      "void f(MemoryQuota* q) {\n"
      "  q->TryCharge(1);  // NOLINT(dbs3-no-alloc-in-hot-path) // wrong\n"
      "}\n";
  std::vector<TidySource> corpus;
  corpus.emplace_back("inline.cc", code);
  ASSERT_EQ(RunChecks(corpus).size(), 1u);
  EXPECT_EQ(RunChecks(corpus)[0].check, kQuotaPairing);
}

TEST(Dbs3TidySuppressionTest, BareNolintSuppressesEverything) {
  const std::string code =
      "void f(MemoryQuota* q) {\n"
      "  q->TryCharge(1);  // NOLINT\n"
      "}\n";
  std::vector<TidySource> corpus;
  corpus.emplace_back("inline.cc", code);
  EXPECT_TRUE(RunChecks(corpus).empty());
}

TEST(Dbs3TidyCorpusTest, OutOfLineConstructorResolvesAcrossFiles) {
  // The QueryRuntime::free_slots_ shape: declaration in a header, init
  // list in the .cc. Analyzed together the member is covered; the header
  // alone must not be judged in isolation by callers (RunChecks contract).
  const std::string header =
      "class Runtime {\n"
      " public:\n"
      "  explicit Runtime(size_t slots);\n"
      " private:\n"
      "  Mutex mu_;\n"
      "  size_t free_slots_ GUARDED_BY(mu_);\n"
      "};\n";
  const std::string impl =
      "Runtime::Runtime(size_t slots) : free_slots_(slots) {}\n";
  std::vector<TidySource> corpus;
  corpus.emplace_back("runtime.h", header);
  corpus.emplace_back("runtime.cc", impl);
  EXPECT_TRUE(RunChecks(corpus, {kGuardedMemberInit}).empty());

  std::vector<TidySource> header_only;
  header_only.emplace_back("runtime.h", header);
  EXPECT_EQ(RunChecks(header_only, {kGuardedMemberInit}).size(), 1u);
}

TEST(Dbs3TidyCorpusTest, CheckFilterRunsOnlyTheNamedChecks) {
  std::string error;
  TidySource src = LoadSource(
      FixturePath("no_lock_across_emit_violation.cc"), &error);
  ASSERT_TRUE(error.empty()) << error;
  std::vector<TidySource> corpus;
  corpus.push_back(std::move(src));
  EXPECT_TRUE(RunChecks(corpus, {kGuardedMemberInit}).empty());
  EXPECT_FALSE(RunChecks(corpus, {kNoLockAcrossEmit}).empty());
}

TEST(Dbs3TidyCorpusTest, AllCheckNamesAreRegistered) {
  const std::vector<std::string> names = AllCheckNames();
  EXPECT_EQ(names.size(), 5u);
  const std::set<std::string> unique(names.begin(), names.end());
  EXPECT_EQ(unique.size(), names.size());
}

}  // namespace
}  // namespace dbs3_tidy
