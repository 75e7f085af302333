// qopt_lint's own test suite: each rule must fire on a fixture containing a
// known violation, stay silent on clean code, and honour justified
// suppressions. Fixtures use a `.fixture` extension so the tree-wide
// `qopt_lint src tests bench examples` scan (which only picks up
// .cpp/.cc/.hpp/.h) never sees them.
#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "qopt_lint/lint.hpp"

namespace {

using qopt::lint::Finding;
using qopt::lint::lint_source;

std::string fixture_path(const std::string& name) {
  return std::string(QOPT_LINT_FIXTURE_DIR) + "/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture: " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<Finding> lint_fixture(const std::string& name) {
  const std::string path = fixture_path(name);
  return lint_source(path, slurp(path));
}

std::map<std::string, int> count_by_rule(const std::vector<Finding>& fs) {
  std::map<std::string, int> counts;
  for (const Finding& f : fs) ++counts[f.rule];
  return counts;
}

bool has_finding(const std::vector<Finding>& fs, const std::string& rule,
                 std::size_t line) {
  return std::any_of(fs.begin(), fs.end(), [&](const Finding& f) {
    return f.rule == rule && f.line == line;
  });
}

// ----------------------------------------------------------- wall-clock

TEST(QoptLintTest, WallClockFixtureFlagsEveryAmbientTimeSource) {
  const auto findings = lint_fixture("wall_clock.fixture");
  const auto counts = count_by_rule(findings);
  // system_clock, steady_clock, rand(), random_device, time(nullptr) — and
  // NOT the justified-allow line at the bottom.
  EXPECT_EQ(counts.at("wall-clock"), 5) << qopt::analysis::format_finding(
      findings.empty() ? Finding{} : findings.front());
  EXPECT_EQ(counts.size(), 1u);  // no other rules fire
}

TEST(QoptLintTest, JustifiedAllowSuppressesTheNextLine) {
  const std::string src =
      "#include <ctime>\n"
      "// qopt-lint: allow(wall-clock) replay tooling stamps real time\n"
      "long t = time(nullptr);\n";
  EXPECT_TRUE(lint_source("x.cpp", src).empty());
}

TEST(QoptLintTest, AllowForOneRuleDoesNotSuppressAnother) {
  const std::string src =
      "// qopt-lint: allow(unordered-iter) wrong rule for this line\n"
      "long t = time(nullptr);\n";
  const auto findings = lint_source("x.cpp", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "wall-clock");
}

TEST(QoptLintTest, RngUtilityIsExemptFromWallClock) {
  const std::string src = "unsigned s = std::random_device{}();\n";
  EXPECT_TRUE(lint_source("src/util/rng.hpp", src).empty());
  EXPECT_FALSE(lint_source("src/kv/proxy.hpp", src).empty());
}

// -------------------------------------------------------- unordered-iter

TEST(QoptLintTest, UnorderedIterFixtureFlagsBothLoopForms) {
  const auto findings = lint_fixture("unordered_iter.fixture");
  const auto counts = count_by_rule(findings);
  EXPECT_EQ(counts.at("unordered-iter"), 2);  // range-for + classic for
  EXPECT_EQ(counts.size(), 1u);
}

TEST(QoptLintTest, CompanionHeaderMembersAreSeenFromTheCpp) {
  // Member declared in the .hpp, iterated in the .cpp — the single-file
  // scan would miss it; the companion-header scan must not.
  const std::string header =
      "struct Exporter {\n"
      "  std::unordered_map<int, double> rows_;\n"
      "  void dump() const;\n"
      "};\n";
  const std::string source =
      "void Exporter::dump() const {\n"
      "  for (const auto& [k, v] : rows_) { (void)k; (void)v; }\n"
      "}\n";
  const auto findings = lint_source("exporter.cpp", source, header);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "unordered-iter");
  EXPECT_EQ(findings[0].line, 2u);
}

// ---------------------------------------------------------- pointer-key

TEST(QoptLintTest, PointerKeyFixtureFlagsOrderedContainersKeyedByPointer) {
  const auto findings = lint_fixture("pointer_key.fixture");
  const auto counts = count_by_rule(findings);
  EXPECT_EQ(counts.at("pointer-key"), 3);  // map, set, multimap
  EXPECT_EQ(counts.size(), 1u);
}

TEST(QoptLintTest, PointerValuesAreFine) {
  const std::string src = "std::map<std::string, Node*> by_name;\n";
  EXPECT_TRUE(lint_source("x.hpp", src).empty());
}

// ------------------------------------------------------- quorum-literal

TEST(QoptLintTest, QuorumLiteralFixtureFlagsInvariantViolations) {
  const auto findings = lint_fixture("quorum_literal.fixture");
  const auto counts = count_by_rule(findings);
  // Aggregates: {0,3}, {3,0}, annotated {3,2} with n=5, annotated {6,1}
  // with n=5. Factories: of(0,3), annotated of(2,3) with n=5,
  // majority(2,3,5), majority(6,1,5).
  EXPECT_EQ(counts.at("quorum-literal"), 8);
  EXPECT_EQ(counts.size(), 1u);
}

TEST(QoptLintTest, NamedFactoriesAreCheckedLikeLiterals) {
  const auto bad = lint_source(
      "x.cpp", "auto s = kv::QuorumStrategy::majority(2, 3, 5);\n");
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0].rule, "quorum-literal");

  // Annotation supplies n for the two-argument spellings.
  const auto annotated = lint_source(
      "x.cpp",
      "// qopt-lint: quorum(n=5)\n"
      "auto q = kv::QuorumConfig::of(2, 3);\n");
  ASSERT_EQ(annotated.size(), 1u);
  EXPECT_EQ(annotated[0].line, 2u);

  EXPECT_TRUE(lint_source(
                  "x.cpp", "auto s = kv::QuorumStrategy::majority(3, 3, 5);\n")
                  .empty());
  EXPECT_TRUE(
      lint_source("x.cpp", "auto q = kv::QuorumConfig::of(2, 3);\n").empty());
}

TEST(QoptLintTest, QuorumAnnotationEnablesIntersectionCheck) {
  const std::string bad =
      "// qopt-lint: quorum(n=5)\n"
      "kv::QuorumConfig q{2, 3};\n";  // 2 + 3 == 5: quorums may miss
  const auto findings = lint_source("x.cpp", bad);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "quorum-literal");
  EXPECT_EQ(findings[0].line, 2u);

  const std::string good =
      "// qopt-lint: quorum(n=5)\n"
      "kv::QuorumConfig q{3, 3};\n";
  EXPECT_TRUE(lint_source("x.cpp", good).empty());
}

// ----------------------------------------------------------- bare-allow

TEST(QoptLintTest, BareAllowIsItselfAFindingAndDoesNotSuppress) {
  const auto findings = lint_fixture("bare_allow.fixture");
  const auto counts = count_by_rule(findings);
  EXPECT_EQ(counts.at("bare-allow"), 1);
  EXPECT_EQ(counts.at("wall-clock"), 1);  // the bare allow did not suppress
}

// ----------------------------------------------------------- clean code

TEST(QoptLintTest, CleanFixtureProducesNoFindings) {
  const auto findings = lint_fixture("clean.fixture");
  for (const Finding& f : findings) {
    ADD_FAILURE() << qopt::analysis::format_finding(f);
  }
}

TEST(QoptLintTest, CommentsAndStringsAreNotScanned) {
  const std::string src =
      "// calls rand() and time(nullptr) in prose only\n"
      "const char* doc = \"std::chrono::system_clock::now()\";\n"
      "/* for (auto& kv : some_unordered_map) {} */\n";
  EXPECT_TRUE(lint_source("x.cpp", src).empty());
}

// --------------------------------------------------- reporting plumbing

TEST(QoptLintTest, FindingsCarryFileLineAndRule) {
  const auto findings = lint_fixture("wall_clock.fixture");
  ASSERT_FALSE(findings.empty());
  EXPECT_TRUE(has_finding(findings, "wall-clock", 12));
  for (const Finding& f : findings) {
    EXPECT_EQ(f.file, fixture_path("wall_clock.fixture"));
    EXPECT_GT(f.line, 0u);
    const std::string rendered = qopt::analysis::format_finding(f);
    EXPECT_NE(rendered.find(f.rule), std::string::npos);
    EXPECT_NE(rendered.find(":" + std::to_string(f.line) + ":"),
              std::string::npos);
  }
}

}  // namespace
