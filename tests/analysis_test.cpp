// tools/analysis shared-framework tests: the tokenizer (comment/literal
// stripping), the body scanner, the file walker, the justified-suppression
// grammar, and the manifest reader that the analyzers build on. The
// tokenizer cases pin the behaviour qopt_lint relied on before the
// refactor, plus the digit-separator handling qopt_arch's symbol map
// depends on.
#include <algorithm>
#include <filesystem>
#include <string>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/manifest.hpp"
#include "analysis/source.hpp"
#include "analysis/suppress.hpp"

namespace {

using qopt::analysis::scan_annotations;
using qopt::analysis::split_lines;
using qopt::analysis::strip_comments_and_literals;

// ------------------------------------------------------------ tokenizer

TEST(AnalysisTest, StripBlanksCommentsAndLiteralBodies) {
  const std::string src =
      "int a = 1; // trailing rand()\n"
      "/* block time(nullptr) */ int b = 2;\n"
      "const char* s = \"system_clock in prose\";\n";
  const std::string out = strip_comments_and_literals(src);
  ASSERT_EQ(out.size(), src.size());  // offsets are preserved
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
  EXPECT_EQ(out.find("rand"), std::string::npos);
  EXPECT_EQ(out.find("time"), std::string::npos);
  EXPECT_EQ(out.find("system_clock"), std::string::npos);
  EXPECT_NE(out.find("int a = 1;"), std::string::npos);
  EXPECT_NE(out.find("int b = 2;"), std::string::npos);
  // The string's delimiters survive, its body does not.
  EXPECT_NE(out.find("const char* s = \""), std::string::npos);
}

TEST(AnalysisTest, StripHandlesEscapesRawStringsAndCharLiterals) {
  const std::string src =
      "const char* a = \"esc \\\" quote\"; int x = 1;\n"
      "const char* r = R\"(raw \" contents)\"; int y = 2;\n"
      "char c = '\\''; int z = 3;\n";
  const std::string out = strip_comments_and_literals(src);
  EXPECT_NE(out.find("int x = 1;"), std::string::npos) << out;
  EXPECT_NE(out.find("int y = 2;"), std::string::npos) << out;
  EXPECT_NE(out.find("int z = 3;"), std::string::npos) << out;
  EXPECT_EQ(out.find("raw"), std::string::npos);
}

TEST(AnalysisTest, StripHandlesCustomDelimiterRawStrings) {
  const std::string src =
      "const char* p = R\"re(match )\" rand( here)re\"; int x = 1;\n"
      "const char* q = u8R\"_x(multi\nline \"quoted\")_x\"; int y = 2;\n"
      "const char* s = LR\"(plain)\"; int z = 3;\n";
  const std::string out = strip_comments_and_literals(src);
  ASSERT_EQ(out.size(), src.size());  // offsets are preserved
  EXPECT_NE(out.find("int x = 1;"), std::string::npos) << out;
  EXPECT_NE(out.find("int y = 2;"), std::string::npos) << out;
  EXPECT_NE(out.find("int z = 3;"), std::string::npos) << out;
  EXPECT_EQ(out.find("rand"), std::string::npos) << out;
  EXPECT_EQ(out.find("match"), std::string::npos) << out;
  EXPECT_EQ(out.find("quoted"), std::string::npos) << out;
}

TEST(AnalysisTest, RawStringLookAlikesDoNotSwallowTheFile) {
  // Regression: a `"` preceded by `R` used to trigger an unbounded search
  // for '(' — `R"abc";` (no d-char '(' at all) or `FOOR"str"` (identifier
  // ending in R before a plain string) latched onto a later unrelated
  // paren, built a garbage delimiter, and blanked the rest of the file,
  // silently disabling every token rule downstream.
  {
    const std::string src =
        "const char* a = FOOR\"str\"; g(rand());\n"
        "int tail = 1;\n";
    const std::string out = strip_comments_and_literals(src);
    ASSERT_EQ(out.size(), src.size());
    EXPECT_NE(out.find("rand"), std::string::npos) << out;
    EXPECT_NE(out.find("int tail = 1;"), std::string::npos) << out;
    EXPECT_EQ(out.find("str"), std::string::npos) << out;
  }
  {
    // No '(' within the 16-char delimiter window: not a raw string.
    const std::string src =
        "const char* a = R\"abc\"; use(rand());\n"
        "int tail = 2;\n";
    const std::string out = strip_comments_and_literals(src);
    ASSERT_EQ(out.size(), src.size());
    EXPECT_NE(out.find("rand"), std::string::npos) << out;
    EXPECT_NE(out.find("int tail = 2;"), std::string::npos) << out;
  }
  {
    // Delimiter containing a space is ill-formed; treat as a plain string
    // rather than scanning forward for a ')… "' that will never match.
    const std::string src =
        "const char* a = R\"no delim(x)\"; use(rand());\n"
        "int tail = 3;\n";
    const std::string out = strip_comments_and_literals(src);
    ASSERT_EQ(out.size(), src.size());
    EXPECT_NE(out.find("int tail = 3;"), std::string::npos) << out;
  }
}

TEST(AnalysisTest, AdjacentRawStringsStripIndependently) {
  const std::string src =
      "f(R\"(one)\", R\"(two)\"); int mid = 4;\n";
  const std::string out = strip_comments_and_literals(src);
  ASSERT_EQ(out.size(), src.size());
  EXPECT_EQ(out.find("one"), std::string::npos) << out;
  EXPECT_EQ(out.find("two"), std::string::npos) << out;
  EXPECT_NE(out.find("int mid = 4;"), std::string::npos) << out;
}

TEST(AnalysisTest, DigitSeparatorIsNotACharLiteral) {
  // Regression: `8'000` once opened a char-literal state that swallowed
  // everything to the next apostrophe, hiding entire files from the
  // symbol map.
  const std::string src =
      "constexpr int kOps = 8'000;\n"
      "Cluster cluster(config);\n";
  const std::string out = strip_comments_and_literals(src);
  EXPECT_NE(out.find("Cluster cluster(config);"), std::string::npos) << out;
}

TEST(AnalysisTest, LineContinuationExtendsLineComment) {
  // Phase-2 line splicing runs before comment recognition, so a backslash
  // immediately before the newline keeps the next *physical* line inside
  // the `//` comment. The tokenizer used to drop back to code state at the
  // newline, letting commented-out text like this reach the token rules.
  const std::string src =
      "int a = 1; // disabled: \\\n"
      "rand(); system_clock x;\n"
      "int b = 2;\n";
  const std::string out = strip_comments_and_literals(src);
  ASSERT_EQ(out.size(), src.size());  // offsets are preserved
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
  EXPECT_EQ(out.find("rand"), std::string::npos) << out;
  EXPECT_EQ(out.find("system_clock"), std::string::npos) << out;
  EXPECT_NE(out.find("int a = 1;"), std::string::npos) << out;
  EXPECT_NE(out.find("int b = 2;"), std::string::npos) << out;
}

TEST(AnalysisTest, ChainedLineContinuationsStayInComment) {
  const std::string src =
      "// one \\\n"
      "two \\\n"
      "three rand()\n"
      "int live = 1;\n";
  const std::string out = strip_comments_and_literals(src);
  ASSERT_EQ(out.size(), src.size());
  EXPECT_EQ(out.find("rand"), std::string::npos) << out;
  EXPECT_EQ(out.find("three"), std::string::npos) << out;
  EXPECT_NE(out.find("int live = 1;"), std::string::npos) << out;
}

TEST(AnalysisTest, BackslashInsideCommentBodyIsNotASplice) {
  // Only a backslash *immediately before* the newline splices; a backslash
  // mid-comment (e.g. a Windows path) must not extend the comment.
  const std::string src =
      "// path C:\\temp ends here\n"
      "int live = 2;\n";
  const std::string out = strip_comments_and_literals(src);
  ASSERT_EQ(out.size(), src.size());
  EXPECT_NE(out.find("int live = 2;"), std::string::npos) << out;
}

TEST(AnalysisTest, AdjacentStringLiteralsStripIndependently) {
  // Adjacent string-literal concatenation: each literal opens and closes
  // its own string state; the code between and after must survive.
  const std::string src =
      "const char* m = \"one rand()\" \" two time()\"; int x = 5;\n"
      "f(\"a\"\n"
      "  \"b\", rand());\n";
  const std::string out = strip_comments_and_literals(src);
  ASSERT_EQ(out.size(), src.size());
  EXPECT_EQ(out.find("one"), std::string::npos) << out;
  EXPECT_EQ(out.find("two"), std::string::npos) << out;
  EXPECT_EQ(out.find("time"), std::string::npos) << out;
  EXPECT_NE(out.find("int x = 5;"), std::string::npos) << out;
  // The second literal's body is blanked but the call's rand() is live.
  EXPECT_NE(out.find("rand()"), std::string::npos) << out;
}

TEST(AnalysisTest, SplitLinesAndLineOfOffsetAgree) {
  const std::string text = "one\ntwo\nthree";
  const auto lines = split_lines(text);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "one");
  EXPECT_EQ(lines[2], "three");
  EXPECT_EQ(qopt::analysis::line_of_offset(text, 0), 1u);
  EXPECT_EQ(qopt::analysis::line_of_offset(text, 4), 2u);
  EXPECT_EQ(qopt::analysis::line_of_offset(text, text.size() - 1), 3u);
}

// ---------------------------------------------------------- file walker

TEST(AnalysisTest, WalkerSkipsFixtureDirectories) {
  // tests/arch_fixtures holds deliberately-broken .hpp/.cpp files; the
  // `*_fixtures` skip is what keeps them out of the tree-wide scans.
  const auto files =
      qopt::analysis::collect_sources({std::string(QOPT_SOURCE_ROOT) +
                                       "/tests"});
  EXPECT_FALSE(files.empty());
  for (const std::string& f : files) {
    EXPECT_EQ(f.find("_fixtures"), std::string::npos) << f;
  }
}

// --------------------------------------------------------- suppressions

TEST(AnalysisTest, JustifiedAllowRecordsSuppressionForTwoLines) {
  const auto ann = scan_annotations(
      "qopt-arch", "f.cpp",
      split_lines("// qopt-arch: allow(unused-include) vendor umbrella\n"
                  "#include \"a/b.hpp\"\n"));
  EXPECT_TRUE(ann.findings.empty());
  EXPECT_TRUE(qopt::analysis::allowed(ann, 1, "unused-include"));
  EXPECT_TRUE(qopt::analysis::allowed(ann, 2, "unused-include"));
  EXPECT_FALSE(qopt::analysis::allowed(ann, 3, "unused-include"));
  EXPECT_FALSE(qopt::analysis::allowed(ann, 2, "missing-include"));
  ASSERT_EQ(ann.suppressions.size(), 1u);
  EXPECT_EQ(qopt::analysis::format_suppression(ann.suppressions[0]),
            "qopt-arch:unused-include:f.cpp:1: vendor umbrella");
}

TEST(AnalysisTest, BareAllowIsAFindingNotASuppression) {
  const auto ann = scan_annotations(
      "qopt-lint", "f.cpp", split_lines("// qopt-lint: allow(wall-clock)\n"));
  ASSERT_EQ(ann.findings.size(), 1u);
  EXPECT_EQ(ann.findings[0].rule, "bare-allow");
  EXPECT_TRUE(ann.suppressions.empty());
  EXPECT_FALSE(qopt::analysis::allowed(ann, 1, "wall-clock"));
}

TEST(AnalysisTest, ToolTagsDoNotCrossTalk) {
  const auto ann = scan_annotations(
      "qopt-arch", "f.cpp",
      split_lines("// qopt-lint: allow(wall-clock) replay tooling\n"));
  EXPECT_TRUE(ann.allows.empty());
  EXPECT_TRUE(ann.findings.empty());
  EXPECT_TRUE(ann.suppressions.empty());
}

TEST(AnalysisTest, QuorumAnnotationReportsInUnifiedFormat) {
  const auto ann = scan_annotations(
      "qopt-lint", "f.cpp",
      split_lines("// qopt-lint: quorum(n=5)\n"
                  "kv::QuorumConfig q{3, 3};\n"));
  ASSERT_EQ(ann.suppressions.size(), 1u);
  EXPECT_EQ(qopt::analysis::format_suppression(ann.suppressions[0]),
            "qopt-lint:quorum:f.cpp:1: n=5");
  EXPECT_EQ(ann.quorum_n.at(1), 5);
  EXPECT_EQ(ann.quorum_n.at(2), 5);
}

// ---------------------------------------------------------- body scanner

TEST(AnalysisScannerTest, BodyOpenAfterSkipsQualifiersAndInitLists) {
  using qopt::analysis::body_open_after;
  using qopt::analysis::match_parens;
  const auto body_of = [](const std::string& text) {
    const std::size_t params = match_parens(text, text.find('('));
    const std::size_t open = body_open_after(text, params);
    return open == std::string::npos ? std::string("<none>")
                                     : text.substr(open);
  };
  EXPECT_EQ(body_of("int f(int a) const noexcept(true) { x; }"), "{ x; }");
  EXPECT_EQ(body_of("auto f() -> Time { y; }"), "{ y; }");
  EXPECT_EQ(body_of("S::S(int a) : a_{a}, b_(2) { z; }"), "{ z; }");
  // A qualified trailing return type is a name, not an init list.
  EXPECT_EQ(body_of("auto f() -> int { w; }"), "{ w; }");
  EXPECT_EQ(body_of("auto f() -> std::vector<int> { v; }"), "{ v; }");
  EXPECT_EQ(body_of("auto f() const -> ::ns::T& { u; }"), "{ u; }");
  EXPECT_EQ(body_of("auto f() -> a::b::c;"), "<none>");
  // Init lists still resolve, including ones naming qualified types.
  EXPECT_EQ(body_of("S::S() : base_{} { t; }"), "{ t; }");
  EXPECT_EQ(body_of("S::S() : b_(std::vector<int>{1}), c_{ns::k} { s; }"),
            "{ s; }");
  EXPECT_EQ(body_of("void f(int a);"), "<none>");
}

TEST(AnalysisScannerTest, CompanionHeaderIsTheSiblingHeader) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "qopt_analysis_test";
  fs::create_directories(dir);
  const std::string cpp = (dir / "unit.cpp").string();
  const std::string hpp = (dir / "unit.hpp").string();
  ASSERT_TRUE(qopt::analysis::write_file(hpp, "h"));
  ASSERT_TRUE(qopt::analysis::write_file(cpp, "c"));
  EXPECT_EQ(qopt::analysis::companion_header_source(cpp), "h");
  EXPECT_EQ(qopt::analysis::companion_header_source(hpp), "");
  fs::remove_all(dir);
  EXPECT_EQ(qopt::analysis::companion_header_source(cpp), "");
}

// ------------------------------------------------------- manifest reader

using qopt::analysis::ManifestDoc;
using qopt::analysis::ManifestEntry;
using qopt::analysis::read_manifest;

std::vector<std::string> array_of(const ManifestEntry& entry) {
  return std::get<std::vector<std::string>>(entry.value);
}

TEST(AnalysisManifestTest, ReadsTablesAndEntriesInFileOrder) {
  const ManifestDoc doc = read_manifest("m.toml",
                                        "# header comment\n"
                                        "[wire]\n"
                                        "header = \"src/kv/wire.hpp\"\n"
                                        "\n"
                                        "[messages.Ping]\n"
                                        "versioned = true\n"
                                        "span = false\n");
  EXPECT_TRUE(doc.errors.empty());
  ASSERT_EQ(doc.tables.size(), 2u);
  EXPECT_EQ(doc.tables[0].name, "wire");
  EXPECT_EQ(doc.tables[0].line, 2u);
  ASSERT_EQ(doc.tables[0].entries.size(), 1u);
  EXPECT_EQ(doc.tables[0].entries[0].key, "header");
  EXPECT_EQ(doc.tables[0].entries[0].line, 3u);
  EXPECT_EQ(std::get<std::string>(doc.tables[0].entries[0].value),
            "src/kv/wire.hpp");
  EXPECT_EQ(doc.tables[1].name, "messages.Ping");
  ASSERT_EQ(doc.tables[1].entries.size(), 2u);
  EXPECT_TRUE(std::get<bool>(doc.tables[1].entries[0].value));
  EXPECT_FALSE(std::get<bool>(doc.tables[1].entries[1].value));
}

TEST(AnalysisManifestTest, MultiLineArrayWithTrailingCommaAndComments) {
  const ManifestDoc doc = read_manifest("m.toml",
                                        "[layers]\n"
                                        "order = [\n"
                                        "  \"util\",  # lowest\n"
                                        "  # a whole-line comment\n"
                                        "  \"core\", \"proxy\",\n"
                                        "]\n");
  EXPECT_TRUE(doc.errors.empty());
  ASSERT_EQ(doc.tables.size(), 1u);
  ASSERT_EQ(doc.tables[0].entries.size(), 1u);
  EXPECT_EQ(doc.tables[0].entries[0].line, 2u);
  EXPECT_EQ(array_of(doc.tables[0].entries[0]),
            (std::vector<std::string>{"util", "core", "proxy"}));
}

TEST(AnalysisManifestTest, HashInsideAStringIsNotAComment) {
  const ManifestDoc doc = read_manifest(
      "m.toml", "[t]\npath = \"a#b\"  # comment\nitems = [\"#x\"]\n");
  EXPECT_TRUE(doc.errors.empty());
  ASSERT_EQ(doc.tables[0].entries.size(), 2u);
  EXPECT_EQ(std::get<std::string>(doc.tables[0].entries[0].value), "a#b");
  EXPECT_EQ(array_of(doc.tables[0].entries[1]),
            (std::vector<std::string>{"#x"}));
}

TEST(AnalysisManifestTest, BracketInsideAQuotedArrayItemIsPartOfTheItem) {
  const ManifestDoc doc = read_manifest("m.toml", "[t]\norder = [\"a]b\"]\n");
  EXPECT_TRUE(doc.errors.empty());
  ASSERT_EQ(doc.tables[0].entries.size(), 1u);
  EXPECT_EQ(array_of(doc.tables[0].entries[0]),
            (std::vector<std::string>{"a]b"}));
}

TEST(AnalysisManifestTest, TrailingTextAfterAValueIsAFinding) {
  const ManifestDoc doc = read_manifest("m.toml",
                                        "[t]\n"
                                        "order = [\"a\"] \"b\"\n"
                                        "path = \"src/a\" junk\n"
                                        "flag = true false\n"
                                        "deps = [\n"
                                        "  \"x\",\n"
                                        "] tail\n");
  ASSERT_EQ(doc.errors.size(), 4u);
  const std::vector<std::size_t> lines = {2, 3, 4, 7};
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(doc.errors[i].rule, "manifest");
    EXPECT_EQ(doc.errors[i].line, lines[i]);
  }
  EXPECT_NE(doc.errors[1].message.find("junk"), std::string::npos);
}

TEST(AnalysisManifestTest, ValueThatIsNotAStringBoolOrArrayIsAFinding) {
  const ManifestDoc doc = read_manifest("m.toml", "[t]\nversioned = 7\n");
  ASSERT_EQ(doc.errors.size(), 1u);
  EXPECT_EQ(doc.errors[0].line, 2u);
  EXPECT_EQ(doc.errors[0].message,
            "value of `versioned` must be a string, boolean, or array");
  EXPECT_TRUE(doc.tables[0].entries.empty());
}

TEST(AnalysisManifestTest, UnterminatedArrayIsReportedOnItsOpeningLine) {
  const ManifestDoc doc =
      read_manifest("m.toml", "[t]\ntypes = [\"A\",\n\"B\"\n");
  ASSERT_EQ(doc.errors.size(), 1u);
  EXPECT_EQ(doc.errors[0].line, 2u);
  EXPECT_EQ(doc.errors[0].message, "unterminated array for `types`");
  EXPECT_TRUE(doc.tables[0].entries.empty());
}

TEST(AnalysisManifestTest, EmptyDottedTableNameIsAFinding) {
  const ManifestDoc doc =
      read_manifest("m.toml", "[modules.]\ndeps = [\"a\"]\n");
  ASSERT_EQ(doc.errors.size(), 1u);
  EXPECT_EQ(doc.errors[0].line, 1u);
  // Its entries belong to no table, so any schema rejects them.
  ASSERT_EQ(doc.tables.size(), 1u);
  EXPECT_TRUE(doc.tables[0].name.empty());
  std::vector<qopt::analysis::Finding> errors;
  qopt::analysis::reject_table("m.toml", doc.tables[0], "[modules.<name>]",
                               errors);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].message, "unknown key `deps` in this section");
}

TEST(AnalysisManifestTest, ReadTableChecksKeysAndValueTypes) {
  const ManifestDoc doc = read_manifest(
      "m.toml",
      "[t]\nname = \"n\"\nitems = \"not-an-array\"\nbogus = true\n");
  ASSERT_TRUE(doc.errors.empty());
  std::string name;
  std::vector<std::string> items;
  std::vector<qopt::analysis::Finding> errors;
  qopt::analysis::read_table("m.toml", doc.tables[0],
                             {{"name", &name}, {"items", &items}}, errors);
  EXPECT_EQ(name, "n");
  EXPECT_TRUE(items.empty());
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_EQ(errors[0].message, "value of `items` must be an array");
  EXPECT_EQ(errors[1].message, "unknown key `bogus` in this section");
}

struct TestManifest {
  std::string path;
  std::vector<qopt::analysis::Finding> errors;
};

TestManifest parse_test_manifest(const std::string& path,
                                 const std::string& text) {
  return {path, read_manifest(path, text).errors};
}

TEST(AnalysisManifestTest, UnreadablePathIsAFinding) {
  const TestManifest m = qopt::analysis::load_manifest(
      "/nonexistent/qopt/manifest.toml", parse_test_manifest);
  ASSERT_EQ(m.errors.size(), 1u);
  EXPECT_EQ(m.errors[0].rule, "manifest");
  EXPECT_EQ(m.errors[0].line, 0u);
  EXPECT_EQ(m.errors[0].message, "cannot read manifest");
}

}  // namespace
