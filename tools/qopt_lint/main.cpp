// qopt_lint CLI — see lint.hpp for the rule set.
//
// Usage: qopt_lint [--list-rules] [--suppressions] <file-or-dir>...
// Exit status: 0 when clean, 1 when findings exist, 2 on usage error.
// --suppressions additionally prints every justified suppression in the
// unified `tool:rule:file:line: justification` summary shared with
// qopt_arch.
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/source.hpp"
#include "analysis/suppress.hpp"
#include "qopt_lint/lint.hpp"

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  bool show_suppressions = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--suppressions") {
      show_suppressions = true;
      continue;
    }
    if (arg == "--list-rules") {
      std::printf(
          "wall-clock      real-time / ambient-randomness source outside "
          "src/util/rng\n"
          "unordered-iter  iteration over std::unordered_map/unordered_set\n"
          "pointer-key     std::map/std::set keyed by a pointer\n"
          "quorum-literal  QuorumConfig{r, w} / QuorumConfig::of(r, w) / "
          "QuorumStrategy::majority(r, w[, n]) with r < 1 or w < 1 (and "
          "r + w <= n when n is known inline or via "
          "`qopt-lint: quorum(n=N)`)\n"
          "bare-allow      allow() suppression without a justification\n");
      return 0;
    }
    if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: qopt_lint [--list-rules] [--suppressions] "
          "<file-or-dir>...\n");
      return 0;
    }
    paths.push_back(arg);
  }
  if (paths.empty()) {
    std::fprintf(stderr,
                 "usage: qopt_lint [--list-rules] [--suppressions] "
                 "<file-or-dir>...\n");
    return 2;
  }

  std::size_t total = 0;
  const std::vector<std::string> files =
      qopt::analysis::collect_sources(paths);
  for (const std::string& file : files) {
    for (const qopt::lint::Finding& finding : qopt::lint::lint_file(file)) {
      std::printf("%s\n", qopt::analysis::format_finding(finding).c_str());
      ++total;
    }
  }
  if (show_suppressions) {
    for (const std::string& file : files) {
      for (const qopt::analysis::Suppression& s :
           qopt::analysis::file_suppressions(qopt::lint::kTool, file)) {
        std::printf("%s\n", qopt::analysis::format_suppression(s).c_str());
      }
    }
  }
  if (total > 0) {
    std::fprintf(stderr, "qopt-lint: %zu finding(s) in %zu file(s) scanned\n",
                 total, files.size());
    return 1;
  }
  return 0;
}
