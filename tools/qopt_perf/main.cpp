// qopt_perf CLI — see perf.hpp for the rule set.
//
// Usage:
//   qopt_perf --manifest docs/HOT_PATHS.toml [--root <dir>]
//             [--baseline <file>] [--update-baseline]
//             [--suppressions] [--list-rules] <dir-or-file>...
//
// Scans the given directories (relative to --root, default ".") against the
// hot-path manifest and prints one finding per line. Findings are reported
// with repo-relative paths so the output (and the committed baseline) is
// machine-independent.
//
// Without --baseline the tool behaves like qopt_lint: exit 1 on any
// finding. With --baseline it is a ratchet gate: per-rule counts are
// compared against the committed file, only a count *rising* fails, and
// the individual findings are printed only for regressed rules (the known
// backlog stays quiet). --update-baseline rewrites the baseline from the
// current scan — counts may only go down; an attempt to raise one fails.
// Exit status: 0 when clean/within baseline, 1 on findings or ratchet
// regression, 2 on usage error.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "analysis/source.hpp"
#include "analysis/suppress.hpp"
#include "qopt_perf/perf.hpp"

namespace {

constexpr const char* kUsage =
    "usage: qopt_perf --manifest <file> [--root <dir>]\n"
    "                 [--baseline <file>] [--update-baseline]\n"
    "                 [--suppressions] [--list-rules] <dir-or-file>...\n";

/// `path` relative to `root` (both as given on the command line); returns
/// `path` unchanged when it does not live under `root`.
std::string relative_to(const std::string& root, const std::string& path) {
  if (root.empty() || root == ".") return path;
  std::string prefix = root;
  if (!prefix.ends_with('/')) prefix += '/';
  if (path.starts_with(prefix)) return path.substr(prefix.size());
  return path;
}

}  // namespace

int main(int argc, char** argv) {
  std::string manifest_path;
  std::string baseline_path;
  std::string root = ".";
  bool update_baseline = false;
  bool show_suppressions = false;
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "qopt-perf: %s needs a value\n%s", flag, kUsage);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--manifest") {
      manifest_path = next("--manifest");
    } else if (arg == "--root") {
      root = next("--root");
    } else if (arg == "--baseline") {
      baseline_path = next("--baseline");
    } else if (arg == "--update-baseline") {
      update_baseline = true;
    } else if (arg == "--suppressions") {
      show_suppressions = true;
    } else if (arg == "--list-rules") {
      std::printf(
          "heap-alloc-hot     new/make_unique/make_shared/std::function/"
          "std::to_string/\n"
          "                   string concatenation inside a hot region\n"
          "map-churn-hot      std::map/std::set operator[]/insert/erase on "
          "a per-event path\n"
          "vector-growth-hot  push_back/emplace_back in a hot function "
          "with no reserve in scope\n"
          "byval-message      wire message type passed by value "
          "(tree-wide)\n"
          "regex-hot          std::regex machinery in a hot region\n"
          "throw-hot          throw in a hot region\n"
          "bare-allow         allow() suppression without a justification\n");
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::printf("%s", kUsage);
      return 0;
    } else {
      paths.push_back(arg);
    }
  }
  if (manifest_path.empty() || paths.empty() ||
      (update_baseline && baseline_path.empty())) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }

  const qopt::perf::Manifest manifest =
      qopt::perf::load_manifest(manifest_path);
  std::vector<qopt::perf::Finding> findings = manifest.errors;

  const std::vector<std::string> files =
      qopt::analysis::collect_sources(paths);
  std::vector<qopt::analysis::Suppression> suppressions;
  for (const std::string& file : files) {
    const std::string rel = relative_to(root, file);
    const auto file_findings =
        qopt::perf::analyze_file(root, rel, manifest);
    findings.insert(findings.end(), file_findings.begin(),
                    file_findings.end());
    if (show_suppressions) {
      for (qopt::analysis::Suppression s :
           qopt::analysis::file_suppressions(qopt::perf::kTool, file)) {
        s.file = rel;
        suppressions.push_back(std::move(s));
      }
    }
  }

  const std::map<std::string, int> counts =
      qopt::perf::count_by_rule(findings);

  if (update_baseline) {
    // The ratchet only turns one way: refuse to raise any committed count.
    const qopt::perf::Baseline existing =
        qopt::perf::load_baseline(baseline_path);
    if (existing.errors.empty()) {
      bool raised = false;
      for (const auto& [rule, count] : counts) {
        if (!qopt::perf::baselinable(rule)) continue;
        const auto it = existing.counts.find(rule);
        const int allowed = it == existing.counts.end() ? 0 : it->second;
        if (count > allowed) {
          std::fprintf(stderr,
                       "qopt-perf: refusing to raise baseline for %s "
                       "(%d -> %d); fix or suppress the new violations\n",
                       rule.c_str(), allowed, count);
          raised = true;
        }
      }
      if (raised) return 1;
    }
    if (!qopt::analysis::write_file(baseline_path,
                                    qopt::perf::format_baseline(counts))) {
      std::fprintf(stderr, "qopt-perf: cannot write %s\n",
                   baseline_path.c_str());
      return 2;
    }
    for (const auto& [rule, count] : counts) {
      std::printf("%s %d\n", rule.c_str(), count);
    }
    std::fprintf(stderr, "qopt-perf: baseline %s updated (%zu file(s) "
                 "scanned)\n",
                 baseline_path.c_str(), files.size());
    return 0;
  }

  if (show_suppressions) {
    for (const qopt::analysis::Suppression& s : suppressions) {
      std::printf("%s\n", qopt::analysis::format_suppression(s).c_str());
    }
  }

  if (baseline_path.empty()) {
    for (const qopt::perf::Finding& finding : findings) {
      std::printf("%s\n", qopt::analysis::format_finding(finding).c_str());
    }
    if (!findings.empty()) {
      std::fprintf(stderr,
                   "qopt-perf: %zu finding(s) in %zu file(s) scanned\n",
                   findings.size(), files.size());
      return 1;
    }
    return 0;
  }

  const qopt::perf::Baseline baseline =
      qopt::perf::load_baseline(baseline_path);
  for (const qopt::perf::Finding& e : baseline.errors) {
    std::printf("%s\n", qopt::analysis::format_finding(e).c_str());
  }
  const std::vector<std::string> failures =
      qopt::perf::ratchet_failures(counts, baseline);
  if (!failures.empty() || !baseline.errors.empty()) {
    // Print the individual findings only for regressed rules, so the known
    // backlog does not drown the new violation.
    std::map<std::string, int> regressed;
    for (const auto& [rule, count] : counts) {
      const auto it = baseline.counts.find(rule);
      const int allowed =
          qopt::perf::baselinable(rule) && it != baseline.counts.end()
              ? it->second
              : 0;
      if (count > allowed) regressed[rule] = count;
    }
    for (const qopt::perf::Finding& finding : findings) {
      if (regressed.count(finding.rule) > 0) {
        std::printf("%s\n", qopt::analysis::format_finding(finding).c_str());
      }
    }
    for (const std::string& failure : failures) {
      std::fprintf(stderr, "qopt-perf: %s\n", failure.c_str());
    }
    std::fprintf(stderr, "qopt-perf: ratchet gate FAILED (%zu file(s) "
                 "scanned)\n",
                 files.size());
    return 1;
  }
  for (const std::string& note :
       qopt::perf::ratchet_improvements(counts, baseline)) {
    std::fprintf(stderr, "qopt-perf: note: %s\n", note.c_str());
  }
  std::fprintf(stderr,
               "qopt-perf: ratchet gate ok (%zu file(s) scanned)\n",
               files.size());
  return 0;
}
