// qopt-perf — hot-path performance linter.
//
// A token-level source scanner (no LLVM dependency, shared tools/analysis
// framework) that keeps the per-event code paths named in
// docs/HOT_PATHS.toml free of avoidable allocation and copying while the
// ROADMAP item-1 engine-speed work lands over several PRs:
//
//   heap-alloc-hot    `new`, `make_unique`, `make_shared`, `std::function`
//                     construction/storage, `std::to_string`, and string
//                     concatenation inside a hot region: each is a heap
//                     allocation multiplied by millions of events.
//   map-churn-hot     `std::map`/`std::set` operator[]/insert/emplace/erase
//                     on a per-event path, or a node container constructed
//                     inside a hot function body: node-based containers
//                     allocate per element.
//   vector-growth-hot `push_back`/`emplace_back` in a hot function whose
//                     body never calls `reserve`: growth reallocates and
//                     copies on a per-event path.
//   byval-message     a wire-protocol message type (manifest `[messages]`
//                     list) taken by value in a parameter list — checked
//                     tree-wide, not just in hot regions: copying payload
//                     bytes on every hop is never right.
//   regex-hot         `std::regex` machinery in a hot region.
//   throw-hot         `throw` in a hot region: exceptional control flow is
//                     for errors, not per-event signalling.
//   bare-allow        a `// qopt-perf: allow(<rule>)` suppression without a
//                     justification (shared grammar).
//
// Suppression: `// qopt-perf: allow(<rule>) <justification>` disables
// <rule> on its own line and the next line.
//
// Because the tree cannot go violation-free in one PR, enforcement is a
// ratchet: tools/qopt_perf/baseline.txt records the per-rule finding
// counts, the qopt_perf_tree ctest fails when any count rises above it,
// and `--update-baseline` rewrites the file when counts drop. The
// `manifest`, `io`, and `bare-allow` rules are never baselinable: those
// must stay at zero.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/source.hpp"

namespace qopt::perf {

using Finding = qopt::analysis::Finding;

/// Tag of this tool's suppression comments and summary lines.
inline constexpr const char* kTool = "qopt-perf";

// ------------------------------------------------------------- manifest

/// One hot region from docs/HOT_PATHS.toml.
struct HotRegion {
  std::string name;
  /// Repo-relative path prefix; a file belongs to the region when its
  /// relative path starts with this prefix.
  std::string path;
  /// When non-empty, only the bodies of these functions are hot; when
  /// empty the whole file is.
  std::vector<std::string> functions;
};

struct Manifest {
  std::string path;
  std::vector<HotRegion> regions;
  /// Wire message types for the byval-message rule.
  std::vector<std::string> message_types;
  std::vector<Finding> errors;  // rule "manifest"
};

/// Reads docs/HOT_PATHS.toml (grammar: analysis/manifest.hpp):
/// `[regions.<name>]` tables with `path = "..."` and `functions = [...]`,
/// plus a `[messages]` table with `types = [...]`. Errors land in
/// `errors`.
Manifest parse_manifest(const std::string& path, const std::string& text);

/// Reads and parses a manifest file; a read failure is a `manifest` error.
Manifest load_manifest(const std::string& path);

// ---------------------------------------------------------------- rules

/// The perf rules in report order (excludes the shared `bare-allow`).
const std::vector<std::string>& rule_names();

struct Options {
  /// Rules to skip — the delete-one-rule negative test proves each rule is
  /// load-bearing by disabling it and watching its fixture go clean.
  std::set<std::string> disabled_rules;
};

/// 1-based hot-line mask for `stripped` (index 0 unused): the union of
/// every manifest region matching `rel_path`.
std::vector<bool> hot_lines(const std::string& rel_path,
                            const std::string& stripped,
                            const Manifest& manifest);

/// Analyzes an in-memory buffer. `rel_path` is the repo-relative path used
/// for region matching and reporting; `header_source` is the optional
/// companion header, scanned for container declarations only.
std::vector<Finding> analyze_source(const std::string& rel_path,
                                    const std::string& source,
                                    const std::string& header_source,
                                    const Manifest& manifest,
                                    const Options& options = {});

/// Reads and analyzes `root`/`rel_path` (companion header auto-loaded); a
/// read failure is an `io` finding.
std::vector<Finding> analyze_file(const std::string& root,
                                  const std::string& rel_path,
                                  const Manifest& manifest,
                                  const Options& options = {});

// -------------------------------------------------------------- ratchet

struct Baseline {
  std::map<std::string, int> counts;  // rule -> allowed count
  std::vector<Finding> errors;        // rule "baseline"
};

/// Parses `rule count` lines (# comments and blank lines skipped).
Baseline parse_baseline(const std::string& path, const std::string& text);
Baseline load_baseline(const std::string& path);

/// Serializes counts back to the committed file shape (sorted by rule,
/// zero-count and unbaselinable rules omitted).
std::string format_baseline(const std::map<std::string, int>& counts);

std::map<std::string, int> count_by_rule(const std::vector<Finding>& findings);

/// True for rules that may appear in a baseline (manifest/io/bare-allow
/// must always be zero).
bool baselinable(const std::string& rule);

/// Human-readable ratchet regressions: any rule whose count exceeds the
/// baseline (missing entries count as 0), plus any unbaselinable rule with
/// a nonzero count. Empty result = the gate passes.
std::vector<std::string> ratchet_failures(
    const std::map<std::string, int>& counts, const Baseline& baseline);

/// Rules whose count dropped below the baseline — candidates for
/// `--update-baseline`.
std::vector<std::string> ratchet_improvements(
    const std::map<std::string, int>& counts, const Baseline& baseline);

}  // namespace qopt::perf
