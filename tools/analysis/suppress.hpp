// Shared justified-suppression machinery for the analysis tools.
//
// Every tool uses the same comment grammar, keyed by its own tag:
//
//   // <tool>: allow(<rule>) <justification>      exempts its own line and
//                                                 the next one; the
//                                                 justification is mandatory
//   // <tool>: quorum(n=N)                        qopt_lint-specific data
//                                                 annotation (replication
//                                                 factor for the
//                                                 quorum-literal rule)
//
// A bare allow (no justification) is itself reported as `bare-allow`, and
// never suppresses anything. Both tools surface their accepted suppressions
// in one unified summary format:
//
//   tool:rule:file:line: justification
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/source.hpp"

namespace qopt::analysis {

/// One accepted (justified) suppression or data annotation, for the unified
/// `--suppressions` summary.
struct Suppression {
  std::string tool;  // "qopt-lint", "qopt-arch"
  std::string rule;  // suppressed rule, or "quorum" for quorum(n=N)
  std::string file;
  std::size_t line = 0;  // line the annotation is written on
  std::string justification;
};

/// `tool:rule:file:line: justification`.
std::string format_suppression(const Suppression& s);

/// Per-file annotation scan result.
struct Annotations {
  std::map<std::size_t, std::set<std::string>> allows;  // line -> rules
  std::map<std::size_t, int> quorum_n;                  // line -> N
  std::vector<Finding> findings;                        // bare-allow
  std::vector<Suppression> suppressions;                // justified ones
};

/// Scans raw (unstripped) source lines for `<tool>: allow(...)` and
/// `<tool>: quorum(n=N)` annotations. An accepted allow covers its own line
/// and the next, so it can sit on a comment line above the code it exempts.
Annotations scan_annotations(const std::string& tool, const std::string& path,
                             const std::vector<std::string>& lines);

/// The justified suppressions in the file at `path`, tagged `tool`; empty
/// when the file cannot be read.
std::vector<Suppression> file_suppressions(const std::string& tool,
                                           const std::string& path);

/// True when `rule` is suppressed at `line`.
bool allowed(const Annotations& ann, std::size_t line,
             const std::string& rule);

}  // namespace qopt::analysis
