// qopt-lint — project-specific determinism & protocol-invariant checker.
//
// A token/regex-level source scanner (no LLVM dependency) enforcing the
// simulator's correctness discipline at lint time instead of at replay time:
//
//   wall-clock      no real-time or ambient-randomness source outside
//                   src/util/rng (system_clock, time(), rand(),
//                   std::random_device, ...): all time is virtual, all
//                   randomness flows through qopt::Rng.
//   unordered-iter  no iteration over std::unordered_map/unordered_set:
//                   hash-table iteration order is implementation-defined, so
//                   anything it feeds (trace/report/CSV output, protocol
//                   decisions, floating-point accumulation) silently loses
//                   the same-seed byte-identical guarantee. Order must flow
//                   through std::map or sorted-key snapshots.
//   pointer-key     no std::map/std::set (or multi- variants) keyed by a
//                   pointer: address order changes run to run.
//   quorum-literal  every literal quorum construction — QuorumConfig{r, w},
//                   QuorumConfig::of(r, w), QuorumStrategy::majority(r, w[,
//                   n]) — must satisfy r >= 1 and w >= 1; with a known
//                   replication degree (the factory's inline n argument, or
//                   `// qopt-lint: quorum(n=N)`) the strict-quorum
//                   invariant r + w > n (and r, w <= n) is checked too.
//   bare-allow      a `// qopt-lint: allow(<rule>)` suppression without a
//                   justification after the closing parenthesis.
//
// Suppression: `// qopt-lint: allow(<rule>) <justification>` disables <rule>
// on its own line and the next line. The justification is mandatory.
//
// The tokenizer (comment/literal stripping), file walker, and suppression
// grammar are the shared tools/analysis framework, common with qopt_arch;
// prose mentioning rand() (or this file's own patterns) never trips the
// checker.
#pragma once

#include <string>
#include <vector>

#include "analysis/source.hpp"

namespace qopt::lint {

using Finding = qopt::analysis::Finding;

/// Tag of this tool's suppression comments and summary lines.
inline constexpr const char* kTool = "qopt-lint";

/// Lints an in-memory source buffer; `path` is used for reporting and for
/// the wall-clock allowlist (src/util/rng is exempt). `header_source` is an
/// optional companion-header buffer scanned for container *declarations*
/// only (so a .cpp iterating a member declared in its .hpp is caught); it
/// is not itself linted.
std::vector<Finding> lint_source(const std::string& path,
                                 const std::string& source,
                                 const std::string& header_source = {});

/// Reads and lints a file; a read failure is reported as an `io` finding.
/// For a .cpp/.cc file, the sibling .hpp/.h with the same stem (if any) is
/// loaded as the companion header.
std::vector<Finding> lint_file(const std::string& path);

}  // namespace qopt::lint
