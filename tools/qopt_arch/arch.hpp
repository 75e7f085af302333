// qopt-arch — include-graph architecture conformance and header hygiene.
//
// A dependency-free (no LLVM) analyzer that parses every `#include` edge in
// the tree, builds the file- and module-level include graphs, and enforces
// the layering manifest committed at docs/ARCHITECTURE.toml. Rules:
//
//   forbidden-edge    an include crosses a module boundary the manifest does
//                     not allow (module deps form the declared DAG; lower
//                     layers such as util/sim never reach upward into
//                     protocol or policy layers).
//   include-cycle     the file-level include graph has a cycle (direct or
//                     transitive).
//   manifest          the manifest itself is malformed: unknown module in
//                     `order`, deps referencing undeclared modules, a cyclic
//                     deps relation, or a dep appearing at or above its
//                     dependent in the layer order.
//   unknown-module    a scanned file belongs to no module declared in the
//                     manifest.
//   relative-include  an include path contains `./` or `../`; project
//                     includes are always spelled from a source root
//                     ("module/header.hpp").
//   include-style     a quoted include does not resolve to an in-repo header
//                     (system headers use <>), or an angled include resolves
//                     to an in-repo header (project headers use "").
//   pragma-once       a header lacks `#pragma once` (the tree-wide guard
//                     convention; #ifndef guards are not used).
//   unused-include    a file includes an in-repo header but never mentions
//                     any symbol that header (or anything it transitively
//                     includes) provides.
//   missing-include   a file mentions a symbol whose owning in-repo header
//                     it never directly includes — an include satisfied only
//                     transitively today, or (in a header) proof the header
//                     is not self-contained.
//   bare-allow        a `// qopt-arch: allow(<rule>)` without justification.
//
// Suppression: `// qopt-arch: allow(<rule>) <justification>` on the line of
// (or the line above) the finding — the shared tools/analysis grammar, same
// as qopt_lint. An include line in an umbrella header may carry
// `// qopt-arch: export`: including the umbrella then counts as directly
// including the exported target (IWYU-style re-export).
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/source.hpp"
#include "analysis/suppress.hpp"

namespace qopt::arch {

using Finding = qopt::analysis::Finding;

// ------------------------------------------------------------- manifest

/// The layering manifest: a module order (low layer first) and, per module,
/// the set of other modules it may include. Self-edges are implicit.
struct Manifest {
  std::string path;                                   // for diagnostics
  std::vector<std::string> order;                     // low -> high
  std::map<std::string, std::set<std::string>> deps;  // module -> allowed
  std::vector<Finding> errors;                        // parse-time problems
};

/// Reads docs/ARCHITECTURE.toml (grammar: analysis/manifest.hpp):
/// `[layers]` with `order = [...]`, and `[modules.<name>]` tables with
/// `deps = [...]`. Anything else is reported as a `manifest` finding.
Manifest parse_manifest(const std::string& path, const std::string& text);

/// Reads and parses; a read failure is a `manifest` finding in `errors`.
Manifest load_manifest(const std::string& path);

// ----------------------------------------------------------- the tree

struct Include {
  std::string spelled;    // path as written between the delimiters
  std::size_t line = 0;   // 1-based
  bool angled = false;    // <...> vs "..."
  bool exported = false;  // `// qopt-arch: export` on the include line
  std::string resolved;   // root-relative path of the in-repo target, or ""
  std::string module;     // module of the resolved target, or ""
};

struct SourceFile {
  std::string path;  // as opened
  std::string rel;   // root-relative, '/'-separated
  std::string module;
  bool is_header = false;
  bool has_pragma_once = false;
  std::vector<Include> includes;
  std::string stripped;  // comment/literal-stripped source
  qopt::analysis::Annotations ann;
};

struct Tree {
  std::string root;
  std::vector<SourceFile> files;              // sorted by rel
  std::map<std::string, std::size_t> index;   // rel -> index into files
  std::vector<Finding> errors;                // I/O problems
};

/// Loads every C++ source under root/<dir> for each dir (files listed
/// explicitly are taken as-is). Quoted includes resolve against the tree
/// itself, trying `<root>/`, `<root>/src/`, `<root>/tools/` in that order;
/// module = first path component, with `src/` and `tools/` stripped
/// (`src/kv/...` -> "kv", `tools/analysis/...` -> "analysis",
/// `tests/...` -> "tests").
Tree load_tree(const std::string& root, const std::vector<std::string>& dirs);

// ------------------------------------------------------------- checks

/// forbidden-edge, unknown-module, include-cycle, plus the manifest's own
/// `errors`. Pure graph checks — cheap to re-run against edited manifests
/// (the load-bearing-edge negative test does exactly that).
std::vector<Finding> check_layering(const Tree& tree,
                                    const Manifest& manifest);

/// pragma-once, relative-include, include-style.
std::vector<Finding> check_hygiene(const Tree& tree);

/// unused-include and missing-include, driven by a generated symbol->header
/// map for in-repo headers.
std::vector<Finding> check_symbols(const Tree& tree);

/// All checks plus per-file bare-allow findings and tree I/O errors, sorted
/// by (file, line, rule).
std::vector<Finding> analyze(const Tree& tree, const Manifest& manifest);

/// Every justified suppression/annotation in the tree (tool "qopt-arch").
std::vector<qopt::analysis::Suppression> suppressions(const Tree& tree);

// ------------------------------------------------------------- exports

/// Deterministic Graphviz digraph of the module graph: one node per module
/// that owns files, ranked by manifest layer, one edge per observed
/// module->module include relation (labelled with the include count).
std::string export_dot(const Tree& tree, const Manifest& manifest);

/// Deterministic JSON: modules (with layer index and allowed deps), the
/// observed edges with include counts, and the file count.
std::string export_json(const Tree& tree, const Manifest& manifest);

}  // namespace qopt::arch
