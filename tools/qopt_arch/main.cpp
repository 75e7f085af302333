// qopt_arch CLI — see arch.hpp for the rule set.
//
// Usage:
//   qopt_arch --manifest docs/ARCHITECTURE.toml [--root <dir>]
//             [--dot <out>] [--json <out>] [--suppressions]
//             <dir-or-file>...
//
// Scans the given directories (relative to --root, default ".") and prints
// one finding per line. --dot/--json write deterministic module-graph
// exports whether or not findings exist. --suppressions additionally prints
// every justified suppression in the unified
// `tool:rule:file:line: justification` summary shared with qopt_lint.
// Exit status: 0 when clean, 1 when findings exist, 2 on usage error.
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/source.hpp"
#include "analysis/suppress.hpp"
#include "qopt_arch/arch.hpp"

namespace {

constexpr const char* kUsage =
    "usage: qopt_arch --manifest <file> [--root <dir>] [--dot <out>]\n"
    "                 [--json <out>] [--suppressions] [--list-rules]\n"
    "                 <dir-or-file>...\n";

}  // namespace

int main(int argc, char** argv) {
  std::string manifest_path;
  std::string root = ".";
  std::string dot_path;
  std::string json_path;
  bool show_suppressions = false;
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "qopt-arch: %s needs a value\n%s", flag, kUsage);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--manifest") {
      manifest_path = next("--manifest");
    } else if (arg == "--root") {
      root = next("--root");
    } else if (arg == "--dot") {
      dot_path = next("--dot");
    } else if (arg == "--json") {
      json_path = next("--json");
    } else if (arg == "--suppressions") {
      show_suppressions = true;
    } else if (arg == "--list-rules") {
      std::printf(
          "forbidden-edge    include crosses a module edge the manifest "
          "does not allow\n"
          "include-cycle     cycle in the file-level include graph\n"
          "manifest          malformed or non-DAG layering manifest\n"
          "unknown-module    file outside every declared module\n"
          "relative-include  include path contains ./ or ../\n"
          "include-style     quoted system include or angled project "
          "include\n"
          "pragma-once       header without #pragma once\n"
          "unused-include    include whose provided symbols are never "
          "mentioned\n"
          "missing-include   symbol used but its owning header only "
          "reachable transitively\n"
          "bare-allow        allow() suppression without a justification\n");
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::printf("%s", kUsage);
      return 0;
    } else {
      paths.push_back(arg);
    }
  }
  if (manifest_path.empty() || paths.empty()) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }

  const qopt::arch::Manifest manifest =
      qopt::arch::load_manifest(manifest_path);
  const qopt::arch::Tree tree = qopt::arch::load_tree(root, paths);

  std::size_t total = 0;
  for (const qopt::arch::Finding& finding :
       qopt::arch::analyze(tree, manifest)) {
    std::printf("%s\n", qopt::analysis::format_finding(finding).c_str());
    ++total;
  }
  if (!dot_path.empty() &&
      !qopt::analysis::write_file(dot_path,
                                  qopt::arch::export_dot(tree, manifest))) {
    std::fprintf(stderr, "qopt-arch: cannot write %s\n", dot_path.c_str());
    return 2;
  }
  if (!json_path.empty() &&
      !qopt::analysis::write_file(json_path,
                                  qopt::arch::export_json(tree, manifest))) {
    std::fprintf(stderr, "qopt-arch: cannot write %s\n", json_path.c_str());
    return 2;
  }
  if (show_suppressions) {
    for (const qopt::analysis::Suppression& s :
         qopt::arch::suppressions(tree)) {
      std::printf("%s\n", qopt::analysis::format_suppression(s).c_str());
    }
  }
  if (total > 0) {
    std::fprintf(stderr, "qopt-arch: %zu finding(s) in %zu file(s) scanned\n",
                 total, tree.files.size());
    return 1;
  }
  return 0;
}
