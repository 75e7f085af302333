// qopt_proto CLI — see proto.hpp for the rule set.
//
// Usage:
//   qopt_proto --manifest docs/PROTOCOL.toml [--root <dir>]
//              [--suppressions] [--list-rules]
//              [--dump-wire] [--dump-manifest]
//
// Checks the tree named by the manifest (the wire header and every
// component's sources, resolved relative to --root, default ".") against
// the committed protocol record and prints one finding per line. Exit 1
// on any finding, 2 on usage/manifest error.
//
// --dump-wire prints a normalized `Name: field field ...` inventory of the
// *current* wire header; --dump-manifest prints the same inventory from the
// committed manifest. CI diffs the two — append-only evolution means they
// are identical whenever the manifest is in sync.
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/source.hpp"
#include "analysis/suppress.hpp"
#include "qopt_proto/proto.hpp"

namespace {

constexpr const char* kUsage =
    "usage: qopt_proto --manifest <file> [--root <dir>]\n"
    "                  [--suppressions] [--list-rules]\n"
    "                  [--dump-wire] [--dump-manifest]\n";

}  // namespace

int main(int argc, char** argv) {
  std::string manifest_path;
  std::string root = ".";
  bool show_suppressions = false;
  bool dump_wire = false;
  bool dump_manifest = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "qopt-proto: %s needs a value\n%s", flag,
                     kUsage);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--manifest") {
      manifest_path = next("--manifest");
    } else if (arg == "--root") {
      root = next("--root");
    } else if (arg == "--suppressions") {
      show_suppressions = true;
    } else if (arg == "--dump-wire") {
      dump_wire = true;
    } else if (arg == "--dump-manifest") {
      dump_manifest = true;
    } else if (arg == "--list-rules") {
      std::printf(
          "append-only-evolution  committed field/alternative lists must be "
          "a prefix of the\n"
          "                       current ones; versioned messages keep the "
          "version field\n"
          "                       last and their handler compares it\n"
          "handler-exhaustive     every routed message has a located "
          "handler body and its\n"
          "                       dispatch mentions it; no dispatch handles "
          "an unrouted type\n"
          "epoch-guard            handlers of epoch-carrying messages "
          "compare the generation\n"
          "                       field before mutating state\n"
          "dedup-before-apply     handlers of at-least-once messages "
          "consult the declared\n"
          "                       dedup structure\n"
          "span-propagation       span-carrying messages have a `span` "
          "field and their\n"
          "                       handler forwards it\n"
          "bare-allow             allow() suppression without a "
          "justification\n");
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::printf("%s", kUsage);
      return 0;
    } else {
      std::fprintf(stderr, "qopt-proto: unknown argument `%s`\n%s",
                   arg.c_str(), kUsage);
      return 2;
    }
  }
  if (manifest_path.empty()) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }

  const qopt::proto::Manifest manifest =
      qopt::proto::load_manifest(manifest_path);
  if (!manifest.errors.empty()) {
    for (const qopt::proto::Finding& e : manifest.errors) {
      std::fprintf(stderr, "%s\n", qopt::analysis::format_finding(e).c_str());
    }
    std::fprintf(stderr, "qopt-proto: manifest %s is malformed\n",
                 manifest_path.c_str());
    return 2;
  }

  if (dump_manifest) {
    std::printf("%s", qopt::proto::dump_manifest(manifest).c_str());
    return 0;
  }
  if (dump_wire) {
    const std::string full = root.empty() || root == "."
                                 ? manifest.wire.header
                                 : root + "/" + manifest.wire.header;
    std::string source;
    if (!qopt::analysis::read_file(full, source)) {
      std::fprintf(stderr, "qopt-proto: cannot read %s\n", full.c_str());
      return 2;
    }
    const qopt::proto::WireHeader header = qopt::proto::parse_wire_header(
        qopt::analysis::strip_comments_and_literals(source),
        manifest.wire.variant);
    std::printf("%s",
                qopt::proto::dump_wire(header, manifest.wire.variant)
                    .c_str());
    return 0;
  }

  const std::vector<qopt::proto::Finding> findings =
      qopt::proto::analyze_tree(root == "." ? std::string{} : root, manifest);

  if (show_suppressions) {
    std::vector<std::string> files;
    files.push_back(manifest.wire.header);
    for (const qopt::proto::ComponentSpec& c : manifest.components) {
      for (const char* ext : {".hpp", ".h", ".cpp", ".cc"}) {
        files.push_back(c.path + ext);
      }
    }
    for (const std::string& rel : files) {
      const std::string full =
          root.empty() || root == "." ? rel : root + "/" + rel;
      for (qopt::analysis::Suppression s :
           qopt::analysis::file_suppressions(qopt::proto::kTool, full)) {
        s.file = rel;
        std::printf("%s\n", qopt::analysis::format_suppression(s).c_str());
      }
    }
  }

  for (const qopt::proto::Finding& finding : findings) {
    std::printf("%s\n", qopt::analysis::format_finding(finding).c_str());
  }
  if (!findings.empty()) {
    std::fprintf(stderr, "qopt-proto: %zu finding(s)\n", findings.size());
    return 1;
  }
  std::fprintf(stderr, "qopt-proto: protocol conformance ok (%zu message(s),"
               " %zu component(s))\n",
               manifest.messages.size(), manifest.components.size());
  return 0;
}
