// qopt-proto — wire-protocol conformance analyzer.
//
// A token-level source scanner (no LLVM dependency, shared tools/analysis
// framework) that checks the tree against the committed protocol manifest
// docs/PROTOCOL.toml: every message struct in src/kv/wire.hpp, its ordered
// field list and evolution flags, and the handler entry point that consumes
// it in each component. Unlike qopt_lint/qopt_perf the scan is
// manifest-driven, not directory-driven: the files to inspect (the wire
// header and each component's sources) are named by the manifest itself.
//
//   append-only-evolution  the committed field list must be a *prefix* of
//                          the struct's current fields: reordering, removal,
//                          or mid-struct insertion fails; appended fields
//                          must be recorded in the manifest in the same
//                          diff. The committed std::variant alternative
//                          list pins the tag order identically. Versioned
//                          messages must keep their version field last and
//                          their handler must compare it (drop-from-the-
//                          future, never half-adopt).
//   handler-exhaustive     every message routed to a component has a
//                          token-level-located handler *body* in that
//                          component's files; the component's dispatch
//                          function mentions every routed message type and
//                          handler, and handles no type the manifest does
//                          not route to it.
//   epoch-guard            the handler of a message with an `epoch` key
//                          compares that generation field (epno / cfno /
//                          round) — the half-adopted-config bug class.
//   dedup-before-apply     the handler of an `at_least_once` message
//                          consults the declared dedup structure before
//                          apply; an at-least-once message with no declared
//                          dedup structure is itself a finding.
//   span-propagation       a `span = true` message carries an
//                          obs::SpanContext field named `span` and its
//                          handler forwards it.
//   bare-allow             a `// qopt-proto: allow(<rule>)` suppression
//                          without a justification (shared grammar).
//
// Suppression: `// qopt-proto: allow(<rule>) <justification>` disables
// <rule> on its own line and the next line of the *source* file a finding
// anchors to (wire header or component file). Manifest-anchored findings
// (rule `manifest`, unrecorded structs) cannot be suppressed: the manifest
// must be fixed, not excused.
#pragma once

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "analysis/source.hpp"

namespace qopt::proto {

using Finding = qopt::analysis::Finding;

/// Tag of this tool's suppression comments and summary lines.
inline constexpr const char* kTool = "qopt-proto";

// ------------------------------------------------------------- manifest

/// The `[wire]` section: where the protocol lives.
struct WireSpec {
  std::string header;   // repo-relative path of the wire header
  std::string variant;  // name of the message variant alias ("Message")
  std::vector<std::string> alternatives;  // committed tag order
};

/// One `[components.<name>]` section.
struct ComponentSpec {
  std::string name;
  std::string path;      // repo-relative file-stem prefix (.hpp/.cpp pair)
  std::string dispatch;  // inbound dispatch function; empty = no wire inbox
  std::size_t line = 0;  // manifest line of the section header
};

/// One `[messages.<name>]` section.
struct MessageSpec {
  std::string name;
  std::string from;     // sending component (documentation)
  std::string to;       // consuming component; empty = payload helper
  std::string handler;  // handler function in the consuming component
  std::vector<std::string> fields;  // committed ordered field list
  bool versioned = false;
  bool at_least_once = false;
  bool span = false;
  std::string epoch;  // generation field the handler must compare
  std::string dedup;  // dedup structure the handler must consult
  std::size_t line = 0;  // manifest line of the section header
};

struct Manifest {
  std::string path;
  WireSpec wire;
  std::vector<ComponentSpec> components;
  std::vector<MessageSpec> messages;
  std::vector<Finding> errors;  // rule "manifest"
};

/// Reads docs/PROTOCOL.toml (grammar: analysis/manifest.hpp): `[wire]`,
/// `[components.<name>]`, and `[messages.<name>]` tables with string,
/// boolean, and string-array values. Errors land in `errors`.
Manifest parse_manifest(const std::string& path, const std::string& text);

/// Reads and parses a manifest file; a read failure is a `manifest` error.
Manifest load_manifest(const std::string& path);

// ---------------------------------------------------------- wire header

/// One message struct parsed out of the wire header.
struct WireStruct {
  std::string name;
  std::size_t line = 0;  // line of the struct keyword
  std::vector<std::string> fields;  // declaration order
};

/// Token-level parse of the wire header: every `struct` definition with its
/// ordered data members (member functions, `using`, and `static` members
/// are skipped), plus the message variant's alternative list.
struct WireHeader {
  std::vector<WireStruct> structs;
  std::vector<std::string> alternatives;  // actual variant order
  std::size_t variant_line = 0;           // 0 when the variant is absent
};

/// Parses a comment/literal-stripped wire header. `variant` names the
/// `using <variant> = std::variant<...>` alias to read the tag order from.
WireHeader parse_wire_header(const std::string& stripped,
                             const std::string& variant);

// ---------------------------------------------------------------- rules

/// The proto rules in report order (excludes the shared `bare-allow`).
const std::vector<std::string>& rule_names();

struct Options {
  /// Rules to skip — the delete-one-rule negative test proves each rule is
  /// load-bearing by disabling it and watching its fixture go clean.
  std::set<std::string> disabled_rules;
};

/// Runs the whole conformance check: loads the wire header and every
/// component's sources under `root` and checks them against the manifest.
std::vector<Finding> analyze_tree(const std::string& root,
                                  const Manifest& manifest,
                                  const Options& options = {});

/// Normalized `Name: field field ...` inventory of the *current* wire
/// header (one line per struct, sorted; the variant order last). CI diffs
/// this against dump_manifest() — append-only evolution means the two are
/// identical whenever the manifest is in sync.
std::string dump_wire(const WireHeader& header, const std::string& variant);

/// The same normalized inventory generated from the committed manifest.
std::string dump_manifest(const Manifest& manifest);

}  // namespace qopt::proto
