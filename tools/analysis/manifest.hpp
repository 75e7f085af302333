// Shared reader for the TOML subset the analyzers' manifests are written in
// (docs/ARCHITECTURE.toml, docs/HOT_PATHS.toml, docs/PROTOCOL.toml):
//
//   # comment                 anywhere outside a string
//   [name]  [prefix.name]     table headers
//   key = "string"            no escapes: a string ends at the next `"`
//   key = true | false
//   key = ["a", "b", ...]     strings only; may span lines, trailing comma
//                             and comments allowed
//
// The reader knows no schema. It returns the tables in file order, and each
// tool walks them (read_table) to decide which tables, keys and value types
// it accepts. Every problem is a `manifest` finding.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "analysis/source.hpp"

namespace qopt::analysis {

struct ManifestEntry {
  std::string key;
  std::size_t line = 0;
  std::variant<std::string, bool, std::vector<std::string>> value;
};

struct ManifestTable {
  /// Without the brackets. Empty for entries before the first header and
  /// after a malformed one: such entries belong to no table.
  std::string name;
  std::size_t line = 0;  // header line
  std::vector<ManifestEntry> entries;
};

struct ManifestDoc {
  std::vector<ManifestTable> tables;  // file order
  std::vector<Finding> errors;        // rule "manifest"
};

/// Lexes `text`; `path` is used for reporting only.
ManifestDoc read_manifest(const std::string& path, const std::string& text);

/// Where an accepted key's value is stored; the pointee type is the only
/// value type the key accepts.
using ManifestSlot =
    std::variant<std::string*, bool*, std::vector<std::string>*>;

/// Stores each entry of `table` into the slot its key names. A key with no
/// slot, or a value of the wrong type, is a `manifest` finding.
void read_table(const std::string& path, const ManifestTable& table,
                const std::map<std::string, ManifestSlot>& slots,
                std::vector<Finding>& errors);

/// Reports a table the schema does not know (`expected` lists the ones it
/// does) and every entry in it as an unknown key.
void reject_table(const std::string& path, const ManifestTable& table,
                  const std::string& expected, std::vector<Finding>& errors);

/// Reads `path` and hands its text to the tool's `parse`. An unreadable
/// file yields a manifest holding only the "cannot read manifest" finding.
template <typename Manifest>
Manifest load_manifest(const std::string& path,
                       Manifest (*parse)(const std::string&,
                                         const std::string&)) {
  std::string text;
  if (read_file(path, text)) return parse(path, text);
  Manifest m;
  m.path = path;
  m.errors.push_back({path, 0, "manifest", "cannot read manifest"});
  return m;
}

}  // namespace qopt::analysis
