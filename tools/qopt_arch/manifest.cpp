#include <string>
#include <vector>

#include "analysis/manifest.hpp"
#include "qopt_arch/arch.hpp"

namespace qopt::arch {

Manifest parse_manifest(const std::string& path, const std::string& text) {
  analysis::ManifestDoc doc = analysis::read_manifest(path, text);
  Manifest m;
  m.path = path;
  m.errors = std::move(doc.errors);
  for (const analysis::ManifestTable& table : doc.tables) {
    if (table.name == "layers") {
      analysis::read_table(path, table, {{"order", &m.order}}, m.errors);
    } else if (table.name.starts_with("modules.")) {
      // Declared even with no deps line; repeated deps lines add up.
      auto& deps = m.deps[table.name.substr(8)];
      for (const analysis::ManifestEntry& entry : table.entries) {
        std::vector<std::string> items;
        analysis::read_table(path, {table.name, table.line, {entry}},
                             {{"deps", &items}}, m.errors);
        deps.insert(items.begin(), items.end());
      }
    } else {
      analysis::reject_table(path, table,
                             "[layers] or [modules.<name>]", m.errors);
    }
  }
  return m;
}

Manifest load_manifest(const std::string& path) {
  return analysis::load_manifest(path, parse_manifest);
}

}  // namespace qopt::arch
