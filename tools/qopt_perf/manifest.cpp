#include <string>

#include "analysis/manifest.hpp"
#include "qopt_perf/perf.hpp"

namespace qopt::perf {

Manifest parse_manifest(const std::string& path, const std::string& text) {
  analysis::ManifestDoc doc = analysis::read_manifest(path, text);
  Manifest m;
  m.path = path;
  m.errors = std::move(doc.errors);
  for (const analysis::ManifestTable& table : doc.tables) {
    if (table.name == "messages") {
      analysis::read_table(path, table, {{"types", &m.message_types}},
                           m.errors);
    } else if (table.name.starts_with("regions.")) {
      HotRegion& region = m.regions.emplace_back();
      region.name = table.name.substr(8);
      analysis::read_table(
          path, table,
          {{"path", &region.path}, {"functions", &region.functions}},
          m.errors);
    } else {
      analysis::reject_table(path, table,
                             "[regions.<name>] or [messages]", m.errors);
    }
  }
  for (const HotRegion& r : m.regions) {
    if (r.path.empty()) {
      m.errors.push_back({path, 0, "manifest",
                          "region `" + r.name + "` has no `path` key"});
    }
  }
  return m;
}

Manifest load_manifest(const std::string& path) {
  return analysis::load_manifest(path, parse_manifest);
}

}  // namespace qopt::perf
