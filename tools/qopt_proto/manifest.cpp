#include <set>
#include <string>

#include "analysis/manifest.hpp"
#include "qopt_proto/proto.hpp"

namespace qopt::proto {

Manifest parse_manifest(const std::string& path, const std::string& text) {
  analysis::ManifestDoc doc = analysis::read_manifest(path, text);
  Manifest m;
  m.path = path;
  m.errors = std::move(doc.errors);
  for (const analysis::ManifestTable& table : doc.tables) {
    if (table.name == "wire") {
      analysis::read_table(path, table,
                           {{"header", &m.wire.header},
                            {"variant", &m.wire.variant},
                            {"alternatives", &m.wire.alternatives}},
                           m.errors);
    } else if (table.name.starts_with("components.")) {
      ComponentSpec& c = m.components.emplace_back();
      c.name = table.name.substr(11);
      c.line = table.line;
      analysis::read_table(path, table,
                           {{"path", &c.path}, {"dispatch", &c.dispatch}},
                           m.errors);
    } else if (table.name.starts_with("messages.")) {
      MessageSpec& msg = m.messages.emplace_back();
      msg.name = table.name.substr(9);
      msg.line = table.line;
      analysis::read_table(path, table,
                           {{"from", &msg.from},
                            {"to", &msg.to},
                            {"handler", &msg.handler},
                            {"fields", &msg.fields},
                            {"versioned", &msg.versioned},
                            {"at_least_once", &msg.at_least_once},
                            {"span", &msg.span},
                            {"epoch", &msg.epoch},
                            {"dedup", &msg.dedup}},
                           m.errors);
    } else {
      analysis::reject_table(path, table,
                             "[wire], [components.<name>], or "
                             "[messages.<Name>]",
                             m.errors);
    }
  }

  // ------------------------------------------------- cross-key validation
  if (m.wire.header.empty()) {
    m.errors.push_back(
        {path, 0, "manifest", "[wire] section has no `header` key"});
  }
  if (m.wire.variant.empty()) {
    m.errors.push_back(
        {path, 0, "manifest", "[wire] section has no `variant` key"});
  }
  std::set<std::string> component_names;
  for (const ComponentSpec& c : m.components) {
    if (!component_names.insert(c.name).second) {
      m.errors.push_back({path, c.line, "manifest",
                          "duplicate component `" + c.name + "`"});
    }
    if (c.path.empty()) {
      m.errors.push_back({path, c.line, "manifest",
                          "component `" + c.name + "` has no `path` key"});
    }
  }
  std::set<std::string> message_names;
  for (const MessageSpec& msg : m.messages) {
    if (!message_names.insert(msg.name).second) {
      m.errors.push_back({path, msg.line, "manifest",
                          "duplicate message `" + msg.name + "`"});
    }
    if (msg.to.empty() != msg.handler.empty()) {
      m.errors.push_back({path, msg.line, "manifest",
                          "message `" + msg.name +
                              "` must set `to` and `handler` together"});
    }
    if (!msg.to.empty() && !component_names.contains(msg.to)) {
      m.errors.push_back({path, msg.line, "manifest",
                          "message `" + msg.name + "` routes to unknown "
                          "component `" + msg.to + "`"});
    }
    if (!msg.from.empty() && msg.from != "client" &&
        !component_names.contains(msg.from)) {
      m.errors.push_back({path, msg.line, "manifest",
                          "message `" + msg.name + "` sent from unknown "
                          "component `" + msg.from + "`"});
    }
    if (msg.fields.empty()) {
      m.errors.push_back({path, msg.line, "manifest",
                          "message `" + msg.name + "` has no `fields` list"});
    }
  }
  return m;
}

Manifest load_manifest(const std::string& path) {
  return analysis::load_manifest(path, parse_manifest);
}

}  // namespace qopt::proto
