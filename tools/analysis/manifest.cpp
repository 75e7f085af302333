#include "analysis/manifest.hpp"

#include <cctype>
#include <optional>
#include <type_traits>

namespace qopt::analysis {

namespace {

std::string trimmed(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string without_comment(const std::string& line) {
  // `#` starts a comment anywhere outside a quoted string.
  bool in_string = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    if (line[i] == '"') in_string = !in_string;
    if (line[i] == '#' && !in_string) return line.substr(0, i);
  }
  return line;
}

/// True when a dotted table name has an empty part: `[]`, `[modules.]`.
bool has_empty_part(const std::string& name) {
  return name.empty() || name.front() == '.' || name.back() == '.' ||
         name.find("..") != std::string::npos;
}

template <typename T>
const char* type_name() {
  if constexpr (std::is_same_v<T, std::string>) {
    return "a string";
  } else if constexpr (std::is_same_v<T, bool>) {
    return "a boolean";
  } else {
    return "an array";
  }
}

}  // namespace

ManifestDoc read_manifest(const std::string& path, const std::string& text) {
  constexpr std::size_t npos = std::string::npos;
  ManifestDoc doc;
  const auto error = [&](std::size_t line, const std::string& message) {
    doc.errors.push_back({path, line, "manifest", message});
  };
  // Appends a complete entry; `rest` is what its line holds after the value.
  const auto add = [&](ManifestEntry&& entry, std::size_t line,
                       const std::string& rest) {
    const std::string tail = trimmed(rest);
    if (!tail.empty()) {
      error(line, "unexpected text after the value of `" + entry.key +
                      "`: `" + tail + "`");
    }
    if (doc.tables.empty()) doc.tables.emplace_back();
    doc.tables.back().entries.push_back(std::move(entry));
  };

  // The array value still open at the end of a line, if any.
  std::optional<ManifestEntry> array;
  // Reads items from `line` starting at `pos`. Returns the offset one past
  // the closing `]`, or npos when the array goes on to the next line.
  const auto read_items = [&](const std::string& line, std::size_t pos,
                              std::size_t lineno) {
    auto& items = std::get<std::vector<std::string>>(array->value);
    while (pos < line.size()) {
      const char c = line[pos];
      if (c == ']') return pos + 1;
      if (std::isspace(static_cast<unsigned char>(c)) || c == ',') {
        ++pos;
        continue;
      }
      const std::size_t close = c == '"' ? line.find('"', pos + 1) : npos;
      if (close != npos) {
        items.push_back(line.substr(pos + 1, close - pos - 1));
        pos = close + 1;
        continue;
      }
      error(lineno, c == '"' ? "unterminated string in array"
                             : "expected a double-quoted string in array, "
                               "got `" + std::string(1, c) + "`");
      // Resume after the next `]` on this line; without one the array stays
      // open.
      const std::size_t end = line.find(']', pos);
      return end == npos ? npos : end + 1;
    }
    return npos;
  };
  const auto close_array = [&](const std::string& line, std::size_t rest,
                               std::size_t lineno) {
    if (rest == npos) return;
    add(std::move(*array), lineno, line.substr(rest));
    array.reset();
  };

  const std::vector<std::string> lines = split_lines(text);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::size_t lineno = i + 1;
    const std::string line = trimmed(without_comment(lines[i]));
    if (line.empty()) continue;

    if (array) {
      close_array(line, read_items(line, 0, lineno), lineno);
      continue;
    }

    if (line.front() == '[') {
      ManifestTable& table = doc.tables.emplace_back();
      table.line = lineno;
      if (line.size() < 2 || line.back() != ']') {
        error(lineno, "unterminated table header `" + line + "`");
      } else if (has_empty_part(line.substr(1, line.size() - 2))) {
        error(lineno, "empty name in table header `" + line + "`");
      } else {
        table.name = line.substr(1, line.size() - 2);
      }
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == npos) {
      error(lineno, "expected `key = ...`: `" + line + "`");
      continue;
    }
    ManifestEntry entry{trimmed(line.substr(0, eq)), lineno, {}};
    const std::string value = trimmed(line.substr(eq + 1));
    if (value.starts_with('[')) {
      entry.value = std::vector<std::string>{};
      array = std::move(entry);
      close_array(value, read_items(value, 1, lineno), lineno);
      continue;
    }
    std::size_t rest = 0;
    if (value.starts_with('"')) {
      rest = value.find('"', 1);
      if (rest == npos) {
        error(lineno, "unterminated string for `" + entry.key + "`");
        continue;
      }
      entry.value = value.substr(1, rest - 1);
      ++rest;
    } else {
      while (rest < value.size() && is_ident_char(value[rest])) ++rest;
      const std::string word = value.substr(0, rest);
      if (word != "true" && word != "false") {
        error(lineno, "value of `" + entry.key +
                          "` must be a string, boolean, or array");
        continue;
      }
      entry.value = word == "true";
    }
    add(std::move(entry), lineno, value.substr(rest));
  }
  if (array) {
    error(array->line, "unterminated array for `" + array->key + "`");
  }
  return doc;
}

void read_table(const std::string& path, const ManifestTable& table,
                const std::map<std::string, ManifestSlot>& slots,
                std::vector<Finding>& errors) {
  for (const ManifestEntry& entry : table.entries) {
    const auto slot = slots.find(entry.key);
    if (slot == slots.end()) {
      errors.push_back({path, entry.line, "manifest",
                        "unknown key `" + entry.key + "` in this section"});
      continue;
    }
    std::visit(
        [&](auto* target) {
          using T = std::remove_pointer_t<decltype(target)>;
          if (const T* value = std::get_if<T>(&entry.value)) {
            *target = *value;
            return;
          }
          errors.push_back({path, entry.line, "manifest",
                            "value of `" + entry.key + "` must be " +
                                type_name<T>()});
        },
        slot->second);
  }
}

void reject_table(const std::string& path, const ManifestTable& table,
                  const std::string& expected, std::vector<Finding>& errors) {
  if (!table.name.empty()) {
    errors.push_back({path, table.line, "manifest",
                      "unknown section `[" + table.name + "]` (expected " +
                          expected + ")"});
  }
  read_table(path, table, {}, errors);
}

}  // namespace qopt::analysis
