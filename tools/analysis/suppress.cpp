#include "analysis/suppress.hpp"

#include <regex>

namespace qopt::analysis {

std::string format_suppression(const Suppression& s) {
  return s.tool + ":" + s.rule + ":" + s.file + ":" + std::to_string(s.line) +
         ": " + s.justification;
}

Annotations scan_annotations(const std::string& tool, const std::string& path,
                             const std::vector<std::string>& lines) {
  Annotations out;
  const std::regex allow_re(tool +
                            R"(:\s*allow\(([A-Za-z0-9_-]+)\)(.*))");
  const std::regex quorum_re(tool + R"(:\s*quorum\(n\s*=\s*(\d+)\))");
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::size_t lineno = i + 1;
    std::smatch m;
    if (std::regex_search(lines[i], m, allow_re)) {
      std::string justification = m[2].str();
      // Strip leading punctuation/space; anything left is a justification.
      const auto first = justification.find_first_not_of(" \t:—-");
      if (first == std::string::npos) {
        out.findings.push_back(
            {path, lineno, "bare-allow",
             "allow(" + m[1].str() +
                 ") without a justification; write `// " + tool + ": allow(" +
                 m[1].str() + ") <why this is safe>`"});
      } else {
        // The suppression covers its own line and the next one, so it can
        // sit on a comment line above the code it exempts.
        out.allows[lineno].insert(m[1].str());
        out.allows[lineno + 1].insert(m[1].str());
        out.suppressions.push_back(
            {tool, m[1].str(), path, lineno, justification.substr(first)});
      }
    }
    if (std::regex_search(lines[i], m, quorum_re)) {
      out.quorum_n[lineno] = std::stoi(m[1].str());
      out.quorum_n[lineno + 1] = out.quorum_n[lineno];
      out.suppressions.push_back(
          {tool, "quorum", path, lineno, "n=" + m[1].str()});
    }
  }
  return out;
}

std::vector<Suppression> file_suppressions(const std::string& tool,
                                           const std::string& path) {
  std::string source;
  if (!read_file(path, source)) return {};
  return scan_annotations(tool, path, split_lines(source)).suppressions;
}

bool allowed(const Annotations& ann, std::size_t line,
             const std::string& rule) {
  auto it = ann.allows.find(line);
  return it != ann.allows.end() && it->second.count(rule) > 0;
}

}  // namespace qopt::analysis
