#include "qopt_lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "analysis/source.hpp"
#include "analysis/suppress.hpp"

namespace qopt::lint {

namespace {

using analysis::allowed;
using analysis::Annotations;
using analysis::identifiers_in;
using analysis::is_ident_char;
using analysis::line_of_offset;
using analysis::match_angle_brackets;
using analysis::read_identifier;
using analysis::split_lines;
using analysis::strip_comments_and_literals;

// ------------------------------------------------------------- the rules

void check_wall_clock(const std::string& path, const std::string& stripped,
                      const Annotations& ann,
                      std::vector<Finding>& findings) {
  // All randomness and time in src/util/rng is *sourcing* the deterministic
  // streams; the checker itself is exempt there.
  if (path.find("src/util/rng") != std::string::npos) return;
  struct Pattern {
    std::regex re;
    const char* what;
  };
  static const std::vector<Pattern> patterns = {
      {std::regex(R"((^|[^\w])(std\s*::\s*)?(chrono\s*::\s*)?)"
                  R"((system_clock|steady_clock|high_resolution_clock)\b)"),
       "wall-clock source; use the simulator's virtual clock (qopt::Time)"},
      {std::regex(R"((^|[^\w])(std\s*::\s*)?random_device\b)"),
       "ambient randomness; seed a qopt::Rng instead"},
      {std::regex(
           R"((^|[^\w])(srand|gettimeofday|clock_gettime|timespec_get|localtime|gmtime|mktime|strftime)\s*\()"),
       "wall-clock/libc randomness API; use qopt::Rng / virtual time"},
      {std::regex(R"((^|[^\w])rand\s*\(\s*\))"),
       "rand() is non-deterministic across platforms; use qopt::Rng"},
      {std::regex(R"((^|[^.\w])(std\s*::\s*)?time\s*\(\s*(nullptr|NULL|0|\)))"),
       "time() reads the wall clock; use the simulator's virtual clock"},
  };
  const std::vector<std::string> lines = split_lines(stripped);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::size_t lineno = i + 1;
    for (const Pattern& pattern : patterns) {
      if (std::regex_search(lines[i], pattern.re)) {
        if (!allowed(ann, lineno, "wall-clock")) {
          findings.push_back({path, lineno, "wall-clock", pattern.what});
        }
        break;
      }
    }
  }
}

/// Names declared with an unordered type in `stripped` — variables, data
/// members, and functions returning (references to) unordered containers.
void collect_unordered_names(const std::string& stripped,
                             std::set<std::string>& unordered_names) {
  for (const char* token : {"unordered_map", "unordered_set",
                            "unordered_multimap", "unordered_multiset"}) {
    const std::string needle = token;
    std::size_t pos = 0;
    while ((pos = stripped.find(needle, pos)) != std::string::npos) {
      const std::size_t end = pos + needle.size();
      if ((pos > 0 && is_ident_char(stripped[pos - 1])) ||
          (end < stripped.size() && is_ident_char(stripped[end]))) {
        pos = end;
        continue;  // substring of a longer identifier
      }
      std::size_t after = end;
      while (after < stripped.size() &&
             std::isspace(static_cast<unsigned char>(stripped[after]))) {
        ++after;
      }
      if (after < stripped.size() && stripped[after] == '<') {
        const std::size_t close = match_angle_brackets(stripped, after);
        if (close != std::string::npos) {
          std::size_t cursor = close;
          const std::string name = read_identifier(stripped, cursor);
          if (!name.empty()) unordered_names.insert(name);
        }
      }
      pos = end;
    }
  }
}

void check_unordered_iter(const std::string& path,
                          const std::string& stripped,
                          const std::string& header_stripped,
                          const Annotations& ann,
                          std::vector<Finding>& findings) {
  // Pass 1: unordered declarations from this file and its companion header
  // (members are declared in the .hpp but iterated in the .cpp).
  std::set<std::string> unordered_names;
  collect_unordered_names(stripped, unordered_names);
  collect_unordered_names(header_stripped, unordered_names);
  if (unordered_names.empty()) return;

  // Pass 2: `for` statements whose header mentions one of those names —
  // range-fors over the container, and iterator loops via .begin()/.end().
  std::size_t pos = 0;
  while ((pos = stripped.find("for", pos)) != std::string::npos) {
    if ((pos > 0 && is_ident_char(stripped[pos - 1])) ||
        (pos + 3 < stripped.size() && is_ident_char(stripped[pos + 3]))) {
      pos += 3;
      continue;
    }
    std::size_t open = pos + 3;
    while (open < stripped.size() &&
           std::isspace(static_cast<unsigned char>(stripped[open]))) {
      ++open;
    }
    if (open >= stripped.size() || stripped[open] != '(') {
      pos += 3;
      continue;
    }
    int depth = 0;
    std::size_t close = open;
    std::size_t colon = std::string::npos;
    bool classic = false;
    for (std::size_t i = open; i < stripped.size(); ++i) {
      const char c = stripped[i];
      if (c == '(') {
        ++depth;
      } else if (c == ')') {
        if (--depth == 0) {
          close = i;
          break;
        }
      } else if (depth == 1 && c == ';') {
        classic = true;
      } else if (depth == 1 && c == ':' && colon == std::string::npos &&
                 !classic && (i == 0 || stripped[i - 1] != ':') &&
                 (i + 1 >= stripped.size() || stripped[i + 1] != ':')) {
        colon = i;
      }
    }
    if (close == open) break;  // unbalanced; stop scanning
    const std::size_t lineno = line_of_offset(stripped, pos);
    std::string range_expr;
    if (!classic && colon != std::string::npos) {
      range_expr = stripped.substr(colon + 1, close - colon - 1);
    } else if (classic) {
      // Iterator loop: only flag when the header walks the container.
      const std::string header = stripped.substr(open, close - open + 1);
      if (header.find(".begin") != std::string::npos ||
          header.find("->begin") != std::string::npos ||
          header.find("cbegin") != std::string::npos) {
        range_expr = header;
      }
    }
    if (!range_expr.empty()) {
      for (const std::string& ident : identifiers_in(range_expr)) {
        if (unordered_names.count(ident) > 0) {
          if (!allowed(ann, lineno, "unordered-iter")) {
            findings.push_back(
                {path, lineno, "unordered-iter",
                 "iteration over unordered container `" + ident +
                     "`: hash order is implementation-defined and breaks "
                     "same-seed determinism; iterate a std::map or a "
                     "sorted-key snapshot instead"});
          }
          break;
        }
      }
    }
    pos = close;
  }
}

void check_pointer_key(const std::string& path, const std::string& stripped,
                       const Annotations& ann,
                       std::vector<Finding>& findings) {
  for (const char* token : {"map", "set", "multimap", "multiset"}) {
    const std::string needle = token;
    std::size_t pos = 0;
    while ((pos = stripped.find(needle, pos)) != std::string::npos) {
      const std::size_t end = pos + needle.size();
      if ((pos > 0 && is_ident_char(stripped[pos - 1])) ||
          (end < stripped.size() && is_ident_char(stripped[end]))) {
        pos = end;
        continue;  // unordered_map, bitset, reset(), ...
      }
      std::size_t after = end;
      while (after < stripped.size() &&
             std::isspace(static_cast<unsigned char>(stripped[after]))) {
        ++after;
      }
      if (after >= stripped.size() || stripped[after] != '<') {
        pos = end;
        continue;
      }
      const std::size_t close = match_angle_brackets(stripped, after);
      if (close == std::string::npos) {
        pos = end;
        continue;
      }
      // First template argument: up to a top-level comma (or the end).
      int depth = 0;
      std::size_t key_end = close - 1;
      for (std::size_t i = after; i < close; ++i) {
        if (stripped[i] == '<' || stripped[i] == '(') ++depth;
        if (stripped[i] == '>' || stripped[i] == ')') --depth;
        if (stripped[i] == ',' && depth == 1) {
          key_end = i;
          break;
        }
      }
      std::string key = stripped.substr(after + 1, key_end - after - 1);
      while (!key.empty() &&
             std::isspace(static_cast<unsigned char>(key.back()))) {
        key.pop_back();
      }
      if (!key.empty() && key.back() == '*') {
        const std::size_t lineno = line_of_offset(stripped, pos);
        if (!allowed(ann, lineno, "pointer-key")) {
          findings.push_back(
              {path, lineno, "pointer-key",
               "ordered container keyed by a pointer (`" + key +
                   "`): address order differs run to run; key by a stable "
                   "id instead"});
        }
      }
      pos = close;
    }
  }
}

void check_quorum_literal(const std::string& path,
                          const std::string& stripped,
                          const Annotations& ann,
                          std::vector<Finding>& findings) {
  // All three blessed spellings of a literal quorum configuration are held
  // to the same invariants: the legacy aggregate, the named QuorumConfig
  // factory, and the majority-strategy factory (whose third argument, when
  // a positive literal, supplies n inline — no annotation needed).
  static const std::regex literal_re(
      R"(QuorumConfig\s*([A-Za-z_]\w*\s*)?\{\s*(-?\d+)\s*,\s*(-?\d+)\s*\})");
  static const std::regex of_re(
      R"(QuorumConfig::of\s*\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\))");
  static const std::regex majority_re(
      R"(QuorumStrategy::majority\s*\(\s*(-?\d+)\s*,\s*(-?\d+)\s*(?:,\s*(-?\d+)\s*)?\))");

  struct Literal {
    std::string spelling;
    int r = 0;
    int w = 0;
    int n = 0;  // 0 = not given inline; fall back to the annotation
  };

  const std::vector<std::string> lines = split_lines(stripped);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::size_t lineno = i + 1;
    std::vector<Literal> found;
    // `base` is the capture group holding r; w follows it, an inline n (the
    // factory regex only) follows w.
    const auto scan = [&](const std::regex& re, const char* name,
                          std::size_t base, bool braces) {
      auto begin = std::sregex_iterator(lines[i].begin(), lines[i].end(), re);
      for (auto it = begin; it != std::sregex_iterator(); ++it) {
        Literal lit;
        lit.r = std::stoi((*it)[base].str());
        lit.w = std::stoi((*it)[base + 1].str());
        if (base + 2 <= it->size() - 1 && (*it)[base + 2].matched) {
          lit.n = std::stoi((*it)[base + 2].str());
        }
        const std::string args =
            std::to_string(lit.r) + ", " + std::to_string(lit.w) +
            (lit.n != 0 ? ", " + std::to_string(lit.n) : "");
        lit.spelling = braces ? std::string(name) + "{" + args + "}"
                              : std::string(name) + "(" + args + ")";
        found.push_back(std::move(lit));
      }
    };
    scan(literal_re, "QuorumConfig", 2, /*braces=*/true);
    scan(of_re, "QuorumConfig::of", 1, /*braces=*/false);
    scan(majority_re, "QuorumStrategy::majority", 1, /*braces=*/false);

    for (const Literal& lit : found) {
      if (allowed(ann, lineno, "quorum-literal")) continue;
      if (lit.r < 1 || lit.w < 1) {
        findings.push_back(
            {path, lineno, "quorum-literal",
             lit.spelling + ": quorum sizes must be >= 1 (encode 'no "
                            "quorum' as std::optional, not a {0,0} "
                            "sentinel)"});
        continue;
      }
      int n = lit.n;
      if (n == 0) {
        const auto n_it = ann.quorum_n.find(lineno);
        if (n_it != ann.quorum_n.end()) n = n_it->second;
      }
      if (n > 0 && (lit.r + lit.w <= n || lit.r > n || lit.w > n)) {
        findings.push_back(
            {path, lineno, "quorum-literal",
             lit.spelling + " violates the strict-quorum invariant for n=" +
                 std::to_string(n) + " (need r + w > n with r, w <= n)"});
      }
    }
  }
}

}  // namespace

std::vector<Finding> lint_source(const std::string& path,
                                 const std::string& source,
                                 const std::string& header_source) {
  std::vector<Finding> findings;
  const std::vector<std::string> raw_lines = split_lines(source);
  Annotations ann = analysis::scan_annotations(kTool, path, raw_lines);
  findings.insert(findings.end(), ann.findings.begin(), ann.findings.end());
  const std::string stripped = strip_comments_and_literals(source);
  const std::string header_stripped =
      header_source.empty() ? std::string{}
                            : strip_comments_and_literals(header_source);
  check_wall_clock(path, stripped, ann, findings);
  check_unordered_iter(path, stripped, header_stripped, ann, findings);
  check_pointer_key(path, stripped, ann, findings);
  check_quorum_literal(path, stripped, ann, findings);
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return findings;
}

std::vector<Finding> lint_file(const std::string& path) {
  std::string source;
  if (!analysis::read_file(path, source)) {
    return {{path, 0, "io", "cannot read file"}};
  }
  return lint_source(path, source, analysis::companion_header_source(path));
}

}  // namespace qopt::lint
