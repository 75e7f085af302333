#include "analysis/source.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace qopt::analysis {

std::string format_finding(const Finding& finding) {
  return finding.file + ":" + std::to_string(finding.line) + ": [" +
         finding.rule + "] " + finding.message;
}

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

namespace {

/// True when the identifier characters ending at `quote` (exclusive) form a
/// raw-string prefix: R, uR, u8R, UR, or LR — and nothing longer. `FOOR"x"`
/// is an identifier next to a plain string, not a raw literal.
bool is_raw_string_prefix(const std::string& src, std::size_t quote) {
  std::size_t start = quote;
  while (start > 0 && is_ident_char(src[start - 1])) --start;
  const std::string prefix = src.substr(start, quote - start);
  return prefix == "R" || prefix == "uR" || prefix == "u8R" ||
         prefix == "UR" || prefix == "LR";
}

/// For a raw string opening at `quote` (the '"'), finds the '(' that ends
/// the d-char sequence. Returns npos when the text is not a well-formed raw
/// string opener: delimiter longer than 16 chars, or containing characters
/// the grammar forbids (space, parens, backslash, control characters).
std::size_t raw_delimiter_paren(const std::string& src, std::size_t quote) {
  const std::size_t limit = std::min(src.size(), quote + 18);  // " + 16 + (
  for (std::size_t i = quote + 1; i < limit; ++i) {
    const char c = src[i];
    if (c == '(') return i;
    const bool forbidden = c == ')' || c == '\\' || c == '"' ||
                           std::isspace(static_cast<unsigned char>(c)) ||
                           !std::isprint(static_cast<unsigned char>(c));
    if (forbidden) return std::string::npos;
  }
  return std::string::npos;
}

}  // namespace

std::string strip_comments_and_literals(const std::string& src) {
  std::string out = src;
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  for (std::size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    const char next = i + 1 < src.size() ? src[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          // Raw strings: skip to the matching `)delim"` without escape
          // handling. Only a genuine opener counts — the `"` must follow a
          // raw-string prefix (R/uR/u8R/UR/LR, not a longer identifier) and
          // the d-char sequence must be well-formed (<= 16 legal chars
          // before a '('). Anything else falls through to the ordinary
          // string state; the old unbounded `find('(')` let look-alikes
          // like `R"abc";` blank the rest of the file.
          if (i > 0 && src[i - 1] == 'R' && is_raw_string_prefix(src, i)) {
            const std::size_t paren = raw_delimiter_paren(src, i);
            if (paren != std::string::npos) {
              const std::string delim =
                  ")" + src.substr(i + 1, paren - i - 1) + "\"";
              std::size_t end = src.find(delim, paren);
              if (end == std::string::npos) end = src.size();
              for (std::size_t j = i + 1;
                   j < std::min(end + delim.size() - 1, src.size()); ++j) {
                if (out[j] != '\n') out[j] = ' ';
              }
              i = std::min(end + delim.size() - 1, src.size() - 1);
              break;
            }
          }
          state = State::kString;
        } else if (c == '\'') {
          // Digit separator (8'000), not a char literal: an alnum on both
          // sides. (A prefixed literal like u8'1' would be misread, but the
          // tree has none and the lint rules only ever *ignore* more text.)
          const bool separator =
              i > 0 && std::isalnum(static_cast<unsigned char>(src[i - 1])) &&
              std::isalnum(static_cast<unsigned char>(next));
          if (!separator) state = State::kChar;
        }
        break;
      case State::kLineComment:
        if (c == '\\' && next == '\n') {
          // Line splicing: a backslash immediately before the newline keeps
          // the *next* physical line inside this `//` comment (phase-2 line
          // splicing happens before comment recognition). Blank the
          // backslash, keep the newline for line structure, and stay in the
          // comment state.
          out[i] = ' ';
          ++i;
        } else if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
        if (c == '\\') {
          out[i] = ' ';
          if (next != '\n') {
            if (i + 1 < out.size()) out[i + 1] = ' ';
            ++i;
          }
        } else if (c == '"') {
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          out[i] = ' ';
          if (next != '\n') {
            if (i + 1 < out.size()) out[i + 1] = ' ';
            ++i;
          }
        } else if (c == '\'') {
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string::size_type start = 0;
  while (start <= text.size()) {
    const auto end = text.find('\n', start);
    if (end == std::string::npos) {
      lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

std::size_t line_of_offset(const std::string& text, std::size_t offset) {
  return static_cast<std::size_t>(
             std::count(text.begin(),
                        text.begin() + static_cast<std::ptrdiff_t>(
                                           std::min(offset, text.size())),
                        '\n')) +
         1;
}

std::size_t match_angle_brackets(const std::string& text, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == '<') {
      ++depth;
    } else if (text[i] == '>') {
      if (--depth == 0) return i + 1;
    } else if (text[i] == ';' || text[i] == '{') {
      return std::string::npos;  // not a template argument list after all
    }
  }
  return std::string::npos;
}

std::string read_identifier(const std::string& text, std::size_t& pos) {
  while (pos < text.size() &&
         std::isspace(static_cast<unsigned char>(text[pos]))) {
    ++pos;
  }
  // Skip ref/pointer/const decorations between the template and the name.
  for (;;) {
    if (pos < text.size() && (text[pos] == '&' || text[pos] == '*')) {
      ++pos;
      continue;
    }
    if (text.compare(pos, 5, "const") == 0 &&
        (pos + 5 >= text.size() || !is_ident_char(text[pos + 5]))) {
      pos += 5;
      continue;
    }
    if (pos < text.size() &&
        std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
      continue;
    }
    break;
  }
  std::string ident;
  while (pos < text.size() && is_ident_char(text[pos])) {
    ident += text[pos++];
  }
  if (!ident.empty() && std::isdigit(static_cast<unsigned char>(ident[0]))) {
    return {};
  }
  return ident;
}

std::vector<std::string> identifiers_in(const std::string& text) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < text.size()) {
    if (is_ident_char(text[i]) &&
        !std::isdigit(static_cast<unsigned char>(text[i]))) {
      std::string ident;
      while (i < text.size() && is_ident_char(text[i])) ident += text[i++];
      out.push_back(ident);
    } else {
      ++i;
    }
  }
  return out;
}

bool token_at(const std::string& text, std::size_t pos, std::size_t len) {
  if (pos > 0 && is_ident_char(text[pos - 1])) return false;
  if (pos + len < text.size() && is_ident_char(text[pos + len])) return false;
  return true;
}

std::size_t skip_ws(const std::string& text, std::size_t pos) {
  while (pos < text.size() &&
         std::isspace(static_cast<unsigned char>(text[pos]))) {
    ++pos;
  }
  return pos;
}

std::size_t prev_nonspace(const std::string& text, std::size_t pos) {
  while (pos > 0) {
    --pos;
    if (!std::isspace(static_cast<unsigned char>(text[pos]))) return pos;
  }
  return std::string::npos;
}

std::string ident_ending_at(const std::string& text, std::size_t end,
                            std::size_t& start) {
  if (end == std::string::npos || !is_ident_char(text[end])) {
    start = end;
    return {};
  }
  start = end;
  while (start > 0 && is_ident_char(text[start - 1])) --start;
  return text.substr(start, end - start + 1);
}

std::size_t match_parens(const std::string& text, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == '(') {
      ++depth;
    } else if (text[i] == ')') {
      if (--depth == 0) return i + 1;
    }
  }
  return std::string::npos;
}

std::size_t match_braces(const std::string& text, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == '{') {
      ++depth;
    } else if (text[i] == '}') {
      if (--depth == 0) return i;
    }
  }
  return std::string::npos;
}

std::size_t body_open_after(const std::string& text, std::size_t pos) {
  for (;;) {
    pos = skip_ws(text, pos);
    if (pos >= text.size()) return std::string::npos;
    const char c = text[pos];
    if (c == '{') return pos;
    if (c == ';') return std::string::npos;
    if (c == '(') {  // noexcept(...)
      pos = match_parens(text, pos);
      if (pos == std::string::npos) return std::string::npos;
      continue;
    }
    if (c == ':' && pos + 1 < text.size() && text[pos + 1] == ':') {
      pos += 2;  // scope operator of a qualified trailing return type
      continue;
    }
    if (c == ':') {
      // Constructor init list: the body '{' is the first brace at paren
      // depth 0 whose predecessor is ')' or '}' (an initializer closer);
      // a brace preceded by an identifier is a member brace-init.
      int depth = 0;
      for (std::size_t i = pos + 1; i < text.size(); ++i) {
        if (text[i] == '(') {
          ++depth;
        } else if (text[i] == ')') {
          --depth;
        } else if (text[i] == ';') {
          return std::string::npos;
        } else if (text[i] == '{' && depth == 0) {
          const std::size_t p = prev_nonspace(text, i);
          if (p != std::string::npos &&
              (text[p] == ')' || text[p] == '}')) {
            return i;
          }
          const std::size_t close = match_braces(text, i);
          if (close == std::string::npos) return std::string::npos;
          i = close;
        }
      }
      return std::string::npos;
    }
    if (c == '-' && pos + 1 < text.size() && text[pos + 1] == '>') {
      pos += 2;  // trailing return type: its tokens are skipped below
      continue;
    }
    if (c == '<') {
      pos = match_angle_brackets(text, pos);
      if (pos == std::string::npos) return std::string::npos;
      continue;
    }
    if (c == '&' || c == '*') {
      ++pos;
      continue;
    }
    if (is_ident_char(c)) {
      while (pos < text.size() && is_ident_char(text[pos])) ++pos;
      continue;
    }
    return std::string::npos;
  }
}

std::vector<std::string> collect_sources(
    const std::vector<std::string>& paths) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  for (const std::string& path : paths) {
    std::error_code ec;
    if (fs::is_directory(path, ec)) {
      for (fs::recursive_directory_iterator it(path, ec), end;
           !ec && it != end; it.increment(ec)) {
        if (it->is_directory() &&
            it->path().filename().string().ends_with("_fixtures")) {
          it.disable_recursion_pending();
          continue;
        }
        if (!it->is_regular_file()) continue;
        const std::string ext = it->path().extension().string();
        if (ext == ".cpp" || ext == ".cc" || ext == ".hpp" || ext == ".h") {
          files.push_back(it->path().string());
        }
      }
    } else {
      files.push_back(path);
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return static_cast<bool>(out);
}

std::string companion_header_source(const std::string& path) {
  namespace fs = std::filesystem;
  const fs::path p(path);
  const std::string ext = p.extension().string();
  if (ext != ".cpp" && ext != ".cc") return {};
  for (const char* header_ext : {".hpp", ".h"}) {
    fs::path header = p;
    header.replace_extension(header_ext);
    std::string header_source;
    if (read_file(header.string(), header_source)) return header_source;
  }
  return {};
}

}  // namespace qopt::analysis
