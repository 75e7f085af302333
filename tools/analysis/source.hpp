// Shared source-handling layer for the project's static-analysis tools
// (qopt_lint, qopt_arch, qopt_perf, qopt_proto). Everything here is
// dependency-free (no LLVM): a comment/literal-stripping state machine,
// small token helpers, the body scanner that locates function bodies in
// stripped text, and the file walker that expands directories into the C++
// sources to scan.
//
// The tools share one Finding shape so their diagnostics (and suppression
// summaries, see suppress.hpp) render identically.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace qopt::analysis {

/// One diagnostic from any analysis tool.
struct Finding {
  std::string file;
  std::size_t line = 0;  // 1-based
  std::string rule;
  std::string message;
};

/// One "file:line: [rule] message" diagnostic line.
std::string format_finding(const Finding& finding);

/// True for [A-Za-z0-9_].
bool is_ident_char(char c);

/// Replaces comments and string/char literal contents (including raw
/// strings) with spaces, keeping byte offsets and line structure intact, so
/// token/regex rules never match prose or quoted text.
std::string strip_comments_and_literals(const std::string& src);

/// Splits on '\n'; a trailing newline yields a final empty line, matching
/// 1-based line numbering of the underlying buffer.
std::vector<std::string> split_lines(const std::string& text);

/// 1-based line containing byte `offset`.
std::size_t line_of_offset(const std::string& text, std::size_t offset);

/// Matches the `<...>` template argument list starting at `open` (which must
/// point at '<'); returns the offset one past the closing '>', or npos.
std::size_t match_angle_brackets(const std::string& text, std::size_t open);

/// Reads the identifier following `pos`, skipping whitespace and
/// ref/pointer/const decorations; advances `pos`. Returns {} when the next
/// token is not an identifier.
std::string read_identifier(const std::string& text, std::size_t& pos);

/// Every maximal identifier token in `text`, in order of appearance.
std::vector<std::string> identifiers_in(const std::string& text);

// ------------------------------------------------------------ body scanner
// Offsets index comment/literal-stripped text; npos means "not found".

/// True when [pos, pos+len) is a whole identifier token (word-bounded).
bool token_at(const std::string& text, std::size_t pos, std::size_t len);

/// First offset at or after `pos` that is not whitespace.
std::size_t skip_ws(const std::string& text, std::size_t pos);

/// Index of the last non-whitespace char strictly before `pos`, or npos.
std::size_t prev_nonspace(const std::string& text, std::size_t pos);

/// Reads the identifier ending at (and including) `end`; `start` receives
/// its first index. Empty when text[end] is not an identifier char.
std::string ident_ending_at(const std::string& text, std::size_t end,
                            std::size_t& start);

/// Offset one past the ')' matching the '(' at `open`, or npos.
std::size_t match_parens(const std::string& text, std::size_t open);

/// Offset of the '}' matching the '{' at `open`, or npos.
std::size_t match_braces(const std::string& text, std::size_t open);

/// Given the offset one past a parameter list's ')', skips trailing
/// qualifiers (const/noexcept[(...)]/override/final/mutable, `-> Type`, a
/// constructor init list) and returns the offset of the function body's
/// '{', or npos when the signature is a declaration (`;`) or the text is
/// not a function definition after all.
std::size_t body_open_after(const std::string& text, std::size_t pos);

/// Calls `fn(offset)` for every word-bounded occurrence of `token`.
template <typename Fn>
void for_each_token(const std::string& text, const std::string& token,
                    Fn&& fn) {
  std::size_t pos = 0;
  while ((pos = text.find(token, pos)) != std::string::npos) {
    if (token_at(text, pos, token.size())) fn(pos);
    pos += token.size();
  }
}

// ------------------------------------------------------------------ files

/// Expands files and directories (recursively) into the C++ sources to scan
/// (.cpp/.cc/.hpp/.h), sorted and deduplicated; explicit file arguments are
/// taken as-is. Directories named `*_fixtures` are skipped: they hold
/// deliberately-broken inputs for the analysis tools' own tests.
std::vector<std::string> collect_sources(
    const std::vector<std::string>& paths);

/// Reads a whole file; returns false on I/O failure.
bool read_file(const std::string& path, std::string& out);

/// Writes `text` as the whole file; returns false on I/O failure.
bool write_file(const std::string& path, const std::string& text);

/// For a .cpp/.cc path, the text of the sibling .hpp (else .h) with the
/// same stem; empty for headers and when there is no such file.
std::string companion_header_source(const std::string& path);

}  // namespace qopt::analysis
