#include <algorithm>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "analysis/source.hpp"
#include "analysis/suppress.hpp"
#include "qopt_proto/proto.hpp"

namespace qopt::proto {

namespace {

using analysis::allowed;
using analysis::Annotations;
using analysis::body_open_after;
using analysis::for_each_token;
using analysis::ident_ending_at;
using analysis::is_ident_char;
using analysis::line_of_offset;
using analysis::match_angle_brackets;
using analysis::match_braces;
using analysis::match_parens;
using analysis::prev_nonspace;
using analysis::skip_ws;
using analysis::split_lines;
using analysis::strip_comments_and_literals;

bool contains_token(const std::string& text, const std::string& token) {
  bool found = false;
  for_each_token(text, token, [&](std::size_t) { found = true; });
  return found;
}

/// True when some word-bounded occurrence of `token` is an operand of a
/// comparison operator (<, >, <=, >=, ==, !=) — directly, or through a
/// member chain like `msg.config.epno`. `->`, `<<`, and `>>` are excluded,
/// as is plain assignment.
bool compared_in(const std::string& body, const std::string& token) {
  bool found = false;
  for_each_token(body, token, [&](std::size_t pos) {
    if (found) return;
    // Forward: `epno < x`, `epno != x`, ...
    const std::size_t k = skip_ws(body, pos + token.size());
    if (k < body.size()) {
      const char c = body[k];
      const char d = k + 1 < body.size() ? body[k + 1] : '\0';
      if ((c == '<' && d != '<') || (c == '>' && d != '>') ||
          ((c == '=' || c == '!') && d == '=')) {
        found = true;
        return;
      }
    }
    // Backward: `x < msg.config.epno` — walk back over the member chain
    // first, then look at the operator.
    std::size_t q = prev_nonspace(body, pos);
    while (q != std::string::npos && body[q] == '.') {
      q = prev_nonspace(body, q);
      std::size_t start = 0;
      if (ident_ending_at(body, q, start).empty()) {
        q = std::string::npos;
        break;
      }
      q = start > 0 ? prev_nonspace(body, start) : std::string::npos;
    }
    if (q != std::string::npos) {
      const char c = body[q];
      const char b = q > 0 ? body[q - 1] : '\0';
      if ((c == '<' && b != '<') || (c == '>' && b != '-' && b != '>') ||
          (c == '=' && (b == '=' || b == '!' || b == '<' || b == '>'))) {
        found = true;
      }
    }
  });
  return found;
}

// ------------------------------------------------------ wire-header parse

/// Parses the ordered data members of a struct body [open+1, close). The
/// grammar is the wire-struct subset: plain members with optional default
/// initializers (`= v` or `{v}`), member functions (skipped), and
/// static/using/friend members (skipped).
std::vector<std::string> parse_struct_fields(const std::string& text,
                                             std::size_t open,
                                             std::size_t close) {
  std::vector<std::string> fields;
  std::size_t i = open + 1;
  while (i < close) {
    i = skip_ws(text, i);
    if (i >= close) break;
    if (text[i] == ';') {
      ++i;
      continue;
    }
    // One member declaration.
    bool callable = false;  // saw a parameter list at member top level
    bool skip = false;      // static / using / friend member
    std::string last_ident;
    std::string name;
    bool done = false;
    while (i < close && !done) {
      const char c = text[i];
      if (is_ident_char(c)) {
        const std::size_t b = i;
        while (i < close && is_ident_char(text[i])) ++i;
        const std::string tok = text.substr(b, i - b);
        if (tok == "static" || tok == "using" || tok == "friend") skip = true;
        last_ident = tok;
        continue;
      }
      switch (c) {
        case '<': {
          const std::size_t e = match_angle_brackets(text, i);
          i = e == std::string::npos ? i + 1 : e;
          break;
        }
        case '(': {
          callable = true;
          const std::size_t e = match_parens(text, i);
          i = e == std::string::npos ? i + 1 : e;
          break;
        }
        case '=':
          if (name.empty()) name = last_ident;
          ++i;
          break;
        case '{': {
          const std::size_t e = match_braces(text, i);
          if (callable) {
            // Member function definition: its body ends the member.
            i = e == std::string::npos ? close : e + 1;
            done = true;
          } else {
            // Brace initializer: `Timestamp ts{};`.
            if (name.empty()) name = last_ident;
            i = e == std::string::npos ? i + 1 : e + 1;
          }
          break;
        }
        case ';':
          if (name.empty()) name = last_ident;
          ++i;
          done = true;
          break;
        default:
          ++i;
          break;
      }
    }
    if (!skip && !callable && !name.empty()) fields.push_back(name);
  }
  return fields;
}

}  // namespace

WireHeader parse_wire_header(const std::string& stripped,
                             const std::string& variant) {
  WireHeader header;

  for_each_token(stripped, "struct", [&](std::size_t pos) {
    std::size_t cursor = pos + 6;
    cursor = skip_ws(stripped, cursor);
    const std::size_t name_begin = cursor;
    while (cursor < stripped.size() && is_ident_char(stripped[cursor])) {
      ++cursor;
    }
    if (cursor == name_begin) return;
    const std::string name = stripped.substr(name_begin, cursor - name_begin);
    cursor = skip_ws(stripped, cursor);
    if (cursor >= stripped.size() || stripped[cursor] != '{') {
      return;  // forward declaration or `struct X` in a parameter
    }
    const std::size_t close = match_braces(stripped, cursor);
    if (close == std::string::npos) return;
    WireStruct ws;
    ws.name = name;
    ws.line = line_of_offset(stripped, pos);
    ws.fields = parse_struct_fields(stripped, cursor, close);
    header.structs.push_back(std::move(ws));
  });

  // `using <variant> = std::variant<A, B, ...>;`
  for_each_token(stripped, "using", [&](std::size_t pos) {
    if (header.variant_line != 0) return;
    std::size_t cursor = pos + 5;
    const std::string alias = analysis::read_identifier(stripped, cursor);
    if (alias != variant) return;
    cursor = skip_ws(stripped, cursor);
    if (cursor >= stripped.size() || stripped[cursor] != '=') return;
    const std::size_t open = stripped.find('<', cursor);
    if (open == std::string::npos) return;
    const std::size_t end = match_angle_brackets(stripped, open);
    if (end == std::string::npos) return;
    header.variant_line = line_of_offset(stripped, pos);
    // Split the argument list on top-level commas; keep each item's last
    // identifier (drops `kv::` qualifiers).
    int depth = 0;
    std::string item;
    const auto flush = [&]() {
      std::string last;
      std::string cur;
      for (const char c : item) {
        if (is_ident_char(c)) {
          cur += c;
        } else {
          if (!cur.empty()) last = cur;
          cur.clear();
        }
      }
      if (!cur.empty()) last = cur;
      if (!last.empty()) header.alternatives.push_back(last);
      item.clear();
    };
    for (std::size_t i = open + 1; i + 1 < end; ++i) {
      const char c = stripped[i];
      if (c == '<' || c == '(') ++depth;
      if (c == '>' || c == ')') --depth;
      if (c == ',' && depth == 0) {
        flush();
        continue;
      }
      item += c;
    }
    flush();
  });

  return header;
}

const std::vector<std::string>& rule_names() {
  static const std::vector<std::string> kRules = {
      "append-only-evolution", "handler-exhaustive", "epoch-guard",
      "dedup-before-apply", "span-propagation"};
  return kRules;
}

namespace {

/// One scanned source file of a component (or the wire header).
struct ScannedFile {
  std::string rel;
  std::string stripped;
  Annotations ann;
};

/// A located function definition inside a component's files.
struct FunctionBody {
  bool found = false;
  std::string file;       // rel path holding the definition
  std::size_t line = 0;   // line of the function name token
  std::string body;       // text between the braces (inclusive)
};

FunctionBody find_function_body(const std::vector<ScannedFile>& files,
                                const std::string& name) {
  FunctionBody out;
  for (const ScannedFile& f : files) {
    for_each_token(f.stripped, name, [&](std::size_t pos) {
      if (out.found) return;
      const std::size_t after = skip_ws(f.stripped, pos + name.size());
      if (after >= f.stripped.size() || f.stripped[after] != '(') return;
      const std::size_t params = match_parens(f.stripped, after);
      if (params == std::string::npos) return;
      const std::size_t open = body_open_after(f.stripped, params);
      if (open == std::string::npos) return;
      const std::size_t close = match_braces(f.stripped, open);
      if (close == std::string::npos) return;
      out.found = true;
      out.file = f.rel;
      out.line = line_of_offset(f.stripped, pos);
      out.body = f.stripped.substr(open, close - open + 1);
    });
    if (out.found) break;
  }
  return out;
}

struct TreeContext {
  const Manifest& manifest;
  const Options& options;
  std::map<std::string, Annotations>& annotations;  // rel path -> ann
  std::vector<Finding>& findings;

  void add(const std::string& file, std::size_t line, const std::string& rule,
           const std::string& message) const {
    if (options.disabled_rules.count(rule) > 0) return;
    const auto it = annotations.find(file);
    if (it != annotations.end() && allowed(it->second, line, rule)) return;
    findings.push_back({file, line, rule, message});
  }
};

std::string join_fields(const std::vector<std::string>& fields,
                        std::size_t from) {
  std::string out;
  for (std::size_t i = from; i < fields.size(); ++i) {
    if (!out.empty()) out += ", ";
    out += "`" + fields[i] + "`";
  }
  return out;
}

void check_append_only(const TreeContext& ctx, const WireHeader& header,
                       const std::string& wire_rel) {
  const Manifest& m = ctx.manifest;
  std::map<std::string, const WireStruct*> by_name;
  for (const WireStruct& s : header.structs) by_name[s.name] = &s;

  std::map<std::string, const MessageSpec*> spec_by_name;
  for (const MessageSpec& spec : m.messages) spec_by_name[spec.name] = &spec;

  for (const MessageSpec& spec : m.messages) {
    const auto it = by_name.find(spec.name);
    if (it == by_name.end()) {
      ctx.add(m.path, spec.line, "append-only-evolution",
              "message `" + spec.name +
                  "` is recorded here but absent from the wire header — "
                  "removing a wire struct breaks recorded traces; if "
                  "intentional, delete its manifest entry in the same diff");
      continue;
    }
    const WireStruct& s = *it->second;
    const std::size_t n = std::min(spec.fields.size(), s.fields.size());
    bool mismatched = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (spec.fields[i] != s.fields[i]) {
        ctx.add(wire_rel, s.line, "append-only-evolution",
                "field #" + std::to_string(i + 1) + " of `" + spec.name +
                    "` is `" + s.fields[i] + "` but the manifest records `" +
                    spec.fields[i] +
                    "`: wire fields evolve append-only (no reorder, "
                    "removal, or mid-struct insertion)");
        mismatched = true;
        break;
      }
    }
    if (mismatched) continue;
    if (spec.fields.size() > s.fields.size()) {
      ctx.add(wire_rel, s.line, "append-only-evolution",
              "the manifest records " + std::to_string(spec.fields.size()) +
                  " fields for `" + spec.name + "` but the struct has only " +
                  std::to_string(s.fields.size()) +
                  " — wire fields cannot be removed");
      continue;
    }
    if (s.fields.size() > spec.fields.size()) {
      ctx.add(wire_rel, s.line, "append-only-evolution",
              "struct `" + spec.name + "` has unrecorded appended field(s) " +
                  join_fields(s.fields, spec.fields.size()) +
                  " — record them in the protocol manifest in the same "
                  "diff");
    }
    if (spec.versioned) {
      if (spec.fields.empty() ||
          spec.fields.back().find("version") == std::string::npos) {
        ctx.add(m.path, spec.line, "append-only-evolution",
                "versioned message `" + spec.name +
                    "` must record its version field last");
      } else if (!s.fields.empty() && s.fields.back() != spec.fields.back()) {
        ctx.add(wire_rel, s.line, "append-only-evolution",
                "versioned message `" + spec.name + "` must keep `" +
                    spec.fields.back() +
                    "` as its last field (receivers drop "
                    "frames from the future by that field)");
      }
    }
  }

  // Every struct in the wire header must be recorded.
  for (const WireStruct& s : header.structs) {
    if (spec_by_name.count(s.name) == 0) {
      ctx.add(wire_rel, s.line, "append-only-evolution",
              "struct `" + s.name +
                  "` is not recorded in the protocol manifest — every wire "
                  "struct must be");
    }
  }

  // The variant alternative order is the wire tag order: append-only too.
  if (header.variant_line == 0) {
    ctx.add(wire_rel, 0, "append-only-evolution",
            "variant `" + m.wire.variant + "` not found in the wire header");
    return;
  }
  const std::vector<std::string>& want = m.wire.alternatives;
  const std::vector<std::string>& have = header.alternatives;
  const std::size_t n = std::min(want.size(), have.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (want[i] != have[i]) {
      ctx.add(wire_rel, header.variant_line, "append-only-evolution",
              "variant alternative #" + std::to_string(i + 1) + " is `" +
                  have[i] + "` but the manifest records `" + want[i] +
                  "`: the tag order evolves append-only");
      return;
    }
  }
  if (want.size() > have.size()) {
    ctx.add(wire_rel, header.variant_line, "append-only-evolution",
            "the manifest records " + std::to_string(want.size()) +
                " variant alternatives but the variant has only " +
                std::to_string(have.size()) +
                " — alternatives cannot be removed");
  } else if (have.size() > want.size()) {
    ctx.add(wire_rel, header.variant_line, "append-only-evolution",
            "variant has unrecorded appended alternative(s) " +
                join_fields(have, want.size()) +
                " — record them in the protocol manifest in the same diff");
  }
}

void check_component(const TreeContext& ctx, const ComponentSpec& comp,
                     const std::vector<ScannedFile>& files,
                     const WireHeader& header) {
  const Manifest& m = ctx.manifest;

  std::vector<const MessageSpec*> routed;
  for (const MessageSpec& spec : m.messages) {
    if (spec.to == comp.name) routed.push_back(&spec);
  }

  if (comp.dispatch.empty()) {
    // A component with no wire inbox must have nothing routed to it.
    for (const MessageSpec* spec : routed) {
      ctx.add(m.path, spec->line, "handler-exhaustive",
              "message `" + spec->name + "` routes to `" + comp.name +
                  "`, which declares no dispatch function");
    }
    return;
  }

  const FunctionBody dispatch = find_function_body(files, comp.dispatch);
  if (!dispatch.found) {
    const std::string anchor = files.empty() ? m.path : files.front().rel;
    ctx.add(anchor, 0, "handler-exhaustive",
            "component `" + comp.name + "`: no body found for dispatch "
            "function `" + comp.dispatch + "`");
    return;
  }

  for (const MessageSpec* spec : routed) {
    const FunctionBody handler = find_function_body(files, spec->handler);
    if (!handler.found) {
      ctx.add(dispatch.file, dispatch.line, "handler-exhaustive",
              "component `" + comp.name + "`: no handler body for `" +
                  spec->name + "` (manifest names `" + spec->handler + "`)");
      continue;
    }
    if (!contains_token(dispatch.body, spec->name)) {
      ctx.add(dispatch.file, dispatch.line, "handler-exhaustive",
              "dispatch `" + comp.dispatch + "` does not mention `" +
                  spec->name + "` — the alternative is silently unrouted");
    }
    if (spec->handler != comp.dispatch &&
        !contains_token(dispatch.body, spec->handler)) {
      ctx.add(dispatch.file, dispatch.line, "handler-exhaustive",
              "dispatch `" + comp.dispatch + "` does not call `" +
                  spec->handler + "` for `" + spec->name + "`");
    }

    // -------------------------------------------------------- epoch-guard
    if (!spec->epoch.empty() && !compared_in(handler.body, spec->epoch)) {
      ctx.add(handler.file, handler.line, "epoch-guard",
              "handler `" + spec->handler + "` for `" + spec->name +
                  "` never compares its generation field `" + spec->epoch +
                  "` — a stale or reordered delivery mutates state "
                  "unfenced");
    }

    // -------------------------------------------------- dedup-before-apply
    if (spec->at_least_once) {
      if (spec->dedup.empty()) {
        ctx.add(m.path, spec->line, "dedup-before-apply",
                "at-least-once message `" + spec->name +
                    "` declares no `dedup` structure");
      } else if (!contains_token(handler.body, spec->dedup)) {
        ctx.add(handler.file, handler.line, "dedup-before-apply",
                "handler `" + spec->handler + "` for at-least-once `" +
                    spec->name + "` never consults dedup structure `" +
                    spec->dedup + "` — a retransmit applies twice");
      }
    }

    // --------------------------------------------------- span-propagation
    if (spec->span && !contains_token(handler.body, "span")) {
      ctx.add(handler.file, handler.line, "span-propagation",
              "handler `" + spec->handler + "` for `" + spec->name +
                  "` drops the message's span — causal tracing must "
                  "survive every protocol hop");
    }

    // Versioned: the handler is the drop-from-the-future point.
    if (spec->versioned && !spec->fields.empty() &&
        !compared_in(handler.body, spec->fields.back())) {
      ctx.add(handler.file, handler.line, "append-only-evolution",
              "handler `" + spec->handler + "` for versioned `" +
                  spec->name + "` never compares `" + spec->fields.back() +
                  "` — frames from a future version must be dropped, "
                  "never half-decoded");
    }
  }

  // No dispatch may handle a type the manifest routes elsewhere (or not at
  // all): a handler the manifest does not know about is protocol drift.
  std::map<std::string, const MessageSpec*> spec_by_name;
  for (const MessageSpec& spec : m.messages) spec_by_name[spec.name] = &spec;
  for (const std::string& alt : header.alternatives) {
    const auto it = spec_by_name.find(alt);
    const std::string to = it == spec_by_name.end() ? "" : it->second->to;
    if (to == comp.name) continue;
    if (contains_token(dispatch.body, alt)) {
      ctx.add(dispatch.file, dispatch.line, "handler-exhaustive",
              "dispatch `" + comp.dispatch + "` of `" + comp.name +
                  "` handles `" + alt + "` but the manifest routes it to `" +
                  (to.empty() ? std::string("no component") : to) + "`");
    }
  }
}

void check_span_fields(const TreeContext& ctx, const WireHeader& header,
                       const std::string& wire_rel) {
  std::map<std::string, const WireStruct*> by_name;
  for (const WireStruct& s : header.structs) by_name[s.name] = &s;
  for (const MessageSpec& spec : ctx.manifest.messages) {
    if (!spec.span) continue;
    const auto it = by_name.find(spec.name);
    if (it == by_name.end()) continue;  // reported by append-only already
    const WireStruct& s = *it->second;
    if (std::find(s.fields.begin(), s.fields.end(), "span") ==
        s.fields.end()) {
      ctx.add(wire_rel, s.line, "span-propagation",
              "message `" + spec.name +
                  "` is marked span-carrying but has no `span` field");
    }
  }
}

void check_routing_is_in_variant(const TreeContext& ctx,
                                 const WireHeader& header) {
  // A routed message must actually travel: it has to be an alternative of
  // the wire variant, and every alternative must be routed somewhere.
  std::map<std::string, const MessageSpec*> spec_by_name;
  for (const MessageSpec& spec : ctx.manifest.messages) {
    spec_by_name[spec.name] = &spec;
  }
  for (const MessageSpec& spec : ctx.manifest.messages) {
    if (spec.to.empty()) continue;
    if (std::find(header.alternatives.begin(), header.alternatives.end(),
                  spec.name) == header.alternatives.end()) {
      ctx.add(ctx.manifest.path, spec.line, "handler-exhaustive",
              "message `" + spec.name +
                  "` is routed but is not an alternative of the wire "
                  "variant — it can never be delivered");
    }
  }
  for (const std::string& alt : header.alternatives) {
    const auto it = spec_by_name.find(alt);
    if (it == spec_by_name.end() || it->second->to.empty()) {
      ctx.add(ctx.manifest.path, 0, "handler-exhaustive",
              "variant alternative `" + alt +
                  "` has no routed handler in the manifest");
    }
  }
}

}  // namespace

std::vector<Finding> analyze_tree(const std::string& root,
                                  const Manifest& manifest,
                                  const Options& options) {
  std::vector<Finding> findings;
  std::map<std::string, Annotations> annotations;
  const TreeContext ctx{manifest, options, annotations, findings};

  const auto load = [&](const std::string& rel, ScannedFile& out) {
    const std::string full = root.empty() ? rel : root + "/" + rel;
    std::string source;
    if (!analysis::read_file(full, source)) return false;
    out.rel = rel;
    out.ann = analysis::scan_annotations(kTool, rel, split_lines(source));
    out.stripped = strip_comments_and_literals(source);
    annotations[rel] = out.ann;
    findings.insert(findings.end(), out.ann.findings.begin(),
                    out.ann.findings.end());
    return true;
  };

  ScannedFile wire;
  if (!load(manifest.wire.header, wire)) {
    findings.push_back({manifest.wire.header, 0, "io",
                        "cannot read the wire header"});
    return findings;
  }
  const WireHeader header =
      parse_wire_header(wire.stripped, manifest.wire.variant);

  check_append_only(ctx, header, wire.rel);
  check_span_fields(ctx, header, wire.rel);
  check_routing_is_in_variant(ctx, header);

  for (const ComponentSpec& comp : manifest.components) {
    std::vector<ScannedFile> files;
    for (const char* ext : {".hpp", ".h", ".cpp", ".cc"}) {
      ScannedFile f;
      if (load(comp.path + ext, f)) files.push_back(std::move(f));
    }
    if (files.empty()) {
      findings.push_back({manifest.path, comp.line, "io",
                          "component `" + comp.name + "`: no sources at `" +
                              comp.path + "`.{hpp,h,cpp,cc}"});
      continue;
    }
    check_component(ctx, comp, files, header);
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return findings;
}

std::string dump_wire(const WireHeader& header, const std::string& variant) {
  std::vector<const WireStruct*> sorted;
  for (const WireStruct& s : header.structs) sorted.push_back(&s);
  std::sort(sorted.begin(), sorted.end(),
            [](const WireStruct* a, const WireStruct* b) {
              return a->name < b->name;
            });
  std::string out;
  for (const WireStruct* s : sorted) {
    out += s->name + ":";
    for (const std::string& f : s->fields) out += " " + f;
    out += "\n";
  }
  out += "variant " + variant + ":";
  for (const std::string& a : header.alternatives) out += " " + a;
  out += "\n";
  return out;
}

std::string dump_manifest(const Manifest& manifest) {
  std::vector<const MessageSpec*> sorted;
  for (const MessageSpec& s : manifest.messages) sorted.push_back(&s);
  std::sort(sorted.begin(), sorted.end(),
            [](const MessageSpec* a, const MessageSpec* b) {
              return a->name < b->name;
            });
  std::string out;
  for (const MessageSpec* s : sorted) {
    out += s->name + ":";
    for (const std::string& f : s->fields) out += " " + f;
    out += "\n";
  }
  out += "variant " + manifest.wire.variant + ":";
  for (const std::string& a : manifest.wire.alternatives) out += " " + a;
  out += "\n";
  return out;
}

}  // namespace qopt::proto
