#include "index.hpp"

#include <algorithm>
#include <set>

namespace sf::lint {

namespace {

// Identifiers that can never name a function being *defined* (control
// flow, casts, declaration machinery) even though they precede a '('.
const std::set<std::string>& def_keyword_blocklist() {
  static const std::set<std::string> k = {
      "if",      "for",          "while",   "switch",    "catch",   "return",
      "sizeof",  "alignof",      "decltype", "constexpr", "static_assert",
      "new",     "delete",       "throw",   "else",      "do",      "case",
      "default", "operator",     "assert",  "typeid",    "alignas", "noexcept",
      "static_cast", "dynamic_cast", "const_cast", "reinterpret_cast",
  };
  return k;
}

// Identifiers that can never be a *call* reference worth indexing.
const std::set<std::string>& call_keyword_blocklist() {
  static const std::set<std::string> k = {
      "if",      "for",     "while",    "switch",    "catch",    "return",
      "sizeof",  "alignof", "decltype", "constexpr", "static_assert",
      "new",     "delete",  "throw",    "defined",   "assert",   "typeid",
      "static_cast", "dynamic_cast", "const_cast", "reinterpret_cast",
      "noexcept", "alignas",
  };
  return k;
}

bool is_identifier(const std::string& s) {
  return !s.empty() && is_ident_start(s[0]);
}

// After a def candidate's closing ')', find the '{' opening its body.
// Accepts cv/ref qualifiers, noexcept, override/final, ctor init lists
// and trailing return types; returns npos when the tokens do not form a
// definition (declaration, expression, macro attribute, ...).
std::size_t find_body_open(const std::vector<Token>& t, std::size_t after_close) {
  static const std::set<std::string> kTail = {"const", "noexcept", "override", "final", "&"};
  std::size_t k = after_close;
  while (kTail.count(tok(t, k))) {
    ++k;
    // noexcept(...) specification
    if (tok(t, k) == "(") k = skip_balanced(t, k);
  }
  if (tok(t, k) == "{") return k;
  if (tok(t, k) == ":") {
    // Ctor init list: skip `name(..)` / `name{..}` initializers until a
    // '{' that does NOT directly follow an identifier or '>' -- that
    // one opens the body.
    ++k;
    while (k < t.size()) {
      const std::string& s = t[k].text;
      if (s == "(" ) {
        k = skip_balanced(t, k);
      } else if (s == "{") {
        const std::string& prev = t[k - 1].text;
        if (is_identifier(prev) || prev == ">") {
          k = skip_balanced(t, k);  // brace initializer
        } else {
          return k;  // body
        }
      } else if (s == ";") {
        return std::string::npos;
      } else {
        ++k;
      }
    }
    return std::string::npos;
  }
  if (tok(t, k) == "->") {
    // Trailing return type: scan to the body '{' or give up at ';'.
    k += 1;
    while (k < t.size()) {
      const std::string& s = t[k].text;
      if (s == "{") return k;
      if (s == ";") return std::string::npos;
      if (s == "(") { k = skip_balanced(t, k); continue; }
      if (s == "<") {
        const std::size_t adv = skip_angles(t, k);
        if (adv != k) { k = adv; continue; }
      }
      ++k;
    }
  }
  return std::string::npos;
}

// Parse a lambda starting at t[open] == "[". Fills capture info and the
// body span; returns the index just past the body's '}', or npos when
// this is not a lambda with a body (it's a subscript, attribute, ...).
std::size_t parse_lambda(const std::vector<Token>& t, std::size_t open, FunctionDef& out) {
  const std::size_t cap_end = skip_balanced(t, open);
  if (cap_end == open || cap_end >= t.size()) return std::string::npos;
  // Capture list.
  for (std::size_t i = open + 1; i + 1 < cap_end; ++i) {
    const std::string& s = t[i].text;
    const std::string& prev = t[i - 1].text;
    if (s == "&" && (prev == "[" || prev == ",")) {
      const std::string& nxt = tok(t, i + 1);
      if (nxt == "]" || nxt == ",") {
        out.default_ref_capture = true;
      } else if (is_identifier(nxt)) {
        out.ref_captures.push_back(nxt);
      }
    } else if (s == "=" && (prev == "[" || prev == ",") &&
               (tok(t, i + 1) == "]" || tok(t, i + 1) == ",")) {
      out.default_copy_capture = true;
    }
  }
  std::size_t k = cap_end;
  if (tok(t, k) == "(") {
    const std::size_t pclose = skip_balanced(t, k);
    out.param_begin = k + 1;
    out.param_end = pclose > 0 ? pclose - 1 : k + 1;
    k = pclose;
  }
  while (tok(t, k) == "mutable" || tok(t, k) == "noexcept" || tok(t, k) == "constexpr") {
    if (t[k].text == "mutable") out.is_mutable = true;
    ++k;
    if (tok(t, k) == "(") k = skip_balanced(t, k);  // noexcept(...)
  }
  if (tok(t, k) == "->") {
    k += 1;
    while (k < t.size() && t[k].text != "{") {
      if (t[k].text == ";") return std::string::npos;
      const std::size_t adv = skip_angles(t, k);
      k = adv != k ? adv : k + 1;
    }
  }
  if (tok(t, k) != "{") return std::string::npos;
  const std::size_t end = skip_balanced(t, k);
  out.is_lambda = true;
  out.body_begin = k + 1;
  out.body_end = end > 0 ? end - 1 : k + 1;
  return end;
}

void collect_calls(const std::vector<Token>& t, std::size_t begin, std::size_t end,
                   FunctionDef& def) {
  std::set<std::pair<std::string, std::string>> seen;
  for (std::size_t i = begin; i < end && i < t.size(); ++i) {
    if (!is_identifier(t[i].text)) continue;
    if (tok(t, i + 1) != "(") continue;
    if (call_keyword_blocklist().count(t[i].text)) continue;
    CallRef ref;
    ref.callee = t[i].text;
    ref.line = t[i].line;
    if (i >= 2 && (t[i - 1].text == "." || t[i - 1].text == "->") &&
        is_identifier(t[i - 2].text)) {
      ref.receiver = t[i - 2].text;
    }
    if (seen.insert({ref.callee, ref.receiver}).second) def.calls.push_back(ref);
  }
}

}  // namespace

bool call_keyword_blocked(const std::string& ident) {
  return call_keyword_blocklist().count(ident) > 0;
}

FileIndex index_file(const std::string& path, const std::vector<Token>& t,
                     const IndexOptions& opt) {
  FileIndex out;
  const std::set<std::string> task_types(opt.task_fn_types.begin(), opt.task_fn_types.end());
  const std::set<std::string> entry_calls(opt.task_entry_calls.begin(),
                                          opt.task_entry_calls.end());

  // Pass 1: function and method definitions (`name(..) .. {`).
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!is_identifier(t[i].text) || tok(t, i + 1) != "(") continue;
    if (def_keyword_blocklist().count(t[i].text)) continue;
    if (i > 0 && (t[i - 1].text == "." || t[i - 1].text == "->")) continue;  // member call
    const bool dtor = i > 0 && t[i - 1].text == "~";  // indexed under the class name
    const std::size_t close = skip_balanced(t, i + 1);
    if (close == i + 1 || close >= t.size()) continue;
    const std::size_t body = find_body_open(t, close);
    if (body == std::string::npos) continue;
    FunctionDef def;
    def.name = t[i].text;
    def.file = path;
    def.line = t[i].line;
    // Walk back over `Outer::Class::` qualifiers for the display name.
    std::string qual = dtor ? "~" + def.name : def.name;
    std::size_t j = dtor ? i - 1 : i;
    for (; j >= 2 && t[j - 1].text == "::" && is_identifier(t[j - 2].text); j -= 2) {
      qual = t[j - 2].text + "::" + qual;
    }
    def.qual = qual;
    // ...and on over the return type to the previous statement's end.
    while (j > 0 && t[j - 1].text != ";" && t[j - 1].text != "{" && t[j - 1].text != "}") --j;
    def.decl_begin = j;
    def.param_begin = i + 2;
    def.param_end = close > 0 ? close - 1 : i + 2;
    def.body_begin = body + 1;
    const std::size_t body_close = skip_balanced(t, body);
    def.body_end = body_close > 0 ? body_close - 1 : body + 1;
    collect_calls(t, def.body_begin, def.body_end, def);
    out.defs.push_back(std::move(def));
  }

  // Pass 2: named lambdas (`[const] [auto|Type] name = [..](..){..}`),
  // including task entries declared with a TaskFn-style type.
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (!is_identifier(t[i].text)) continue;
    if (tok(t, i + 1) != "=" || tok(t, i + 2) != "[") continue;
    FunctionDef def;
    def.name = t[i].text;
    def.qual = t[i].text;
    def.file = path;
    def.line = t[i].line;
    def.decl_begin = i;
    if (parse_lambda(t, i + 2, def) == std::string::npos) continue;
    if (i > 0 && task_types.count(t[i - 1].text)) def.is_task_entry = true;
    collect_calls(t, def.body_begin, def.body_end, def);
    out.defs.push_back(std::move(def));
  }

  // Pass 3: task entries at executor call sites -- inline lambda
  // arguments of `.map(...)`, and named lambdas passed by name.
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!entry_calls.count(t[i].text) || tok(t, i + 1) != "(") continue;
    if (i == 0 || (t[i - 1].text != "." && t[i - 1].text != "->")) continue;
    const std::size_t close = skip_balanced(t, i + 1);
    // Walk top-level argument starts inside map( ... ).
    int depth = 1;
    bool arg_start = true;
    for (std::size_t j = i + 2; j + 1 < close && j < t.size(); ++j) {
      const std::string& s = t[j].text;
      if (s == "(" || s == "[" || s == "{") {
        if (arg_start && s == "[") {
          FunctionDef def;
          def.name = "<task-lambda>";
          def.qual = "<task-lambda>";
          def.file = path;
          def.line = t[j].line;
          def.decl_begin = j;
          if (parse_lambda(t, j, def) != std::string::npos) {
            def.is_task_entry = true;
            collect_calls(t, def.body_begin, def.body_end, def);
            out.defs.push_back(std::move(def));
          }
        }
        ++depth;
        arg_start = false;
      } else if (s == ")" || s == "]" || s == "}") {
        --depth;
      } else if (s == "," && depth == 1) {
        arg_start = true;
      } else {
        if (arg_start && depth == 1 && is_identifier(s) && tok(t, j + 1) != "(") {
          // Named argument: if it names a lambda defined in this file,
          // mark that lambda as a task entry.
          for (auto& def : out.defs) {
            if (def.is_lambda && def.name == s) def.is_task_entry = true;
          }
        }
        arg_start = false;
      }
    }
  }

  std::sort(out.defs.begin(), out.defs.end(),
            [](const FunctionDef& a, const FunctionDef& b) {
              if (a.body_begin != b.body_begin) return a.body_begin < b.body_begin;
              return a.name < b.name;
            });
  return out;
}

SymbolIndex build_index(const std::map<std::string, std::vector<Token>>& tokens,
                        const IndexOptions& opt) {
  SymbolIndex idx;
  for (const auto& [path, toks] : tokens) {
    idx.files[path] = index_file(path, toks, opt);
  }
  for (const auto& [path, fi] : idx.files) {
    for (std::size_t d = 0; d < fi.defs.size(); ++d) {
      idx.by_name[fi.defs[d].name].emplace_back(path, d);
    }
  }
  return idx;
}

}  // namespace sf::lint
