// U1: every src/ definition must be reachable from a product.
//
// Roots are the identifiers of every indexed file outside src/: the
// product trees examples/, bench/, wallbench/ and tools/. An identifier
// reaches every indexed definition sharing its base name, and a reached
// definition contributes every identifier of its signature, initializer
// list and body. Edges come from identifiers, not only from calls, so a
// function passed as a value, a constructor named by its type, a
// virtual override and a TaskFn target all count as uses: the rule may
// miss dead code, but it never reports live code.
//
// Three uses name nothing at the point where they run, so the index
// attaches them to a name that does:
//   - a destructor is indexed under its class name (index.hpp);
//   - a namespace-scope or member initializer (`kTable = make_table()`)
//     is reached with the variable it initializes, and a member
//     initializer also with its class;
//   - a default argument in a declaration (`alt = no_pool()`) is
//     reached with the declared function.
#include <deque>
#include <set>

#include "callgraph.hpp"
#include "sfcheck.hpp"

namespace sf::lint {

namespace {

bool is_identifier(const std::string& s) {
  return !s.empty() && is_ident_start(s[0]);
}

// The identifiers of one declaration outside every definition, reached
// when any of `keys` is.
struct DeclNode {
  std::vector<std::string> keys;
  std::vector<std::string> idents;
};

bool opens_scope(const std::vector<std::string>& stmt) {
  for (const auto& s : stmt) {
    if (s == "namespace" || s == "class" || s == "struct" || s == "union" || s == "enum" ||
        s == "extern")
      return true;
  }
  return false;
}

// One statement outside every definition: key it by the name it
// declares (the identifier before its first top-level `(`, `=` or
// `{`), plus the enclosing class for a member initializer.
void add_decl(const std::vector<std::string>& stmt, const std::string& enclosing_class,
              std::vector<DeclNode>& out) {
  for (std::size_t k = 0; k < stmt.size(); ++k) {
    const std::string& s = stmt[k];
    if (s != "(" && s != "=" && s != "{") continue;
    if (k == 0 || !is_identifier(stmt[k - 1])) return;
    DeclNode node;
    node.keys.push_back(stmt[k - 1]);
    if (s != "(" && !enclosing_class.empty()) node.keys.push_back(enclosing_class);
    for (std::size_t j = k; j < stmt.size(); ++j) {
      if (is_identifier(stmt[j])) node.idents.push_back(stmt[j]);
    }
    if (!node.idents.empty()) out.push_back(std::move(node));
    return;
  }
}

// Split the tokens outside every definition of one file into
// statements. Scope braces (namespace, class, enum, ..) split; any
// other brace is an initializer and stays in its statement.
void collect_decls(const std::vector<Token>& t, const std::vector<bool>& in_def,
                   std::vector<DeclNode>& out) {
  std::vector<std::string> stmt;
  std::vector<std::string> scopes;  // enclosing class name, "" for other scopes
  int init_depth = 0;               // braces of an initializer being skipped
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (in_def[i]) continue;
    const std::string& s = t[i].text;
    if (init_depth > 0) {
      if (s == "{") ++init_depth;
      if (s == "}") --init_depth;
      stmt.push_back(s);
      continue;
    }
    if (s == "{") {
      if (opens_scope(stmt)) {
        std::string name;
        for (std::size_t k = 0; k < stmt.size(); ++k) {
          const std::string& w = stmt[k];
          if ((w == "class" || w == "struct" || w == "union") && k + 1 < stmt.size() &&
              is_identifier(stmt[k + 1])) {
            name = stmt[k + 1];
          }
        }
        scopes.push_back(name);
        stmt.clear();
      } else {
        init_depth = 1;
        stmt.push_back(s);
      }
    } else if (s == ";" || s == "}") {
      add_decl(stmt, scopes.empty() ? "" : scopes.back(), out);
      stmt.clear();
      if (s == "}" && !scopes.empty()) scopes.pop_back();
    } else {
      stmt.push_back(s);
    }
  }
}

}  // namespace

std::vector<InterprocFinding> run_unused(
    const std::map<std::string, std::vector<Token>>& tokens) {
  const SymbolIndex idx = build_index(tokens, IndexOptions{});
  std::vector<InterprocFinding> findings;
  if (!idx.by_name.count("main")) return findings;

  std::multimap<std::string, std::size_t> decl_by_key;
  std::vector<DeclNode> decls;
  std::set<std::pair<std::string, std::size_t>> nested;  // defs inside another def's body
  std::deque<std::string> work;
  std::set<std::string> seen;
  auto reach = [&](const std::string& ident) {
    if (seen.insert(ident).second) work.push_back(ident);
  };

  for (const auto& [path, t] : tokens) {
    const auto& defs = idx.files.at(path).defs;
    if (is_indexed_path(path) && !path_starts_with(path, "src/")) {
      for (const Token& tk : t) {
        if (is_identifier(tk.text)) reach(tk.text);
      }
      continue;
    }
    std::vector<bool> in_def(t.size(), false);
    for (std::size_t d = 0; d < defs.size(); ++d) {
      const FunctionDef& def = defs[d];
      for (std::size_t i = def.decl_begin; i <= def.body_end && i < t.size(); ++i) {
        in_def[i] = true;
      }
      for (const FunctionDef& outer : defs) {
        if (&outer != &def && outer.body_begin <= def.decl_begin &&
            def.decl_begin < outer.body_end) {
          nested.insert({path, d});
        }
      }
    }
    const std::size_t first = decls.size();
    collect_decls(t, in_def, decls);
    for (std::size_t n = first; n < decls.size(); ++n) {
      for (const auto& key : decls[n].keys) decl_by_key.emplace(key, n);
    }
  }

  std::set<std::pair<std::string, std::size_t>> reached_defs;
  std::set<std::size_t> reached_decls;
  while (!work.empty()) {
    const std::string name = work.front();
    work.pop_front();
    const auto defs = idx.by_name.find(name);
    if (defs != idx.by_name.end()) {
      for (const auto& ref : defs->second) {
        if (!reached_defs.insert(ref).second) continue;
        const FunctionDef& def = idx.def(ref);
        const auto& t = tokens.at(ref.first);
        for (std::size_t i = def.decl_begin; i < def.body_end && i < t.size(); ++i) {
          if (is_identifier(t[i].text)) reach(t[i].text);
        }
      }
    }
    const auto [lo, hi] = decl_by_key.equal_range(name);
    for (auto it = lo; it != hi; ++it) {
      if (!reached_decls.insert(it->second).second) continue;
      for (const auto& ident : decls[it->second].idents) reach(ident);
    }
  }

  for (const auto& [path, fi] : idx.files) {
    if (!path_starts_with(path, "src/")) continue;
    for (std::size_t d = 0; d < fi.defs.size(); ++d) {
      const FunctionDef& def = fi.defs[d];
      if (reached_defs.count({path, d}) || nested.count({path, d})) continue;
      InterprocFinding f;
      f.file = path;
      f.line = def.line;
      f.rule = "U1";
      f.message = "'" + def.qual +
                  "' is reached from no product; delete it, move it into the test that "
                  "needs it, or allow it with the test or API that keeps it";
      findings.push_back(std::move(f));
    }
  }
  return findings;
}

}  // namespace sf::lint
