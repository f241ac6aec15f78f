#include "sfcheck.hpp"

#include <algorithm>
#include <cstdio>
#include <set>
#include <sstream>

#include "callgraph.hpp"
#include "lex.hpp"
#include "vocab.hpp"

namespace sf::lint {

namespace {

// ---------------------------------------------------------------------
// Rules (file-local). The interprocedural rules R1/C1 live in
// callgraph.cpp; the lexer in lex.cpp; shared token sets in vocab.cpp.
// ---------------------------------------------------------------------

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
  std::vector<std::string> chain;
};

void rule_d1(const std::string& path, const std::vector<Token>& t, const Config& cfg,
             std::vector<Finding>& out) {
  if (path_starts_with(path, cfg.rng_home)) return;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const std::string& s = t[i].text;
    if ((s == "rand" || s == "srand") && tok(t, i + 1) == "(") {
      const std::string& prev = i > 0 ? t[i - 1].text : tok(t, t.size());
      if (prev == "." || prev == "->") continue;  // member named rand
      out.push_back({path, t[i].line, "D1",
                     "call to " + s + "(); use sf::Rng (util/rng.hpp) seeded streams",
                     {}});
    } else if (s == "random_device") {
      out.push_back({path, t[i].line, "D1",
                     "std::random_device is nondeterministic; derive seeds with "
                     "sf::Rng::split or sf::stable_hash64",
                     {}});
    } else if (s == "mt19937" || s == "mt19937_64") {
      // Unseeded forms: `mt19937 g;`, `mt19937()`, `mt19937{}`.
      const std::string& n1 = tok(t, i + 1);
      bool unseeded = false;
      if (n1 == "(" || n1 == "{") {
        const std::string closer = n1 == "(" ? ")" : "}";
        unseeded = tok(t, i + 2) == closer;
      } else if (is_ident_start(n1.empty() ? ' ' : n1[0])) {
        const std::string& n2 = tok(t, i + 2);
        unseeded = n2 != "(" && n2 != "{";
      }
      if (unseeded) {
        out.push_back({path, t[i].line, "D1",
                       "unseeded std::" + s + "; all RNG must flow through sf::Rng "
                       "(util/rng.hpp)",
                       {}});
      }
    }
  }
}

void rule_d2(const std::string& path, const std::vector<Token>& t, const Config& cfg,
             std::vector<Finding>& out) {
  if (path_starts_with(path, cfg.wallclock_home)) return;  // the one sanctioned shim
  for (std::size_t i = 0; i < t.size(); ++i) {
    const std::string& s = t[i].text;
    if (clock_type_tokens().count(s)) {
      out.push_back({path, t[i].line, "D2",
                     "wall-clock type std::chrono::" + s +
                         "; deterministic code must use simulated time (sim/)",
                     {}});
    } else if (clock_call_tokens().count(s) && tok(t, i + 1) == "(") {
      const std::string& prev = i > 0 ? t[i - 1].text : tok(t, t.size());
      if (prev == "." || prev == "->") continue;  // member named time()/clock()
      out.push_back({path, t[i].line, "D2",
                     "wall-clock call " + s + "(); deterministic code must use "
                     "simulated time (sim/)",
                     {}});
    }
  }
}

void rule_d3(const std::string& path, const std::vector<Token>& t,
             const std::set<std::string>& vars, std::vector<Finding>& out) {
  std::vector<std::pair<int, std::string>> sites;
  unordered_iteration_sites(t, 0, t.size(), vars, sites);
  for (const auto& [line, var] : sites) {
    out.push_back({path, line, "D3",
                   "iteration over unordered container '" + var +
                       "' feeds deterministic output; sort keys into an ordered "
                       "container first",
                   {}});
  }
}

void rule_d4(const std::string& path, const std::vector<Token>& t, const Config& cfg,
             std::vector<Finding>& out) {
  for (const auto& prefix : cfg.d4_allowed_prefixes) {
    if (path_starts_with(path, prefix)) return;
  }
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].text == "ofstream") {
      out.push_back({path, t[i].line, "D4",
                     "naked std::ofstream; use the torn-write-safe helpers in "
                     "util/file_io.hpp",
                     {}});
    }
  }
}

// ---------------------------------------------------------------------
// D5: canonical float formatting in emit modules.
// ---------------------------------------------------------------------

bool is_printf_family(const std::string& s) {
  return s == "printf" || s == "fprintf" || s == "sprintf" || s == "snprintf" ||
         s == "vprintf" || s == "vfprintf" || s == "vsprintf" || s == "vsnprintf";
}

bool is_float_literal(const std::string& s) {
  if (s.empty() || !(s[0] >= '0' && s[0] <= '9')) return false;
  for (char c : s) {
    if (c == '.' || c == 'e' || c == 'E') return true;
  }
  return false;
}

// Pass A of D5 (mirrors D3's): names declared with a float type, per
// module, so header-declared members and double-returning functions are
// known when the sibling .cpp streams them.
void collect_float_names(const std::vector<Token>& t, std::set<std::string>& names) {
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].text != "double" && t[i].text != "float") continue;
    std::size_t j = i + 1;
    while (tok(t, j) == "&" || tok(t, j) == "*" || tok(t, j) == "const") ++j;
    const std::string& name = tok(t, j);
    if (!name.empty() && is_ident_start(name[0])) names.insert(name);
  }
}

// A precision-less float conversion spec (%f, %-8g, %e ...) inside a
// format string: everything %.17g-style canonical formatting forbids.
bool has_bare_float_spec(const std::string& fmt) {
  for (std::size_t i = 0; i + 1 < fmt.size(); ++i) {
    if (fmt[i] != '%') continue;
    std::size_t j = i + 1;
    if (j < fmt.size() && fmt[j] == '%') {  // literal %%
      i = j;
      continue;
    }
    while (j < fmt.size() && (fmt[j] == '-' || fmt[j] == '+' || fmt[j] == ' ' ||
                              fmt[j] == '#' || fmt[j] == '0'))
      ++j;
    while (j < fmt.size() && fmt[j] >= '0' && fmt[j] <= '9') ++j;
    if (j < fmt.size() && fmt[j] == '.') continue;  // explicit precision: fine
    if (j < fmt.size() && (fmt[j] == 'f' || fmt[j] == 'F' || fmt[j] == 'g' ||
                           fmt[j] == 'G' || fmt[j] == 'e' || fmt[j] == 'E' ||
                           fmt[j] == 'a' || fmt[j] == 'A'))
      return true;
  }
  return false;
}

void rule_d5(const std::string& path, const std::vector<Token>& t, const CleanFile& cf,
             const Config& cfg, const std::set<std::string>& float_names,
             std::vector<Finding>& out) {
  const bool fmt_exempt = path_starts_with(path, cfg.fmt_home);
  std::set<int> format_call_lines;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const std::string& s = t[i].text;
    const std::string& prev = i > 0 ? t[i - 1].text : tok(t, t.size());
    if (s == "to_string" && tok(t, i + 1) == "(" && prev != "." && prev != "->") {
      out.push_back({path, t[i].line, "D5",
                     "std::to_string is locale/width-unstable; use sf::format with an "
                     "explicit conversion spec (the %.17g codec for doubles)",
                     {}});
    } else if (is_printf_family(s) && tok(t, i + 1) == "(" && prev != "." && prev != "->") {
      format_call_lines.insert(t[i].line);
      if (!fmt_exempt) {
        out.push_back({path, t[i].line, "D5",
                       "direct " + s + "(); emit modules must format through sf::format "
                       "(util/string_util.hpp) so every byte has one producer",
                       {}});
      }
    } else if (s == "format" && tok(t, i + 1) == "(") {
      format_call_lines.insert(t[i].line);
    } else if (s == "<" && tok(t, i + 1) == "<") {
      // `<<` arrives as two '<' tokens. Flag streaming of a known float
      // name or a float literal: bare operator<< renders with the
      // stream's ambient precision, not a canonical spec.
      const std::string& operand = tok(t, i + 2);
      if (is_float_literal(operand) || float_names.count(operand)) {
        out.push_back({path, t[i].line, "D5",
                       "bare stream insertion of float '" + operand +
                           "'; render through sf::format with an explicit spec "
                           "(%.17g for replay-grade artifacts)",
                       {}});
      }
      ++i;  // consume the second '<'
    }
  }
  // Format strings on formatting-call lines must pin float precision.
  if (!fmt_exempt) {
    for (const auto& [line, literal] : cf.strings) {
      if (!format_call_lines.count(line)) continue;
      if (has_bare_float_spec(literal)) {
        out.push_back({path, line, "D5",
                       "precision-less float conversion in format string \"" + literal +
                           "\"; pin an explicit precision (e.g. %.17g, %.3f)",
                       {}});
      }
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------

Config Config::project_default() {
  Config cfg;
  cfg.layer_rank = {
      {"util", 0},
      {"bio", 1},
      {"geom", 2}, {"relax", 2}, {"score", 2}, {"seqsearch", 2}, {"fold", 2}, {"sim", 2},
      {"obs", 2}, {"native", 2},
      {"dataflow", 3}, {"analysis", 3}, {"sftrace", 3}, {"store", 3},
      {"dist", 4}, {"cluster", 4},
      {"core", 5},
  };
  // examples/ is a pseudo-module: the CLIs' stdout reports are replay
  // artifacts too, so the order-determinism rule covers them.
  cfg.d3_modules = {"core", "dataflow", "util",  "seqsearch",
                    "obs",  "sftrace",  "store", "dist",
                    "cluster", "examples"};
  // The journal and the store manifest append their end-sealed lines
  // through util/file_io too, so it is the only home.
  cfg.d4_allowed_prefixes = {"src/util/file_io"};
  cfg.rng_home = "src/util/rng";
  cfg.wallclock_home = "src/util/wallclock";
  // D5 scope is narrower than D3's: examples/ emit printf tables with
  // explicit precision everywhere and stay exempt from the
  // canonical-formatter requirement.
  cfg.d5_modules = {"core",  "dataflow", "util", "seqsearch", "obs",
                    "sftrace", "store",  "dist", "cluster"};
  cfg.fmt_home = "src/util/string_util";
  cfg.task_fn_types = {"TaskFn"};
  cfg.task_entry_calls = {"map", "fill_slots"};
  cfg.serial_receivers = {"store", "journal"};
  cfg.executor_home = "src/dataflow/executor";
  return cfg;
}

bool is_scanned_path(const std::string& relpath) {
  const bool cc = relpath.size() > 4 && (relpath.compare(relpath.size() - 4, 4, ".cpp") == 0 ||
                                         relpath.compare(relpath.size() - 4, 4, ".hpp") == 0);
  if (!cc) return false;
  return path_starts_with(relpath, "src/") || path_starts_with(relpath, "tools/") ||
         path_starts_with(relpath, "examples/");
}

std::string module_of(const std::string& relpath) {
  if (path_starts_with(relpath, "examples/")) return "examples";
  std::size_t base = std::string::npos;
  if (path_starts_with(relpath, "src/")) base = 4;
  else if (path_starts_with(relpath, "tools/")) base = 6;
  if (base == std::string::npos) return "";
  const auto slash = relpath.find('/', base);
  if (slash == std::string::npos) return "";
  return relpath.substr(base, slash - base);
}

ScanResult run(const std::vector<SourceFile>& files, const Config& cfg) {
  std::vector<Finding> findings;
  std::map<std::string, CleanFile> cleaned;
  std::map<std::string, std::vector<Token>> tokens;
  for (const auto& f : files) {
    cleaned[f.path] = clean_source(f.content);
    tokens[f.path] = tokenize(cleaned[f.path]);
  }

  // D3/D5 pass A: unordered variable and float names per module
  // (headers included).
  std::map<std::string, std::set<std::string>> unordered_vars;
  std::map<std::string, std::set<std::string>> float_names;
  for (const auto& f : files) {
    const std::string mod = module_of(f.path);
    const std::string key = mod.empty() ? f.path : mod;
    collect_unordered_vars(tokens[f.path], unordered_vars[key]);
    collect_float_names(tokens[f.path], float_names[key]);
  }
  const std::set<std::string> d3_scope(cfg.d3_modules.begin(), cfg.d3_modules.end());
  const std::set<std::string> d5_scope(cfg.d5_modules.begin(), cfg.d5_modules.end());

  // Include graph for the cycle check (every observed edge, even ones
  // already reported as rank violations or suppressed inline).
  std::map<std::string, std::set<std::string>> graph;

  for (const auto& f : files) {
    const auto& t = tokens[f.path];
    const std::string mod = module_of(f.path);
    const std::string key = mod.empty() ? f.path : mod;
    rule_d1(f.path, t, cfg, findings);
    rule_d2(f.path, t, cfg, findings);
    if (d3_scope.count(mod)) rule_d3(f.path, t, unordered_vars[key], findings);
    rule_d4(f.path, t, cfg, findings);
    if (d5_scope.count(mod)) rule_d5(f.path, t, cleaned[f.path], cfg, float_names[key], findings);

    // L1 rank check (src/ modules only; tools/examples are unlayered).
    const auto rank_it = cfg.layer_rank.find(mod);
    if (rank_it != cfg.layer_rank.end()) {
      for (const auto& [line, target] : cleaned[f.path].includes) {
        const auto slash = target.find('/');
        if (slash == std::string::npos) continue;
        const std::string dst = target.substr(0, slash);
        const auto dst_it = cfg.layer_rank.find(dst);
        if (dst_it == cfg.layer_rank.end() || dst == mod) continue;
        graph[mod].insert(dst);
        if (dst_it->second > rank_it->second) {
          std::ostringstream msg;
          msg << "layering: '" << mod << "' (rank " << rank_it->second << ") must not include '"
              << target << "' from higher layer '" << dst << "' (rank " << dst_it->second << ")";
          findings.push_back({f.path, line, "L1", msg.str(), {}});
        }
      }
    }
  }

  // Cycle check over the observed module graph (DFS, deterministic
  // order; one diagnostic per distinct back-edge cycle).
  {
    std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
    std::vector<std::string> stack;
    std::set<std::string> reported;
    std::vector<Finding>* out = &findings;
    auto dfs = [&](auto&& self, const std::string& m) -> void {
      color[m] = 1;
      stack.push_back(m);
      for (const auto& nxt : graph[m]) {
        if (color[nxt] == 1) {
          std::ostringstream msg;
          msg << "layering: include cycle ";
          bool in_cycle = false;
          for (const auto& s : stack) {
            if (s == nxt) in_cycle = true;
            if (in_cycle) msg << s << " -> ";
          }
          msg << nxt;
          if (reported.insert(msg.str()).second) {
            out->push_back({"(include-graph)", 0, "L1", msg.str(), {}});
          }
        } else if (color[nxt] == 0) {
          self(self, nxt);
        }
      }
      stack.pop_back();
      color[m] = 2;
    };
    for (const auto& [m, _] : graph) {
      if (color[m] == 0) dfs(dfs, m);
    }
  }

  // R1 + C1: interprocedural rules over the whole-repo call graph.
  for (const InterprocFinding& f : run_interproc(tokens, cfg)) {
    findings.push_back({f.file, f.line, f.rule, f.message, f.chain});
  }

  // SUP: reasonless allow() comments.
  for (const auto& f : files) {
    for (int line : cleaned[f.path].allows_missing_reason) {
      findings.push_back({f.path, line, "SUP",
                          "sfcheck:allow() requires a reason: "
                          "// sfcheck:allow(RULE): why this is safe",
                          {}});
    }
  }

  // Apply suppressions. R1/C1 anchor at the task lambda's entry line,
  // so that is where their allow() comments live.
  ScanResult result;
  for (auto& fd : findings) {
    const auto cf = cleaned.find(fd.file);
    bool suppressed = false;
    std::string reason;
    if (cf != cleaned.end() && fd.rule != "SUP") {
      const auto sup = cf->second.allows.find(fd.line);
      if (sup != cf->second.allows.end() && sup->second.rules.count(fd.rule)) {
        suppressed = true;
        reason = sup->second.reason;
      }
    }
    Diagnostic d{fd.file, fd.line, fd.rule, fd.message, reason, fd.chain};
    (suppressed ? result.suppressed : result.diagnostics).push_back(std::move(d));
  }

  auto order = [](const Diagnostic& a, const Diagnostic& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    if (a.rule != b.rule) return a.rule < b.rule;
    return a.message < b.message;
  };
  std::sort(result.diagnostics.begin(), result.diagnostics.end(), order);
  std::sort(result.suppressed.begin(), result.suppressed.end(), order);
  return result;
}

std::string render_text(const ScanResult& result) {
  std::ostringstream out;
  for (const auto& d : result.diagnostics) {
    out << d.file << ':' << d.line << ": error: [" << d.rule << "] " << d.message << '\n';
    if (!d.chain.empty()) {
      out << "    call chain:\n";
      for (const auto& hop : d.chain) out << "      " << hop << '\n';
    }
  }
  if (result.diagnostics.empty()) {
    out << "sfcheck: clean (" << result.suppressed.size() << " suppressed)\n";
  } else {
    out << "sfcheck: " << result.diagnostics.size() << " violation(s), "
        << result.suppressed.size() << " suppressed\n";
  }
  return out.str();
}

namespace {
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void json_diags(std::ostringstream& out, const std::vector<Diagnostic>& ds, bool with_reason) {
  out << '[';
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const auto& d = ds[i];
    if (i) out << ',';
    out << "{\"file\":\"" << json_escape(d.file) << "\",\"line\":" << d.line << ",\"rule\":\""
        << json_escape(d.rule) << "\",\"message\":\"" << json_escape(d.message) << '"';
    if (with_reason) out << ",\"reason\":\"" << json_escape(d.reason) << '"';
    if (!d.chain.empty()) {
      out << ",\"chain\":[";
      for (std::size_t c = 0; c < d.chain.size(); ++c) {
        if (c) out << ',';
        out << '"' << json_escape(d.chain[c]) << '"';
      }
      out << ']';
    }
    out << '}';
  }
  out << ']';
}
}  // namespace

std::string render_json(const ScanResult& result) {
  std::ostringstream out;
  out << "{\"diagnostics\":";
  json_diags(out, result.diagnostics, false);
  out << ",\"suppressed\":";
  json_diags(out, result.suppressed, true);
  out << ",\"count\":" << result.diagnostics.size() << "}\n";
  return out.str();
}

}  // namespace sf::lint
