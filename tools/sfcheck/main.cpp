// sfcheck CLI: scan the tree (or an explicit file list) and report.
//
//   sfcheck --root <repo>            lint src/, tools/, examples/
//                                    (bench/, wallbench/: U1 roots only)
//   sfcheck --root <repo> --json     machine-readable report on stdout
//   sfcheck --root <repo> --sarif    SARIF 2.1.0 report on stdout
//   sfcheck --root <repo> --baseline tools/sfcheck/baseline.sfcheck
//                                    fail only on findings NOT in the baseline
//   sfcheck --root <repo> --write-baseline > tools/sfcheck/baseline.sfcheck
//   sfcheck --root <repo> src/geom/vec3.hpp ...   lint specific files
//
// Exit status: 0 clean (or all findings baselined), 1 violations found,
// 2 usage or I/O error. With --sarif the report always carries every
// finding; only the exit code honours the baseline.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "sfcheck.hpp"

namespace fs = std::filesystem;

namespace {

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) throw std::runtime_error("sfcheck: cannot read " + p.string());
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string to_rel(const fs::path& p, const fs::path& root) {
  std::error_code ec;
  fs::path rel = fs::relative(p, root, ec);
  if (ec || rel.empty()) rel = p;
  return rel.generic_string();
}

void usage(std::ostream& out) {
  out << "usage: sfcheck [--root DIR] [--json|--sarif] [--baseline FILE]\n"
         "               [--write-baseline] [paths...]\n"
         "Lints src/, tools/ and examples/ for determinism (D1-D5), layering\n"
         "(L1) and task purity (R1, C1) violations, and reports every src/\n"
         "definition no product reaches (U1; bench/ and wallbench/ are read\n"
         "as its roots only). tests/ are unrestricted. Suppress a finding\n"
         "inline:\n"
         "  // sfcheck:allow(RULE): reason\n"
         "--baseline FILE fails only on findings absent from FILE;\n"
         "--write-baseline prints the current findings as a baseline image.\n";
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = ".";
  bool json = false;
  bool sarif = false;
  bool write_baseline = false;
  std::string baseline_path;
  std::vector<std::string> explicit_paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--sarif") {
      sarif = true;
    } else if (arg == "--baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (arg == "--write-baseline") {
      write_baseline = true;
    } else if (arg == "-h" || arg == "--help") {
      usage(std::cout);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "sfcheck: unknown option " << arg << "\n";
      usage(std::cerr);
      return 2;
    } else {
      explicit_paths.push_back(arg);
    }
  }

  std::vector<sf::lint::SourceFile> files;
  try {
    std::vector<std::string> rels;
    if (!explicit_paths.empty()) {
      for (const auto& p : explicit_paths) {
        const fs::path abs = fs::path(p).is_absolute() ? fs::path(p) : root / p;
        rels.push_back(to_rel(abs, root));
      }
    } else {
      for (const char* sub : sf::lint::kIndexedTrees) {
        const fs::path dir = root / sub;
        if (!fs::exists(dir)) continue;
        for (const auto& entry : fs::recursive_directory_iterator(dir)) {
          if (!entry.is_regular_file()) continue;
          rels.push_back(to_rel(entry.path(), root));
        }
      }
    }
    // Directory iteration order is unspecified; the linter itself must
    // be deterministic.
    std::sort(rels.begin(), rels.end());
    for (const auto& rel : rels) {
      if (!sf::lint::is_indexed_path(rel)) continue;
      files.push_back({rel, slurp(root / rel)});
    }
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }

  const auto result = sf::lint::run(files, sf::lint::Config::project_default());

  if (write_baseline) {
    std::cout << sf::lint::render_baseline(result);
    return 0;
  }

  // Baseline gate: the exit code (and the text report) reflect only
  // findings absent from the baseline; machine reports stay complete.
  std::vector<sf::lint::Diagnostic> gating = result.diagnostics;
  std::size_t baselined = 0;
  if (!baseline_path.empty()) {
    try {
      const auto keys = sf::lint::parse_baseline(slurp(baseline_path));
      gating = sf::lint::baseline_new(result.diagnostics, keys);
      baselined = result.diagnostics.size() - gating.size();
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n";
      return 2;
    }
  }

  if (sarif) {
    std::cout << sf::lint::render_sarif(result);
  } else if (json) {
    std::cout << sf::lint::render_json(result);
  } else {
    sf::lint::ScanResult shown;
    shown.diagnostics = gating;
    shown.suppressed = result.suppressed;
    std::cout << sf::lint::render_text(shown);
    if (baselined > 0) {
      std::cout << "sfcheck: " << baselined << " known finding(s) covered by baseline "
                << baseline_path << "\n";
    }
  }
  return gating.empty() ? 0 : 1;
}
