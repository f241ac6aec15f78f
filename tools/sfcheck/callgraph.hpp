// Whole-repo call graph over the symbol index, and the two
// interprocedural rule families built on it:
//
//   R1  taint reachability: starting from task-function entry points
//       (lambdas bound to a TaskFn or passed to Executor::map or
//       SlotComputer::fill_slots),
//       walk the name-resolved call graph and flag any path reaching a
//       nondeterminism sink -- wall-clock reads (including the
//       sanctioned sf::util::wallclock_now() shim), non-sf::Rng
//       randomness, naked std::ofstream, or unordered-container
//       iteration in an emit module. The diagnostic renders the full
//       call chain (`fn -> a() -> b() -> steady_clock`), so the
//       file-local rules D1-D4 become interprocedural.
//   C1  closure purity: task lambdas must not mutate captured state
//       (only per-task slot writes `x[i] = ..` are sanctioned), must
//       not be `mutable`, and must not call the store or the journal
//       (their serial-call-order invariant holds only outside maps).
//
// Resolution is by base name: a call edge links to every indexed
// definition sharing the callee's name. That over-approximates -- which
// is the right failure mode for a determinism gate -- and suppressions
// at the entry line handle the rare false positive.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "index.hpp"

namespace sf::lint {

struct Config;  // sfcheck.hpp

struct InterprocFinding {
  std::string file;   // entry-point file (diagnostics anchor at the entry)
  int line = 0;       // entry-point line
  std::string rule;   // "R1" or "C1"
  std::string message;
  std::vector<std::string> chain;  // "name@file:line" hops, entry first
};

// Run R1 + C1 over every file. `tokens` must hold the token stream of
// each scanned file keyed by repo-relative path.
std::vector<InterprocFinding> run_interproc(
    const std::map<std::string, std::vector<Token>>& tokens, const Config& cfg);

}  // namespace sf::lint
