// sfcheck: project-native determinism & layering linter.
//
// The repo's core guarantee -- bit-identical chaos replay and
// kill-at-any-byte campaign resume -- holds only while every code path
// stays deterministic. sfcheck machine-enforces the invariants that
// used to live in reviewers' heads:
//
//   D1  seeded RNG only: no rand()/srand(), no std::random_device, no
//       unseeded std::mt19937 outside src/util/rng.* (all randomness
//       flows through sf::Rng's splittable streams);
//   D2  no wall-clock reads (system_clock, steady_clock, time(),
//       clock(), ...) outside bench/ and the one sanctioned shim
//       sf::util::wallclock_now() (src/util/wallclock.*) -- simulated
//       time is the only clock deterministic artifacts may see;
//   D3  no iteration over std::unordered_map / std::unordered_set in
//       modules that emit reports, journal records, CSVs, or traces
//       (src/core, src/dataflow, src/util, src/seqsearch, src/obs,
//       src/store, tools/sftrace, examples/) unless the keys are sorted
//       into an ordered container first;
//   D4  no naked std::ofstream outside the torn-write-safe helpers
//       (src/util/file_io.*: the atomic whole-file writer, and the
//       appender the journal and the store manifest seal their lines
//       through) -- a kill mid-write must never leave a half-valid
//       artifact;
//   D5  canonical float formatting: emit modules may not render
//       floating point through std::to_string, bare `operator<<` of a
//       float-typed value, or direct printf-family calls -- only the
//       canonical formatters (sf::format with an explicit spec, the
//       %.17g codecs in journal/trace_io) produce bytes, closing the
//       last textual hole in byte-identity;
//   L1  include-graph layering: module ranks form
//       util <- bio <- {geom, relax, score, seqsearch, fold, sim, obs}
//            <- {dataflow, analysis, sftrace, store} <- {dist, cluster}
//            <- core,
//       includes may only point downward; equal-rank edges are allowed
//       but the observed module graph must stay acyclic. tests/ and
//       bench/ are unrestricted (they are not scanned); tools/<name>/
//       counts as module <name> when it appears in the rank map
//       (tools/sftrace does; tools/sfcheck stays unlayered);
//   R1  interprocedural taint: task functions (lambdas bound to a
//       TaskFn or passed to Executor::map, and compute-phase lambdas
//       passed to SlotComputer::fill_slots) must not *reach* a
//       nondeterminism sink through any call chain -- wall-clock reads,
//       non-sf::Rng randomness, naked ofstream, unordered iteration in
//       emit modules. Diagnostics render the full chain
//       (`fn -> a() -> b() -> steady_clock`); see callgraph.hpp;
//   C1  closure purity: task lambdas must not mutate captured state
//       (per-task slot writes `x[i] = ..` are the sanctioned pattern),
//       must not be `mutable`, and must not call the store or journal
//       (serial call order outside tasks is a store invariant);
//   U1  least code: when the scan holds a `main`, every src/ definition
//       must be reachable from a product. Roots are the identifiers of
//       every indexed file outside src/ (is_indexed_path); an
//       identifier anywhere in a reached definition (signature,
//       initializer list, body) reaches every definition of that base
//       name. Edges are identifiers rather than calls so function
//       values, constructors named by type, virtual overrides and
//       TaskFn targets all count (see unused.cpp);
//   SUP suppressions must carry a reason: an inline
//       `// sfcheck:allow(RULE): reason` with an empty reason is
//       itself a violation (and suppresses nothing).
//
// A diagnostic on line N is silenced by a comment on that same line:
//   std::ofstream raw(p);  // sfcheck:allow(D4): doc example, never shipped
// Multiple rules may share one comment: sfcheck:allow(D2,D4): reason.
// R1/C1 diagnostics anchor at the task lambda's entry line; that is
// where their suppressions live. U1 anchors at the definition's line.
//
// The scanner is a lexer plus a pattern-based symbol indexer, not a
// compiler (no libclang): comments/strings are stripped before rules
// run, and the call graph resolves callees by name, over-approximating
// where C++ would overload-resolve. Reports render as text, JSON, or
// SARIF 2.1.0 (--sarif), and a committed baseline file can gate CI on
// *new* violations only while a rule rolls out (--baseline).
#pragma once

#include <map>
#include <string>
#include <vector>

namespace sf::lint {

struct Diagnostic {
  std::string file;
  int line = 0;          // 1-based; 0 for whole-graph diagnostics
  std::string rule;      // "D1".."D5", "L1", "R1", "C1", "U1", "SUP"
  std::string message;
  std::string reason;    // suppression reason (suppressed entries only)
  // Interprocedural findings carry the call chain, entry first, as
  // "name@file:line" hops ending at the sink. Empty for local rules.
  std::vector<std::string> chain;
};

// One file presented to the scanner. `path` is repo-relative with '/'
// separators; it drives all scoping decisions (module, exemptions).
struct SourceFile {
  std::string path;
  std::string content;
};

struct Config {
  // Module -> layer rank. An include edge a -> b requires
  // rank[b] <= rank[a]; equal-rank cross-module edges are legal but the
  // full observed module graph must be acyclic.
  std::map<std::string, int> layer_rank;
  // Modules whose emitted artifacts must be order-deterministic (D3).
  std::vector<std::string> d3_modules;
  // Path prefixes allowed to hold a raw std::ofstream (D4).
  std::vector<std::string> d4_allowed_prefixes;
  // Path prefix exempt from D1 (the seeded-RNG home).
  std::string rng_home = "src/util/rng";
  // Path prefix exempt from D2: the one sanctioned wall-clock shim,
  // sf::util::wallclock_now(). Still a sink for R1 -- task functions
  // may never reach it.
  std::string wallclock_home = "src/util/wallclock";
  // Modules whose float formatting must be canonical (D5). Narrower
  // than d3_modules: examples/ emit via printf tables and stay exempt.
  std::vector<std::string> d5_modules;
  // Path prefix of the canonical formatter home (sf::format's
  // vsnprintf lives here), exempt from D5's direct-stdio ban.
  std::string fmt_home = "src/util/string_util";
  // Type names whose lambda initializers are executor task functions,
  // and method names whose lambda arguments are (R1/C1 entry points):
  // Executor::map and SlotComputer::fill_slots.
  std::vector<std::string> task_fn_types;
  std::vector<std::string> task_entry_calls;
  // Receiver identifiers whose method calls are banned inside task
  // bodies (C1): objects with a serial-call-order invariant.
  std::vector<std::string> serial_receivers;
  // Path prefix of the executor framework itself. Its fault-injection
  // and outcome-recording wrappers are TaskFns too, but they
  // *implement* the task-function contract (accounting by design), so
  // they are not R1/C1 entry points.
  std::string executor_home = "src/dataflow/executor";

  // The summitfold tree's own layout and rules.
  static Config project_default();
};

struct ScanResult {
  std::vector<Diagnostic> diagnostics;  // violations (fail the build)
  std::vector<Diagnostic> suppressed;   // silenced by a reasoned allow()
};

// True for files sfcheck lints: .cpp/.hpp under src/, tools/ or
// examples/. tests/ and bench/ are deliberately unrestricted.
bool is_scanned_path(const std::string& relpath);
// The trees a scan reads: the scanned ones plus bench/ and
// wallbench/, which only U1 sees (as roots).
inline constexpr const char* kIndexedTrees[] = {"src/", "tools/", "examples/", "bench/",
                                                "wallbench/"};
// True for the .cpp/.hpp files under kIndexedTrees.
bool is_indexed_path(const std::string& relpath);

// "src/geom/vec3.hpp" -> "geom"; "tools/sftrace/main.cpp" -> "sftrace";
// "examples/proteome_campaign.cpp" -> "examples" (a pseudo-module so
// the emit-scoped rules cover the CLIs' report bytes); "" elsewhere.
std::string module_of(const std::string& relpath);

// Run every rule over `files` (paths repo-relative). Deterministic:
// diagnostics are ordered by (file, line, rule).
ScanResult run(const std::vector<SourceFile>& files, const Config& cfg);

// `file:line: error: [RULE] message` lines plus a summary tail.
std::string render_text(const ScanResult& result);
// Machine-readable report: {"diagnostics":[...],"suppressed":[...]}.
std::string render_json(const ScanResult& result);
// SARIF 2.1.0 (static analysis results interchange format): one run,
// one rule entry per rule id, suppressed findings carried with
// kind "inSource" suppressions, call chains as codeFlows. Byte
// deterministic, so goldens can pin it.
std::string render_sarif(const ScanResult& result);

// ---------------------------------------------------------------------
// Baseline gating: a committed inventory of known violations lets CI
// fail on *new* findings only while an interprocedural rule rolls out.
// Keys deliberately omit line numbers so unrelated edits above a known
// finding do not churn the file.
// ---------------------------------------------------------------------

// "rule|file|message" -- the identity of a finding for baseline diffs.
std::string baseline_key(const Diagnostic& d);

// The baseline file image: a comment header plus one sorted key per
// line.
std::string render_baseline(const ScanResult& result);

// Parse a baseline file ('#' comments and blank lines ignored).
// Returns a multiset-like sorted list of keys.
std::vector<std::string> parse_baseline(const std::string& text);

// Diagnostics not covered by the baseline (multiset difference).
std::vector<Diagnostic> baseline_new(const std::vector<Diagnostic>& diags,
                                     const std::vector<std::string>& baseline);

}  // namespace sf::lint
