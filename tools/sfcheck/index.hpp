// Lightweight per-file symbol indexer: function/method definitions,
// named and task-entry lambdas, and call references, extracted from the
// comment/string-stripped token stream (lex.hpp). No libclang: this is
// a pattern indexer, not a parser -- it recognizes the shapes this
// codebase actually uses (free functions, `Class::method` out-of-line
// definitions, in-class bodies, ctor init lists, trailing return types,
// `auto name = [..](..){..}` lambdas) and deliberately ignores the
// rest. The index feeds the whole-repo call graph (callgraph.hpp) that
// powers the interprocedural rules R1 and C1.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "lex.hpp"

namespace sf::lint {

// One call site inside a function body: `callee(...)`, possibly through
// a receiver chain (`ctx.store->put(...)` has callee "put", receiver
// base "ctx" and receiver tail "store").
struct CallRef {
  std::string callee;
  std::string receiver;  // ident right before the . or -> ("" for free calls)
  int line = 0;
};

// A function/method/lambda definition and its body token span
// [body_begin, body_end): the tokens strictly between the braces.
struct FunctionDef {
  std::string name;    // base name; lambdas use the variable they bind to
  std::string qual;    // display name, e.g. "RelaxStage::run_subset"
  std::string file;
  int line = 0;
  std::size_t body_begin = 0;
  std::size_t body_end = 0;
  // Parameter-list token span (strictly between the parens); 0,0 when
  // the def has no parameter list (e.g. a lambda without one).
  std::size_t param_begin = 0;
  std::size_t param_end = 0;
  bool is_lambda = false;
  bool is_task_entry = false;  // bound to a TaskFn / passed to Executor::map
  // Lambda capture info (lambdas only).
  bool default_ref_capture = false;   // [&]
  bool default_copy_capture = false;  // [=]
  bool is_mutable = false;
  std::vector<std::string> ref_captures;  // names captured as [&x]
  std::vector<CallRef> calls;             // call references in the body
};

struct FileIndex {
  std::vector<FunctionDef> defs;  // ordered by body_begin
};

struct SymbolIndex {
  std::map<std::string, FileIndex> files;
  // base name -> (file, def position in files[file].defs)
  std::map<std::string, std::vector<std::pair<std::string, std::size_t>>> by_name;

  const FunctionDef& def(const std::pair<std::string, std::size_t>& ref) const {
    return files.at(ref.first).defs[ref.second];
  }
};

// Types whose lambda initializers are executor task functions, e.g.
// `const TaskFn fn = [&](..){..}`.
struct IndexOptions {
  std::vector<std::string> task_fn_types = {"TaskFn"};
  // Method names whose lambda arguments are task functions
  // (`executor.map(tasks, [&](..){..}, ..)`); Config::project_default()
  // adds SlotComputer::fill_slots.
  std::vector<std::string> task_entry_calls = {"map"};
};

// True for identifiers that can never be a call reference (control
// flow, casts, ...). Shared with the C1 mutation scan.
bool call_keyword_blocked(const std::string& ident);

// Index one file's token stream.
FileIndex index_file(const std::string& path, const std::vector<Token>& toks,
                     const IndexOptions& opt);

// Index every file and build the name lookup table.
SymbolIndex build_index(const std::map<std::string, std::vector<Token>>& tokens,
                        const IndexOptions& opt);

}  // namespace sf::lint
