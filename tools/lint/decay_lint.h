// decay_lint: project-invariant linter for the decaylib source tree.
//
// Generic tools (clang-tidy, -Wconversion) cannot express the repo-specific
// disciplines this codebase's determinism and exactness claims rest on.
// decay_lint enforces those as mechanical rules over src/:
//
//   exactness-pow        std::pow/std::hypot only in the physical-model layer
//                        (src/geom/, src/sinr/, src/spaces/, src/env/,
//                        src/core/ [DecaySpace/fading/numerics primitives],
//                        src/measurement/ [simulated RSSI/PRR physics]).
//                        Algorithm/engine layers must consume decay through
//                        DecaySpace/KernelCache so exact paths stay
//                        bit-identical (PR 9 exactness discipline).
//   status-io            no printf/fprintf/cout/cerr/abort/exit in library
//                        code outside core/check.h and the designated report
//                        writers (*report.cc) -- recoverable errors travel as
//                        core::Status (PR 6 status discipline).
//   unordered-iteration  no iteration over std::unordered_{map,set,...}
//                        anywhere in src/: iteration order is
//                        implementation-defined and would leak into
//                        AggregateSignature/SweepSignature or report output
//                        (determinism discipline).
//   naked-thread         no std::thread/std::jthread construction outside
//                        core/workers -- every fork-join (BatchRunner's
//                        instance pool, ComputePhi's chunked scan) goes
//                        through core::RunWorkers, the one spawn-and-join
//                        site.  (std::thread::hardware_concurrency is a
//                        static query and stays legal.)
//   clock-read           no clock reads outside src/obs/: wall time observed
//                        inside algorithm code would make checkpoint/resume
//                        and replay non-deterministic.  Timing surfaces in
//                        the engine/sweep layers carry explicit annotations.
//   oracle-in-src        no identifier ending in Naive or Rescan under src/:
//                        the naive reference oracles live with the tests
//                        (tests/oracles/), so the library holds only
//                        production code.
//
// Suppression works at two granularities, always inside comments:
//   // decay-lint: allow(<rule>) -- <reason>            same or previous line
//   // decay-lint: allowlist-file(<rule>) -- <reason>   whole file
// A fixture or out-of-tree file can pin the path the rules see with
//   // decay-lint-path: src/engine/whatever.cc
// in its first lines (used by the committed fixtures under
// tools/lint/fixtures/, which exercise every rule in both directions).
//
// The linter is deliberately lexical (comments and string literals are
// stripped before matching): it runs in milliseconds as a ctest test and a
// CI step, needs no compiler, and the disciplines it checks are all
// expressible at token level.  See docs/static_analysis.md.
#pragma once

#include <string>
#include <vector>

namespace decaylint {

struct Finding {
  std::string file;     // label the rules saw (normally repo-relative)
  int line = 0;         // 1-based
  std::string rule;     // rule id, e.g. "exactness-pow"
  std::string message;  // human explanation of this hit
};

struct RuleInfo {
  std::string id;
  std::string summary;
};

// Catalogue of every rule, in reporting order.
std::vector<RuleInfo> Rules();

// Lint one file's contents.  `label` is the path the path-scoped allowlists
// match against; a `decay-lint-path:` directive inside the content overrides
// it.  Findings come back sorted by line.
std::vector<Finding> LintContent(const std::string& label,
                                 const std::string& content);

// Lint a file on disk (reads it, then LintContent with `label`).
// Returns false and sets `error` if the file cannot be read.
bool LintFile(const std::string& path, const std::string& label,
              std::vector<Finding>* findings, std::string* error);

// Recursively lint every .h/.cc under `root`.  Labels are formed as
// <basename(root)>/<relative path>, so passing ".../repo/src" yields the
// canonical "src/..." labels the allowlists expect.  Returns false on I/O
// errors (message in `error`).
bool LintTree(const std::string& root, std::vector<Finding>* findings,
              std::string* error);

// "file:line: [rule] message" -- one line, no trailing newline.
std::string FormatFinding(const Finding& f);

}  // namespace decaylint
