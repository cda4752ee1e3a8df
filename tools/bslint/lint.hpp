// bslint — booterscope's project-wide static analysis engine.
//
// The reproduction's headline guarantees (byte-identical output at any
// --threads value, conservation-preserving fault injection, decoders that
// never throw) rest on invariants no general-purpose compiler warning
// checks: all randomness must flow through util::Rng::split, decoder byte
// access must go through util/byteio.hpp, serialized/merged output must
// never depend on hash-map iteration order. v1 enforced those with
// per-file, line-local pattern rules. v2 adds a whole-program layer: a
// lexer + preprocessor-lite front end (tools/bslint/lex) feeds a per-file
// fact index (tools/bslint/index — declared functions, calls, #includes,
// throw sites, lock acquisitions, Result-returning signatures,
// discarded-call statements), indexed in parallel on exec::ThreadPool with
// content-hash caching and a deterministic sorted merge. On the merged
// index two graphs are built (tools/bslint/graph): the include DAG and an
// approximate name-matched call graph, over which the interprocedural
// rules run (tools/bslint/rules).
//
// Rules (see DESIGN.md §11 for the per-file rationale and §16 for the
// engine architecture):
//   BS001  banned nondeterminism primitives (std::random_device, rand,
//          srand, C time(), std::chrono::system_clock) outside util/time
//          and obs/manifest
//   BS002  raw byte access (memcpy, reinterpret_cast) in decoder dirs
//          (src/flow, src/pcap) — must go through util/byteio.hpp
//   BS003  `throw` in src/flow, src/pcap or src/exec: decoders return
//          Result<T, DecodeError>, and a throw that escapes a pool task
//          ends the run
//   BS004  range-for over std::unordered_map/unordered_set in src/ —
//          unordered iteration must not feed serialized or merged output
//   BS005  naked std::thread/std::jthread outside exec/thread_pool
//   BS006  Prometheus metric names registered in src/ must match
//          [a-z_:][a-z0-9_:]* and counters must carry a unit suffix
//          (_total, _seconds or _bytes)
//   BS007  raw ::socket(2)/::bind(2) outside src/svc and src/obs/live
//   BS008  layering over the include DAG: util → stats/obs →
//          flow/pcap/net/sim/exec (+ fault/topo/dnsobs) → core → svc;
//          upward #include edges and include cycles are errors
//   BS009  throw-reachability: no `throw` transitively reachable (over the
//          approximate call graph) from a Result-returning entry point in
//          src/flow or src/pcap — the interprocedural closure of BS003
//   BS010  lock-order: a cycle in the mutex-acquisition graph harvested
//          from util::Mutex declarations and MutexLock/.lock() sites is a
//          potential deadlock
//   BS011  discarded Result: a statement-expression call to a function
//          indexed as returning Result<...> whose value is ignored loses
//          the damage ledger
//
// Suppressions: `// bslint:allow(BSxxx reason)` on the same or preceding
// line; `// bslint:allow-file(BSxxx reason)` anywhere suppresses the rule
// for the whole file. Comments and string literals are stripped before
// matching, so prose never trips a rule. Interprocedural findings honour
// the suppressions of the file the finding is reported in.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace booterscope::lint {

enum class Severity { kError, kWarning };

[[nodiscard]] std::string_view to_string(Severity severity) noexcept;

/// One rule of the table. Adding a per-file rule is one entry here plus a
/// matcher branch in rules/file_rules.cpp; interprocedural rules also get
/// a pass in rules/project_rules.cpp — the driver, report, cache and
/// suppression machinery are shared.
struct RuleInfo {
  std::string_view id;        // "BS001"
  Severity severity;
  std::string_view summary;   // one-line description for --list-rules
  std::string_view suggestion;  // remediation printed by --fix-dry-run
};

/// The static rule table, ordered by id.
[[nodiscard]] const std::vector<RuleInfo>& rules();

/// Version stamp of the rule set + fact schema. Part of the cache key: any
/// rule or serialization change invalidates every .bslint-cache entry.
inline constexpr std::string_view kRuleSetVersion = "bslint-v2 BS001-BS011 r1";

struct Finding {
  std::string rule;      // "BS001"
  Severity severity = Severity::kError;
  std::string path;      // root-relative, forward slashes
  std::size_t line = 0;  // 1-based
  std::string message;
  std::string excerpt;     // the offending source line, trimmed
  std::string suggestion;  // rule remediation hint
};

/// One file to lint. `path` must be root-relative with forward slashes —
/// rule scoping (decoder dirs, util/time allowlist) matches on it.
/// `companion_header` optionally carries the contents of the sibling
/// header (foo.cpp -> foo.hpp) so BS004 can resolve member declarations
/// made in the header but iterated in the implementation file.
struct FileInput {
  std::string path;
  std::string content;
  std::string companion_header;
};

/// Lints one in-memory file with the per-file rules (BS001–BS007). Pure:
/// no filesystem access, deterministic output ordered by line. The
/// interprocedural rules need the whole tree — use lint_tree_full.
[[nodiscard]] std::vector<Finding> lint_file(const FileInput& input);

/// Engine configuration for a tree run.
struct TreeOptions {
  /// Indexing pool width. 0 = hardware concurrency. Output is
  /// byte-identical at every value — facts land in slots addressed by the
  /// sorted file order and are merged sequentially.
  std::size_t threads = 0;
  /// Path of the fact cache file ('.bslint-cache'). Empty disables
  /// caching. Entries are keyed by (path, content hash, companion-header
  /// hash, kRuleSetVersion); a hit skips lexing and indexing entirely.
  std::string cache_path;
};

/// Indexing statistics for one tree run (cache-correctness tests and the
/// CI warm/cold speedup gate read these).
struct TreeStats {
  std::size_t files = 0;       // files scanned
  std::size_t lexed = 0;       // files that went through the front end
  std::size_t cache_hits = 0;  // files served from the fact cache
};

struct TreeRun {
  std::vector<Finding> findings;  // sorted by (path, line, rule, message)
  TreeStats stats;
  /// Non-empty on usage/IO errors (explicit path missing, unreadable
  /// root); the CLI maps this to exit code 2.
  std::string error;
};

/// Walks `paths` (files or directories, relative to `root`), indexes every
/// .hpp/.h/.cpp/.cc file (in parallel per `options.threads`), runs the
/// per-file rules and the interprocedural rules over the merged index, and
/// returns findings plus stats. Deterministic: byte-identical report at
/// any thread count and across cold/warm cache runs.
[[nodiscard]] TreeRun lint_tree_full(const std::string& root,
                                     const std::vector<std::string>& paths,
                                     const TreeOptions& options);

/// Compatibility wrapper: single-threaded, no cache, findings only.
[[nodiscard]] std::vector<Finding> lint_tree(
    const std::string& root, const std::vector<std::string>& paths);

/// Renders findings as `path:line: BSxxx [severity] message` lines plus a
/// summary. With `fix_dry_run`, each finding also prints its remediation
/// ("would fix: ...") — a report mode, not a rewriter.
[[nodiscard]] std::string render_report(const std::vector<Finding>& findings,
                                        bool fix_dry_run);

/// Renders findings as a SARIF 2.1.0 log (one run, driver "bslint", the
/// full rule table under tool.driver.rules). CI uploads this as the
/// code-scanning artifact.
[[nodiscard]] std::string render_sarif(const std::vector<Finding>& findings);

}  // namespace booterscope::lint
