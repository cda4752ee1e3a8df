// Engine driver: the rule table, the per-file compatibility entry points,
// the parallel tree walk with fact caching, and the report/SARIF renderers.
// The determinism contract lives here: files are walked in sorted order,
// facts land in slots addressed by that order regardless of which pool
// worker produced them, the merge is sequential, and findings get a final
// global sort — so the report is byte-identical at any --threads value and
// across cold/warm cache runs.
#include "lint.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "exec/thread_pool.hpp"
#include "obs/json.hpp"

#include "index/cache.hpp"
#include "index/facts.hpp"
#include "lex/lexer.hpp"
#include "rules/file_rules.hpp"
#include "rules/project_rules.hpp"

namespace booterscope::lint {

namespace {

// ---------------------------------------------------------------------------
// Rule table
// ---------------------------------------------------------------------------

const std::vector<RuleInfo> kRules = {
    {"BS001", Severity::kError,
     "banned nondeterminism primitive (std::random_device, rand, srand, "
     "time(), std::chrono::system_clock) outside util/time and obs/manifest",
     "derive randomness from util::Rng::split(seed, label, index) and wall "
     "time from util/time or obs/manifest"},
    {"BS002", Severity::kError,
     "raw byte access (memcpy, reinterpret_cast) in decoder code",
     "route the read through the bounds-checked util::ByteReader/ByteWriter "
     "in util/byteio.hpp"},
    {"BS003", Severity::kError,
     "`throw` in src/flow, src/pcap or src/exec: decoders return "
     "Result<T, DecodeError>, and a throw that escapes a pool task ends "
     "the run",
     "return util::Result<T>/DecodeError instead of throwing"},
    {"BS004", Severity::kError,
     "range-for over std::unordered_map/unordered_set; iteration order must "
     "never feed serialized or merged output",
     "iterate an ordered container, collect-and-sort before emitting, or "
     "justify order-independence with bslint:allow(BS004 ...)"},
    {"BS005", Severity::kError,
     "naked std::thread outside exec/thread_pool",
     "submit work to exec::ThreadPool so tasks get metrics, stealing and "
     "deterministic merge slots"},
    {"BS006", Severity::kError,
     "Prometheus metric name breaks the exposition conventions: names must "
     "match [a-z_:][a-z0-9_:]* and counters must end in _total, _seconds "
     "or _bytes",
     "rename the series to a lowercase snake_case name; counters take a "
     "_total/_seconds/_bytes unit suffix so scrapers can infer the unit"},
    {"BS007", Severity::kError,
     "raw ::socket(2)/::bind(2) outside the sanctioned network layers "
     "(src/svc and src/obs/live)",
     "route UDP ingest through svc::UdpIngest/UdpSender and HTTP serving "
     "through obs::live::ScrapeServer; everything else stays socket-free so "
     "runs replay without a network"},
    {"BS008", Severity::kError,
     "layering violation in the include DAG: edges must point down the "
     "stack util -> stats/obs -> flow/pcap/net/sim/exec -> core -> svc, and "
     "include cycles are never legal",
     "move the shared declaration down to the layer both sides may see, or "
     "invert the dependency (callback/interface) so the edge points down"},
    {"BS009", Severity::kError,
     "`throw` transitively reachable from a Result-returning entry point in "
     "src/flow or src/pcap — the interprocedural closure of BS003",
     "make the helper return util::Result and propagate the error, or "
     "quarantine the throw with bslint:allow(BS003 ...) at the throw site"},
    {"BS010", Severity::kError,
     "lock-order cycle in the util::Mutex acquisition graph — two code "
     "paths take the same mutexes in opposite orders (potential deadlock)",
     "pick one global acquisition order for the mutexes involved and "
     "restructure the second path (or drop to a single lock) to follow it"},
    {"BS011", Severity::kWarning,
     "statement-expression call discards a Result<...> return value; the "
     "error and its damage-ledger entry are silently lost",
     "assign the Result and branch on it (or std::ignore = ... with a "
     "bslint:allow(BS011 ...) justifying why the error cannot matter)"},
};

// ---------------------------------------------------------------------------
// Tree walk + parallel indexing
// ---------------------------------------------------------------------------

[[nodiscard]] std::string slurp(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Expands `paths` to the sorted, unique list of source files. Returns an
/// error string (for exit code 2) when an explicitly named path does not
/// exist — a typo in a CI invocation must not silently lint nothing.
[[nodiscard]] std::string collect_files(const std::filesystem::path& base,
                                        const std::vector<std::string>& paths,
                                        std::vector<std::filesystem::path>& out) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(base, ec)) {
    return "root is not a directory: " + base.string();
  }
  for (const std::string& entry : paths) {
    const fs::path full = base / entry;
    if (fs::is_regular_file(full, ec)) {
      out.push_back(full);
      continue;
    }
    if (!fs::is_directory(full, ec)) {
      return "no such file or directory: " + entry;
    }
    for (const auto& item : fs::recursive_directory_iterator(full)) {
      if (!item.is_regular_file()) continue;
      const std::string ext = item.path().extension().string();
      if (ext == ".hpp" || ext == ".h" || ext == ".cpp" || ext == ".cc") {
        out.push_back(item.path());
      }
    }
  }
  // Directory iteration order is unspecified; sort so reports (and the
  // ctest gate's output) are byte-stable. bslint practices BS004.
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return {};
}

}  // namespace

std::string_view to_string(Severity severity) noexcept {
  return severity == Severity::kError ? "error" : "warning";
}

const std::vector<RuleInfo>& rules() { return kRules; }

std::vector<Finding> lint_file(const FileInput& input) {
  const std::vector<std::string> raw = lex::raw_lines(input.content);
  const std::vector<std::string> stripped = lex::strip_to_lines(input.content);
  const std::vector<std::string> companion_stripped =
      input.companion_header.empty()
          ? std::vector<std::string>{}
          : lex::strip_to_lines(input.companion_header);
  return checks::local_findings(input.path, raw, stripped, companion_stripped,
                               checks::parse_suppressions(raw));
}

TreeRun lint_tree_full(const std::string& root,
                       const std::vector<std::string>& paths,
                       const TreeOptions& options) {
  namespace fs = std::filesystem;
  TreeRun run;
  const fs::path base(root);

  std::vector<fs::path> files;
  run.error = collect_files(base, paths, files);
  if (!run.error.empty()) return run;

  // Root-relative forward-slash paths, computed up front so the parallel
  // phase touches the filesystem only to read file contents.
  std::vector<std::string> rel;
  rel.reserve(files.size());
  for (const fs::path& file : files) {
    rel.push_back(fs::relative(file, base).generic_string());
  }

  const index::Cache cache = options.cache_path.empty()
                                 ? index::Cache{}
                                 : index::load_cache(options.cache_path);

  struct Slot {
    index::FileFacts facts;
    std::string payload;  // serialized facts (reused for the cache write)
    std::string content_hash;
    std::string companion_hash;
    bool hit = false;
  };
  std::vector<Slot> slots(files.size());

  // Indexing is embarrassingly parallel; results land in slots addressed
  // by the sorted file order, so worker scheduling cannot reorder them.
  exec::ThreadPool pool(options.threads);
  pool.parallel_for(files.size(), [&](std::size_t i) {
    Slot& slot = slots[i];
    FileInput input;
    input.path = rel[i];
    input.content = slurp(files[i]);
    if (files[i].extension() == ".cpp" || files[i].extension() == ".cc") {
      fs::path header = files[i];
      header.replace_extension(".hpp");
      std::error_code ec;
      if (fs::is_regular_file(header, ec)) {
        input.companion_header = slurp(header);
      }
    }
    slot.content_hash = index::content_hash(input.content);
    slot.companion_hash = index::content_hash(input.companion_header);

    const auto cached = cache.entries.find(input.path);
    if (cached != cache.entries.end() &&
        cached->second.content_hash == slot.content_hash &&
        cached->second.companion_hash == slot.companion_hash &&
        index::deserialize(cached->second.payload, slot.facts) &&
        slot.facts.path == input.path) {
      slot.payload = cached->second.payload;
      slot.hit = true;
      return;
    }
    slot.facts = index::index_file(input);
    slot.payload = index::serialize(slot.facts);
    slot.hit = false;
  });

  // Sequential merge in slot order: stats, local findings, the fact list
  // the project rules see, and the refreshed cache.
  run.stats.files = files.size();
  std::vector<index::FileFacts> all;
  all.reserve(slots.size());
  index::Cache refreshed;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    Slot& slot = slots[i];
    if (slot.hit) {
      ++run.stats.cache_hits;
    } else {
      ++run.stats.lexed;
    }
    if (!options.cache_path.empty()) {
      refreshed.entries.emplace(
          rel[i], index::CacheEntry{slot.content_hash, slot.companion_hash,
                                    slot.payload});
    }
    run.findings.insert(run.findings.end(), slot.facts.local_findings.begin(),
                        slot.facts.local_findings.end());
    all.push_back(std::move(slot.facts));
  }
  std::sort(all.begin(), all.end(),
            [](const index::FileFacts& a, const index::FileFacts& b) {
              return a.path < b.path;
            });

  std::vector<Finding> project = checks::project_findings(all);
  run.findings.insert(run.findings.end(),
                      std::make_move_iterator(project.begin()),
                      std::make_move_iterator(project.end()));
  std::sort(run.findings.begin(), run.findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.path, a.line, a.rule, a.message) <
                     std::tie(b.path, b.line, b.rule, b.message);
            });

  if (!options.cache_path.empty()) {
    // Advisory: a read-only checkout still lints, it just never warms up.
    (void)index::save_cache(options.cache_path, refreshed);
  }
  return run;
}

std::vector<Finding> lint_tree(const std::string& root,
                               const std::vector<std::string>& paths) {
  TreeOptions options;
  options.threads = 1;
  return lint_tree_full(root, paths, options).findings;
}

std::string render_report(const std::vector<Finding>& findings,
                          bool fix_dry_run) {
  std::ostringstream out;
  std::map<std::string, std::size_t> per_rule;
  for (const Finding& f : findings) {
    out << f.path << ':' << f.line << ": " << f.rule << " ["
        << to_string(f.severity) << "] " << f.message << '\n';
    if (!f.excerpt.empty()) out << "    | " << f.excerpt << '\n';
    if (fix_dry_run) out << "    would fix: " << f.suggestion << '\n';
    ++per_rule[f.rule];
  }
  if (findings.empty()) {
    out << "bslint: clean (0 findings)\n";
  } else {
    out << "bslint: " << findings.size() << " finding"
        << (findings.size() == 1 ? "" : "s");
    out << " (";
    bool first = true;
    for (const auto& [rule, count] : per_rule) {
      if (!first) out << ", ";
      out << rule << ": " << count;
      first = false;
    }
    out << ")\n";
  }
  return out.str();
}

std::string render_sarif(const std::vector<Finding>& findings) {
  // SARIF 2.1.0, one run, the full rule table under tool.driver.rules so
  // code-scanning UIs can show summaries and remediations for every rule,
  // fired or not. obs::json_string handles escaping.
  using obs::json_string;
  std::ostringstream out;
  out << "{\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"$schema\": "
         "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      << "  \"runs\": [\n"
      << "    {\n"
      << "      \"tool\": {\n"
      << "        \"driver\": {\n"
      << "          \"name\": \"bslint\",\n"
      << "          \"version\": " << json_string(kRuleSetVersion) << ",\n"
      << "          \"rules\": [\n";
  std::map<std::string_view, std::size_t> rule_index;
  for (std::size_t i = 0; i < kRules.size(); ++i) {
    const RuleInfo& rule = kRules[i];
    rule_index.emplace(rule.id, i);
    out << "            {\n"
        << "              \"id\": " << json_string(rule.id) << ",\n"
        << "              \"shortDescription\": { \"text\": "
        << json_string(rule.summary) << " },\n"
        << "              \"help\": { \"text\": "
        << json_string(rule.suggestion) << " },\n"
        << "              \"defaultConfiguration\": { \"level\": "
        << json_string(to_string(rule.severity)) << " }\n"
        << "            }" << (i + 1 < kRules.size() ? "," : "") << "\n";
  }
  out << "          ]\n"
      << "        }\n"
      << "      },\n"
      << "      \"results\": [\n";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    const auto idx = rule_index.find(f.rule);
    out << "        {\n"
        << "          \"ruleId\": " << json_string(f.rule) << ",\n";
    if (idx != rule_index.end()) {
      out << "          \"ruleIndex\": " << idx->second << ",\n";
    }
    out << "          \"level\": " << json_string(to_string(f.severity))
        << ",\n"
        << "          \"message\": { \"text\": " << json_string(f.message)
        << " },\n"
        << "          \"locations\": [\n"
        << "            {\n"
        << "              \"physicalLocation\": {\n"
        << "                \"artifactLocation\": { \"uri\": "
        << json_string(f.path) << " },\n"
        << "                \"region\": { \"startLine\": " << f.line
        << " }\n"
        << "              }\n"
        << "            }\n"
        << "          ]\n"
        << "        }" << (i + 1 < findings.size() ? "," : "") << "\n";
  }
  out << "      ]\n"
      << "    }\n"
      << "  ]\n"
      << "}\n";
  return out.str();
}

}  // namespace booterscope::lint
