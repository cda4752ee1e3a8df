#include "rules/file_rules.hpp"

#include <cctype>
#include <regex>

namespace booterscope::lint::checks {

namespace {

// ---------------------------------------------------------------------------
// Path scoping
// ---------------------------------------------------------------------------

[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

[[nodiscard]] bool bs001_exempt(std::string_view path) {
  // util/time owns the wall-clock abstraction; obs/manifest stamps run
  // metadata (git describe, wall time) that is *supposed* to differ per run.
  return starts_with(path, "src/util/time") ||
         starts_with(path, "src/obs/manifest");
}

[[nodiscard]] bool bs002_in_scope(std::string_view path) {
  return starts_with(path, "src/flow/") || starts_with(path, "src/pcap/");
}

[[nodiscard]] bool bs003_in_scope(std::string_view path) {
  return starts_with(path, "src/flow/") || starts_with(path, "src/pcap/") ||
         starts_with(path, "src/exec/");
}

[[nodiscard]] bool bs004_in_scope(std::string_view path) {
  return starts_with(path, "src/");
}

[[nodiscard]] bool bs005_exempt(std::string_view path) {
  return starts_with(path, "src/exec/thread_pool");
}

[[nodiscard]] bool bs006_in_scope(std::string_view path) {
  return starts_with(path, "src/");
}

[[nodiscard]] bool bs007_exempt(std::string_view path) {
  // The two sanctioned network layers: the ingest daemon's UDP plumbing
  // and the live scrape endpoint. Everywhere else a socket would let the
  // outside world feed a run, breaking replayability.
  return starts_with(path, "src/svc/") || starts_with(path, "src/obs/live/");
}

// ---------------------------------------------------------------------------
// BS004 helpers: unordered declarations and range-for targets
// ---------------------------------------------------------------------------

[[nodiscard]] std::string last_identifier(std::string_view text) {
  std::size_t end = text.size();
  while (end > 0 &&
         (std::isspace(static_cast<unsigned char>(text[end - 1])) != 0)) {
    --end;
  }
  std::size_t begin = end;
  while (begin > 0) {
    const char c = text[begin - 1];
    if (std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_') {
      --begin;
    } else {
      break;
    }
  }
  if (begin == end) return {};
  std::string id(text.substr(begin, end - begin));
  if (std::isdigit(static_cast<unsigned char>(id[0])) != 0) return {};
  return id;
}

// Names declared (variables, members, parameters, `using` aliases) with an
// unordered container type on one stripped line.
void collect_unordered_names(const std::vector<std::string>& stripped,
                             std::set<std::string>& names) {
  static const std::regex kUsing(R"(^\s*using\s+(\w+)\s*=)");
  for (const std::string& line : stripped) {
    if (line.find("unordered_map<") == std::string::npos &&
        line.find("unordered_set<") == std::string::npos) {
      continue;
    }
    std::smatch m;
    if (std::regex_search(line, m, kUsing)) {
      names.insert(m[1].str());
      continue;
    }
    // Cut at the first assignment '=' (not ==, <=, >=, !=) so initializer
    // expressions do not contribute the name; then take the last
    // identifier before a terminator.
    std::string_view view = line;
    for (std::size_t i = 0; i + 1 < view.size(); ++i) {
      if (view[i] != '=') continue;
      const char prev = i > 0 ? view[i - 1] : '\0';
      if (view[i + 1] == '=' || prev == '=' || prev == '<' || prev == '>' ||
          prev == '!') {
        continue;
      }
      view = view.substr(0, i);
      break;
    }
    // Trim trailing terminators: `;`, `,`, `{`, `(` — a trailing `(` means
    // a function returning the container; iterating its result is still
    // unordered iteration, so keep the name.
    std::size_t end = view.size();
    while (end > 0) {
      const char c = view[end - 1];
      if (std::isspace(static_cast<unsigned char>(c)) != 0 || c == ';' ||
          c == ',' || c == '{' || c == '(' || c == ')' || c == '&' ||
          c == '*') {
        --end;
      } else {
        break;
      }
    }
    const std::string id = last_identifier(view.substr(0, end));
    // A closing '>' right before the name means we grabbed a template arg;
    // names must follow the full type. last_identifier already enforces
    // identifier chars, so just reject empties and keywords.
    if (!id.empty() && id != "const" && id != "override" && id != "noexcept") {
      names.insert(id);
    }
  }
}

// If `line` holds a range-for, returns the iterated expression.
[[nodiscard]] std::string range_for_expr(const std::string& line) {
  const std::size_t pos = line.find("for");
  if (pos == std::string::npos) return {};
  // Require `for` as a whole word followed by '('.
  if (pos > 0 && (std::isalnum(static_cast<unsigned char>(line[pos - 1])) !=
                      0 ||
                  line[pos - 1] == '_')) {
    return {};
  }
  std::size_t open = line.find_first_not_of(' ', pos + 3);
  if (open == std::string::npos || line[open] != '(') return {};
  int depth = 0;
  std::size_t close = std::string::npos;
  for (std::size_t i = open; i < line.size(); ++i) {
    if (line[i] == '(') ++depth;
    if (line[i] == ')' && --depth == 0) {
      close = i;
      break;
    }
  }
  // Unterminated on this line: treat the rest of the line as the chunk so
  // single-line `for (x : container` splits still resolve.
  const std::string chunk = close == std::string::npos
                                ? line.substr(open + 1)
                                : line.substr(open + 1, close - open - 1);
  if (chunk.find(';') != std::string::npos) return {};  // classic for
  // The separator is a ':' with no ':' neighbor (to skip `::`).
  for (std::size_t i = 0; i < chunk.size(); ++i) {
    if (chunk[i] != ':') continue;
    const bool left = i > 0 && chunk[i - 1] == ':';
    const bool right = i + 1 < chunk.size() && chunk[i + 1] == ':';
    if (left || right) continue;
    return chunk.substr(i + 1);
  }
  return {};
}

// Resolves the final identifier of an iterated expression: strips one
// trailing call/index group so `ids_[v]` and `f.observed()` resolve to
// `ids_` / `observed`.
[[nodiscard]] std::string iterated_name(std::string expr) {
  while (!expr.empty() &&
         (std::isspace(static_cast<unsigned char>(expr.back())) != 0)) {
    expr.pop_back();
  }
  while (!expr.empty() && (expr.back() == ')' || expr.back() == ']')) {
    const char closer = expr.back();
    const char opener = closer == ')' ? '(' : '[';
    int depth = 0;
    std::size_t cut = std::string::npos;
    for (std::size_t i = expr.size(); i-- > 0;) {
      if (expr[i] == closer) ++depth;
      if (expr[i] == opener && --depth == 0) {
        cut = i;
        break;
      }
    }
    if (cut == std::string::npos) return {};
    expr.resize(cut);
  }
  return last_identifier(expr);
}

// ---------------------------------------------------------------------------
// Per-line matchers
// ---------------------------------------------------------------------------

struct Match {
  std::string_view rule;
  std::string message;
};

void match_line(std::string_view path, const std::string& line,
                const std::set<std::string>& unordered_names,
                std::vector<Match>& out) {
  static const std::regex kRandomDevice(R"(std\s*::\s*random_device)");
  static const std::regex kRand(R"(\b(srand|rand)\s*\()");
  static const std::regex kSystemClock(
      R"(std\s*::\s*chrono\s*::\s*system_clock)");
  // Bare or qualified C time(): the preceding character must not be part of
  // an identifier (`wall_time(`), a member access (`.time(`, `->time(`).
  // `std::time(` and `::time(` still match because ':' is allowed.
  static const std::regex kCTime(R"((^|[^\w.>])time\s*\()");
  static const std::regex kMemcpy(R"(\b(std\s*::\s*)?memcpy\s*\()");
  static const std::regex kReinterpret(R"(\breinterpret_cast\b)");
  static const std::regex kThrow(R"(\bthrow\b)");
  static const std::regex kThread(R"(std\s*::\s*j?thread\b)");
  // Global-namespace-qualified POSIX calls, the form this tree uses for
  // system sockets. The leading `::` must not itself be qualified
  // (`net::bind`, `std::bind` stay legal).
  static const std::regex kRawSocket(R"((^|[^\w:])::\s*(socket|bind)\s*\()");

  if (!bs001_exempt(path)) {
    if (std::regex_search(line, kRandomDevice)) {
      out.push_back({"BS001", "std::random_device is nondeterministic; all "
                              "randomness must flow through util::Rng::split"});
    }
    if (std::regex_search(line, kRand)) {
      out.push_back({"BS001", "rand()/srand() is nondeterministic global "
                              "state; use util::Rng::split streams"});
    }
    if (std::regex_search(line, kSystemClock)) {
      out.push_back({"BS001", "std::chrono::system_clock reads wall time; "
                              "only util/time and obs/manifest may"});
    }
    if (std::regex_search(line, kCTime)) {
      out.push_back({"BS001", "C time() reads wall time; only util/time and "
                              "obs/manifest may"});
    }
  }
  if (bs002_in_scope(path)) {
    if (std::regex_search(line, kMemcpy)) {
      out.push_back({"BS002", "memcpy in decoder code bypasses the "
                              "bounds-checked util::ByteReader"});
    }
    if (std::regex_search(line, kReinterpret)) {
      out.push_back({"BS002", "reinterpret_cast in decoder code bypasses the "
                              "bounds-checked util::ByteReader"});
    }
  }
  if (bs003_in_scope(path) && std::regex_search(line, kThrow)) {
    out.push_back({"BS003", "decoders return Result<T, DecodeError>, and a "
                            "throw that escapes a pool task ends the run"});
  }
  if (bs004_in_scope(path)) {
    const std::string expr = range_for_expr(line);
    if (!expr.empty()) {
      const std::string name = iterated_name(expr);
      if (!name.empty() && unordered_names.count(name) != 0) {
        out.push_back(
            {"BS004", "range-for over unordered container '" + name +
                          "'; iteration order must never reach serialized or "
                          "merged output"});
      }
    }
  }
  if (!bs007_exempt(path)) {
    std::smatch socket_match;
    if (std::regex_search(line, socket_match, kRawSocket)) {
      out.push_back({"BS007", "raw ::" + socket_match[2].str() +
                                  "(2) call; sockets live only in src/svc "
                                  "and src/obs/live"});
    }
  }
  if (!bs005_exempt(path)) {
    std::smatch m;
    std::string::const_iterator searched = line.begin();
    while (std::regex_search(searched, line.cend(), m, kThread)) {
      const auto after = m[0].second;
      // `std::thread::id` / `std::thread::hardware_concurrency()` are
      // attribution helpers, not thread construction.
      const bool qualifier =
          std::distance(after, line.cend()) >= 2 && *after == ':' &&
          *(after + 1) == ':';
      if (!qualifier) {
        out.push_back({"BS005", "naked std::thread; workers belong to "
                                "exec::ThreadPool (exec/thread_pool)"});
        break;
      }
      searched = after;
    }
  }
}

// BS006: Prometheus metric-name conformance at registration sites.
// Stripping is column-preserving (chars become spaces 1:1), so the call
// shape `counter(` / `gauge(` / `histogram(` is located on the *stripped*
// line — where string and comment contents can't fake a call — and the
// name literal is read from the *raw* line at the same columns. Calls whose
// first argument is not a string literal on the same line (declarations,
// variables, wrapped lines) are out of reach by design; registration sites
// in this tree pass the name inline.
void match_metric_names(std::string_view path, const std::string& stripped,
                        const std::string& raw, std::vector<Match>& out) {
  if (!bs006_in_scope(path)) return;
  static const std::regex kRegisterCall(R"(\b(counter|gauge|histogram)\s*\()");
  static const std::regex kValidName(R"(^[a-z_:][a-z0-9_:]*$)");
  const auto begin =
      std::sregex_iterator(stripped.begin(), stripped.end(), kRegisterCall);
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    const std::string kind = (*it)[1].str();
    // Whitespace after '(' must be skipped on the RAW line: on the stripped
    // line the literal itself is spaces, so a greedy skip there would run
    // straight over the name.
    std::size_t after = static_cast<std::size_t>(it->position(0)) +
                        static_cast<std::size_t>(it->length(0));
    while (after < raw.size() && (raw[after] == ' ' || raw[after] == '\t')) {
      ++after;
    }
    if (after >= raw.size() || raw[after] != '"') continue;
    const std::size_t name_begin = after + 1;
    const std::size_t name_end = raw.find('"', name_begin);
    if (name_end == std::string::npos) continue;
    const std::string name = raw.substr(name_begin, name_end - name_begin);
    if (!std::regex_match(name, kValidName)) {
      out.push_back({"BS006", "metric name '" + name +
                                  "' violates [a-z_:][a-z0-9_:]*; the "
                                  "exposition serves names verbatim"});
      continue;
    }
    const auto ends_with = [&](std::string_view suffix) {
      return name.size() >= suffix.size() &&
             name.compare(name.size() - suffix.size(), suffix.size(),
                          suffix) == 0;
    };
    if (kind == "counter" && !ends_with("_total") && !ends_with("_seconds") &&
        !ends_with("_bytes")) {
      out.push_back({"BS006", "counter '" + name +
                                  "' lacks a unit suffix; counters end in "
                                  "_total, _seconds or _bytes"});
    }
  }
}

}  // namespace

bool Suppressions::allows(std::string_view rule, std::size_t line) const {
  if (file_wide.count(std::string(rule)) != 0) return true;
  const auto covers = [&](std::size_t l) {
    const auto it = by_line.find(l);
    return it != by_line.end() && it->second.count(std::string(rule)) != 0;
  };
  // An allow covers its own line and the line directly below it, so a
  // comment-only line can annotate the statement it precedes.
  return covers(line) || (line > 0 && covers(line - 1));
}

Suppressions parse_suppressions(const std::vector<std::string>& raw) {
  static const std::regex kAllow(
      R"(bslint:allow(-file)?\(\s*(BS\d{3})\b[^)]*\))");
  Suppressions result;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    auto begin = std::sregex_iterator(raw[i].begin(), raw[i].end(), kAllow);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      if ((*it)[1].matched) {
        result.file_wide.insert((*it)[2].str());
      } else {
        result.by_line[i].insert((*it)[2].str());
      }
    }
  }
  return result;
}

const RuleInfo& rule_info(std::string_view id) {
  for (const RuleInfo& rule : rules()) {
    if (rule.id == id) return rule;
  }
  return rules().front();
}

std::string trim(const std::string& s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(s[begin])) != 0) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(s[end - 1])) != 0) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::vector<Finding> local_findings(
    std::string_view path, const std::vector<std::string>& raw,
    const std::vector<std::string>& stripped,
    const std::vector<std::string>& companion_stripped,
    const Suppressions& suppressions) {
  std::set<std::string> unordered_names;
  collect_unordered_names(stripped, unordered_names);
  collect_unordered_names(companion_stripped, unordered_names);

  std::vector<Finding> findings;
  for (std::size_t i = 0; i < stripped.size(); ++i) {
    std::vector<Match> matches;
    match_line(path, stripped[i], unordered_names, matches);
    match_metric_names(path, stripped[i],
                       i < raw.size() ? raw[i] : std::string(), matches);
    for (const Match& match : matches) {
      if (suppressions.allows(match.rule, i)) continue;
      const RuleInfo& info = rule_info(match.rule);
      findings.push_back({std::string(match.rule), info.severity,
                          std::string(path), i + 1, match.message,
                          i < raw.size() ? trim(raw[i]) : "",
                          std::string(info.suggestion)});
    }
  }
  return findings;
}

}  // namespace booterscope::lint::checks
