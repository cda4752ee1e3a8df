#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <sstream>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/prof/profiler.hpp"
#include "util/time.hpp"

namespace booterscope::obs {

namespace {

thread_local int tls_lane = 0;
thread_local SpanContext tls_context;

[[nodiscard]] std::string format_wall(std::uint64_t nanos) {
  char buffer[32];
  const double seconds = static_cast<double>(nanos) / 1e9;
  if (seconds >= 1.0) {
    std::snprintf(buffer, sizeof buffer, "%.2f s", seconds);
  } else if (seconds >= 1e-3) {
    std::snprintf(buffer, sizeof buffer, "%.2f ms", seconds * 1e3);
  } else {
    std::snprintf(buffer, sizeof buffer, "%.1f us", seconds * 1e6);
  }
  return buffer;
}

void flatten_into(const StageNode& node, int depth,
                  std::vector<StageTracer::FlatStage>& out) {
  for (const auto& child : node.children) {
    out.push_back({child.get(), depth});
    flatten_into(*child, depth + 1, out);
  }
}

/// "name{key=value,...}" — the flat series id used for counter tracks.
[[nodiscard]] std::string series_track_name(const std::string& name,
                                            const Labels& labels) {
  if (labels.empty()) return name;
  std::string out = name + "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += labels[i].key + "=" + labels[i].value;
  }
  out.push_back('}');
  return out;
}

[[nodiscard]] const char* category(SpanKind kind) noexcept {
  switch (kind) {
    case SpanKind::kStage: return "stage";
    case SpanKind::kTask: return "task";
    case SpanKind::kInstant: return "instant";
    case SpanKind::kCounter: break;
  }
  return "counter";
}

}  // namespace

void set_current_lane(int lane) noexcept { tls_lane = lane; }

int current_lane() noexcept { return tls_lane; }

SpanContext current_span_context() noexcept { return tls_context; }

SpanContextScope::SpanContextScope(SpanContext context) noexcept
    : previous_(tls_context) {
  tls_context = context;
}

SpanContextScope::~SpanContextScope() { tls_context = previous_; }

StageTracer::StageTracer() = default;

StageTracer::~StageTracer() = default;

SpanRef StageTracer::append(std::size_t lane, SpanRecord record) {
  Lane* slot = lanes_.slot(lane);
  if (slot == nullptr) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return {};
  }
  const util::ConcurrencyGuard::Scope scope(slot->guard, "StageTracer::append");
  slot->spans.push_back(std::move(record));
  return SpanRef{static_cast<std::uint32_t>(lane),
                 static_cast<std::uint32_t>(slot->spans.size() - 1)};
}

void StageTracer::sample_counters(const MetricsRegistry& registry,
                                  std::string_view prefix,
                                  std::int64_t at_nanos) {
  const auto sample = [&](const std::string& name, const Labels& labels,
                          double value) {
    SpanRecord record;
    record.kind = SpanKind::kCounter;
    record.name = series_track_name(name, labels);
    record.begin_nanos = at_nanos;
    record.end_nanos = at_nanos;
    record.value = value;
    append(0, std::move(record));
  };
  for (const auto& series : registry.counters()) {
    if (series.name.rfind(prefix, 0) != 0) continue;
    sample(series.name, series.labels,
           static_cast<double>(series.metric->value()));
  }
  for (const auto& series : registry.gauges()) {
    if (series.name.rfind(prefix, 0) != 0) continue;
    sample(series.name, series.labels, series.metric->value());
  }
}

std::span<const SpanRecord> StageTracer::spans(std::size_t lane) const {
  const Lane* slot = lanes_.find(lane);
  if (slot == nullptr) return {};
  return slot->spans;
}

std::uint64_t StageTracer::log_version() const noexcept {
  std::uint64_t version = 0;
  const std::size_t lanes = lanes_.size();
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    if (const Lane* slot = lanes_.find(lane)) {
      version += slot->spans.size() + slot->closes;
    }
  }
  return version;
}

std::unique_ptr<StageNode> StageTracer::project() const {
  auto root = std::make_unique<StageNode>();
  root->name = "run";
  const std::size_t lanes = lanes_.size();
  // memo[lane][index]: the node a stage record accumulates into.
  std::vector<std::vector<StageNode*>> memo(lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    memo[lane].assign(spans(lane).size(), nullptr);
  }
  StageNode* const resolving = root.get();  // cycle sentinel (bogus refs)
  const auto node_of = [&](const auto& self, SpanRef ref) -> StageNode* {
    StageNode*& slot = memo[ref.lane][ref.index];
    if (slot != nullptr) return slot;
    slot = resolving;
    const SpanRecord& record = spans(ref.lane)[ref.index];
    const SpanRef up = record.parent;
    StageNode* parent = root.get();
    if (up.valid() && up.lane < lanes && up.index < memo[up.lane].size() &&
        spans(up.lane)[up.index].kind == SpanKind::kStage) {
      parent = self(self, up);
    }
    const int worker = static_cast<int>(ref.lane) - 1;
    StageNode* node = nullptr;
    for (const auto& child : parent->children) {
      if (child->name == record.name && child->worker == worker) {
        node = child.get();
        break;
      }
    }
    if (node == nullptr) {
      auto fresh = std::make_unique<StageNode>();
      fresh->name = record.name;
      fresh->worker = worker;
      fresh->parent = parent;
      parent->children.push_back(std::move(fresh));
      node = parent->children.back().get();
    }
    slot = node;
    return node;
  };
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const std::span<const SpanRecord> records = spans(lane);
    for (std::size_t i = 0; i < records.size(); ++i) {
      const SpanRecord& record = records[i];
      if (record.kind != SpanKind::kStage) continue;
      StageNode* node =
          node_of(node_of, SpanRef{static_cast<std::uint32_t>(lane),
                                   static_cast<std::uint32_t>(i)});
      node->items_in += record.items_in;
      node->items_out += record.items_out;
      node->bytes += record.bytes;
      if (record.open) continue;  // visible, but not yet timed
      node->wall_nanos += static_cast<std::uint64_t>(
          std::max<std::int64_t>(0, record.end_nanos - record.begin_nanos));
      ++node->calls;
      if (record.counted) {
        node->counted = true;
        node->counters.accumulate(
            record.counters_end.delta_since(record.counters_begin));
      }
    }
  }
  return root;
}

const StageNode& StageTracer::root() const {
  const util::ConcurrencyGuard::Scope scope(read_guard_, "StageTracer::root");
  const std::uint64_t version = log_version();
  if (root_ == nullptr || version != root_version_) {
    root_ = project();
    root_version_ = version;
  }
  return *root_;
}

std::vector<StageTracer::FlatStage> StageTracer::flatten() const {
  std::vector<FlatStage> out;
  flatten_into(root(), 0, out);
  return out;
}

std::string StageTracer::render() const {
  std::ostringstream out;
  for (const FlatStage& stage : flatten()) {
    const StageNode& node = *stage.node;
    out << std::string(static_cast<std::size_t>(stage.depth) * 2, ' ')
        << node.name;
    if (node.worker >= 0) out << " [w" << node.worker << "]";
    out << "  " << format_wall(node.wall_nanos) << "  calls=" << node.calls;
    if (node.items_in > 0) out << " in=" << node.items_in;
    if (node.items_out > 0) out << " out=" << node.items_out;
    if (node.bytes > 0) out << " bytes=" << node.bytes;
    out << "\n";
  }
  return out.str();
}

std::string StageTracer::chrome_trace_json(
    std::optional<std::int64_t> epoch_nanos) const {
  // Merge the lanes into one deterministic order: (begin, lane, append
  // order) — a pure function of the log, whatever interleaving wrote it.
  struct Ref {
    const SpanRecord* record;
    std::size_t lane;
    std::size_t seq;
  };
  std::vector<Ref> refs;
  std::int64_t min_ts = std::numeric_limits<std::int64_t>::max();
  const std::size_t lanes = lane_count();
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const std::span<const SpanRecord> records = spans(lane);
    for (std::size_t seq = 0; seq < records.size(); ++seq) {
      if (records[seq].open) continue;
      refs.push_back(Ref{&records[seq], lane, seq});
      min_ts = std::min(min_ts, records[seq].begin_nanos);
    }
  }
  std::sort(refs.begin(), refs.end(), [](const Ref& a, const Ref& b) {
    if (a.record->begin_nanos != b.record->begin_nanos) {
      return a.record->begin_nanos < b.record->begin_nanos;
    }
    if (a.lane != b.lane) return a.lane < b.lane;
    return a.seq < b.seq;
  });
  const std::int64_t epoch =
      epoch_nanos.value_or(refs.empty() ? 0 : min_ts);
  const auto micros = [&](std::int64_t nanos) {
    return json_number(static_cast<double>(nanos - epoch) / 1e3);
  };

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  // Metadata: name the process and one track per lane so Perfetto shows
  // "driver" / "worker N" instead of bare tids.
  out +=
      "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
      "\"args\":{\"name\":\"booterscope\"}}";
  for (std::size_t lane = 0; lane < std::max<std::size_t>(lanes, 1); ++lane) {
    const std::string label =
        lane == 0 ? "driver" : "worker " + std::to_string(lane - 1);
    out += ",{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(lane) +
           ",\"name\":\"thread_name\",\"args\":{\"name\":" +
           json_string(label) + "}}";
    out += ",{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(lane) +
           ",\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":" +
           std::to_string(lane) + "}}";
  }
  for (const Ref& ref : refs) {
    const SpanRecord& record = *ref.record;
    out += ",{\"name\":" + json_string(record.name);
    out += ",\"cat\":" + json_string(category(record.kind));
    out += ",\"pid\":1,\"tid\":" + std::to_string(ref.lane);
    out += ",\"ts\":" + micros(record.begin_nanos);
    switch (record.kind) {
      case SpanKind::kStage:
      case SpanKind::kTask:
        out += ",\"ph\":\"X\",\"dur\":" +
               json_number(static_cast<double>(record.end_nanos -
                                               record.begin_nanos) /
                           1e3);
        break;
      case SpanKind::kInstant:
        out += ",\"ph\":\"i\",\"s\":\"t\"";
        break;
      case SpanKind::kCounter:
        out += ",\"ph\":\"C\",\"args\":{\"value\":" +
               json_number(record.value) + "}";
        break;
    }
    out.push_back('}');
  }
  out += "]}";
  return out;
}

bool StageTracer::write_chrome_trace(const std::string& path) const {
  struct FileCloser {
    void operator()(std::FILE* f) const noexcept {
      if (f != nullptr) std::fclose(f);
    }
  };
  const std::unique_ptr<std::FILE, FileCloser> file{
      std::fopen(path.c_str(), "wb")};
  if (!file) return false;
  const std::string body = chrome_trace_json();
  return std::fwrite(body.data(), 1, body.size(), file.get()) == body.size();
}

StageTimer::StageTimer(StageTracer* tracer, std::string_view name)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  const std::size_t lane = static_cast<std::size_t>(std::max(tls_lane, 0));
  StageTracer::Lane* slot = tracer_->lanes_.slot(lane);
  if (slot == nullptr) {
    tracer_->dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  SpanRecord record;
  record.name = std::string(name);
  if (tls_context.tracer == tracer_) record.parent = tls_context.span;
  record.open = true;
  if (tracer_->profiler_ != nullptr) {
    record.counted = tracer_->profiler_->read(record.counters_begin);
  }
  record.begin_nanos = util::monotonic_nanos();
  const SpanRef ref = tracer_->append(lane, std::move(record));
  lane_ = slot;
  index_ = ref.index;
  previous_ = tls_context;
  tls_context = SpanContext{tracer_, ref};
}

StageTimer::~StageTimer() {
  if (lane_ == nullptr) return;
  const std::int64_t end_nanos = util::monotonic_nanos();
  tls_context = previous_;
  const util::ConcurrencyGuard::Scope scope(lane_->guard, "StageTimer::close");
  SpanRecord& record = lane_->spans[index_];
  record.end_nanos = end_nanos;
  if (record.counted) {
    record.counted = tracer_->profiler_ != nullptr &&
                     tracer_->profiler_->read(record.counters_end);
  }
  record.open = false;
  ++lane_->closes;
}

}  // namespace booterscope::obs
