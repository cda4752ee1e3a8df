#include "obs/prof/profiler.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace booterscope::obs::prof {

namespace {

/// The force token that reopens a group at exactly `tier` (worker lanes
/// must land where the driver's probe landed, not re-run the ladder).
[[nodiscard]] std::string_view pin_token(Tier tier) noexcept {
  switch (tier) {
    case Tier::kFull: return "full";
    case Tier::kReduced: return "reduced";
    case Tier::kSoftware: return "software";
    case Tier::kDisabled: break;
  }
  return "off";
}

[[nodiscard]] std::uint64_t folded_value(const CounterSample& sample,
                                         Tier tier) noexcept {
  switch (tier) {
    case Tier::kFull:
    case Tier::kReduced:
      return sample.cycles;
    case Tier::kSoftware:
    case Tier::kDisabled:
      break;
  }
  return sample.task_clock_nanos;
}

/// One StageCounters entry per stage-tree node that `keep` accepts, with
/// its ';'-joined path; `self_of` fills the entry's self values.
template <typename Keep, typename SelfOf>
std::vector<StageCounters> project_stages(const StageTracer& tracer,
                                          Keep keep, SelfOf self_of) {
  std::vector<StageCounters> out;
  std::vector<std::string> paths;  // paths[d]: path of the last depth-d node
  for (const StageTracer::FlatStage& flat : tracer.flatten()) {
    const auto depth = static_cast<std::size_t>(flat.depth);
    const StageNode& node = *flat.node;
    paths.resize(depth + 1);
    paths[depth] =
        depth == 0 ? node.name : paths[depth - 1] + ";" + node.name;
    if (!keep(node)) continue;
    StageCounters entry;
    entry.path = paths[depth];
    entry.lane = node.worker + 1;
    entry.sections = node.calls;
    entry.self = self_of(node);
    out.push_back(std::move(entry));
  }
  std::sort(out.begin(), out.end(),
            [](const StageCounters& a, const StageCounters& b) {
              if (a.path != b.path) return a.path < b.path;
              return a.lane < b.lane;
            });
  return out;
}

}  // namespace

Profiler::Profiler(Options options) : opener_(std::move(options.opener)) {
  // Probe the ladder once, on the constructing (driver) thread; the probe
  // group becomes this thread's lane group.
  CounterGroup probe = open_thread_counters(options.force, opener_);
  tier_ = probe.tier();
  if (tier_ == Tier::kDisabled) {
    unavailable_reason_ = probe.unavailable_reason();
    return;
  }
  if (Lane* lane = lanes_.slot(static_cast<std::size_t>(
          std::max(obs::current_lane(), 0)))) {
    lane->group = std::move(probe);
    lane->open_attempted = true;
  }
}

bool Profiler::read(CounterSample& out) noexcept {
  if (tier_ == Tier::kDisabled) return false;
  Lane* lane =
      lanes_.slot(static_cast<std::size_t>(std::max(obs::current_lane(), 0)));
  if (lane == nullptr) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (!lane->open_attempted) {
    // First read on this lane's thread: open its group here, because a
    // perf group counts only the thread that opened it.
    lane->open_attempted = true;
    lane->group = open_thread_counters(pin_token(tier_), opener_);
    if (!lane->group.enabled()) {
      lanes_failed_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (!lane->group.enabled()) return false;
  if (!lane->group.read(out)) {
    // The group self-disabled (kernel read failure); spans it would have
    // closed stay uncounted rather than inventing a tail.
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

std::vector<StageCounters> stage_counters(const StageTracer& tracer) {
  return project_stages(
      tracer, [](const StageNode& node) { return node.counted; },
      [](const StageNode& node) {
        CounterSample nested;
        for (const auto& child : node.children) {
          if (child->worker == node.worker) nested.accumulate(child->counters);
        }
        return node.counters.delta_since(nested);
      });
}

std::string render_folded(std::string_view root,
                          const std::vector<StageCounters>& stages,
                          Tier tier) {
  std::vector<std::string> lines;
  lines.reserve(stages.size());
  for (const StageCounters& stage : stages) {
    std::string line(root);
    if (stage.lane > 0) {
      line += ";w" + std::to_string(stage.lane - 1);
    }
    line.push_back(';');
    line += stage.path;
    line.push_back(' ');
    line += std::to_string(folded_value(stage.self, tier));
    line.push_back('\n');
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) out += line;
  return out;
}

std::string folded(std::string_view root, const StageTracer& tracer,
                   Tier tier) {
  if (tier != Tier::kDisabled) {
    return render_folded(root, stage_counters(tracer), tier);
  }
  // Self wall nanos stand in for the missing counters.
  return render_folded(
      root,
      project_stages(
          tracer, [](const StageNode&) { return true; },
          [](const StageNode& node) {
            CounterSample self;
            self.task_clock_nanos = node.self_nanos();
            return self;
          }),
      Tier::kDisabled);
}

}  // namespace booterscope::obs::prof
