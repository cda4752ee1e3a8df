// In-memory span log of one traced workload run.
//
// The driver records a span around each call it makes into a layer's
// public entry point; nothing inside the program is instrumented. Spans
// stay in memory while the run is timed and are written out once it ends.
// A span's layer is the prefix of its name before the first '.', and the
// root span ("run") covers the whole timed phase, so the self times of all
// layers plus the root's own self time (the unattributed remainder) sum to
// the root's duration exactly.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanLog {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffU;
  static constexpr std::int64_t kNoIndex = -1;

  struct Span {
    const char* name;  // string literal
    std::uint32_t parent;
    std::int64_t start;
    std::int64_t end;
    std::int64_t index;  // day or datagram index, or kNoIndex
  };

  explicit SpanLog(std::string run_id) : run_id_(std::move(run_id)) {}

  /// Opens a span now; close it with end(). Returns its id.
  std::uint32_t begin(const char* name, std::uint32_t parent,
                      std::int64_t index = kNoIndex) {
    spans_.push_back({name, parent, now_ns(), 0, index});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }
  void end(std::uint32_t id) { spans_[id].end = now_ns(); }

  /// Records a span whose bounds the caller already took.
  void add(const char* name, std::uint32_t parent, std::int64_t start,
           std::int64_t end, std::int64_t index = kNoIndex) {
    spans_.push_back({name, parent, start, end, index});
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] const std::string& run_id() const noexcept { return run_id_; }

  /// Self seconds per layer: each span's duration minus the durations of
  /// its direct children, summed by name prefix.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;

  /// Writes one JSON object per span (JSON Lines). False on I/O failure.
  [[nodiscard]] bool write_jsonl(const std::string& path) const;

 private:
  std::string run_id_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
