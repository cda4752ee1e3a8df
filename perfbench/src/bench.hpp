// Shared types of the perfbench driver: options, the workload interface
// and the per-iteration result the main loop aggregates.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "flow/batch.hpp"
#include "spans.hpp"

namespace booterscope::exec {
class ThreadPool;
}  // namespace booterscope::exec

namespace booterscope::obs {
class StageTracer;
}  // namespace booterscope::obs

namespace perfbench {

/// Default landscape seed of every workload; output digests are pinned at it.
inline constexpr std::uint64_t kDefaultSeed = 7;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  /// Size overrides (0 = the workload's own size). Tests use them to run a
  /// minimal version of each workload; any override skips the pinned digest.
  int days = 0;
  double attacks_per_day = 0.0;
  std::size_t pool = 3;
  /// Where a traced run writes its spans (JSON Lines).
  std::string trace_out;
};

/// Outcome of one timed phase.
struct Iteration {
  double run_s = 0.0;
  double cpu_s = 0.0;
  /// Per-operation latencies in microseconds (datagram offer+pump on the
  /// live path, one batch handed to the analysis on the offline paths).
  std::vector<float> op_us;
  /// Operations attempted and failed, for the result's failed share.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Output checks: run and failed (names of the failed ones).
  std::uint64_t checks = 0;
  std::vector<std::string> check_failures;
  /// Per-layer metrics; filled on traced iterations only.
  std::map<std::string, double> layer;
  /// One-line description of the output (digest, sizes) for stdout.
  std::string summary;
};

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;
  /// Builds everything the timed phase needs from scratch, replacing any
  /// previous set-up. The setup_s metric times this call.
  virtual void setup() = 0;
  /// Landscapes a run covers; see landscape_seed().
  [[nodiscard]] virtual std::size_t landscapes() const = 0;
  /// Runs one timed phase on landscape `landscape` (< landscapes()); `log`
  /// is null on untraced iterations.
  virtual Iteration run(SpanLog* log, std::size_t landscape) = 0;
  /// Per-layer metrics measured during setup() (the live path's load
  /// generation runs the landscape engine there).
  [[nodiscard]] virtual std::map<std::string, double> setup_layers() const {
    return {};
  }
};

/// Seed of landscape `index` of a run at `seed`: landscape 0 uses the seed
/// itself, the others seeds mixed from it. A simulated day's cost depends
/// on the booter market its seed draws, so a run that covers several
/// landscapes measures a cost that varies less from seed to seed.
[[nodiscard]] std::uint64_t landscape_seed(std::uint64_t seed,
                                           std::size_t index);

[[nodiscard]] std::unique_ptr<Workload> make_offline(const Options& options);
[[nodiscard]] std::unique_ptr<Workload> make_live(const Options& options);

/// Nearest-rank percentile (0 < q <= 1) of the samples; reorders them.
[[nodiscard]] double percentile(std::vector<float>& samples, double q);

/// Process user+sys CPU seconds so far.
[[nodiscard]] double cpu_seconds();

/// Forwards every call to the wrapped sink, timing it. Each consume() is
/// one operation sample; with a span log each call is also a span under
/// `parent`, indexed by the day being delivered.
class TimedSink final : public booterscope::flow::FlowBatchSink {
 public:
  TimedSink(booterscope::flow::FlowBatchSink& inner, SpanLog* log,
            std::uint32_t parent, std::vector<float>* op_us)
      : inner_(inner), log_(log), parent_(parent), op_us_(op_us) {}

  void consume(std::size_t vantage,
               const booterscope::flow::FlowBatchView& batch) override;
  void day_complete(int day, booterscope::util::Timestamp day_start) override;

  std::int64_t consume_ns = 0;
  std::int64_t barrier_ns = 0;
  std::uint64_t consume_calls = 0;
  std::uint64_t rows = 0;
  std::uint64_t barriers = 0;

 private:
  booterscope::flow::FlowBatchSink& inner_;
  SpanLog* log_;
  std::uint32_t parent_;
  std::vector<float>* op_us_;
  std::int64_t day_ = 0;
};

/// Thread-pool counters at one instant; differences give per-run values.
struct PoolSnapshot {
  std::uint64_t busy_ns = 0;
  std::uint64_t tasks = 0;
  std::uint64_t steals = 0;

  [[nodiscard]] static PoolSnapshot take(
      const booterscope::exec::ThreadPool& pool);
};

/// The sim.* and exec.* layer metrics of one run_landscape_stream call:
/// `wall_s` is the call's wall time, `sink` the sink it drained into,
/// `tracer` (optional) the stage tree the call recorded.
struct LandscapeProbe {
  PoolSnapshot pool_before;
  std::uint64_t emits_before = 0;
  std::uint64_t flows_before = 0;

  [[nodiscard]] static LandscapeProbe start(
      const booterscope::exec::ThreadPool& pool);
  void finish(const booterscope::exec::ThreadPool& pool, double wall_s,
              const TimedSink& sink, std::uint64_t attacks,
              std::uint64_t batches, const booterscope::obs::StageTracer* tracer,
              std::map<std::string, double>& layer) const;
};

}  // namespace perfbench
