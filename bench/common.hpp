// Shared harness for the per-figure bench binaries.
//
// Each bench binary reproduces one table or figure of the paper: it builds
// the synthetic Internet, runs the relevant experiment, prints the same
// rows/series the paper reports, and appends a paper-vs-measured
// comparison. Everything is deterministic for the default seeds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <memory>

#include "fault/fault.hpp"
#include "obs/live/resource_sampler.hpp"
#include "obs/live/scrape_server.hpp"
#include "obs/live/watchdog.hpp"
#include "obs/manifest.hpp"
#include "obs/perf_ledger.hpp"
#include "obs/prof/profiler.hpp"
#include "obs/trace.hpp"
#include "sim/booter.hpp"
#include "sim/internet.hpp"
#include "sim/landscape.hpp"
#include "sim/landscape_stream.hpp"
#include "sim/selfattack.hpp"
#include "util/table.hpp"
#include "exec/thread_pool.hpp"

namespace booterscope::bench {

/// Prints the standard bench header naming the figure being reproduced.
void print_header(const std::string& experiment_id, const std::string& title);

/// Command-line options shared by the bench binaries:
///   --threads N          worker threads of the landscape engine (default 1)
///   --days N             shrink the landscape window to N days (CI smoke)
///   --attacks-per-day X  override attack demand (CI smoke)
///   --seed N             override the master seed
///   --fault-profile P    inject faults: none | light | heavy (default none)
///   --fault-seed N       seed of the fault schedule (default 1)
///   --timeline           record a begin/end execution timeline and write it
///                        as OBS_<id>.trace.json (Chrome trace-event format,
///                        open in Perfetto) next to the bench output
///   --prof               profile the run with hardware counters
///                        (obs::prof): per-stage cycles/instructions/cache/
///                        branch counters in the perf ledger's hw_counters
///                        block and folded stacks in OBS_<id>.folded.txt
///                        (flamegraph.pl input). Degrades tier by tier when
///                        the PMU or perf_event_paranoid says no, bottoming
///                        out at an explicit prof_unavailable reason —
///                        never fake zeros. BOOTERSCOPE_PROF_FORCE pins or
///                        fails the ladder for tests/CI.
///   --sample-interval-ms N  resource sampling cadence for the live plane
///                        (default 25; 0 disables sampling entirely)
///   --serve PORT         serve /metrics, /healthz and /stages on
///                        127.0.0.1:PORT while the run is alive (0 binds an
///                        ephemeral port, printed on startup)
///   --serve-hold-ms N    keep the process (and the scrape endpoint) alive
///                        N ms after the outputs are written, so an external
///                        scraper reliably catches the run (CI smoke)
///   --stream-batch N     rows per columnar batch the engine drains into
///                        the analysis (default 8192; any value produces
///                        the same bytes)
/// Defaults reproduce the paper figures; any --threads value produces the
/// same bytes (DESIGN.md §9), so the flags only trade wall-clock and scale.
/// Faulted runs are equally deterministic: the fault schedule is a pure
/// function of --fault-seed, never of thread timing. --timeline and --prof
/// change what is *recorded*, never what is computed, and the live plane
/// (sampler, watchdog, scrape server) is an observer with the same
/// guarantee: simulation output is byte-identical with any of them on or
/// off (DESIGN.md §13, pinned by tests/obs/live_determinism_test.cpp).
struct RunOptions {
  std::size_t threads = 1;
  int days = 0;                  // 0 = paper window (122 days)
  double attacks_per_day = 0.0;  // 0 = config default
  std::uint64_t seed = 0;        // 0 = config default
  std::string fault_profile = "none";
  std::uint64_t fault_seed = 1;
  bool timeline = false;
  bool prof = false;  // hardware-counter profiling (obs::prof)
  int sample_interval_ms = 25;   // 0 = sampler off
  int serve_port = -1;           // -1 = no scrape endpoint, 0 = ephemeral
  int serve_hold_ms = 0;         // post-run scrape window
  std::size_t stream_batch = 0;  // 0 = FlowBatch::kDefaultCapacity
};

/// Parses the flags above; exits with a usage message on anything unknown.
[[nodiscard]] RunOptions parse_run_options(int argc, char** argv);

/// Applies RunOptions overrides to a landscape config. Shrinking the window
/// (--days) moves the takedown to 2/3 through it and clears the per-vantage
/// observation windows so every vantage sees the whole (tiny) run.
[[nodiscard]] sim::LandscapeConfig apply_run_options(
    sim::LandscapeConfig config, const RunOptions& options);

/// One paper-vs-measured comparison row.
struct Comparison {
  std::string quantity;
  std::string paper;
  std::string measured;
};
void print_comparisons(const std::vector<Comparison>& rows);

/// The world shared by the self-attack benches: Internet + the four
/// purchased booters of Table 1 wired to reflector pools.
class SelfAttackWorld {
 public:
  SelfAttackWorld();

  [[nodiscard]] const sim::Internet& internet() const noexcept { return internet_; }
  [[nodiscard]] sim::SelfAttackLab& lab() noexcept { return *lab_; }
  [[nodiscard]] const std::vector<sim::BooterService>& services() const noexcept {
    return services_;
  }
  [[nodiscard]] net::Asn transit_asn() const noexcept;

  /// The paper's measurement campaign (April - September 2018): 16
  /// attacks, chronologically ordered. The first 10 entries marked
  /// `fig1a` are the non-VIP runs of Fig. 1(a); the VIP runs of Fig. 1(b)
  /// are flagged `vip`.
  struct CampaignEntry {
    sim::SelfAttackSpec spec;
    bool fig1a = false;
  };
  [[nodiscard]] static std::vector<CampaignEntry> campaign();

  /// Runs all campaign entries in chronological order.
  [[nodiscard]] std::vector<sim::SelfAttackResult> run_campaign();

 private:
  sim::Internet internet_;
  std::vector<sim::ReflectorPool> pools_;
  std::vector<sim::BooterService> services_;
  std::optional<sim::SelfAttackLab> lab_;
};

/// Writes the observability record of a landscape run next to the bench
/// output: OBS_<id>.manifest.json (RunManifest: seed, config, git describe,
/// stage table, drop/eviction accounting) and OBS_<id>.prom (Prometheus
/// text). This is what makes a bench's printed numbers attributable later.
void write_observability(const std::string& experiment_id,
                         const sim::LandscapeConfig& config,
                         const obs::StageTracer* tracer,
                         std::size_t threads = 1,
                         const fault::IntegrityTally* integrity = nullptr,
                         const std::string& fault_profile = "none",
                         std::uint64_t fault_seed = 0);

/// Writes BENCH_<id>.json — the perf ledger tools/benchdiff compares
/// against the committed baselines in bench/baselines/. `items` is the
/// run's deterministic output count (attacks + stored flows): exact-match
/// comparable across machines whenever the config identity matches, and
/// so is `work`, the engine's deterministic work counters (the ledger's
/// `work` block). No-op under BOOTERSCOPE_NO_METRICS (so a metrics-free
/// build never emits half-empty ledgers that would trip the differ).
/// `extra_config` appends additional identity pairs after the standard
/// ones (StreamWorld records its batch size; benchdiff excludes it from
/// identity since it does not change the output bytes). A non-null
/// `profiler` fills the schema-/3 hw_counters block (per-stage counters,
/// or the explicit prof_unavailable reason when the degradation ladder
/// bottomed out); --prof itself is NOT
/// recorded as a config key — like --threads, it changes what is measured,
/// not what is computed, so profiled candidates stay comparable to
/// unprofiled baselines. The flow_micro block is harvested from the
/// booterscope_flow_* registry series whenever a collector ran,
/// independent of profiling.
void write_perf_ledger(
    const std::string& experiment_id, const sim::LandscapeConfig& config,
    const obs::StageTracer* tracer, const exec::ThreadPool* pool,
    std::uint64_t run_wall_nanos, std::uint64_t items,
    const sim::EngineWork& work, const std::string& fault_profile = "none",
    std::uint64_t fault_seed = 0,
    const obs::live::ResourceSampler* sampler = nullptr,
    const obs::prof::Profiler* profiler = nullptr,
    const std::vector<std::pair<std::string, std::string>>& extra_config = {});

/// Writes OBS_<id>.folded.txt — flamegraph.pl-compatible folded stacks
/// projected from the tracer — and publishes the same text at the scrape
/// server's /profilez route when one is serving. Counter-weighted (cycles,
/// or task-clock nanos on the software tier) when the profiler measured;
/// honest wall-clock fallback when it could not. No-op without --prof
/// (null profiler) or under BOOTERSCOPE_NO_METRICS.
void write_folded_profile(const std::string& experiment_id,
                          const obs::prof::Profiler* profiler,
                          const obs::StageTracer* tracer,
                          obs::live::ScrapeServer* server);

/// With --timeline (`requested`), folds the live plane's sampler and
/// watchdog tracks into the tracer's log and writes OBS_<id>.trace.json
/// (Chrome trace-event JSON; open in Perfetto or chrome://tracing). Call
/// once the pool is idle. No-op otherwise or under BOOTERSCOPE_NO_METRICS.
void write_timeline(const std::string& experiment_id, obs::StageTracer& tracer,
                    bool requested, const obs::live::ResourceSampler* sampler,
                    const obs::live::Watchdog* watchdog);

/// The landscape world shared by the §4/§5 benches that need the flows in
/// memory: one full 122-day run of the landscape engine, collected by
/// sim::run_landscape (byte-identical for every --threads N).
struct LandscapeWorld {
  sim::Internet internet;
  obs::StageTracer tracer;
  /// Set by --timeline: write the tracer's log as a Chrome trace.
  bool write_trace = false;
  /// Engaged by --prof: per-lane hardware counter groups the tracer reads
  /// at every span. Declared before pool/result so the run (which assigns
  /// it) never races a later default initializer, and so it outlives the
  /// workers that read it.
  std::unique_ptr<obs::prof::Profiler> profiler;
  /// Wall nanos of the landscape run alone (not process lifetime) — the
  /// headline number of the perf ledger.
  std::uint64_t run_wall_nanos = 0;
  exec::ThreadPool pool;  // declared before result: result's ctor uses it
  /// The live telemetry plane, engaged by --sample-interval-ms / --serve.
  /// Declared after pool (their probes read it; reverse destruction stops
  /// them first) and before result (run_timed, result's initializer,
  /// engages them before the first task).
  std::unique_ptr<obs::live::Watchdog> watchdog;
  std::unique_ptr<obs::live::ResourceSampler> sampler;
  std::unique_ptr<obs::live::ScrapeServer> server;
  int serve_hold_ms = 0;
  sim::LandscapeResult result;

  /// Fault plan vantage indices (order of the three exporters).
  static constexpr std::size_t kIxp = 0;
  static constexpr std::size_t kTier1 = 1;
  static constexpr std::size_t kTier2 = 2;

  std::string fault_profile_name = "none";
  std::uint64_t fault_seed = 0;
  /// Engaged when --fault-profile is not "none": vantage outage schedule
  /// applied to the stores, coverage source for gap-aware series.
  std::optional<fault::FaultPlan> fault_plan;
  /// Store-boundary integrity ledger: every flow record the simulation
  /// offered is either kept (clean) or dropped by an outage window.
  fault::IntegrityTally integrity;

  explicit LandscapeWorld(const RunOptions& options = {})
      : internet(sim::InternetConfig{}),
        pool(options.threads),
        result(run_timed(*this, options)) {
    apply_faults(options);
  }

  /// Detaches the pool heartbeat and honors --serve-hold-ms (keeps the
  /// scrape endpoint alive briefly so an external scraper catches the run)
  /// before the members stop their threads in reverse declaration order.
  ~LandscapeWorld();

  /// Builds the fault plan from RunOptions and filters each vantage store
  /// by its outage windows (no-op for profile "none").
  void apply_faults(const RunOptions& options);

  /// Stamps the fault plan's per-day coverage onto a daily series built
  /// from the given vantage, enabling gap-aware takedown metrics. No-op
  /// without a fault plan.
  void stamp_coverage(stats::BinnedSeries& daily, std::size_t vantage) const {
    if (fault_plan) fault_plan->apply_coverage(daily, vantage);
  }

  /// Deterministic output size of the run: attacks plus stored flows per
  /// vantage. The exact-match throughput denominator in the perf ledger.
  [[nodiscard]] std::uint64_t result_items() const noexcept {
    return result.attacks.size() + result.ixp.store.size() +
           result.tier1.store.size() + result.tier2.store.size();
  }

  void write_observability(const std::string& experiment_id) {
    bench::write_observability(experiment_id, result.config, &tracer,
                               pool.size(), &integrity, fault_profile_name,
                               fault_seed);
    bench::write_perf_ledger(experiment_id, result.config, &tracer, &pool,
                             run_wall_nanos, result_items(), result.work,
                             fault_profile_name, fault_seed, sampler.get(),
                             profiler.get());
    bench::write_folded_profile(experiment_id, profiler.get(), &tracer,
                                server.get());
    bench::write_timeline(experiment_id, tracer, write_trace, sampler.get(),
                          watchdog.get());
  }

 private:
  /// Init helper for `result`: engages the observers (--timeline, --prof,
  /// the live plane) before the first task and times the landscape run.
  /// Runs after pool's initializer, before apply_faults.
  static sim::LandscapeResult run_timed(LandscapeWorld& world,
                                        const RunOptions& options);
};

/// The landscape world of the one-pass benches (Fig. 4, Fig. 5, the scale
/// probe; DESIGN.md §9): the same Internet, pool and live telemetry plane
/// as LandscapeWorld, but the run never materializes — run() drains
/// day-ordered columnar batches into the caller's sink (typically a
/// core::StreamAnalysis) and retains only a bounded StreamSummary, so peak
/// RSS stays flat as --days and --attacks-per-day grow. Output bytes are
/// identical for any pool size and batch capacity.
struct StreamWorld {
  sim::Internet internet;
  obs::StageTracer tracer;
  /// Members mirror LandscapeWorld's declaration-order discipline: the
  /// profiler before the pool, the live plane after the pool (probes read
  /// it; reverse destruction stops them first).
  bool write_trace = false;
  std::unique_ptr<obs::prof::Profiler> profiler;
  std::uint64_t run_wall_nanos = 0;
  exec::ThreadPool pool;
  std::unique_ptr<obs::live::Watchdog> watchdog;
  std::unique_ptr<obs::live::ResourceSampler> sampler;
  std::unique_ptr<obs::live::ScrapeServer> server;
  int serve_hold_ms = 0;

  /// The run's config (RunOptions already applied) — unlike LandscapeWorld
  /// there is no LandscapeResult to carry it, so it lives here.
  sim::LandscapeConfig config;
  std::size_t stream_batch = flow::FlowBatch::kDefaultCapacity;

  std::string fault_profile_name = "none";
  std::uint64_t fault_seed = 0;
  /// Built before the run (a pure function of --fault-seed/--fault-profile
  /// and the window, so identical to LandscapeWorld's plan). The analysis
  /// sink applies it in-stream: wire it via StreamAnalysis::set_fault_plan
  /// together with `integrity` before calling run().
  std::optional<fault::FaultPlan> fault_plan;
  fault::IntegrityTally integrity;

  /// Valid after run().
  sim::StreamSummary summary;

  explicit StreamWorld(const RunOptions& options = {});

  /// Same exit protocol as ~LandscapeWorld: detach the pool heartbeat and
  /// honor --serve-hold-ms before members stop in reverse order.
  ~StreamWorld();

  /// Runs the streaming landscape into `sink`, timing it for the ledger
  /// and closing out the live plane.
  void run(flow::FlowBatchSink& sink);

  void stamp_coverage(stats::BinnedSeries& daily, std::size_t vantage) const {
    if (fault_plan) fault_plan->apply_coverage(daily, vantage);
  }

  /// Attacks plus kept (post-outage) flows: equals
  /// LandscapeWorld::result_items() on the same options when `kept_flows`
  /// comes from the analysis sink — the ledger's exact-match `items`.
  [[nodiscard]] std::uint64_t result_items(
      std::uint64_t kept_flows) const noexcept {
    return summary.attack_count + kept_flows;
  }

  /// Streaming analogue of LandscapeWorld::write_observability; `items`
  /// is result_items(kept) since the world cannot see inside the sink.
  void write_observability(const std::string& experiment_id,
                           std::uint64_t items);
};

}  // namespace booterscope::bench
