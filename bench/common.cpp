#include "common.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <thread>
#include <utility>

#include "obs/exposition.hpp"
#include "obs/json.hpp"
#include "svc/shutdown.hpp"
#include "util/time.hpp"

namespace booterscope::bench {

RunOptions parse_run_options(int argc, char** argv) {
  RunOptions options;
  const auto usage = [&](const std::string& why) {
    std::cerr << argv[0] << ": " << why << "\nusage: " << argv[0]
              << " [--threads N] [--days N] [--attacks-per-day X]"
                 " [--seed N] [--fault-profile none|light|heavy]"
                 " [--fault-seed N] [--timeline] [--prof]"
                 " [--sample-interval-ms N] [--serve PORT]"
                 " [--serve-hold-ms N] [--stream-batch N]\n";
    std::exit(2);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--timeline") {  // boolean flag, no value
      options.timeline = true;
      continue;
    }
    if (flag == "--prof") {  // boolean flag, no value
      options.prof = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--threads") {
        options.threads = static_cast<std::size_t>(std::stoull(value));
      } else if (flag == "--days") {
        options.days = std::stoi(value);
      } else if (flag == "--attacks-per-day") {
        options.attacks_per_day = std::stod(value);
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--fault-profile") {
        if (!fault::FaultProfile::parse(value)) {
          usage("unknown fault profile " + value);
        }
        options.fault_profile = value;
      } else if (flag == "--fault-seed") {
        options.fault_seed = std::stoull(value);
      } else if (flag == "--sample-interval-ms") {
        options.sample_interval_ms = std::stoi(value);
        if (options.sample_interval_ms < 0) {
          usage("negative value for " + flag);
        }
      } else if (flag == "--serve") {
        const int port = std::stoi(value);
        if (port < 0 || port > 65535) usage("port out of range for " + flag);
        options.serve_port = port;
      } else if (flag == "--serve-hold-ms") {
        options.serve_hold_ms = std::stoi(value);
        if (options.serve_hold_ms < 0) usage("negative value for " + flag);
      } else if (flag == "--stream-batch") {
        options.stream_batch = static_cast<std::size_t>(std::stoull(value));
        if (options.stream_batch == 0) usage("zero value for " + flag);
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      usage("bad value for " + flag);
    }
  }
  return options;
}

sim::LandscapeConfig apply_run_options(sim::LandscapeConfig config,
                                       const RunOptions& options) {
  if (options.seed != 0) config.seed = options.seed;
  if (options.attacks_per_day > 0.0) {
    config.attacks_per_day = options.attacks_per_day;
  }
  if (options.days > 0) {
    config.days = options.days;
    // Keep a before/after split worth analyzing: takedown 2/3 through the
    // shrunk window, and every vantage observing the whole run.
    config.takedown =
        config.start + util::Duration::days(options.days * 2 / 3);
    config.ixp_window.reset();
    config.tier1_window.reset();
    config.tier2_window.reset();
  }
  return config;
}

void print_header(const std::string& experiment_id, const std::string& title) {
  std::cout << "==========================================================\n"
            << experiment_id << " — " << title << "\n"
            << "DDoS Hide & Seek (IMC'19) reproduction — booterscope\n"
            << "==========================================================\n\n";
}

void print_comparisons(const std::vector<Comparison>& rows) {
  util::Table table({"quantity", "paper", "measured"});
  for (const auto& row : rows) {
    table.row().add(row.quantity).add(row.paper).add(row.measured);
  }
  std::cout << "\nPaper vs. measured (shape comparison; absolute numbers are\n"
               "scaled, see DESIGN.md):\n";
  table.print(std::cout, 2);
}

namespace {

/// Engages --timeline, --prof and the live telemetry plane on a world
/// (LandscapeWorld or StreamWorld — same member slots). All of it is an
/// observer: the sampler reads /proc and the registry, the watchdog reads
/// heartbeats, the server reads snapshot views — none of them touch
/// simulation state, so engaging any combination leaves the run's bytes
/// unchanged (DESIGN.md §13). Call before the first pool task.
template <typename World>
void engage_live_plane(World& world, const RunOptions& options) {
  world.write_trace = options.timeline;

  if (options.prof) {
    obs::prof::Profiler::Options prof_options;
    if (const char* force = std::getenv("BOOTERSCOPE_PROF_FORCE")) {
      prof_options.force = force;
    }
    world.profiler =
        std::make_unique<obs::prof::Profiler>(std::move(prof_options));
    // Stderr only: stdout is the figure reproduction CI diffs byte-for-
    // byte, and --prof must not change a single byte of it.
    if (world.profiler->available()) {
      std::cerr << "prof: counting on the "
                << obs::prof::tier_name(world.profiler->tier())
                << " tier across " << world.pool.size() + 1 << " lane(s)\n";
    } else {
      std::cerr << "prof: counters unavailable ("
                << world.profiler->unavailable_reason()
                << "); ledger records prof_unavailable, folded stacks fall "
                   "back to wall clock\n";
    }
    world.tracer.set_profiler(world.profiler.get());
  }

  world.serve_hold_ms = options.serve_hold_ms;
  const bool live = options.sample_interval_ms > 0 || options.serve_port >= 0;
  if (live) {
    world.watchdog = std::make_unique<obs::live::Watchdog>(
        obs::live::Watchdog::Config{}, &obs::metrics());
    exec::ThreadPool& pool = world.pool;
    world.watchdog->watch_pool(obs::live::Watchdog::PoolProbe{
        [&pool] { return pool.queue_depth(); },
        [&pool] { return pool.busy_workers(); },
        [&pool] { return pool.tasks_executed(); }});
    world.pool.attach_heartbeat(world.watchdog->register_heartbeat(
        "pool", util::monotonic_nanos()));
  }
  if (options.sample_interval_ms > 0) {
    obs::live::ResourceSampler::Config sampler_config;
    sampler_config.interval_nanos =
        static_cast<std::int64_t>(options.sample_interval_ms) * 1'000'000;
    sampler_config.counter_names = {"booterscope_landscape_flows_total",
                                    "booterscope_exec_tasks_total"};
    exec::ThreadPool& pool = world.pool;
    world.sampler = std::make_unique<obs::live::ResourceSampler>(
        std::move(sampler_config), &obs::metrics(),
        obs::live::ResourceSampler::PoolProbe{
            [&pool] { return pool.queue_depth(); },
            [&pool] { return pool.busy_workers(); }},
        world.watchdog.get());
    world.sampler->start();
  }
  if (options.serve_port >= 0) {
    obs::live::ScrapeServer::Config server_config;
    server_config.port = static_cast<std::uint16_t>(options.serve_port);
    world.server = std::make_unique<obs::live::ScrapeServer>(
        server_config, &obs::metrics(), world.watchdog.get());
    if (world.server->start()) {
      // On stderr so stdout (the figure reproduction CI diffs byte-for-
      // byte) stays identical with or without --serve.
      std::cerr << "live: serving /metrics /healthz /stages on 127.0.0.1:"
                << world.server->port() << "\n";
      world.server->publish_stages(obs::stages_json(world.tracer));
    } else {
      std::cerr << "warning: could not start scrape server on port "
                << options.serve_port << "; run continues unserved\n";
      world.server.reset();
    }
  }
}

/// Post-run bookkeeping on the same member slots: snapshot the exec
/// counters into the trace (the pool is idle, so the driver may append),
/// pin a final resource sample so even sub-interval
/// runs end with a current point, then disarm the watchdog — nothing beats
/// during the serve-hold window by design, and that silence is not a
/// stall. The final stage tree replaces the empty pre-run snapshot.
template <typename World>
void finish_live_plane(World& world) {
  if (world.write_trace) {
    world.tracer.sample_counters(obs::metrics(), "booterscope_exec",
                                 util::monotonic_nanos());
  }
  if (world.sampler) world.sampler->sample_now();
  if (world.watchdog) world.watchdog->disarm();
  if (world.server) {
    world.server->publish_stages(obs::stages_json(world.tracer));
  }
}

/// Exit protocol shared by both worlds: the heartbeat atomic lives in the
/// watchdog, which dies before the pool (reverse declaration order), so
/// detach first; then honor --serve-hold-ms so an external scraper
/// reliably catches the finished run. The hold is interruptible: SIGTERM
/// or SIGINT during the window ends it early and the bench exits cleanly
/// (its results are already written by this point).
template <typename World>
void shutdown_live_plane(World& world) {
  world.pool.attach_heartbeat(nullptr);
  if (world.server && world.server->running() && world.serve_hold_ms > 0) {
    std::cerr << "live: holding " << world.serve_hold_ms
              << " ms for external scrapers (SIGTERM ends the hold)\n";
    svc::ShutdownSignal::install();
    constexpr int kSliceMs = 50;
    for (int held = 0;
         held < world.serve_hold_ms && !svc::ShutdownSignal::requested();
         held += kSliceMs) {
      std::this_thread::sleep_for(std::chrono::milliseconds(
          std::min(kSliceMs, world.serve_hold_ms - held)));
    }
    if (svc::ShutdownSignal::requested()) {
      std::cerr << "live: hold interrupted, exiting\n";
    }
  }
}

}  // namespace

sim::LandscapeResult LandscapeWorld::run_timed(LandscapeWorld& world,
                                               const RunOptions& options) {
  engage_live_plane(world, options);

  const std::int64_t t0 = util::monotonic_nanos();
  sim::LandscapeResult result = sim::run_landscape(
      world.internet, apply_run_options(sim::paper_landscape_config(), options),
      world.pool, &world.tracer);
  world.run_wall_nanos =
      static_cast<std::uint64_t>(util::monotonic_nanos() - t0);

  finish_live_plane(world);
  return result;
}

LandscapeWorld::~LandscapeWorld() { shutdown_live_plane(*this); }

StreamWorld::StreamWorld(const RunOptions& options)
    : internet(sim::InternetConfig{}),
      pool(options.threads),
      config(apply_run_options(sim::paper_landscape_config(), options)),
      stream_batch(options.stream_batch != 0
                       ? options.stream_batch
                       : flow::FlowBatch::kDefaultCapacity) {
  engage_live_plane(*this, options);

  // The fault plan is a pure function of its seed, profile and window, so
  // building it before the run (the sink needs it in-stream) yields the
  // exact plan LandscapeWorld builds after its run.
  fault_profile_name = options.fault_profile;
  fault_seed = options.fault_seed;
  const std::optional<fault::FaultProfile> profile =
      fault::FaultProfile::parse(options.fault_profile);
  if (profile && profile->enabled()) {
    fault_plan.emplace(options.fault_seed, *profile, config.start,
                       config.days, 3);
  }
}

StreamWorld::~StreamWorld() { shutdown_live_plane(*this); }

void StreamWorld::run(flow::FlowBatchSink& sink) {
  sim::StreamOptions stream_options;
  stream_options.batch_flows = stream_batch;
  const std::int64_t t0 = util::monotonic_nanos();
  summary = sim::run_landscape_stream(internet, config, pool, sink,
                                      stream_options, &tracer);
  run_wall_nanos =
      static_cast<std::uint64_t>(util::monotonic_nanos() - t0);
  finish_live_plane(*this);
}

void StreamWorld::write_observability(const std::string& experiment_id,
                                      std::uint64_t items) {
  bench::write_observability(experiment_id, config, &tracer, pool.size(),
                             &integrity, fault_profile_name, fault_seed);
  bench::write_perf_ledger(experiment_id, config, &tracer, &pool,
                           run_wall_nanos, items, summary.work,
                           fault_profile_name, fault_seed, sampler.get(), profiler.get(),
                           {{"stream_batch", std::to_string(stream_batch)}});
  bench::write_folded_profile(experiment_id, profiler.get(), &tracer,
                              server.get());
  bench::write_timeline(experiment_id, tracer, write_trace, sampler.get(),
                        watchdog.get());
}

void LandscapeWorld::apply_faults(const RunOptions& options) {
  fault_profile_name = options.fault_profile;
  fault_seed = options.fault_seed;
  const std::optional<fault::FaultProfile> profile =
      fault::FaultProfile::parse(options.fault_profile);
  if (!profile || !profile->enabled()) return;
  fault_plan.emplace(options.fault_seed, *profile, result.config.start,
                     result.config.days, 3);

  // Outage windows act at the store boundary: a dark exporter's flows
  // never reach the analysis. The integrity ledger counts flow records
  // here — offered == kept (clean) + dropped-by-outage for each vantage.
  const std::pair<std::size_t, sim::VantageData*> vantages[] = {
      {kIxp, &result.ixp}, {kTier1, &result.tier1}, {kTier2, &result.tier2}};
  const char* names[] = {"ixp", "tier1", "tier2"};
  for (const auto& [index, vantage] : vantages) {
    flow::FlowList& flows = vantage->store.flows();
    const std::size_t before = flows.size();
    std::erase_if(flows, [&](const flow::FlowRecord& f) {
      return fault_plan->out_at(index, f.first);
    });
    const std::uint64_t dropped =
        static_cast<std::uint64_t>(before - flows.size());
    integrity.offered += before;
    integrity.dropped_by_fault += dropped;
    integrity.decoded_clean += flows.size();
    obs::metrics()
        .counter("booterscope_fault_outage_dropped_flows_total",
                 {{"vantage", names[index]}})
        .add(dropped);
  }
}

void write_observability(const std::string& experiment_id,
                         const sim::LandscapeConfig& config,
                         const obs::StageTracer* tracer,
                         std::size_t threads,
                         const fault::IntegrityTally* integrity,
                         const std::string& fault_profile,
                         std::uint64_t fault_seed) {
  obs::RunManifest manifest("bench");
  manifest.set_experiment(experiment_id);
  manifest.set_seed(config.seed);
  manifest.add_config("threads", static_cast<std::uint64_t>(threads));
  manifest.add_config("start", config.start.date_string());
  manifest.add_config("days", static_cast<std::uint64_t>(config.days));
  if (config.takedown) {
    manifest.add_config("takedown", config.takedown->date_string());
  }
  manifest.add_config("attacks_per_day", config.attacks_per_day);
  manifest.add_config("ixp_sampling",
                      static_cast<std::uint64_t>(config.ixp_sampling));
  manifest.add_config("tier1_sampling",
                      static_cast<std::uint64_t>(config.tier1_sampling));
  manifest.add_config("tier2_sampling",
                      static_cast<std::uint64_t>(config.tier2_sampling));
  manifest.add_config("demand_migration",
                      config.demand_migration ? "true" : "false");
  manifest.add_config("fault_profile", fault_profile);
  manifest.add_config("fault_seed", fault_seed);

  const obs::MetricsRegistry& registry = obs::metrics();
  manifest.add_accounting(
      "landscape_offered_packets",
      registry.counter_total("booterscope_landscape_offered_packets_total"));
  manifest.add_accounting(
      "landscape_sampled_packets",
      registry.counter_total("booterscope_landscape_sampled_packets_total"));
  manifest.add_accounting(
      "landscape_flows",
      registry.counter_total("booterscope_landscape_flows_total"));
  manifest.add_accounting(
      "collector_exported_flows",
      registry.counter_total("booterscope_collector_exported_flows_total"));
  manifest.add_accounting(
      "collector_lru_evictions",
      obs::metrics()
          .counter("booterscope_collector_exported_flows_total",
                   {{"reason", "lru_eviction"}})
          .value());

  // Per-vantage conservation: every emitted (visible) packet batch either
  // fell outside the vantage window, sampled to zero, or became a flow.
  // CI fails a bench run on any `balanced:false` here, so an accounting
  // leak in the emit path cannot ship silently. (Metrics-disabled builds
  // read all counters as 0, which balances trivially.)
  obs::MetricsRegistry& mutable_registry = obs::metrics();
  for (const char* vantage : {"ixp", "tier1", "tier2"}) {
    const obs::Labels labels{{"vantage", vantage}};
    const std::uint64_t emits =
        mutable_registry.counter("booterscope_landscape_emits_total", labels)
            .value();
    const std::uint64_t window_drops =
        mutable_registry
            .counter("booterscope_landscape_window_drops_total", labels)
            .value();
    const std::uint64_t zero_sample_drops =
        mutable_registry
            .counter("booterscope_landscape_zero_sample_drops_total", labels)
            .value();
    const std::uint64_t flows =
        mutable_registry.counter("booterscope_landscape_flows_total", labels)
            .value();
    manifest.add_conservation(std::string("landscape_emits_") + vantage,
                              emits,
                              window_drops + zero_sample_drops + flows);
  }

  // Integrity block: the fault/degraded-operation ledger and its
  // conservation identity, checked by CI exactly like the clean-path
  // identities above. A fault-free run writes an all-zero (balanced) block.
  if (integrity != nullptr) integrity->add_to_manifest(manifest);

  const std::string stem = "OBS_" + experiment_id;
  if (!manifest.write(stem + ".manifest.json", tracer, &obs::metrics())) {
    std::cerr << "warning: could not write " << stem << ".manifest.json\n";
  }
  const std::string prometheus = obs::to_prometheus(obs::metrics());
  if (std::FILE* file = std::fopen((stem + ".prom").c_str(), "wb")) {
    std::fwrite(prometheus.data(), 1, prometheus.size(), file);
    std::fclose(file);
  }
}

void write_perf_ledger(
    const std::string& experiment_id, const sim::LandscapeConfig& config,
    const obs::StageTracer* tracer, const exec::ThreadPool* pool,
    std::uint64_t run_wall_nanos, std::uint64_t items,
    const sim::EngineWork& work, const std::string& fault_profile,
    std::uint64_t fault_seed,
    const obs::live::ResourceSampler* sampler,
    const obs::prof::Profiler* profiler,
    const std::vector<std::pair<std::string, std::string>>& extra_config) {
#ifndef BOOTERSCOPE_NO_METRICS
  obs::PerfLedger ledger("bench");
  ledger.set_experiment(experiment_id);
  ledger.set_seed(config.seed);
  // The comparability key benchdiff matches on. `threads` is listed but
  // excluded from identity by the differ (it changes wall time, not bytes).
  ledger.add_config("threads",
                    static_cast<std::uint64_t>(pool != nullptr ? pool->size()
                                                               : 1));
  ledger.add_config("start", config.start.date_string());
  ledger.add_config("days", static_cast<std::uint64_t>(config.days));
  ledger.add_config("attacks_per_day",
                    obs::json_number(config.attacks_per_day));
  ledger.add_config("fault_profile", fault_profile);
  ledger.add_config("fault_seed", fault_seed);
  for (const auto& [key, value] : extra_config) {
    ledger.add_config(key, value);
  }
  ledger.set_wall_nanos(run_wall_nanos);
  ledger.set_items(items);
  ledger.add_work("market_builds", work.market_builds);
  ledger.add_work("churn_days", work.churn_days);
  if (tracer != nullptr) ledger.set_stages(*tracer);
  if (pool != nullptr) {
    std::vector<std::uint64_t> busy;
    busy.reserve(pool->size());
    for (std::size_t w = 0; w < pool->size(); ++w) {
      busy.push_back(pool->worker_busy_nanos(w));
    }
    ledger.set_pool_stats(pool->tasks_executed(), pool->steals(),
                          std::move(busy));
  }
  if (sampler != nullptr) {
    const std::vector<obs::live::ResourceSampler::Sample> samples =
        sampler->snapshot();
    obs::PerfLedger::ResourceSeries series;
    series.interval_nanos = sampler->interval_nanos();
    series.dropped = sampler->dropped();
    series.t_seconds.reserve(samples.size());
    series.rss_bytes.reserve(samples.size());
    series.cpu_seconds.reserve(samples.size());
    const std::int64_t t0 = samples.empty() ? 0 : samples.front().at_nanos;
    for (const auto& sample : samples) {
      series.t_seconds.push_back(
          static_cast<double>(sample.at_nanos - t0) / 1e9);
      series.rss_bytes.push_back(sample.rss_bytes);
      series.cpu_seconds.push_back(sample.cpu_seconds);
    }
    series.rss_slope_bytes_per_second =
        obs::live::ResourceSampler::fit_rss_slope(samples).bytes_per_second;
    ledger.set_resource_series(std::move(series));
  }
  if (profiler != nullptr) {
    obs::PerfLedger::HwCounters hw;
    if (!profiler->available()) {
      hw.unavailable_reason = profiler->unavailable_reason();
    } else {
      hw.source = std::string(obs::prof::tier_name(profiler->tier()));
      const auto to_values = [](const obs::prof::CounterSample& sample) {
        obs::PerfLedger::HwValues v;
        v.cycles = sample.cycles;
        v.instructions = sample.instructions;
        v.cache_references = sample.cache_references;
        v.cache_misses = sample.cache_misses;
        v.branches = sample.branches;
        v.branch_misses = sample.branch_misses;
        v.task_clock_nanos = sample.task_clock_nanos;
        v.page_faults = sample.page_faults;
        v.context_switches = sample.context_switches;
        return v;
      };
      obs::prof::CounterSample total;
      if (tracer != nullptr) {
        for (const obs::prof::StageCounters& stage :
             obs::prof::stage_counters(*tracer)) {
          obs::PerfLedger::HwCounters::Stage out;
          out.path = stage.path;
          out.lane = stage.lane;
          out.sections = stage.sections;
          out.v = to_values(stage.self);
          hw.stages.push_back(std::move(out));
          total.accumulate(stage.self);
        }
      }
      hw.total = to_values(total);
      hw.lanes_failed = profiler->lanes_failed();
      hw.dropped_events = profiler->dropped();
    }
    ledger.set_hw_counters(std::move(hw));
  }
  ledger.capture_peak_rss();
  const std::string path = "BENCH_" + experiment_id + ".json";
  if (!ledger.write(path)) {
    std::cerr << "warning: could not write " << path << "\n";
  }
#else
  (void)experiment_id;
  (void)config;
  (void)tracer;
  (void)pool;
  (void)run_wall_nanos;
  (void)items;
  (void)work;
  (void)fault_profile;
  (void)fault_seed;
  (void)sampler;
  (void)profiler;
  (void)extra_config;
#endif
}

void write_folded_profile(const std::string& experiment_id,
                          const obs::prof::Profiler* profiler,
                          const obs::StageTracer* tracer,
                          obs::live::ScrapeServer* server) {
#ifndef BOOTERSCOPE_NO_METRICS
  if (profiler == nullptr) return;  // --prof off: no artifact at all
  // Counters unavailable (disabled tier): the projection falls back to the
  // tracer's measured wall nanos rather than emitting nothing — the
  // ledger's prof_unavailable reason already says why.
  const std::string folded =
      tracer != nullptr
          ? obs::prof::folded(experiment_id, *tracer, profiler->tier())
          : std::string();
  const std::string path = "OBS_" + experiment_id + ".folded.txt";
  if (std::FILE* file = std::fopen(path.c_str(), "wb")) {
    std::fwrite(folded.data(), 1, folded.size(), file);
    std::fclose(file);
    std::cerr << "prof: wrote " << path
              << " (flamegraph.pl input, see README)\n";
  } else {
    std::cerr << "warning: could not write " << path << "\n";
  }
  if (server != nullptr && !folded.empty()) {
    server->publish_profile(std::move(folded));
  }
#else
  (void)experiment_id;
  (void)profiler;
  (void)tracer;
  (void)server;
#endif
}

void write_timeline(const std::string& experiment_id, obs::StageTracer& tracer,
                    bool requested, const obs::live::ResourceSampler* sampler,
                    const obs::live::Watchdog* watchdog) {
#ifndef BOOTERSCOPE_NO_METRICS
  if (!requested) return;
  // The live series become counter tracks and stall instants of the log
  // before it is written.
  if (sampler != nullptr) sampler->export_to_timeline(tracer);
  if (watchdog != nullptr) watchdog->export_to_timeline(tracer);
  const std::string path = "OBS_" + experiment_id + ".trace.json";
  if (!tracer.write_chrome_trace(path)) {
    std::cerr << "warning: could not write " << path << "\n";
  }
#else
  (void)experiment_id;
  (void)tracer;
  (void)requested;
  (void)sampler;
  (void)watchdog;
#endif
}

SelfAttackWorld::SelfAttackWorld() : internet_(sim::InternetConfig{}) {
  pools_.reserve(net::kAllVectors.size());
  std::unordered_map<net::AmpVector, const sim::ReflectorPool*> pool_ptrs;
  const std::uint32_t populations[] = {90'000, 200'000, 25'000, 8'000};
  for (std::size_t i = 0; i < net::kAllVectors.size(); ++i) {
    pools_.emplace_back(net::kAllVectors[i], populations[i]);
  }
  for (const auto& pool : pools_) pool_ptrs.emplace(pool.vector(), &pool);

  util::Rng rng(2018);
  util::Rng booter_rng = rng.fork("booters");
  for (const auto& profile : sim::table1_booters()) {
    services_.emplace_back(profile, pool_ptrs, booter_rng.fork(profile.name));
  }
  lab_.emplace(internet_, services_, rng.fork("lab"));
}

net::Asn SelfAttackWorld::transit_asn() const noexcept {
  return internet_.topology().node(internet_.transit_provider()).asn;
}

std::vector<SelfAttackWorld::CampaignEntry> SelfAttackWorld::campaign() {
  using net::AmpVector;
  struct Row {
    const char* label;
    const char* date;
    int hour;
    std::size_t booter;
    AmpVector vector;
    bool vip;
    bool transit;
    std::uint32_t reflectors;
    bool fig1a;
  };
  // Chronological campaign; dates align with Table 1's purchase windows
  // (A: Apr+Aug, B: Jun-Sep, C: Apr-May, D: May) and straddle booter B's
  // reflector-list switch on 2018-06-13 (Fig. 1(c) mark (1)).
  static constexpr Row kRows[] = {
      {"booter C NTP", "2018-04-12", 14, 2, AmpVector::kNtp, false, true, 250, true},
      {"booter A NTP", "2018-04-25", 15, 0, AmpVector::kNtp, false, true, 350, true},
      {"booter C NTP (no transit)", "2018-05-02", 13, 2, AmpVector::kNtp, false,
       false, 250, true},
      {"booter D NTP", "2018-05-16", 16, 3, AmpVector::kNtp, false, true, 280, true},
      {"booter B NTP 1", "2018-06-05", 14, 1, AmpVector::kNtp, false, true, 380, true},
      {"booter B NTP 2", "2018-06-12", 11, 1, AmpVector::kNtp, false, true, 380, true},
      {"booter B NTP 2b", "2018-06-12", 16, 1, AmpVector::kNtp, false, true, 380,
       false},
      {"booter B NTP 3", "2018-06-13", 15, 1, AmpVector::kNtp, false, true, 380,
       false},
      {"booter B CLDAP", "2018-06-20", 12, 1, AmpVector::kCldap, false, true, 3800,
       true},
      {"booter B memcached", "2018-07-03", 14, 1, AmpVector::kMemcached, false,
       true, 200, true},
      {"booter B NTP (no transit)", "2018-07-11", 10, 1, AmpVector::kNtp, false,
       false, 380, true},
      {"booter B NTP VIP", "2018-09-05", 15, 1, AmpVector::kNtp, true, true, 380,
       false},
      {"booter B memcached VIP", "2018-07-12", 14, 1, AmpVector::kMemcached, true,
       true, 200, false},
      {"booter A NTP (no transit)", "2018-08-08", 13, 0, AmpVector::kNtp, false,
       false, 350, true},
      {"booter B NTP 4", "2018-08-22", 15, 1, AmpVector::kNtp, false, true, 380,
       false},
      {"booter B NTP 5", "2018-09-05", 12, 1, AmpVector::kNtp, false, true, 380,
       false},
  };

  std::vector<CampaignEntry> entries;
  entries.reserve(std::size(kRows));
  std::uint32_t target_index = 0;
  for (const Row& row : kRows) {
    CampaignEntry entry;
    entry.fig1a = row.fig1a;
    entry.spec.label = row.label;
    entry.spec.booter_index = row.booter;
    entry.spec.vector = row.vector;
    entry.spec.vip = row.vip;
    entry.spec.transit_enabled = row.transit;
    entry.spec.start = util::Timestamp::parse(row.date).value() +
                       util::Duration::hours(row.hour);
    entry.spec.duration = util::Duration::minutes(5);
    entry.spec.reflector_count = row.reflectors;
    entry.spec.target_index = target_index++;
    entries.push_back(std::move(entry));
  }
  std::sort(entries.begin(), entries.end(),
            [](const CampaignEntry& a, const CampaignEntry& b) {
              return a.spec.start < b.spec.start;
            });
  return entries;
}

std::vector<sim::SelfAttackResult> SelfAttackWorld::run_campaign() {
  std::vector<sim::SelfAttackResult> results;
  for (const CampaignEntry& entry : campaign()) {
    results.push_back(lab_->run(entry.spec));
  }
  return results;
}

}  // namespace booterscope::bench
