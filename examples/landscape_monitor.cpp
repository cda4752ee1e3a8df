// Landscape monitor: an operator-style tool that watches a vantage point's
// flow export, classifies NTP reflection attacks with the paper's filters,
// and prints an attack blotter plus top-victim statistics. The run is fully
// instrumented: per-day metric sparklines, a timed stage tree, a Prometheus
// metrics dump, and a RunManifest written next to the output.
//
// Live mode: --serve PORT exposes /metrics, /healthz and /stages on
// 127.0.0.1:PORT while the monitor runs (0 binds an ephemeral port, printed
// on stderr), and --hold-ms N keeps the endpoint up N ms after the readout
// so a scraper can catch the final state.
//
//   $ ./examples/landscape_monitor [days] [--serve PORT] [--hold-ms N]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/pktsize.hpp"
#include "core/victims.hpp"
#include "exec/thread_pool.hpp"
#include "flow/sampler.hpp"
#include "obs/exposition.hpp"
#include "obs/live/resource_sampler.hpp"
#include "obs/live/scrape_server.hpp"
#include "obs/live/watchdog.hpp"
#include "obs/manifest.hpp"
#include "obs/trace.hpp"
#include "stats/spacesaving.hpp"
#include "sim/internet.hpp"
#include "sim/landscape.hpp"
#include "util/sparkline.hpp"
#include "util/table.hpp"

using namespace booterscope;

int main(int argc, char** argv) {
  int days = 14;
  int serve_port = -1;
  int hold_ms = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--serve" && i + 1 < argc) {
      serve_port = std::atoi(argv[++i]);
    } else if (flag == "--hold-ms" && i + 1 < argc) {
      hold_ms = std::max(0, std::atoi(argv[++i]));
    } else {
      days = std::max(3, std::atoi(argv[i]));
    }
  }

  // Simulate a few weeks of inter-domain traffic at the IXP.
  obs::StageTracer tracer;

  // Live telemetry plane: sampler + watchdog always on (they are cheap
  // observers), the scrape endpoint only with --serve. The monitor runs
  // the engine on a pool of one and probes nothing; the watchdog simply
  // stays healthy unless a heartbeat is registered and goes quiet.
  obs::live::Watchdog watchdog(obs::live::Watchdog::Config{}, &obs::metrics());
  obs::live::ResourceSampler sampler(obs::live::ResourceSampler::Config{},
                                     &obs::metrics(),
                                     obs::live::ResourceSampler::PoolProbe(),
                                     &watchdog);
  sampler.start();
  obs::live::ScrapeServer server(
      obs::live::ScrapeServer::Config{
          static_cast<std::uint16_t>(serve_port > 0 ? serve_port : 0), 16},
      &obs::metrics(), &watchdog);
  if (serve_port >= 0) {
    if (server.start()) {
      std::cerr << "live: serving /metrics /healthz /stages on 127.0.0.1:"
                << server.port() << "\n";
    } else {
      std::cerr << "warning: could not start scrape server on port "
                << serve_port << "\n";
    }
  }
  const sim::Internet internet{sim::InternetConfig{}};
  sim::LandscapeConfig config;
  config.start = util::Timestamp::parse("2018-11-01").value();
  config.days = days;
  config.takedown = std::nullopt;
  config.attacks_per_day = 150.0;
  exec::ThreadPool pool(1);
  const auto landscape = sim::run_landscape(internet, config, pool, &tracer);
  std::cout << "Simulated " << days << " days: "
            << util::format_count(static_cast<double>(landscape.ixp.store.size()))
            << " sampled IXP flow records, " << landscape.attacks.size()
            << " ground-truth attacks.\n\n";

  // The paper's threshold sanity check: is the NTP mix still bimodal?
  const double below200 = core::share_below(landscape.ixp.store.flows(), 200.0);
  std::cout << "NTP packet mix: "
            << util::format_double(below200 * 100.0, 1) << "% below 200 B — "
            << (below200 > 0.2 && below200 < 0.9
                    ? "bimodal, 200 B threshold applicable"
                    : "unusual mix, check exporter")
            << "\n\n";

  // Victim aggregation with the conservative filter.
  core::VictimAggregator aggregator;
  std::vector<core::VictimSummary> victims;
  {
    obs::StageTimer timer(&tracer, "classification");
    timer.add_items_in(landscape.ixp.store.size());
    for (const auto& f : landscape.ixp.store.flows()) aggregator.add(f);
    victims = aggregator.summarize();
    timer.add_items_out(victims.size());
  }
  std::sort(victims.begin(), victims.end(),
            [](const core::VictimSummary& a, const core::VictimSummary& b) {
              return a.max_gbps_per_minute > b.max_gbps_per_minute;
            });

  std::cout << "Attack blotter — top 15 victims by peak rate "
               "(conservative filter flags marked *):\n";
  util::Table blotter({"victim", "peak Gbps", "sources", "first seen",
                       "duration", "verdict"});
  for (std::size_t i = 0; i < victims.size() && i < 15; ++i) {
    const auto& v = victims[i];
    blotter.row()
        .add(v.destination.to_string())
        .add(v.max_gbps_per_minute, 2)
        .add(std::uint64_t{v.unique_sources})
        .add(v.first_seen.iso_string())
        .add(std::to_string((v.last_seen - v.first_seen).total_minutes()) +
             " min")
        .add(v.verdict.conservative() ? "*ATTACK*" : "suspect");
  }
  blotter.print(std::cout, 2);

  // Streaming heavy hitters: what an operator would run on the live
  // export (O(K) memory instead of per-destination state).
  stats::SpaceSaving<std::uint32_t> heavy(256);
  for (const auto& f : landscape.ixp.store.flows()) {
    if (core::is_reflection_flow(f)) heavy.add(f.dst.value(), f.scaled_bytes());
  }
  std::cout << "\nStreaming top destinations (Space-Saving, 256 counters "
               "over "
            << util::format_count(static_cast<double>(landscape.ixp.store.size()))
            << " records):\n";
  util::Table hh({"victim", "est. attack volume", "guaranteed"});
  for (const auto& hitter : heavy.top(5)) {
    hh.row()
        .add(net::Ipv4Addr{hitter.key}.to_string())
        .add(util::format_bps(hitter.estimate * 8.0) + "·s")
        .add(util::format_bps(hitter.guaranteed() * 8.0) + "·s");
  }
  hh.print(std::cout, 2);

  const auto reduction = aggregator.reduction();
  std::cout << "\n" << reduction.total << " destinations received NTP "
            << "reflection traffic; the conservative filter confirms "
            << reduction.pass_both << " ("
            << util::format_double((1.0 - reduction.reduction_both()) * 100.0, 1)
            << "%).\n";

  // Recall against ground truth: how many simulated NTP attacks above the
  // filter's own thresholds were caught?
  std::unordered_set<std::uint32_t> confirmed;
  for (const auto& v : victims) {
    if (v.verdict.conservative()) confirmed.insert(v.destination.value());
  }
  std::size_t qualifying = 0;
  std::size_t caught = 0;
  for (const auto& attack : landscape.attacks) {
    if (attack.vector != net::AmpVector::kNtp) continue;
    if (attack.victim_gbps <= 1.5 || attack.reflector_count <= 20) continue;
    ++qualifying;
    caught += confirmed.contains(attack.victim.value()) ? 1u : 0u;
  }
  if (qualifying > 0) {
    std::cout << "Recall on clearly-qualifying ground-truth attacks: "
              << caught << "/" << qualifying << " ("
              << util::format_double(
                     100.0 * static_cast<double>(caught) /
                         static_cast<double>(qualifying),
                     1)
              << "%).\n";
  }

  // ── Observability readout ─────────────────────────────────────────────
  // Per-day view of what the vantage recorded.
  std::vector<double> daily_records(static_cast<std::size_t>(days), 0.0);
  std::vector<double> daily_gbytes(static_cast<std::size_t>(days), 0.0);
  for (const auto& f : landscape.ixp.store.flows()) {
    const auto day = (f.first - config.start).total_days();
    if (day < 0 || day >= days) continue;
    daily_records[static_cast<std::size_t>(day)] += 1.0;
    daily_gbytes[static_cast<std::size_t>(day)] += f.scaled_bytes() / 1e9;
  }
  std::cout << "\nPer-day IXP export (" << days << " days):\n"
            << "  records  " << util::sparkline(daily_records, 60) << "\n"
            << "  volume   " << util::sparkline(daily_gbytes, 60) << "\n";

  // Replay the IXP export through a deliberately small sampled flow cache —
  // the exporter an operator would actually run. The tight max_entries
  // exercises every export reason (timeout chops, LRU pressure, drain).
  flow::FlowList replayed = landscape.ixp.store.flows();
  std::sort(replayed.begin(), replayed.end(),
            [](const flow::FlowRecord& a, const flow::FlowRecord& b) {
              return a.first < b.first;
            });
  flow::CollectorConfig exporter_config;
  exporter_config.max_entries = 1024;
  flow::SampledCollector exporter(exporter_config, 4, util::Rng(99));
  flow::FlowList exported;
  {
    obs::StageTimer timer(&tracer, "exporter_replay");
    timer.add_items_in(replayed.size());
    util::Timestamp next_expire = config.start;
    for (const auto& f : replayed) {
      while (f.first >= next_expire) {
        exporter.expire(next_expire, exported);
        next_expire += util::Duration::hours(6);
      }
      flow::PacketObservation p;
      p.time = f.first;
      p.tuple = f.key();
      p.wire_bytes = static_cast<std::uint32_t>(f.mean_packet_size());
      p.count = f.packets;
      p.src_asn = f.src_asn;
      p.dst_asn = f.dst_asn;
      p.peer_asn = f.peer_asn;
      p.direction = f.direction;
      exporter.observe(p, exported);
      timer.add_bytes(f.bytes);
    }
    exporter.drain(exported);
    timer.add_items_out(exported.size());
  }
  const flow::CollectorStats& stats = exporter.collector().stats();
  std::cout << "\nExporter replay (1-in-4 sampling, "
            << exporter_config.max_entries << "-entry cache):\n";
  util::Table reasons({"export reason", "flows", "packets"});
  for (std::size_t i = 0; i < flow::kExportReasonCount; ++i) {
    reasons.row()
        .add(std::string(flow::to_string(static_cast<flow::ExportReason>(i))))
        .add(stats.exported_flows[i])
        .add(stats.exported_packets[i]);
  }
  reasons.print(std::cout, 2);
  const std::uint64_t accounted = exporter.sampled_out_packets() +
                                  stats.total_exported_packets() +
                                  stats.cached_packets;
  std::cout << "  conservation: " << exporter.offered_packets()
            << " offered == " << exporter.sampled_out_packets()
            << " sampled out + " << stats.total_exported_packets()
            << " exported + " << stats.cached_packets << " cached — "
            << (accounted == exporter.offered_packets() ? "holds" : "VIOLATED")
            << "\n";

  std::cout << "\nStage tree:\n" << tracer.render();

  std::cout << "\n# Prometheus exposition\n"
            << obs::to_prometheus(obs::metrics());

  obs::RunManifest manifest("landscape_monitor");
  manifest.set_experiment("landscape_monitor");
  manifest.set_seed(config.seed);
  manifest.add_config("start", config.start.date_string());
  manifest.add_config("days", static_cast<std::uint64_t>(days));
  manifest.add_config("attacks_per_day", config.attacks_per_day);
  manifest.add_config("replay_sampling", std::uint64_t{4});
  manifest.add_config("replay_max_entries",
                      static_cast<std::uint64_t>(exporter_config.max_entries));
  manifest.add_accounting("replay_offered_packets", exporter.offered_packets());
  manifest.add_accounting("replay_sampled_out_packets",
                          exporter.sampled_out_packets());
  for (std::size_t i = 0; i < flow::kExportReasonCount; ++i) {
    manifest.add_accounting(
        "replay_exported_packets_" +
            std::string(flow::to_string(static_cast<flow::ExportReason>(i))),
        stats.exported_packets[i]);
  }
  manifest.add_accounting("replay_cached_packets", stats.cached_packets);
  const char* manifest_path = "OBS_landscape_monitor.manifest.json";
  if (manifest.write(manifest_path, &tracer, &obs::metrics())) {
    std::cout << "\nRunManifest written to " << manifest_path << "\n";
  }

  // Final live-plane state: one last sample, the finished stage tree on
  // /stages, and the optional scrape window before the threads stop.
  sampler.sample_now();
  watchdog.disarm();
  if (server.running()) {
    server.publish_stages(obs::stages_json(tracer));
    if (hold_ms > 0) {
      std::cerr << "live: holding " << hold_ms << " ms for external scrapers\n";
      std::this_thread::sleep_for(std::chrono::milliseconds(hold_ms));
    }
  }
  return 0;
}
