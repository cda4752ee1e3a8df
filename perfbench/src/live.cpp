// The live workload: booterscoped's ingest path in direct mode.
//
// Set-up simulates a 40-day landscape on the streaming engine and
// re-encodes it as export datagrams the way bench_soak does: the IXP
// vantage as IPFIX messages, the two ISP vantages as NetFlow v5 PDUs,
// 30 flows per datagram, striped round-robin over four exporters per
// vantage in observation order. Fault profile none: no channel mangling.
//
// The timed phase is a closed loop with one client: offer one datagram,
// pump(1), repeat; then drain() to the verdict. Each offer+pump is one
// latency sample. This is the only workload where the decoders and the
// service layer run; the simulator is set-up here.
#include <algorithm>
#include <cstdio>
#include <optional>

#include "bench.hpp"
#include "exec/thread_pool.hpp"
#include "flow/ipfix.hpp"
#include "flow/netflow_v5.hpp"
#include "obs/trace.hpp"
#include "sim/internet.hpp"
#include "sim/landscape.hpp"
#include "sim/landscape_stream.hpp"
#include "svc/daemon.hpp"
#include "svc/session.hpp"

namespace perfbench {

namespace bs = booterscope;

namespace {

constexpr int kDays = 40;
constexpr double kAttacksPerDay = 300.0;
constexpr std::size_t kExportersPerVantage = 4;
constexpr std::size_t kFlowsPerDatagram = 30;
constexpr std::size_t kQueueCapacity = 4096;
/// Synthetic receive clock: 1 ms per offered datagram, as in bench_soak.
constexpr std::int64_t kNanosPerDatagram = 1'000'000;

struct Datagram {
  std::uint64_t exporter;
  std::vector<std::uint8_t> bytes;
};

/// Keeps every delivered row per vantage slot.
class CollectSink final : public bs::flow::FlowBatchSink {
 public:
  void consume(std::size_t vantage,
               const bs::flow::FlowBatchView& batch) override {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      flows[vantage].push_back(batch.record(i));
    }
  }
  bs::flow::FlowList flows[bs::flow::kVantageCount];
};

/// One simulated exporter's encoder state.
struct Exporter {
  std::uint64_t id;
  bool ipfix;
  std::uint32_t sequence = 0;
  std::optional<bs::flow::NetflowV5Exporter> v5;
  bs::flow::FlowList pending;
};

class LiveWorkload final : public Workload {
 public:
  explicit LiveWorkload(const Options& options) : options_(options) {
    config_ = bs::sim::paper_landscape_config();
    config_.seed = options.seed;
    config_.attacks_per_day =
        options.attacks_per_day > 0.0 ? options.attacks_per_day : kAttacksPerDay;
    config_.days = options.days > 0 ? options.days : kDays;
    config_.takedown =
        config_.start + bs::util::Duration::days(config_.days * 2 / 3);
    config_.ixp_window.reset();
    config_.tier1_window.reset();
    config_.tier2_window.reset();
  }

  void setup() override {
    daemon_.reset();
    schedule_.clear();
    schedule_.shrink_to_fit();
    rows_encoded_ = 0;

    CollectSink collected;
    {
      const bs::sim::Internet internet(bs::sim::InternetConfig{});
      bs::exec::ThreadPool pool(options_.pool);
      TimedSink sink(collected, nullptr, 0, nullptr);
      bs::obs::StageTracer tracer;
      const LandscapeProbe probe = LandscapeProbe::start(pool);
      const std::int64_t t0 = now_ns();
      const bs::sim::StreamSummary summary = bs::sim::run_landscape_stream(
          internet, config_, pool, sink, {}, &tracer);
      setup_layers_.clear();
      probe.finish(pool, static_cast<double>(now_ns() - t0) / 1e9, sink,
                   summary.attack_count, summary.batches, &tracer,
                   setup_layers_);
    }
    encode(collected);
    daemon_ = make_daemon();
  }

  /// One landscape: its load takes longer to build than to ingest.
  [[nodiscard]] std::size_t landscapes() const override { return 1; }

  Iteration run(SpanLog* log, std::size_t /*landscape*/) override {
    if (!daemon_) daemon_ = make_daemon();
    bs::svc::Daemon& daemon = *daemon_;
    std::vector<std::vector<std::uint8_t>> inputs;
    inputs.reserve(schedule_.size());
    for (const Datagram& d : schedule_) inputs.push_back(d.bytes);

    Iteration it;
    it.op_us.reserve(schedule_.size());
    std::int64_t offer_ns = 0;
    std::int64_t pump_ns = 0;

    // ---- timed phase (every span lies inside it) -------------------------
    std::int64_t clock = 0;
    const double cpu0 = cpu_seconds();
    const std::int64_t t0 = now_ns();
    const std::uint32_t root =
        log != nullptr ? log->begin("run", SpanLog::kNoParent) : 0;
    for (std::size_t i = 0; i < schedule_.size(); ++i) {
      clock += kNanosPerDatagram;
      const std::int64_t a = now_ns();
      (void)daemon.offer(schedule_[i].exporter, std::move(inputs[i]), clock);
      if (log != nullptr) {
        const std::int64_t b = now_ns();
        (void)daemon.pump(1, clock);
        const std::int64_t c = now_ns();
        log->add("svc.offer", root, a, b, static_cast<std::int64_t>(i));
        log->add("svc.pump", root, b, c, static_cast<std::int64_t>(i));
        offer_ns += b - a;
        pump_ns += c - b;
        it.op_us.push_back(static_cast<float>(static_cast<double>(c - a) / 1e3));
      } else {
        (void)daemon.pump(1, clock);
        const std::int64_t c = now_ns();
        it.op_us.push_back(static_cast<float>(static_cast<double>(c - a) / 1e3));
      }
    }
    const std::int64_t t_drain = now_ns();
    const std::uint32_t drain =
        log != nullptr ? log->begin("svc.drain", root) : 0;
    daemon.drain(clock);
    if (log != nullptr) {
      log->end(drain);
      log->end(root);
    }
    const std::int64_t t1 = now_ns();
    it.cpu_s = cpu_seconds() - cpu0;
    it.run_s = static_cast<double>(t1 - t0) / 1e9;

    // ---- output checks -------------------------------------------------
    const bs::fault::IntegrityTally tally = daemon.merged_tally();
    const auto check = [&](bool ok, const std::string& what) {
      ++it.checks;
      if (!ok) it.check_failures.push_back(what);
    };
    check(tally.balanced(), "integrity tally does not balance");
    check(daemon.rows() == rows_encoded_,
          "rows applied " + std::to_string(daemon.rows()) + " != rows encoded " +
              std::to_string(rows_encoded_));
    check(daemon.shed() == 0 && tally.failed == 0 && tally.quarantined == 0,
          "datagrams shed, failed or quarantined under fault profile none");
    check(daemon.received() == schedule_.size(), "datagrams lost before the ring");
    check(daemon.verdict().has_value(), "no verdict after drain");
    it.attempted = daemon.received();
    it.failed = daemon.shed() + tally.failed + tally.quarantined;

    char line[256];
    std::snprintf(line, sizeof line,
                  "datagrams=%zu rows_encoded=%llu rows_applied=%llu "
                  "late=%llu wild=%llu sessions=%zu",
                  schedule_.size(),
                  static_cast<unsigned long long>(rows_encoded_),
                  static_cast<unsigned long long>(daemon.rows()),
                  static_cast<unsigned long long>(daemon.late_rows()),
                  static_cast<unsigned long long>(daemon.wild_rows()),
                  daemon.session_count());
    it.summary = line;

    if (log != nullptr) {
      const double ingest_s = replay_sessions();
      const double pump_s = static_cast<double>(pump_ns) / 1e9;
      it.layer["svc.offer_s"] = static_cast<double>(offer_ns) / 1e9;
      it.layer["svc.pump_s"] = pump_s;
      it.layer["svc.drain_s"] = static_cast<double>(t1 - t_drain) / 1e9;
      it.layer["svc.session_ingest_s"] = ingest_s;
      it.layer["svc.apply_s"] = pump_s - ingest_s;
      it.layer["svc.datagrams"] = static_cast<double>(daemon.received());
      it.layer["svc.rows"] = static_cast<double>(daemon.rows());
      it.layer["svc.shed"] = static_cast<double>(daemon.shed());
      it.layer["svc.failed"] = static_cast<double>(tally.failed);
      it.layer["svc.quarantined"] = static_cast<double>(tally.quarantined);
      it.layer["svc.late_rows"] = static_cast<double>(daemon.late_rows());
      it.layer["svc.wild_rows"] = static_cast<double>(daemon.wild_rows());
      it.layer["svc.sessions"] = static_cast<double>(daemon.session_count());
      it.layer["svc.dgram_p50_us"] = percentile(it.op_us, 0.5);
      it.layer["svc.dgram_p999_us"] = percentile(it.op_us, 0.999);
      it.layer["core.rows"] =
          static_cast<double>(daemon.analysis().total_kept_flows());
    }
    daemon_.reset();
    return it;
  }

  [[nodiscard]] std::map<std::string, double> setup_layers() const override {
    return setup_layers_;
  }

 private:
  [[nodiscard]] bs::svc::DaemonConfig daemon_config() const {
    bs::svc::DaemonConfig config;
    config.start = config_.start;
    config.days = config_.days;
    config.seed = config_.seed;
    config.queue_capacity = kQueueCapacity;
    config.takedown = config_.takedown;
    config.session.seed = config_.seed;
    config.session.v5_boot_time = config_.start;
    return config;
  }

  [[nodiscard]] std::unique_ptr<bs::svc::Daemon> make_daemon() const {
    return std::make_unique<bs::svc::Daemon>(daemon_config());
  }

  /// Merges the vantages in observation order, stripes each vantage's
  /// flows over its exporters and encodes them into schedule_.
  void encode(CollectSink& collected) {
    for (auto& flows : collected.flows) {
      std::stable_sort(flows.begin(), flows.end(),
                       [](const bs::flow::FlowRecord& a,
                          const bs::flow::FlowRecord& b) {
                         return a.first < b.first;
                       });
    }
    std::vector<Exporter> exporters;
    for (std::size_t v = 0; v < bs::flow::kVantageCount; ++v) {
      for (std::size_t e = 0; e < kExportersPerVantage; ++e) {
        Exporter exporter{v * kExportersPerVantage + e,
                          v == bs::flow::kVantageIxp, 0, std::nullopt, {}};
        if (!exporter.ipfix) {
          bs::flow::NetflowV5ExportConfig v5;
          v5.boot_time = config_.start;
          // engine_id % kVantageCount recovers the vantage slot.
          v5.engine_id = static_cast<std::uint8_t>(
              (exporter.id * bs::flow::kVantageCount + v) % 256);
          exporter.v5.emplace(v5);
        }
        exporters.push_back(std::move(exporter));
      }
    }
    const auto emit_ipfix = [&](Exporter& exporter) {
      // IPFIX observation domain 3*id keeps domain % 3 == the IXP slot.
      schedule_.push_back(
          {exporter.id,
           bs::flow::ipfix::encode_message(
               exporter.pending, static_cast<std::uint32_t>(3 * exporter.id),
               exporter.sequence++, exporter.pending.back().last)});
      exporter.pending.clear();
    };

    std::size_t index[bs::flow::kVantageCount] = {0, 0, 0};
    std::size_t round_robin[bs::flow::kVantageCount] = {0, 0, 0};
    while (true) {
      std::optional<std::size_t> best;
      for (std::size_t v = 0; v < bs::flow::kVantageCount; ++v) {
        if (index[v] >= collected.flows[v].size()) continue;
        if (!best || collected.flows[v][index[v]].first <
                         collected.flows[*best][index[*best]].first) {
          best = v;
        }
      }
      if (!best) break;
      const bs::flow::FlowRecord& flow = collected.flows[*best][index[*best]++];
      Exporter& exporter =
          exporters[*best * kExportersPerVantage + round_robin[*best]];
      round_robin[*best] = (round_robin[*best] + 1) % kExportersPerVantage;
      ++rows_encoded_;
      if (exporter.ipfix) {
        exporter.pending.push_back(flow);
        if (exporter.pending.size() >= kFlowsPerDatagram) emit_ipfix(exporter);
      } else if (auto packet = exporter.v5->add(flow, flow.last)) {
        schedule_.push_back({exporter.id, std::move(*packet)});
      }
    }
    for (Exporter& exporter : exporters) {
      if (exporter.ipfix) {
        if (!exporter.pending.empty()) emit_ipfix(exporter);
      } else if (auto packet = exporter.v5->flush(bs::util::Timestamp{})) {
        schedule_.push_back({exporter.id, std::move(*packet)});
      }
    }
  }

  /// Decode cost alone: the schedule through standalone exporter sessions.
  [[nodiscard]] double replay_sessions() const {
    const bs::svc::SessionConfig config = daemon_config().session;
    std::map<std::uint64_t, bs::svc::ExporterSession> sessions;
    std::int64_t clock = 0;
    const std::int64_t t0 = now_ns();
    for (const Datagram& d : schedule_) {
      clock += kNanosPerDatagram;
      auto [entry, inserted] = sessions.try_emplace(d.exporter, d.exporter, config);
      (void)entry->second.ingest(d.bytes, clock);
    }
    const std::int64_t t1 = now_ns();
    return static_cast<double>(t1 - t0) / 1e9;
  }

  Options options_;
  bs::sim::LandscapeConfig config_;
  std::vector<Datagram> schedule_;
  std::uint64_t rows_encoded_ = 0;
  std::unique_ptr<bs::svc::Daemon> daemon_;
  std::map<std::string, double> setup_layers_;
};

}  // namespace

std::unique_ptr<Workload> make_live(const Options& options) {
  if (options.workload != "live_ingest") return nullptr;
  return std::make_unique<LiveWorkload>(options);
}

}  // namespace perfbench
