#include "obs/live/watchdog.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace booterscope::obs::live {

Watchdog::Watchdog() : Watchdog(Config(), nullptr) {}

Watchdog::Watchdog(Config config, MetricsRegistry* registry)
    : config_(config), registry_(registry) {}

std::atomic<std::int64_t>* Watchdog::register_heartbeat(
    std::string name, std::int64_t now_nanos) {
  const util::MutexLock lock(mutex_);
  Heartbeat heartbeat;
  heartbeat.name = std::move(name);
  heartbeat.last_beat = std::make_unique<std::atomic<std::int64_t>>(now_nanos);
  heartbeats_.push_back(std::move(heartbeat));
  return heartbeats_.back().last_beat.get();
}

void Watchdog::watch_pool(PoolProbe probe) {
  const util::MutexLock lock(mutex_);
  pool_ = std::move(probe);
  pool_watched_ = true;
  pool_stalled_ = false;
  pool_starved_since_ = 0;
  pool_last_tasks_ = pool_.tasks_executed ? pool_.tasks_executed() : 0;
}

void Watchdog::open_stall(const std::string& source, std::int64_t now_nanos) {
  events_.push_back(StallEvent{source, now_nanos, 0});
  open_stalls_.fetch_add(1, std::memory_order_acq_rel);
  stalls_detected_.fetch_add(1, std::memory_order_relaxed);
  if (registry_ != nullptr) {
    registry_
        ->counter("booterscope_live_watchdog_stalls_total",
                  {{"source", source}})
        .inc();
  }
}

void Watchdog::close_stall(std::size_t event_index, std::int64_t now_nanos) {
  events_[event_index].recovered_nanos = now_nanos;
  open_stalls_.fetch_sub(1, std::memory_order_acq_rel);
}

void Watchdog::check(std::int64_t now_nanos) {
  const bool armed = armed_.load(std::memory_order_acquire);
  const util::MutexLock lock(mutex_);

  for (Heartbeat& heartbeat : heartbeats_) {
    const std::int64_t last =
        heartbeat.last_beat->load(std::memory_order_acquire);
    const bool late =
        armed && now_nanos - last > config_.stall_deadline_nanos;
    if (late && !heartbeat.stalled) {
      heartbeat.stalled = true;
      heartbeat.open_event = events_.size();
      open_stall("heartbeat:" + heartbeat.name, now_nanos);
    } else if (!late && heartbeat.stalled) {
      heartbeat.stalled = false;
      close_stall(heartbeat.open_event, now_nanos);
    }
  }

  if (!pool_watched_) return;
  const std::size_t queued = pool_.queue_depth ? pool_.queue_depth() : 0;
  const std::size_t busy = pool_.busy_workers ? pool_.busy_workers() : 0;
  const std::uint64_t tasks =
      pool_.tasks_executed ? pool_.tasks_executed() : 0;
  // Starvation: queued work, no worker on it, and the completion counter
  // frozen. Any sign of progress resets the deadline.
  const bool starved = queued > 0 && busy == 0 && tasks == pool_last_tasks_;
  pool_last_tasks_ = tasks;
  if (!armed || !starved) {
    pool_starved_since_ = 0;
    if (pool_stalled_) {
      pool_stalled_ = false;
      close_stall(pool_open_event_, now_nanos);
    }
    return;
  }
  if (pool_starved_since_ == 0) pool_starved_since_ = now_nanos;
  if (!pool_stalled_ &&
      now_nanos - pool_starved_since_ > config_.stall_deadline_nanos) {
    pool_stalled_ = true;
    pool_open_event_ = events_.size();
    open_stall("pool", now_nanos);
  }
}

std::vector<StallEvent> Watchdog::stall_events() const {
  const util::MutexLock lock(mutex_);
  return events_;
}

void Watchdog::export_to_timeline(StageTracer& tracer) const {
  const auto instant = [&tracer](std::string name, std::int64_t at_nanos) {
    SpanRecord record;
    record.kind = SpanKind::kInstant;
    record.name = std::move(name);
    record.begin_nanos = at_nanos;
    record.end_nanos = at_nanos;
    tracer.append(0, std::move(record));
  };
  const util::MutexLock lock(mutex_);
  for (const StallEvent& event : events_) {
    instant("stall:" + event.source, event.detected_nanos);
    if (event.recovered_nanos != 0) {
      instant("stall_recovered:" + event.source, event.recovered_nanos);
    }
  }
}

}  // namespace booterscope::obs::live
