#include "obs/live/resource_sampler.hpp"

#include <chrono>
#include <cstdio>
#include <utility>

#include "obs/live/watchdog.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/time.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif
#if defined(__linux__)
#include <unistd.h>
#endif

namespace booterscope::obs::live {

namespace {

[[nodiscard]] ResourceSampler::Config sanitize(ResourceSampler::Config c) {
  // Sub-millisecond cadence turns the observer into a load source; clamp.
  if (c.interval_nanos < 1'000'000) c.interval_nanos = 1'000'000;
  if (c.ring_capacity == 0) c.ring_capacity = 1;
  return c;
}

}  // namespace

ResourceSampler::ResourceSampler(Config config, MetricsRegistry* registry,
                                 PoolProbe pool, Watchdog* watchdog)
    : config_(sanitize(std::move(config))),
      registry_(registry),
      pool_(std::move(pool)),
      watchdog_(watchdog) {}

ResourceSampler::~ResourceSampler() { stop(); }

void ResourceSampler::start() {
  if (thread_.joinable()) return;
  {
    const util::MutexLock lock(mutex_);
    stop_requested_ = false;
  }
  sample_now();  // guarantee a t0 point even for sub-interval runs
  // bslint:allow(BS005 sampler owns its observer thread)
  thread_ = std::thread([this] { run(); });
}

void ResourceSampler::stop() {
  {
    const util::MutexLock lock(mutex_);
    stop_requested_ = true;
  }
  wake_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void ResourceSampler::run() {
  for (;;) {
    {
      const util::MutexLock lock(mutex_);
      if (stop_requested_) return;
      wake_cv_.wait_for(mutex_,
                        std::chrono::nanoseconds(config_.interval_nanos));
      if (stop_requested_) return;
    }
    sample_now();
  }
}

void ResourceSampler::sample_now() {
  Sample sample;
  sample.at_nanos = util::monotonic_nanos();
  sample.rss_bytes = read_rss_bytes();
  sample.cpu_seconds = read_cpu_seconds();
  if (pool_.queue_depth) sample.pool_queue_depth = pool_.queue_depth();
  if (pool_.busy_workers) sample.pool_busy_workers = pool_.busy_workers();
  if (registry_ != nullptr) {
    sample.counter_values.reserve(config_.counter_names.size());
    for (const std::string& name : config_.counter_names) {
      sample.counter_values.push_back(registry_->counter_total(name));
    }
    registry_->gauge("booterscope_live_rss_bytes")
        .set(static_cast<double>(sample.rss_bytes));
    registry_->gauge("booterscope_live_cpu_seconds").set(sample.cpu_seconds);
    registry_->gauge("booterscope_live_pool_queue_depth")
        .set(static_cast<double>(sample.pool_queue_depth));
    registry_->gauge("booterscope_live_pool_busy_workers")
        .set(static_cast<double>(sample.pool_busy_workers));
    registry_->counter("booterscope_live_samples_total").inc();
  } else {
    sample.counter_values.resize(config_.counter_names.size(), 0);
  }
  if (watchdog_ != nullptr) watchdog_->check(sample.at_nanos);
  push(std::move(sample));
}

void ResourceSampler::push(Sample sample) {
  const util::MutexLock lock(mutex_);
  if (ring_.size() < config_.ring_capacity) {
    ring_.push_back(std::move(sample));
    return;
  }
  // Full: overwrite the oldest slot and advance the head.
  ring_[ring_head_] = std::move(sample);
  ring_head_ = (ring_head_ + 1) % config_.ring_capacity;
  dropped_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<ResourceSampler::Sample> ResourceSampler::snapshot() const {
  const util::MutexLock lock(mutex_);
  std::vector<Sample> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(ring_head_ + i) % ring_.size()]);
  }
  return out;
}

ResourceSampler::SlopeFit ResourceSampler::fit_rss_slope(
    const std::vector<Sample>& samples) {
  SlopeFit fit;
  fit.points = samples.size();
  if (samples.size() < 2) return fit;
  // Ordinary least squares of rss against time, seconds relative to the
  // first sample so the sums stay well-conditioned.
  const std::int64_t t0 = samples.front().at_nanos;
  double sum_t = 0.0;
  double sum_y = 0.0;
  double sum_tt = 0.0;
  double sum_ty = 0.0;
  for (const Sample& sample : samples) {
    const double t = static_cast<double>(sample.at_nanos - t0) / 1e9;
    const double y = static_cast<double>(sample.rss_bytes);
    sum_t += t;
    sum_y += y;
    sum_tt += t * t;
    sum_ty += t * y;
  }
  const double n = static_cast<double>(samples.size());
  const double denom = n * sum_tt - sum_t * sum_t;
  if (denom > 0.0) {
    fit.bytes_per_second = (n * sum_ty - sum_t * sum_y) / denom;
  }
  return fit;
}

void ResourceSampler::export_to_timeline(StageTracer& tracer) const {
  const auto track = [&tracer](const std::string& name,
                               std::int64_t at_nanos, double value) {
    SpanRecord record;
    record.kind = SpanKind::kCounter;
    record.name = name;
    record.begin_nanos = at_nanos;
    record.end_nanos = at_nanos;
    record.value = value;
    tracer.append(0, std::move(record));
  };
  const std::vector<Sample> samples = snapshot();
  for (const Sample& sample : samples) {
    track("booterscope_live_rss_bytes", sample.at_nanos,
          static_cast<double>(sample.rss_bytes));
    track("booterscope_live_cpu_seconds", sample.at_nanos, sample.cpu_seconds);
    track("booterscope_live_pool_queue_depth", sample.at_nanos,
          static_cast<double>(sample.pool_queue_depth));
    track("booterscope_live_pool_busy_workers", sample.at_nanos,
          static_cast<double>(sample.pool_busy_workers));
    for (std::size_t i = 0; i < config_.counter_names.size() &&
                            i < sample.counter_values.size();
         ++i) {
      track(config_.counter_names[i], sample.at_nanos,
            static_cast<double>(sample.counter_values[i]));
    }
  }
}

std::uint64_t ResourceSampler::read_rss_bytes() noexcept {
#if defined(__linux__)
  // /proc/self/statm: "size resident shared text lib data dt", in pages.
  if (std::FILE* file = std::fopen("/proc/self/statm", "r")) {
    unsigned long long size_pages = 0;
    unsigned long long resident_pages = 0;
    const int fields =
        std::fscanf(file, "%llu %llu", &size_pages, &resident_pages);
    std::fclose(file);
    if (fields == 2) {
      const long page = sysconf(_SC_PAGESIZE);
      if (page > 0) {
        return static_cast<std::uint64_t>(resident_pages) *
               static_cast<std::uint64_t>(page);
      }
    }
  }
#endif
#if defined(__unix__) || defined(__APPLE__)
  // Fallback: getrusage reports the *peak*, not the current RSS — a
  // monotone upper bound, still useful for slope/plateau reasoning.
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
#if defined(__APPLE__)
    return static_cast<std::uint64_t>(usage.ru_maxrss);
#else
    return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024u;
#endif
  }
#endif
  return 0;
}

double ResourceSampler::read_cpu_seconds() noexcept {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
#else
  return 0.0;
#endif
}

}  // namespace booterscope::obs::live
