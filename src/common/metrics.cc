#include "common/metrics.h"

#include <algorithm>

namespace dbs3 {

std::string MetricsSnapshot::ToString() const {
  std::string out;
  for (const auto& [name, value] : counters) {
    out += name + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : gauges) {
    out += name + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, s] : series) {
    out += name + " samples=" + std::to_string(s.samples) +
           " min=" + std::to_string(s.min) + " max=" + std::to_string(s.max) +
           " mean=" + std::to_string(s.mean()) +
           " last=" + std::to_string(s.last) + "\n";
  }
  return out;
}

MetricCounter* MetricsRegistry::counter(const std::string& name) {
  MutexLock lock(&mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<MetricCounter>();
  return slot.get();
}

MetricGauge* MetricsRegistry::gauge(const std::string& name) {
  MutexLock lock(&mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<MetricGauge>();
  return slot.get();
}

MetricSummary* MetricsRegistry::summary(const std::string& name) {
  MutexLock lock(&mu_);
  auto& slot = summaries_[name];
  if (slot == nullptr) slot = std::make_unique<MetricSummary>();
  return slot.get();
}

void MetricsRegistry::RegisterProbe(const std::string& name,
                                    std::function<int64_t()> probe) {
  MutexLock lock(&mu_);
  probes_[name].fn = std::move(probe);
}

void MetricsRegistry::ClearProbes() {
  MutexLock lock(&mu_);
  for (auto& [name, probe] : probes_) probe.fn = nullptr;
}

void MetricsRegistry::SamplePass() {
  // Probes run under the registry mutex: they must be cheap (an atomic load
  // or a couple of mutex-guarded size reads). This also serializes sampling
  // against registration and snapshots.
  MutexLock lock(&mu_);
  for (auto& [name, probe] : probes_) {
    if (!probe.fn) continue;
    const int64_t v = probe.fn();
    SeriesStats& s = probe.series;
    if (s.samples == 0) {
      s.min = v;
      s.max = v;
    } else {
      s.min = std::min(s.min, v);
      s.max = std::max(s.max, v);
    }
    s.last = v;
    s.sum += static_cast<double>(v);
    ++s.samples;
  }
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MutexLock lock(&mu_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
  for (const auto& [name, p] : probes_) snap.series[name] = p.series;
  for (const auto& [name, s] : summaries_) snap.series[name] = s->value();
  return snap;
}

MetricsSampler::MetricsSampler(MetricsRegistry* registry,
                               std::chrono::microseconds period)
    : registry_(registry), period_(period) {}

MetricsSampler::~MetricsSampler() { Stop(); }

void MetricsSampler::Start() {
  MutexLock lock(&mu_);
  // running_ (not thread_.joinable()) is the guard: it stays true while a
  // concurrent Stop() holds the moved-out handle to join it. Spawning in
  // that window would let the Stop reset be overwritten (stop_ = false
  // observed by the *old* loop), leaking a sampler thread no Stop() can
  // ever join — the old lost-shutdown race.
  if (running_) return;
  stop_ = false;
  running_ = true;
  thread_ = std::thread([this] { Loop(); });
}

void MetricsSampler::Stop() {
  std::thread sampler;
  {
    MutexLock lock(&mu_);
    if (!running_) return;
    if (!thread_.joinable()) {
      // Another Stop() is mid-join; wait for it so every Stop() returns
      // only once the sampler thread has really exited.
      while (running_) cv_.Wait(&mu_);
      return;
    }
    stop_ = true;
    sampler = std::move(thread_);
  }
  cv_.SignalAll();
  sampler.join();
  MutexLock lock(&mu_);
  running_ = false;
  cv_.SignalAll();
}

void MetricsSampler::Loop() {
  // Sample before consulting stop_: a Stop() that lands before this thread
  // first runs still leaves one sample per Start().
  while (true) {
    registry_->SamplePass();
    MutexLock lock(&mu_);
    if (stop_) return;
    cv_.WaitFor(&mu_, period_);
    if (stop_) return;
  }
}

}  // namespace dbs3
