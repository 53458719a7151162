#include "harness.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <thread>

#include "common/rng.h"
#include "esql/parser.h"

namespace perfbench {

using dbs3::QueryHandle;
using dbs3::QueryResult;
using dbs3::QueryRunStats;
using dbs3::Result;
using dbs3::Tuple;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const size_t k = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<long>(k), v.end());
  return v[k];
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

void CheckOk(const dbs3::Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "set-up failed: %s: %s\n", what,
                 status.ToString().c_str());
    std::exit(2);
  }
}

namespace {

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h ^= h >> 31;
  h *= 0xbf58476d1ce4e5b9ULL;
  return h ^ (h >> 29);
}

/// A shared-batch member's share of the batch's one execution.
double ShareOf(const QueryRunStats& stats) {
  return stats.shared_batch_queries > 1
             ? 1.0 / static_cast<double>(stats.shared_batch_queries)
             : 1.0;
}

/// "scan(W200)" -> "scan": the plan node kind without its relation.
std::string NodeKind(const std::string& name) {
  return name.substr(0, name.find('('));
}

}  // namespace

uint64_t Digest::RowHash(const Tuple& row) {
  uint64_t h = row.size();
  for (size_t i = 0; i < row.size(); ++i) h = Mix(h, row.at(i).Hash());
  return h;
}

uint64_t Digest::ConcatHash(const Tuple& left, const Tuple& right) {
  uint64_t h = left.size() + right.size();
  for (size_t i = 0; i < left.size(); ++i) h = Mix(h, left.at(i).Hash());
  for (size_t i = 0; i < right.size(); ++i) h = Mix(h, right.at(i).Hash());
  return h;
}

Digest DigestOf(const dbs3::Relation& rel) {
  Digest d;
  for (size_t f = 0; f < rel.degree(); ++f) {
    for (const Tuple& t : rel.fragment(f).tuples) d.Add(t);
  }
  return d;
}

uint64_t Tracer::Record(uint64_t query, uint64_t parent, const char* name,
                        Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return 0;
  const uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() < kMaxSpans) {
    spans_.push_back(Span{id, parent, query, name, start, end});
  }
  return id;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  Clock::time_point origin = Clock::time_point::max();
  for (const Span& s : spans_) origin = std::min(origin, s.start);
  std::fprintf(f, "{\"traceEvents\":[");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%llu,\"parent\":%llu}}",
                 i == 0 ? "" : ",", s.name,
                 static_cast<unsigned long long>(s.query),
                 Seconds(s.start - origin) * 1e6,
                 Seconds(s.end - s.start) * 1e6,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void EngineTotals::AddExecution(const dbs3::ExecutionResult& exec,
                                double share) {
  size_t threads = 0;
  for (const dbs3::OperationStats& op : exec.op_stats) {
    uint64_t processed = 0;
    for (uint64_t u : op.per_instance_processed) processed += u;
    busy_s += op.busy_seconds * share;
    units += static_cast<double>(processed) * share;
    activations += static_cast<double>(op.activations) * share;
    main_acq += static_cast<double>(op.main_queue_acquisitions) * share;
    secondary_acq +=
        static_cast<double>(op.secondary_queue_acquisitions) * share;
    queue_peak_units = std::max(queue_peak_units, op.peak_queue_units);
    threads += op.per_thread_busy_seconds.size();
    op_busy_s[NodeKind(op.name)] += op.busy_seconds * share;
  }
  thread_wall_s += exec.seconds * static_cast<double>(threads) * share;
  for (const auto& [name, value] : exec.metrics.counters) {
    counters[name] += static_cast<double>(value) * share;
  }
}

void EngineTotals::AddResult(const QueryResult& result, double share) {
  for (const dbs3::ExecutionResult& phase : result.phases) {
    AddExecution(phase, share);
  }
  AddExecution(result.execution, share);
}

void RunRecord::Sample(const QueryLayers& l) {
  ++completed;
  if (samples.size() < kMaxSamples) {
    samples.push_back(l);
    return;
  }
  const uint64_t slot = dbs3::SplitMix64(rng_state_) % completed;
  if (slot < kMaxSamples) samples[slot] = l;
}

void RunRecord::Fail(const char* what, const std::string& detail) {
  ++failed;
  if (failed <= 5) {
    std::fprintf(stderr, "query failed (%s): %s\n", what, detail.c_str());
  }
}

namespace {

/// Layer breakdown of one completed query from the client timestamps and
/// the handle's run stats; checks that the layers add up.
QueryLayers Account(const SentQuery& q, Clock::time_point done,
                    const QueryRunStats& stats, RunRecord* record) {
  QueryLayers l;
  l.late = std::max(0.0, Seconds(q.start - q.due));
  l.parse = q.parse_s;
  l.submit = q.submit_s;
  // A batch member's admission wait includes the window the lead held
  // open; a follower that arrived inside the window waited only part of
  // it.
  l.window = std::min(stats.batch_window_wait_seconds,
                      stats.admission_wait_seconds);
  l.admission = stats.admission_wait_seconds - l.window;
  l.execution = stats.execution_seconds;
  l.e2e = Seconds(done - q.start);
  l.gap = l.e2e - (l.parse + l.submit + l.admission + l.window +
                   l.execution);
  // The runtime starts the admission clock inside Submit, so admission
  // may overlap the tail of the Submit call, never more: a gap below
  // -submit means the layers claim more time than elapsed.
  if (l.gap < -l.submit) ++record->gap_violations;
  l.busy = stats.busy_seconds;
  l.quota_high_water = static_cast<double>(stats.quota_high_water_units);
  record->relation_passes += ShareOf(stats);
  record->threads_granted += stats.threads_granted;
  record->threads_released += stats.threads_released;
  return l;
}

/// Records the query's layer spans (reconstructed from the durations:
/// the runtime reports how long each layer took, not when it started).
/// `phase_s` holds the engine wall of each executed phase in run order.
void TraceQuery(Tracer* tracer, uint64_t query, Clock::time_point due,
                Clock::time_point sent, const QueryLayers& l,
                const std::vector<double>& phase_s) {
  if (!tracer->enabled()) return;
  auto at = [](Clock::time_point t, double s) {
    return t + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(s));
  };
  const Clock::time_point done = at(sent, l.e2e);
  const uint64_t root = tracer->Record(query, 0, "query", due, done);
  if (l.late > 0) tracer->Record(query, root, "late", due, sent);
  Clock::time_point t = sent;
  const auto step = [&](const char* name, double s) {
    tracer->Record(query, root, name, t, at(t, s));
    t = at(t, s);
  };
  step("parse", l.parse);
  step("submit", l.submit);
  step("admission", l.admission);
  step("window", l.window);
  for (double s : phase_s) step("execution", s);
  if (l.gap > 0) tracer->Record(query, root, "gap", t, done);
  tracer->Record(query, root, "take", done, at(done, l.take));
}

std::vector<double> PhaseSeconds(const QueryResult& r) {
  std::vector<double> out;
  for (const dbs3::ExecutionResult& p : r.phases) out.push_back(p.seconds);
  out.push_back(r.execution.seconds);
  return out;
}

/// Parses then submits `text`, timing each call.
SentQuery ParseAndSubmit(dbs3::Database& db, const std::string& text,
                         const dbs3::EsqlOptions& options,
                         Clock::time_point due) {
  SentQuery q;
  q.due = due;
  q.start = Clock::now();
  Result<dbs3::EsqlQuery> parsed = dbs3::ParseEsql(text);
  const Clock::time_point parsed_at = Clock::now();
  // A parse error surfaces through the handle like any query error.
  q.handle = parsed.ok() ? dbs3::SubmitEsql(db, parsed.value(), options)
                         : dbs3::SubmitEsql(db, text, options);
  q.parse_s = Seconds(parsed_at - q.start);
  q.submit_s = Seconds(Clock::now() - parsed_at);
  return q;
}

/// Takes a completed query's outcome and accounts it: a failure is
/// counted; a result has its layers sampled, its engine work added and its
/// spans recorded.
Result<QueryResult> TakeAndAccount(SentQuery& q, const std::string& text,
                                   Clock::time_point done, Tracer* tracer,
                                   RunRecord* record, QueryLayers* out) {
  ++record->attempted;
  const QueryRunStats stats = q.handle.stats();
  const Clock::time_point t0 = Clock::now();
  Result<QueryResult> taken = q.handle.Take();
  const double take_s = Seconds(Clock::now() - t0);
  if (!taken.ok()) {
    if (taken.status().code() == dbs3::StatusCode::kResourceExhausted) {
      ++record->shed;
    }
    record->Fail(text.c_str(), taken.status().ToString());
    return taken;
  }
  QueryLayers l = Account(q, done, stats, record);
  l.take = take_s;
  l.threads = static_cast<double>(taken.value().schedule.total_threads);
  record->Sample(l);
  record->engine.AddResult(taken.value(), ShareOf(stats));
  TraceQuery(tracer, q.handle.id(), q.due, q.start, l,
             PhaseSeconds(taken.value()));
  if (out != nullptr) *out = l;
  return taken;
}

}  // namespace

Result<QueryResult> RunSession(dbs3::Database& db, const std::string& text,
                               const dbs3::EsqlOptions& options,
                               Tracer* tracer, RunRecord* record,
                               QueryLayers* layers_out) {
  SentQuery q = ParseAndSubmit(db, text, options, Clock::now());
  q.handle.Wait();
  return TakeAndAccount(q, text, Clock::now(), tracer, record, layers_out);
}

LookupClient::LookupClient(dbs3::Database* db, dbs3::EsqlOptions options,
                           std::function<LookupQuery(uint64_t)> make,
                           Tracer* tracer)
    : db_(db),
      options_(std::move(options)),
      make_(std::move(make)),
      tracer_(tracer) {}

LookupClient::InFlight LookupClient::Send(uint64_t index,
                                          Clock::time_point due) {
  InFlight q;
  q.query = make_(index);
  q.sent = ParseAndSubmit(*db_, q.query.text, options_, due);
  return q;
}

bool LookupClient::Finish(InFlight& q, Clock::time_point done,
                          RunRecord* record) {
  auto taken =
      TakeAndAccount(q.sent, q.query.text, done, tracer_, record, nullptr);
  if (!taken.ok()) return false;
  if (!q.query.check(taken.value())) {
    ++record->mismatches;
    record->Fail("wrong result", q.query.text);
    return false;
  }
  return true;
}

uint64_t LookupClient::RunOpen(double rate, double seconds,
                               uint64_t first_index, RunRecord* record) {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<InFlight> incoming;
  bool sending = true;
  const uint64_t n = static_cast<uint64_t>(rate * seconds);
  const Clock::time_point start = Clock::now();

  std::thread generator([&] {
    for (uint64_t i = 0; i < n; ++i) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          static_cast<double>(i) / rate));
      std::this_thread::sleep_until(due);
      InFlight q = Send(first_index + i, due);
      {
        std::lock_guard<std::mutex> lock(mu);
        incoming.push_back(std::move(q));
      }
      cv.notify_one();
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      sending = false;
    }
    cv.notify_one();
  });

  // Completion poller (this thread): timestamps are taken when a sweep
  // finds a handle done. The oldest query is waited on directly (a
  // condition-variable wake-up); any other completes at the next sweep,
  // at most kSweep later. The sweep gaps are recorded as the resolution.
  constexpr auto kSweep = std::chrono::microseconds(200);
  std::vector<InFlight> live;
  Clock::time_point last_sweep = Clock::now();
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu);
      if (live.empty()) {
        cv.wait(lock, [&] { return !incoming.empty() || !sending; });
      }
      while (!incoming.empty()) {
        live.push_back(std::move(incoming.front()));
        incoming.pop_front();
      }
      if (live.empty() && !sending) break;
    }
    if (live.empty()) continue;
    live.front().sent.handle.WaitFor(kSweep);
    const Clock::time_point sweep = Clock::now();
    record->poll_gap_us.push_back(
        Seconds(sweep - std::max(last_sweep, live.back().sent.start)) * 1e6);
    last_sweep = sweep;
    size_t kept = 0;
    for (size_t i = 0; i < live.size(); ++i) {
      if (live[i].sent.handle.done()) {
        Finish(live[i], Clock::now(), record);
      } else {
        if (kept != i) live[kept] = std::move(live[i]);
        ++kept;
      }
    }
    live.resize(kept);
  }
  generator.join();
  return n;
}

uint64_t LookupClient::RunClosed(size_t window, double seconds,
                                 uint64_t first_index, size_t burst,
                                 std::vector<double>* burst_ms,
                                 RunRecord* record) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  uint64_t index = first_index;
  std::vector<InFlight> live;
  auto refill = [&] {
    while (live.size() < window) live.push_back(Send(index++, Clock::now()));
  };
  refill();
  uint64_t succeeded = 0;
  Clock::time_point burst_start = start;
  while (!live.empty()) {
    live.front().sent.handle.Wait();
    size_t kept = 0;
    for (size_t i = 0; i < live.size(); ++i) {
      if (live[i].sent.handle.done()) {
        const Clock::time_point done = Clock::now();
        // A shed or failed query is not throughput: only correct results
        // count toward a burst.
        if (Finish(live[i], done, record) && ++succeeded % burst == 0) {
          burst_ms->push_back(Seconds(done - burst_start) * 1e3);
          burst_start = done;
        }
      } else {
        if (kept != i) live[kept] = std::move(live[i]);
        ++kept;
      }
    }
    live.resize(kept);
    if (Clock::now() < end) refill();
  }
  return index - first_index;
}

}  // namespace perfbench
