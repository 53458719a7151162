// Measurement plumbing shared by the benchmark's workloads: clocks and
// order statistics, order-free result digests, the in-memory span tracer,
// per-query layer accounting and the lookup load generator.
//
// Everything here sits on the client side of the public API (Database,
// ParseEsql / SubmitEsql / ExecuteEsql, QueryHandle); nothing inside the
// engine is instrumented.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "dbs3/database.h"
#include "esql/planner.h"
#include "server/query_handle.h"
#include "storage/relation.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::duration d);

/// Nearest-rank percentile (q in [0, 1]) of `v`; 0 for an empty sample.
double Percentile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 0.5);
}

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

/// Aborts the process with a message when `status` is not OK. Used for
/// set-up steps only; failures of measured queries are counted instead.
void CheckOk(const dbs3::Status& status, const char* what);

/// Order-free digest of a multiset of rows: the count plus the wrapping
/// sum of per-row hashes (column order matters within a row).
struct Digest {
  uint64_t rows = 0;
  uint64_t sum = 0;

  void Add(const dbs3::Tuple& row) { AddHash(RowHash(row)); }
  void AddHash(uint64_t h) {
    ++rows;
    sum += h;
  }
  bool operator==(const Digest& o) const {
    return rows == o.rows && sum == o.sum;
  }

  static uint64_t RowHash(const dbs3::Tuple& row);
  /// Digest of the concatenation left ++ right without building it.
  static uint64_t ConcatHash(const dbs3::Tuple& left,
                             const dbs3::Tuple& right);
};

Digest DigestOf(const dbs3::Relation& rel);

/// One recorded span: a layer boundary crossed by query `query`.
/// `parent` is the id of the enclosing span (0 = the query's root).
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t query = 0;
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
};

/// In-memory span buffer, written out once when the benchmark ends.
/// Disabled tracers record nothing and cost one branch per call. Keeps
/// the first kMaxSpans spans, which bounds memory and the file size.
class Tracer {
 public:
  static constexpr size_t kMaxSpans = 100'000;

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Records a span and returns its id (0 when disabled).
  uint64_t Record(uint64_t query, uint64_t parent, const char* name,
                  Clock::time_point start, Clock::time_point end);

  size_t size() const;
  /// Chrome trace_event JSON; one row (tid) per query.
  bool WriteJson(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::atomic<uint64_t> next_id_{1};
};

/// The client-observed breakdown of one query, in seconds, plus what its
/// run stats report about the engine's work on it. The layers
/// add up by construction: gap = e2e - (parse + submit + admission +
/// window + execution), where e2e runs from the send instant to the
/// completion timestamp. `late` (how late the generator sent the query)
/// precedes the send instant, so latency from the due time is
/// late + e2e.
struct QueryLayers {
  double late = 0.0;
  double parse = 0.0;
  double submit = 0.0;
  double admission = 0.0;  ///< Admission wait excluding the batch window.
  double window = 0.0;     ///< Shared-batch window hold.
  double execution = 0.0;  ///< Engine wall, summed over phases.
  double gap = 0.0;
  double e2e = 0.0;        ///< Send to completion.
  double take = 0.0;       ///< QueryHandle::Take after completion.
  double busy = 0.0;       ///< Engine busy time (activation spans).
  double quota_high_water = 0.0;  ///< Tuple units.
  double threads = 0.0;    ///< Final phase's scheduled threads.
};

/// Work the engine reported for the queries of one workload, summed over
/// every phase of every measured query (shared-batch executions are
/// attributed to each member by an even share).
struct EngineTotals {
  double busy_s = 0.0;
  double thread_wall_s = 0.0;  ///< Phase wall x threads of that phase.
  double units = 0.0;
  double activations = 0.0;
  double main_acq = 0.0;
  double secondary_acq = 0.0;
  uint64_t queue_peak_units = 0;
  std::map<std::string, double> op_busy_s;  ///< By node kind.
  std::map<std::string, double> counters;   ///< Per-execution counters.

  void AddExecution(const dbs3::ExecutionResult& exec, double share);
  void AddResult(const dbs3::QueryResult& result, double share);
};

/// Everything measured about one run, filled by the workloads.
struct RunRecord {
  uint64_t attempted = 0;
  uint64_t failed = 0;      ///< Sheds, errors and wrong results.
  uint64_t shed = 0;
  uint64_t mismatches = 0;  ///< Wrong results.
  uint64_t gap_violations = 0;  ///< Layers that overlap beyond Submit.
  uint64_t completed = 0;  ///< Queries accounted (succeeded).
  /// A uniform sample of the completed queries (all of them up to
  /// kMaxSamples), so the benchmark's own memory does not grow with
  /// throughput: peak RSS is one of the reported metrics.
  std::vector<QueryLayers> samples;
  double relation_passes = 0.0;  ///< Scans run: 1 per batch or solo query.
  uint64_t threads_granted = 0;
  uint64_t threads_released = 0;
  std::vector<double> poll_gap_us;  ///< Completion-poller sweep gaps.
  EngineTotals engine;

  static constexpr size_t kMaxSamples = 1 << 15;
  /// Reservoir sampling (Algorithm R) with a fixed-seed generator.
  void Sample(const QueryLayers& l);
  void Fail(const char* what, const std::string& detail);

 private:
  uint64_t rng_state_ = 0x5eed;
};

/// A query handed to the runtime: its handle and client timestamps.
struct SentQuery {
  dbs3::QueryHandle handle;
  Clock::time_point due;   ///< When the load generator meant to send it.
  Clock::time_point start;  ///< When ParseEsql was called.
  double parse_s = 0.0;
  double submit_s = 0.0;
};

/// A query the lookup generator can send, with its verdict function.
struct LookupQuery {
  std::string text;
  /// True when the taken result is exactly what the base relation holds.
  std::function<bool(const dbs3::QueryResult&)> check;
};

/// The point-lookup / range-scan client. An open loop sends query i at
/// start + i / rate from one generator thread; a single poller thread
/// timestamps completions (it waits on the oldest in-flight handle with a
/// bounded timeout, then sweeps every in-flight handle), so no thread is
/// ever spawned per query. A closed loop keeps a fixed window in flight
/// from one thread.
class LookupClient {
 public:
  LookupClient(dbs3::Database* db, dbs3::EsqlOptions options,
               std::function<LookupQuery(uint64_t)> make, Tracer* tracer);

  /// Open loop at `rate` queries/s for `seconds`. Queries are numbered
  /// from `first_index`. Returns the number sent.
  uint64_t RunOpen(double rate, double seconds, uint64_t first_index,
                   RunRecord* record);

  /// Closed loop with `window` queries in flight for `seconds`. Appends
  /// the wall time of every `burst` consecutive correct completions to
  /// `burst_ms`. Returns the number sent (every one has completed).
  uint64_t RunClosed(size_t window, double seconds, uint64_t first_index,
                     size_t burst, std::vector<double>* burst_ms,
                     RunRecord* record);

 private:
  struct InFlight {
    SentQuery sent;
    LookupQuery query;
  };

  InFlight Send(uint64_t index, Clock::time_point due);
  /// Takes and checks a completed query; true when it returned the
  /// expected rows.
  bool Finish(InFlight& q, Clock::time_point done, RunRecord* record);

  dbs3::Database* db_;
  dbs3::EsqlOptions options_;
  std::function<LookupQuery(uint64_t)> make_;
  Tracer* tracer_;
};

/// Sends one ESQL query through ParseEsql + SubmitEsql, waits for it on
/// the calling thread (a closed-loop session) and accounts its layers.
/// Returns the taken result, or an error (already counted as failed).
dbs3::Result<dbs3::QueryResult> RunSession(dbs3::Database& db,
                                           const std::string& text,
                                           const dbs3::EsqlOptions& options,
                                           Tracer* tracer,
                                           RunRecord* record,
                                           QueryLayers* layers_out);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
