#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "dbs3/database.h"
#include "esql/planner.h"
#include "harness.h"
#include "model/analysis.h"
#include "storage/skew.h"
#include "storage/wisconsin.h"

namespace perfbench {
namespace {

using dbs3::Database;
using dbs3::EsqlOptions;
using dbs3::QueryResult;
using dbs3::Relation;
using dbs3::Tuple;
using dbs3::Value;

// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
// Untimed load before measuring: the first executions of each query shape
// run cold, and the heap keeps growing over the first passes.
constexpr double kWarmUpSeconds = 2.0;
// Lookup relation and the 1-in-10 range scans over 1% of its rows.
constexpr uint64_t kLookupRows = 20'000;
constexpr uint64_t kRangeRows = 200;
// lookup_flood: open-loop rate far below saturation, closed window.
constexpr double kOpenRate = 1000.0;
constexpr size_t kClosedWindow = 64;
constexpr size_t kBurst = 1024;
constexpr double kSegment = 2.5;  // Seconds per open or closed segment.
// budget_mixed: the long query's budget (tuple units, against a 20K-tuple
// build side) and the rate of the lookups beside it.
constexpr uint64_t kBudgetUnits = 16384;
constexpr double kBesideRate = 20.0;

size_t Processors() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

/// Library defaults except the sizing the benchmark owns: the scheduler's
/// processor count. Everything else (chunk_size 1, vectorize, share_work,
/// shared batch 8 / window 0, rebalancing off) stays at its default.
EsqlOptions DefaultOptions() {
  EsqlOptions options;
  options.schedule.processors = Processors();
  return options;
}

double Since(Clock::time_point t) { return Seconds(Clock::now() - t); }

size_t Col(const Relation& rel, const char* name) {
  auto col = rel.schema().IndexOf(name);
  CheckOk(col.status(), name);
  return col.value();
}

Relation* Rel(Database& db, const char* name) {
  auto rel = db.relation(name);
  CheckOk(rel.status(), name);
  return rel.value();
}

void AddWisconsin(Database& db, const char* name, uint64_t rows,
                  size_t degree, uint64_t seed) {
  dbs3::WisconsinOptions options;
  options.cardinality = rows;
  options.degree = degree;
  options.partition_column = "unique1";
  options.partition_kind = dbs3::PartitionKind::kModulo;
  options.seed = seed;
  CheckOk(db.CreateWisconsin(name, options), name);
}

/// Rows of `rel` indexed by the dense key column `col` (0..n-1).
std::vector<const Tuple*> IndexBy(const Relation& rel, size_t col) {
  std::vector<const Tuple*> out(rel.cardinality(), nullptr);
  for (size_t f = 0; f < rel.degree(); ++f) {
    for (const Tuple& t : rel.fragment(f).tuples) {
      out[static_cast<size_t>(t.at(col).AsInt())] = &t;
    }
  }
  return out;
}

template <typename Fn>
void ForEachRow(const Relation& rel, Fn fn) {
  for (size_t f = 0; f < rel.degree(); ++f) {
    for (const Tuple& t : rel.fragment(f).tuples) fn(t);
  }
}

using Check = std::function<bool(const QueryResult&)>;

Check DigestCheck(Digest expected) {
  return [expected](const QueryResult& r) {
    return DigestOf(*r.result) == expected;
  };
}

/// Digest of GROUP BY rows [key, COUNT(*), SUM(x)] from per-key totals.
Digest GroupDigest(const std::unordered_map<int64_t,
                                            std::pair<int64_t, int64_t>>& g) {
  Digest d;
  for (const auto& [key, agg] : g) {
    d.Add(Tuple({Value(key), Value(agg.first), Value(agg.second)}));
  }
  return d;
}

// ---------------------------------------------------------------------------
// Per-layer metrics.

/// Every per-layer metric with its unit, so each run prints all of them
/// (a layer a workload does not exercise reads 0).
const std::vector<std::pair<std::string, std::string>>& LayerNames() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"client.submit_us_p50", "us"},
      {"esql.parse_us_p50", "us"},
      {"client.late_ms_p99", "ms"},
      {"client.poll_gap_us_p99", "us"},
      {"client.failed_ratio", "ratio"},
      {"client.latency_p99_ms", "ms"},
      {"client.closed_qps", "1/s"},
      {"server.admission_wait_ms_p50", "ms"},
      {"server.admission_wait_ms_p99", "ms"},
      {"server.batch_window_wait_ms_p50", "ms"},
      {"server.queries_per_batch_mean", "count"},
      {"server.shared_batches", "count"},
      {"server.shed_ratio", "ratio"},
      {"server.gap_ms_p50", "ms"},
      {"server.gap_ms_p99", "ms"},
      {"server.threads_granted", "count"},
      {"server.threads_released", "count"},
      {"engine.execution_ms_p50", "ms"},
      {"engine.busy_ms_p50", "ms"},
      {"engine.parallel_efficiency", "ratio"},
      {"engine.tuples_per_activation", "count"},
      {"engine.secondary_acq_ratio", "ratio"},
      {"engine.queue_peak_units_max", "count"},
      {"engine.op_busy_ms.scan", "ms"},
      {"engine.op_busy_ms.ideal-join", "ms"},
      {"engine.op_busy_ms.pipelined-join", "ms"},
      {"engine.op_busy_ms.repartition-scan", "ms"},
      {"engine.op_busy_ms.group-by", "ms"},
      {"engine.op_busy_ms.sort", "ms"},
      {"engine.op_busy_ms.store", "ms"},
      {"dss.ideal_join_ms", "ms"},
      {"dss.assoc_join_ms", "ms"},
      {"dss.repart_join_ms", "ms"},
      {"dss.group_by_ms", "ms"},
      {"dss.sort_ms", "ms"},
      {"dss.skew_join_ms", "ms"},
      {"sched.threads_p50", "count"},
      {"engine.skew_overhead", "ratio"},
      {"model.eq3_bound", "ratio"},
      {"model.nmax", "count"},
      {"storage.generate_s", "s"},
      {"storage.spill_bytes_written", "bytes"},
      {"storage.spill_bytes_read", "bytes"},
      {"storage.spill_partitions", "count"},
      {"storage.spill_recursions", "count"},
      {"storage.spill_write_amp", "ratio"},
      {"common.quota_high_water_ratio", "ratio"},
      {"trace.spans", "count"},
  };
  return names;
}

void Merge(RunRecord* into, const RunRecord& from) {
  into->attempted += from.attempted;
  into->failed += from.failed;
  into->shed += from.shed;
  into->mismatches += from.mismatches;
  into->gap_violations += from.gap_violations;
  auto append = [](std::vector<double>* a, const std::vector<double>& b) {
    a->insert(a->end(), b.begin(), b.end());
  };
  into->completed += from.completed;
  into->samples.insert(into->samples.end(), from.samples.begin(),
                       from.samples.end());
  append(&into->poll_gap_us, from.poll_gap_us);
  into->relation_passes += from.relation_passes;
  into->threads_granted += from.threads_granted;
  into->threads_released += from.threads_released;
  EngineTotals& e = into->engine;
  const EngineTotals& f = from.engine;
  e.busy_s += f.busy_s;
  e.thread_wall_s += f.thread_wall_s;
  e.units += f.units;
  e.activations += f.activations;
  e.main_acq += f.main_acq;
  e.secondary_acq += f.secondary_acq;
  e.queue_peak_units = std::max(e.queue_peak_units, f.queue_peak_units);
  for (const auto& [k, v] : f.op_busy_s) e.op_busy_s[k] += v;
  for (const auto& [k, v] : f.counters) e.counters[k] += v;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// The per-layer metrics every workload derives the same way from its
/// merged query record.
void CommonLayers(const RunRecord& rec, std::map<std::string, Metric>* out) {
  auto set = [out](const char* name, double value) {
    (*out)[name].value = value;
  };
  auto layer = [&rec](double QueryLayers::*field, double scale, double q) {
    std::vector<double> v;
    v.reserve(rec.samples.size());
    for (const QueryLayers& l : rec.samples) v.push_back(l.*field * scale);
    return Percentile(std::move(v), q);
  };
  const double queries = static_cast<double>(rec.completed);
  set("client.submit_us_p50", layer(&QueryLayers::submit, 1e6, 0.5));
  set("esql.parse_us_p50", layer(&QueryLayers::parse, 1e6, 0.5));
  set("client.late_ms_p99", layer(&QueryLayers::late, 1e3, 0.99));
  set("client.poll_gap_us_p99", Percentile(rec.poll_gap_us, 0.99));
  set("client.failed_ratio",
      Ratio(static_cast<double>(rec.failed),
            static_cast<double>(rec.attempted)));
  set("server.admission_wait_ms_p50",
      layer(&QueryLayers::admission, 1e3, 0.5));
  set("server.admission_wait_ms_p99",
      layer(&QueryLayers::admission, 1e3, 0.99));
  set("server.batch_window_wait_ms_p50",
      layer(&QueryLayers::window, 1e3, 0.5));
  set("server.queries_per_batch_mean", Ratio(queries, rec.relation_passes));
  set("server.shed_ratio", Ratio(static_cast<double>(rec.shed),
                                 static_cast<double>(rec.attempted)));
  set("server.gap_ms_p50", layer(&QueryLayers::gap, 1e3, 0.5));
  set("server.gap_ms_p99", layer(&QueryLayers::gap, 1e3, 0.99));
  set("server.threads_granted", static_cast<double>(rec.threads_granted));
  set("server.threads_released", static_cast<double>(rec.threads_released));
  set("engine.execution_ms_p50", layer(&QueryLayers::execution, 1e3, 0.5));
  set("engine.busy_ms_p50", layer(&QueryLayers::busy, 1e3, 0.5));
  const EngineTotals& e = rec.engine;
  set("engine.parallel_efficiency", Ratio(e.busy_s, e.thread_wall_s));
  set("engine.tuples_per_activation", Ratio(e.units, e.activations));
  set("engine.secondary_acq_ratio",
      Ratio(e.secondary_acq, e.main_acq + e.secondary_acq));
  set("engine.queue_peak_units_max",
      static_cast<double>(e.queue_peak_units));
  for (const auto& [kind, busy] : e.op_busy_s) {
    const std::string name = "engine.op_busy_ms." + kind;
    if (out->count(name) != 0) (*out)[name].value = busy * 1e3 / queries;
  }
  set("sched.threads_p50", layer(&QueryLayers::threads, 1, 0.5));
}

uint64_t Counter(const Database& db, const char* name) {
  const dbs3::MetricsSnapshot snap = db.metrics().Snapshot();
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

/// Everything one measurement of a workload produced.
struct Measurement {
  RunRecord record;  ///< Every measured query, merged.
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, double> layers;  ///< Workload-specific layers.
};

// ---------------------------------------------------------------------------
// Point lookups and range scans (lookup_flood, budget_mixed).

/// Reference for lookups on relation L: rows by key, and prefix sums of
/// row hashes by key so a range's digest is two subtractions.
struct LookupRef {
  std::vector<const Tuple*> by_key;
  std::vector<uint64_t> prefix;  ///< prefix[k] = sum of hashes of keys < k.

  explicit LookupRef(const Relation& rel)
      : by_key(IndexBy(rel, Col(rel, "unique1"))) {
    prefix.assign(by_key.size() + 1, 0);
    for (size_t k = 0; k < by_key.size(); ++k) {
      prefix[k + 1] = prefix[k] + Digest::RowHash(*by_key[k]);
    }
  }
};

/// Query i of the lookup stream: keys drawn from the seed, one range scan
/// in ten.
LookupQuery MakeLookup(const LookupRef* ref, uint64_t seed, uint64_t i) {
  uint64_t state = seed * 0x9e3779b97f4a7c15ULL + i;
  const uint64_t r = dbs3::SplitMix64(state);
  LookupQuery q;
  if (i % 10 == 9) {
    const uint64_t lo = r % (kLookupRows - kRangeRows + 1);
    const uint64_t hi = lo + kRangeRows;
    q.text = "SELECT * FROM L WHERE unique1 >= " + std::to_string(lo) +
             " AND unique1 < " + std::to_string(hi);
    q.check =
        DigestCheck(Digest{kRangeRows, ref->prefix[hi] - ref->prefix[lo]});
  } else {
    const uint64_t key = r % kLookupRows;
    q.text = "SELECT * FROM L WHERE unique1 = " + std::to_string(key);
    const Tuple* expected = ref->by_key[key];
    q.check = [expected](const QueryResult& res) {
      const Relation& rel = *res.result;
      if (rel.cardinality() != 1) return false;
      for (size_t f = 0; f < rel.degree(); ++f) {
        for (const Tuple& t : rel.fragment(f).tuples) {
          if (t != *expected) return false;
        }
      }
      return true;
    };
  }
  return q;
}

/// Latency from the due time (late + send-to-completion), in ms.
std::vector<double> DueLatencyMs(const RunRecord& rec) {
  std::vector<double> v;
  v.reserve(rec.samples.size());
  for (const QueryLayers& l : rec.samples) {
    v.push_back((l.late + l.e2e) * 1e3);
  }
  return v;
}


// ---------------------------------------------------------------------------
// dss_mix.

struct DssShape {
  const char* layer;  ///< Per-layer metric of this shape's median.
  std::string text;
  Check check;
  bool skewed = false;  ///< The paper's skewed join: report it in Eq. 3 terms.
};

struct DssSetup {
  std::unique_ptr<Database> db;
  std::vector<DssShape> shapes;
  double generate_s = 0.0;
};

/// W200 (200K) and W20 (20K): Wisconsin relations modulo-partitioned on
/// unique1 at degree 32, so a unique1 join is co-partitioned. SA/SB: the
/// paper's skewed pair at theta 0.8, degree 200.
std::unique_ptr<DssSetup> SetUpDss(uint64_t seed) {
  auto s = std::make_unique<DssSetup>();
  s->db = std::make_unique<Database>();
  Database& db = *s->db;
  const Clock::time_point t0 = Clock::now();
  AddWisconsin(db, "W200", 200'000, 32, seed * 4 + 1);
  AddWisconsin(db, "W20", 20'000, 32, seed * 4 + 2);
  dbs3::SkewSpec skew;
  skew.a_cardinality = 100'000;
  skew.b_cardinality = 10'000;
  skew.degree = 200;
  skew.theta = 0.8;
  skew.seed = seed * 4 + 3;
  CheckOk(db.CreateSkewedPair(skew, "SA", "SB"), "skewed pair");
  s->generate_s = Since(t0);
  db.runtime();  // Start the runtime at its default sizing.

  const Relation& big = *Rel(db, "W200");
  const Relation& small = *Rel(db, "W20");
  const size_t u1 = Col(big, "unique1"), u2 = Col(big, "unique2");
  const size_t two = Col(big, "two"), ten_pct = Col(big, "tenPercent");
  const size_t one_pct = Col(big, "onePercent");
  const std::vector<const Tuple*> big_u1 = IndexBy(big, u1);
  const std::vector<const Tuple*> big_u2 = IndexBy(big, u2);
  const std::vector<const Tuple*> small_u1 = IndexBy(small, u1);

  Digest ideal, assoc, repart, sorted;
  ForEachRow(small, [&](const Tuple& t) {
    ideal.AddHash(Digest::ConcatHash(*big_u1[t.at(u1).AsInt()], t));
    const Tuple& b = *big_u2[t.at(u2).AsInt()];
    if (b.at(two).AsInt() == 0) repart.AddHash(Digest::ConcatHash(t, b));
  });
  std::unordered_map<int64_t, std::pair<int64_t, int64_t>> groups;
  ForEachRow(big, [&](const Tuple& t) {
    const int64_t k2 = t.at(u2).AsInt();
    if (k2 < static_cast<int64_t>(small_u1.size())) {
      assoc.AddHash(Digest::ConcatHash(t, *small_u1[k2]));
    }
    auto& g = groups[t.at(one_pct).AsInt()];
    ++g.first;
    g.second += k2;
    if (t.at(ten_pct).AsInt() == 3) sorted.Add(Tuple({t.at(u1), t.at(u2)}));
  });
  const Relation& sa = *Rel(db, "SA");
  const Relation& sb = *Rel(db, "SB");
  std::unordered_map<int64_t, const Tuple*> sb_by_key;
  ForEachRow(sb, [&](const Tuple& t) { sb_by_key[t.at(0).AsInt()] = &t; });
  Digest skewed;
  ForEachRow(sa, [&](const Tuple& t) {
    skewed.AddHash(Digest::ConcatHash(t, *sb_by_key.at(t.at(0).AsInt())));
  });

  const Check sort_check = [sorted](const QueryResult& r) {
    // ORDER BY sorts within each result fragment.
    for (size_t f = 0; f < r.result->degree(); ++f) {
      const std::vector<Tuple>& rows = r.result->fragment(f).tuples;
      for (size_t i = 1; i < rows.size(); ++i) {
        if (rows[i].at(1) < rows[i - 1].at(1)) return false;
      }
    }
    return DigestOf(*r.result) == sorted;
  };
  s->shapes = {
      {"dss.ideal_join_ms",
       "SELECT * FROM W200 JOIN W20 ON W200.unique1 = W20.unique1",
       DigestCheck(ideal)},
      {"dss.assoc_join_ms",
       "SELECT * FROM W200 JOIN W20 ON W200.unique2 = W20.unique1",
       DigestCheck(assoc)},
      {"dss.repart_join_ms",
       "SELECT * FROM W20 JOIN W200 ON W20.unique2 = W200.unique2 "
       "WHERE W200.two = 0",
       DigestCheck(repart)},
      {"dss.group_by_ms",
       "SELECT onePercent, COUNT(*), SUM(unique2) FROM W200 "
       "GROUP BY onePercent",
       DigestCheck(GroupDigest(groups))},
      {"dss.sort_ms",
       "SELECT unique1, unique2 FROM W200 WHERE tenPercent = 3 "
       "ORDER BY unique2",
       sort_check},
      {"dss.skew_join_ms", "SELECT * FROM SA JOIN SB ON SA.key = SB.key",
       DigestCheck(skewed), /*skewed=*/true},
  };
  return s;
}

const dbs3::OperationStats* FindOp(const dbs3::ExecutionResult& exec,
                                   const std::string& name) {
  for (const dbs3::OperationStats& op : exec.op_stats) {
    if (op.name == name) return &op;
  }
  return nullptr;
}

/// The skewed IdealJoin in the paper's terms: measured overhead v (join
/// wall over the ideal busy / n), the Eq. 3 bound (Pmax/P)(n-1)/a and nmax,
/// with per-activation cost = tuples join instance i produced (what the
/// store's instance i processed).
struct SkewSample {
  double v = 0.0, bound = 0.0, nmax = 0.0;
};

bool SkewOf(const QueryResult& r, SkewSample* out) {
  const dbs3::OperationStats* join = FindOp(r.execution, "ideal-join");
  const dbs3::OperationStats* store = FindOp(r.execution, "store");
  if (join == nullptr || store == nullptr || join->busy_seconds <= 0) {
    return false;
  }
  const size_t n = join->per_thread_busy_seconds.size();
  out->v = join->wall_span_seconds * static_cast<double>(n) /
               join->busy_seconds -
           1.0;
  std::vector<double> costs(store->per_instance_processed.begin(),
                            store->per_instance_processed.end());
  const dbs3::OperationProfile profile = dbs3::ProfileFromCosts(costs);
  out->bound = dbs3::OverheadBound(profile, n);
  out->nmax = dbs3::NMax(profile);
  return true;
}

Measurement MeasureDss(DssSetup& s, double seconds, Tracer* tracer) {
  Measurement m;
  const EsqlOptions options = DefaultOptions();
  std::vector<double> passes;
  std::map<std::string, std::vector<double>> shape_ms;
  std::vector<double> v, bound, nmax;
  uint64_t completed = 0;
  const Clock::time_point start = Clock::now();
  do {
    double pass = 0.0;
    bool pass_ok = true;  // A pass with a failed query is not timed.
    for (const DssShape& shape : s.shapes) {
      QueryLayers l;
      auto r = RunSession(*s.db, shape.text, options, tracer, &m.record, &l);
      if (!r.ok()) {
        pass_ok = false;
        continue;
      }
      if (!shape.check(r.value())) {
        ++m.record.mismatches;
        m.record.Fail("wrong result", shape.text);
        pass_ok = false;
        continue;
      }
      ++completed;
      pass += l.e2e;
      shape_ms[shape.layer].push_back(l.e2e * 1e3);
      SkewSample sample;
      if (shape.skewed && SkewOf(r.value(), &sample)) {
        v.push_back(sample.v);
        bound.push_back(sample.bound);
        nmax.push_back(sample.nmax);
      }
    }
    if (pass_ok) passes.push_back(pass);
  } while (Since(start) < seconds);
  const std::vector<double>& skew_ms = shape_ms["dss.skew_join_ms"];
  m.end_to_end["latency_p50_ms"] = {Median(skew_ms), "ms"};
  m.end_to_end["closed_loop_ms"] = {Median(passes) * 1e3, "ms"};
  m.layers["client.latency_p99_ms"] = Percentile(skew_ms, 0.99);
  m.layers["client.closed_qps"] =
      static_cast<double>(completed) / Since(start);
  for (const auto& [name, ms] : shape_ms) m.layers[name] = Median(ms);
  m.layers["engine.skew_overhead"] = Median(v);
  m.layers["model.eq3_bound"] = Median(bound);
  m.layers["model.nmax"] = Median(nmax);
  return m;
}

// ---------------------------------------------------------------------------
// lookup_flood.

struct LookupSetup {
  std::unique_ptr<Database> db;
  std::unique_ptr<LookupRef> ref;
  double generate_s = 0.0;
};

void AddLookupRelation(Database& db, uint64_t seed) {
  dbs3::WisconsinOptions options;
  options.cardinality = kLookupRows;
  options.degree = 4;
  options.seed = seed;
  CheckOk(db.CreateWisconsin("L", options), "L");
}

std::unique_ptr<LookupSetup> SetUpLookup(uint64_t seed) {
  auto s = std::make_unique<LookupSetup>();
  s->db = std::make_unique<Database>();
  const Clock::time_point t0 = Clock::now();
  AddLookupRelation(*s->db, seed * 4 + 1);
  s->generate_s = Since(t0);
  s->db->runtime();
  s->ref = std::make_unique<LookupRef>(*Rel(*s->db, "L"));
  return s;
}

Measurement MeasureLookup(LookupSetup& s, uint64_t seed, double seconds,
                          uint64_t* next_index, Tracer* tracer) {
  Measurement m;
  const LookupRef* ref = s.ref.get();
  LookupClient client(
      s.db.get(), DefaultOptions(),
      [ref, seed](uint64_t i) { return MakeLookup(ref, seed, i); }, tracer);
  // The two phases alternate in short segments so that both sample the
  // same stretch of host conditions rather than one half of the run each.
  const int segments = std::max(1, static_cast<int>(seconds / 2 / kSegment));
  const double segment_s = seconds / 2 / segments;
  RunRecord open, closed;
  std::vector<double> segment_p50, burst_ms;
  double closed_s = 0.0;
  for (int i = 0; i < segments; ++i) {
    RunRecord segment;
    *next_index +=
        client.RunOpen(kOpenRate, segment_s, *next_index, &segment);
    segment_p50.push_back(Median(DueLatencyMs(segment)));
    Merge(&open, segment);
    const Clock::time_point t0 = Clock::now();
    *next_index += client.RunClosed(kClosedWindow, segment_s, *next_index,
                                    kBurst, &burst_ms, &closed);
    closed_s += Since(t0);
  }
  // Host slow spells last seconds: a median over segments discounts one
  // slow segment, and peak throughput is the best quartile of bursts.
  m.end_to_end["latency_p50_ms"] = {Median(segment_p50), "ms"};
  m.end_to_end["closed_loop_ms"] = {Percentile(burst_ms, 0.25), "ms"};
  m.layers["client.latency_p99_ms"] = Percentile(DueLatencyMs(open), 0.99);
  m.layers["client.closed_qps"] =
      static_cast<double>(closed.completed - closed.mismatches) / closed_s;
  Merge(&m.record, open);
  Merge(&m.record, closed);
  return m;
}

// ---------------------------------------------------------------------------
// budget_mixed.

struct BudgetSetup {
  std::unique_ptr<Database> db;
  std::unique_ptr<LookupRef> ref;
  Check check;
  double join_input_bytes = 0.0;
  double generate_s = 0.0;
};

// Repartitions W20 (the 20K-tuple build side) on unique2, probes it with
// W200 and aggregates into 100 groups.
const char* kLongQuery =
    "SELECT W200.onePercent, COUNT(*), SUM(W20.unique1) "
    "FROM W200 JOIN W20 ON W200.unique2 = W20.unique2 "
    "GROUP BY W200.onePercent";

std::vector<Tuple> SortedRows(const Relation& rel) {
  std::vector<Tuple> rows = rel.Scan();
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::unique_ptr<BudgetSetup> SetUpBudget(uint64_t seed) {
  auto s = std::make_unique<BudgetSetup>();
  s->db = std::make_unique<Database>();
  Database& db = *s->db;
  const Clock::time_point t0 = Clock::now();
  AddWisconsin(db, "W200", 200'000, 32, seed * 4 + 1);
  AddWisconsin(db, "W20", 20'000, 32, seed * 4 + 2);
  AddLookupRelation(db, seed * 4 + 3);
  s->generate_s = Since(t0);
  db.runtime();
  s->ref = std::make_unique<LookupRef>(*Rel(db, "L"));

  const Relation& big = *Rel(db, "W200");
  const Relation& small = *Rel(db, "W20");
  s->join_input_bytes = static_cast<double>(big.EstimatedBytes() +
                                            small.EstimatedBytes());
  const std::vector<const Tuple*> big_u2 =
      IndexBy(big, Col(big, "unique2"));
  const size_t one_pct = Col(big, "onePercent");
  const size_t u1 = Col(small, "unique1"), u2 = Col(small, "unique2");
  std::unordered_map<int64_t, std::pair<int64_t, int64_t>> groups;
  ForEachRow(small, [&](const Tuple& t) {
    auto& g = groups[big_u2[t.at(u2).AsInt()]->at(one_pct).AsInt()];
    ++g.first;
    g.second += t.at(u1).AsInt();
  });
  const Digest expected = GroupDigest(groups);

  // The unbudgeted run is the row-for-row reference of the budgeted one.
  auto unbudgeted = dbs3::ExecuteEsql(db, kLongQuery, DefaultOptions());
  CheckOk(unbudgeted.status(), "unbudgeted reference run");
  if (!(DigestOf(*unbudgeted.value().result) == expected)) {
    std::fprintf(stderr, "unbudgeted reference run returned wrong rows\n");
    std::exit(2);
  }
  std::vector<Tuple> rows = SortedRows(*unbudgeted.value().result);
  s->check = [rows](const QueryResult& r) {
    return SortedRows(*r.result) == rows;
  };
  return s;
}

EsqlOptions BudgetOptions() {
  EsqlOptions options = DefaultOptions();
  options.memory_units = kBudgetUnits;
  return options;
}

Measurement MeasureBudget(BudgetSetup& s, uint64_t seed, double seconds,
                          uint64_t* next_index, Tracer* tracer) {
  Measurement m;
  RunRecord long_rec;
  std::vector<double> long_s;
  std::atomic<bool> stop{false};
  const EsqlOptions budgeted = BudgetOptions();
  const Clock::time_point start = Clock::now();
  std::thread session([&] {
    while (!stop.load()) {
      QueryLayers l;
      auto r = RunSession(*s.db, kLongQuery, budgeted, tracer, &long_rec, &l);
      if (!r.ok()) continue;
      if (!s.check(r.value())) {
        ++long_rec.mismatches;
        long_rec.Fail("wrong result", kLongQuery);
        continue;
      }
      long_s.push_back(l.e2e);
    }
  });
  const LookupRef* ref = s.ref.get();
  LookupClient client(
      s.db.get(), DefaultOptions(),
      [ref, seed](uint64_t i) { return MakeLookup(ref, seed, i); }, tracer);
  RunRecord lookups;
  *next_index += client.RunOpen(kBesideRate, seconds, *next_index, &lookups);
  stop.store(true);
  session.join();

  const std::vector<double> latency = DueLatencyMs(lookups);
  m.end_to_end["latency_p50_ms"] = {Percentile(latency, 0.5), "ms"};
  m.end_to_end["closed_loop_ms"] = {Median(long_s) * 1e3, "ms"};
  m.layers["client.latency_p99_ms"] = Percentile(latency, 0.99);
  m.layers["client.closed_qps"] =
      static_cast<double>(long_s.size()) / Since(start);

  const double n = static_cast<double>(long_s.size());
  auto per_query = [&](const char* counter) {
    auto it = long_rec.engine.counters.find(counter);
    return it == long_rec.engine.counters.end() ? 0.0 : it->second / n;
  };
  m.layers["storage.spill_bytes_written"] = per_query("spill.bytes_written");
  m.layers["storage.spill_bytes_read"] = per_query("spill.bytes_read");
  m.layers["storage.spill_partitions"] = per_query("spill.partitions");
  m.layers["storage.spill_recursions"] = per_query("spill.recursions");
  m.layers["storage.spill_write_amp"] =
      per_query("spill.bytes_written") / s.join_input_bytes;
  std::vector<double> high_water;
  for (const QueryLayers& l : long_rec.samples) {
    high_water.push_back(l.quota_high_water);
  }
  m.layers["common.quota_high_water_ratio"] =
      Median(high_water) / static_cast<double>(kBudgetUnits);
  Merge(&m.record, long_rec);
  Merge(&m.record, lookups);
  return m;
}

// ---------------------------------------------------------------------------
// The run skeleton shared by the workloads: set up kSetups times, warm up,
// measure (twice when traced), report.

template <typename Setup>
using MeasureFn = std::function<Measurement(Setup&, double, Tracer*)>;

template <typename Setup>
void Drive(const BenchOptions& options,
           const std::function<std::unique_ptr<Setup>()>& set_up,
           const MeasureFn<Setup>& measure, Outcome* outcome) {
  std::vector<double> setup_s, generate_s;
  std::unique_ptr<Setup> setup;
  for (int i = 0; i < kSetups; ++i) {
    setup.reset();  // One database alive at a time.
    const Clock::time_point t0 = Clock::now();
    setup = set_up();
    setup_s.push_back(Since(t0));
    generate_s.push_back(setup->generate_s);
  }
  Tracer untraced(false);
  const RunRecord warm = measure(*setup, kWarmUpSeconds, &untraced).record;

  const double untraced_seconds =
      options.trace ? options.seconds / 2 : options.seconds;
  Measurement m = measure(*setup, untraced_seconds, &untraced);
  Outcome& o = *outcome;
  o.end_to_end = m.end_to_end;
  o.end_to_end["setup_s"] = {Median(setup_s), "s"};

  RunRecord all = m.record;
  if (options.trace) {
    Tracer tracer(true);
    const uint64_t batches = Counter(*setup->db, "runtime.shared_batches");
    Measurement traced = measure(*setup, options.seconds / 2, &tracer);
    traced.layers["server.shared_batches"] = static_cast<double>(
        Counter(*setup->db, "runtime.shared_batches") - batches);
    for (const auto& [name, unit] : LayerNames()) {
      o.per_layer[name] = {0.0, unit};
    }
    CommonLayers(traced.record, &o.per_layer);
    for (const auto& [name, value] : traced.layers) {
      o.per_layer[name].value = value;
    }
    o.per_layer["storage.generate_s"].value = Median(generate_s);
    o.per_layer["trace.spans"].value = static_cast<double>(tracer.size());
    for (const auto& [name, metric] : m.end_to_end) {
      o.per_layer["trace.overhead." + name] = {
          traced.end_to_end[name].value - metric.value, metric.unit};
    }
    Merge(&all, traced.record);
    if (!options.trace_path.empty() && !tracer.WriteJson(options.trace_path)) {
      std::fprintf(stderr, "could not write %s\n", options.trace_path.c_str());
    }
  }
  o.end_to_end["peak_rss_mb"] = {PeakRssMb(), "MB"};
  o.attempted = all.attempted;
  o.failed = all.failed;
  // Sheds, errors and wrong results all fail the run: a failed query
  // would otherwise drop out of the timings and make them look better.
  o.correct = all.failed == 0 && warm.failed == 0 &&
              all.gap_violations == 0 && all.attempted > 0;
  if (all.gap_violations > 0) {
    std::fprintf(stderr, "%llu queries whose layers exceed their latency\n",
                 static_cast<unsigned long long>(all.gap_violations));
  }
  // An empty sample has median 0, which would read as the best value.
  for (const auto& [name, metric] : o.end_to_end) {
    if (!(metric.value > 0)) {
      std::fprintf(stderr, "%s has no samples\n", name.c_str());
      o.correct = false;
    }
  }
}

}  // namespace

bool RunWorkload(const BenchOptions& options, Outcome* outcome) {
  const uint64_t seed = options.seed;
  uint64_t next_index = 0;  // Lookup stream position across measurements.
  if (options.workload == "dss_mix") {
    Drive<DssSetup>(
        options, [seed] { return SetUpDss(seed); },
        [](DssSetup& s, double seconds, Tracer* tracer) {
          return MeasureDss(s, seconds, tracer);
        },
        outcome);
  } else if (options.workload == "lookup_flood") {
    Drive<LookupSetup>(
        options, [seed] { return SetUpLookup(seed); },
        [&](LookupSetup& s, double seconds, Tracer* tracer) {
          return MeasureLookup(s, seed, seconds, &next_index, tracer);
        },
        outcome);
  } else if (options.workload == "budget_mixed") {
    Drive<BudgetSetup>(
        options, [seed] { return SetUpBudget(seed); },
        [&](BudgetSetup& s, double seconds, Tracer* tracer) {
          return MeasureBudget(s, seed, seconds, &next_index, tracer);
        },
        outcome);
  } else {
    return false;
  }
  return true;
}

}  // namespace perfbench
