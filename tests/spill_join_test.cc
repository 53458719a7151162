// Differential tests of the memory-bounded operators: the hash join (as
// AssocJoin's pipelined join and as IdealJoin's triggered driver) and the
// spilling group-by must produce results identical to an unconstrained
// reference under any budget, including budgets small enough to force the
// join's hybrid path, recursive repartitioning and the block nested-loop
// fallback. Also pins the cancellation contract: a torn-down logic returns
// its quota charges and leaks no spill-file handles.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/memory_quota.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "dbs3/database.h"
#include "dbs3/query.h"
#include "engine/blocking_operators.h"
#include "engine/operators.h"
#include "esql/planner.h"
#include "storage/spill.h"

namespace dbs3 {
namespace {

class CapturingEmitter : public Emitter {
 public:
  void Emit(size_t producer_instance, Tuple tuple) override {
    std::lock_guard<std::mutex> lock(mu_);
    (void)producer_instance;
    emitted_.push_back(std::move(tuple));
  }
  std::vector<Tuple> take_sorted() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Tuple> out = std::move(emitted_);
    emitted_.clear();
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  std::mutex mu_;
  std::vector<Tuple> emitted_;
};

/// Delivers `tuple` as a one-tuple data activation (chunk_size=1).
void Deliver(OperatorLogic& logic, size_t instance, Tuple tuple,
             Emitter* out) {
  logic.OnDataBatch(instance, std::span<Tuple>(&tuple, 1), out);
}

/// Delivers `probes` in `span`-tuple data activations: 1 is the paper's
/// per-tuple activation, 16 runs the join's batched probe.
void DeliverAll(OperatorLogic& logic, const std::vector<Tuple>& probes,
                size_t span, Emitter* out) {
  for (size_t base = 0; base < probes.size(); base += span) {
    std::vector<Tuple> chunk(
        probes.begin() + base,
        probes.begin() + std::min(probes.size(), base + span));
    logic.OnDataBatch(0, std::span<Tuple>(chunk), out);
  }
}

/// The delivery that probes with one control activation over the whole
/// outer fragment (IdealJoin's trigger) instead of data activations.
constexpr size_t kTriggered = 0;

/// The probe deliveries every join case runs under: data activations of
/// 1 tuple (the paper's per-tuple activation) and of 16 (the batched
/// probe), and the trigger.
constexpr size_t kDeliveries[] = {1, 16, kTriggered};

/// Degree-1 build relation with rows (key, 1000 + i).
std::unique_ptr<Relation> MakeInner(const std::vector<int64_t>& keys) {
  auto rel = std::make_unique<Relation>(
      "inner",
      Schema({{"k", ValueType::kInt64}, {"payload", ValueType::kInt64}}), 0,
      Partitioner(PartitionKind::kModulo, 1));
  int64_t i = 0;
  for (int64_t k : keys) {
    EXPECT_TRUE(rel->Insert(Tuple({Value(k), Value(1000 + i++)})).ok());
  }
  return rel;
}

/// Degree-1 outer relation holding `probes`, in order, partitioned like
/// MakeInner's relation: the triggered join's probe fragment.
std::unique_ptr<Relation> MakeOuter(const std::vector<Tuple>& probes) {
  auto rel = std::make_unique<Relation>(
      "outer",
      Schema({{"k", ValueType::kInt64}, {"seq", ValueType::kInt64}}), 0,
      Partitioner(PartitionKind::kModulo, 1));
  for (const Tuple& t : probes) EXPECT_TRUE(rel->Insert(t).ok());
  return rel;
}

std::vector<Tuple> MakeProbes(const std::vector<int64_t>& keys) {
  std::vector<Tuple> probes;
  int64_t i = 0;
  probes.reserve(keys.size());
  for (int64_t k : keys) {
    probes.push_back(Tuple({Value(k), Value(-(i++))}));
  }
  return probes;
}

/// The temp-index join under test for `delivery`: IdealJoin's triggered
/// join of `outer` (MakeOuter of the probes) with `inner`, or AssocJoin's
/// pipelined join against `inner`.
std::unique_ptr<OperatorLogic> MakeJoin(const Relation* outer,
                                        const Relation* inner,
                                        size_t delivery) {
  if (delivery == kTriggered) {
    return std::make_unique<TriggeredJoinLogic>(outer, 0, inner, 0,
                                                JoinAlgorithm::kTempIndex);
  }
  return std::make_unique<PipelinedJoinLogic>(inner, 0, 0,
                                              JoinAlgorithm::kTempIndex);
}

/// Sends the probes to instance 0: one trigger (the logic reads them from
/// its outer relation) or `delivery`-tuple data activations.
void Drive(OperatorLogic& logic, const std::vector<Tuple>& probes,
           size_t delivery, Emitter* out) {
  if (delivery == kTriggered) {
    logic.OnTrigger(0, out);
  } else {
    DeliverAll(logic, probes, delivery, out);
  }
}

/// Drives one logic through the executor's calling convention, probes per
/// `delivery`, and returns its sorted output. `quota` may be null (no
/// accounting).
std::vector<Tuple> RunJoin(OperatorLogic& logic,
                           const std::vector<Tuple>& probes, size_t delivery,
                           MemoryQuota* quota,
                           MetricsRegistry* metrics = nullptr) {
  ExecResources resources;
  resources.quota = quota;
  resources.metrics = metrics;
  logic.BindExecution(resources);
  EXPECT_TRUE(logic.Prepare(1).ok());
  CapturingEmitter out;
  Drive(logic, probes, delivery, &out);
  logic.OnFinish(0, &out);
  EXPECT_TRUE(logic.error().ok()) << logic.error().ToString();
  // Every delivery's temp-index build charges the bound quota.
  if (quota != nullptr) {
    EXPECT_GT(quota->high_water(), 0u);
  }
  return out.take_sorted();
}

class SpillJoinDifferentialTest : public ::testing::Test {
 protected:
  /// The expected rows, from a plain loop over the inner relation — no
  /// engine join involved, so the oracle is independent of the logic
  /// under test.
  std::vector<Tuple> Reference(const Relation* inner,
                               const std::vector<Tuple>& probes) {
    const std::vector<Tuple> inner_rows = inner->Scan();
    std::vector<Tuple> out;
    for (const Tuple& p : probes) {
      for (const Tuple& s : inner_rows) {
        if (s.at(0) == p.at(0)) out.push_back(p.Concat(s));
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }
};

TEST_F(SpillJoinDifferentialTest, UnboundedQuotaMatchesInMemoryJoin) {
  Rng rng(7);
  std::vector<int64_t> build_keys, probe_keys;
  for (int i = 0; i < 300; ++i) build_keys.push_back(rng.Range(0, 60));
  for (int i = 0; i < 500; ++i) probe_keys.push_back(rng.Range(0, 80));
  auto inner = MakeInner(build_keys);
  const std::vector<Tuple> probes = MakeProbes(probe_keys);
  auto outer = MakeOuter(probes);
  const std::vector<Tuple> expected = Reference(inner.get(), probes);
  ASSERT_FALSE(expected.empty());

  for (size_t delivery : kDeliveries) {
    MemoryQuota quota(0);  // Unlimited: tracks but never spills.
    auto join = MakeJoin(outer.get(), inner.get(), delivery);
    EXPECT_EQ(RunJoin(*join, probes, delivery, &quota), expected)
        << "delivery=" << delivery;
    EXPECT_EQ(quota.used(), 0u);  // Everything released after OnFinish.
    EXPECT_EQ(quota.high_water(), build_keys.size());  // Whole build.
  }
}

TEST_F(SpillJoinDifferentialTest, TinyBudgetsSpillAndStayByteIdentical) {
  Rng rng(11);
  std::vector<int64_t> build_keys, probe_keys;
  for (int i = 0; i < 400; ++i) build_keys.push_back(rng.Range(0, 100));
  for (int i = 0; i < 600; ++i) probe_keys.push_back(rng.Range(0, 120));
  auto inner = MakeInner(build_keys);
  const std::vector<Tuple> probes = MakeProbes(probe_keys);
  auto outer = MakeOuter(probes);
  const std::vector<Tuple> expected = Reference(inner.get(), probes);
  ASSERT_FALSE(expected.empty());

  const int64_t live_before = SpillFile::live_files();
  for (size_t delivery : kDeliveries) {
    for (uint64_t budget : {uint64_t{1}, uint64_t{4}, uint64_t{32},
                            uint64_t{1'000'000}}) {
      MemoryQuota quota(budget);
      MetricsRegistry metrics;
      auto join = MakeJoin(outer.get(), inner.get(), delivery);
      EXPECT_EQ(RunJoin(*join, probes, delivery, &quota, &metrics), expected)
          << "budget=" << budget << " delivery=" << delivery;
      EXPECT_EQ(quota.used(), 0u) << "budget=" << budget;
      // Forced-progress overshoot is bounded to O(1) units per instance.
      EXPECT_LE(quota.high_water(), budget + 2) << "budget=" << budget;
      MetricsSnapshot snap = metrics.Snapshot();
      if (budget < build_keys.size()) {
        EXPECT_GT(snap.counters["spill.bytes_written"], 0u)
            << "budget=" << budget;
      } else {
        EXPECT_EQ(snap.counters["spill.bytes_written"], 0u);
      }
    }
  }
  EXPECT_EQ(SpillFile::live_files(), live_before);
}

TEST_F(SpillJoinDifferentialTest, HotKeySkewFallsBackToNestedLoop) {
  // Every build row shares one key: no rehash can ever split the spilled
  // partition, so the join must detect the non-split and finish through
  // the block nested-loop pass instead of recursing forever.
  std::vector<int64_t> build_keys(200, 7);
  std::vector<int64_t> probe_keys(50, 7);
  probe_keys.push_back(8);  // One non-matching probe.
  auto inner = MakeInner(build_keys);
  const std::vector<Tuple> probes = MakeProbes(probe_keys);
  auto outer = MakeOuter(probes);
  const std::vector<Tuple> expected = Reference(inner.get(), probes);
  ASSERT_EQ(expected.size(), 200u * 50u);

  for (size_t delivery : kDeliveries) {
    MemoryQuota quota(2);
    auto join = MakeJoin(outer.get(), inner.get(), delivery);
    EXPECT_EQ(RunJoin(*join, probes, delivery, &quota), expected)
        << "delivery=" << delivery;
    EXPECT_EQ(quota.used(), 0u);
    EXPECT_LE(quota.high_water(), 2u + 2u);
  }
}

TEST_F(SpillJoinDifferentialTest, ZipfSkewAcrossBudgets) {
  // Zipf-ish frequencies: key k appears ~N/(k+1) times on both sides —
  // a few very hot keys with a long tail, the paper's skew regime.
  std::vector<int64_t> build_keys, probe_keys;
  for (int64_t k = 0; k < 40; ++k) {
    for (int64_t c = 0; c < 120 / (k + 1) + 1; ++c) build_keys.push_back(k);
  }
  for (int64_t k = 0; k < 50; ++k) {
    for (int64_t c = 0; c < 200 / (k + 1) + 1; ++c) probe_keys.push_back(k);
  }
  auto inner = MakeInner(build_keys);
  const std::vector<Tuple> probes = MakeProbes(probe_keys);
  auto outer = MakeOuter(probes);
  const std::vector<Tuple> expected = Reference(inner.get(), probes);
  ASSERT_FALSE(expected.empty());

  for (size_t delivery : kDeliveries) {
    for (uint64_t budget : {uint64_t{3}, uint64_t{17}, uint64_t{64}}) {
      MemoryQuota quota(budget);
      auto join = MakeJoin(outer.get(), inner.get(), delivery);
      EXPECT_EQ(RunJoin(*join, probes, delivery, &quota), expected)
          << "budget=" << budget << " delivery=" << delivery;
      EXPECT_EQ(quota.used(), 0u);
    }
  }
}

TEST_F(SpillJoinDifferentialTest, TinyBudgetForcesRecursion) {
  // A 500-row build under budget 4: a spilled partition (~60 rows) cannot
  // reload, so OnFinish repartitions it, level by level, until the pieces
  // fit; results must still be exact.
  Rng rng(23);
  std::vector<int64_t> build_keys, probe_keys;
  for (int i = 0; i < 500; ++i) build_keys.push_back(rng.Range(0, 250));
  for (int i = 0; i < 400; ++i) probe_keys.push_back(rng.Range(0, 250));
  auto inner = MakeInner(build_keys);
  const std::vector<Tuple> probes = MakeProbes(probe_keys);
  auto outer = MakeOuter(probes);
  const std::vector<Tuple> expected = Reference(inner.get(), probes);

  for (size_t delivery : kDeliveries) {
    MemoryQuota quota(4);
    MetricsRegistry metrics;
    auto join = MakeJoin(outer.get(), inner.get(), delivery);
    EXPECT_EQ(RunJoin(*join, probes, delivery, &quota, &metrics), expected)
        << "delivery=" << delivery;
    EXPECT_GT(metrics.Snapshot().counters["spill.recursions"], 0u);
    EXPECT_EQ(quota.used(), 0u);
  }
}

TEST_F(SpillJoinDifferentialTest,
       TeardownWithoutFinishReleasesQuotaAndFiles) {
  // A cancelled run skips OnFinish; destruction alone must return every
  // charged unit and close every spill file (they are unlinked from
  // birth, so closing is the whole cleanup).
  Rng rng(31);
  std::vector<int64_t> build_keys, probe_keys;
  for (int i = 0; i < 300; ++i) build_keys.push_back(rng.Range(0, 80));
  for (int i = 0; i < 200; ++i) probe_keys.push_back(rng.Range(0, 80));
  auto inner = MakeInner(build_keys);
  const std::vector<Tuple> probes = MakeProbes(probe_keys);
  auto outer = MakeOuter(probes);

  const int64_t live_before = SpillFile::live_files();
  // A budget just under the build size: most partitions stay resident
  // (and hold charges) while at least one spills (and opens files). A
  // budget over it holds the in-place build's whole charge.
  for (uint64_t budget : {uint64_t{280}, uint64_t{1'000}}) {
    for (size_t delivery : kDeliveries) {
      MemoryQuota quota(budget);
      {
        auto join = MakeJoin(outer.get(), inner.get(), delivery);
        ExecResources resources;
        resources.quota = &quota;
        join->BindExecution(resources);
        ASSERT_TRUE(join->Prepare(1).ok());
        CapturingEmitter out;
        // Build happens on the first probe; deferred probes open probe
        // files.
        Drive(*join, probes, delivery, &out);
        if (budget < build_keys.size()) {
          EXPECT_GT(SpillFile::live_files(), live_before);  // Mid-spill.
        }
        EXPECT_GT(quota.used(), 0u);
        // No OnFinish: the dtor is the cancel path.
      }
      EXPECT_EQ(quota.used(), 0u)
          << "budget=" << budget << " delivery=" << delivery;
      EXPECT_EQ(SpillFile::live_files(), live_before);
    }
  }
}

// --------------------------------------------------------------- GroupBy

std::vector<Tuple> RunGroupBy(const std::vector<AggSpec>& aggs,
                              const std::vector<Tuple>& rows,
                              MemoryQuota* quota,
                              MetricsRegistry* metrics = nullptr) {
  GroupByLogic group(0, aggs);
  ExecResources resources;
  resources.quota = quota;
  resources.metrics = metrics;
  group.BindExecution(resources);
  EXPECT_TRUE(group.Prepare(1).ok());
  CapturingEmitter out;
  for (const Tuple& r : rows) Deliver(group, 0, Tuple(r), &out);
  group.OnFinish(0, &out);
  EXPECT_TRUE(group.error().ok()) << group.error().ToString();
  return out.take_sorted();
}

TEST(GroupBySpillTest, SpilledAggregationMatchesInMemory) {
  Rng rng(13);
  std::vector<Tuple> rows;
  for (int i = 0; i < 800; ++i) {
    rows.push_back(Tuple({Value(rng.Range(0, 70)),
                          Value(rng.Range(-50, 50))}));
  }
  const std::vector<AggSpec> aggs = {{AggKind::kCount, 0},
                                     {AggKind::kSum, 1},
                                     {AggKind::kMin, 1},
                                     {AggKind::kMax, 1}};
  const std::vector<Tuple> expected = RunGroupBy(aggs, rows, nullptr);
  ASSERT_FALSE(expected.empty());

  const int64_t live_before = SpillFile::live_files();
  for (uint64_t budget : {uint64_t{1}, uint64_t{5}, uint64_t{24}}) {
    MemoryQuota quota(budget);
    MetricsRegistry metrics;
    EXPECT_EQ(RunGroupBy(aggs, rows, &quota, &metrics), expected)
        << "budget=" << budget;
    EXPECT_EQ(quota.used(), 0u);
    EXPECT_GT(metrics.Snapshot().counters["spill.groupby_flushes"], 0u)
        << "budget=" << budget;
  }
  EXPECT_EQ(SpillFile::live_files(), live_before);
}

TEST(GroupBySpillTest, SentinelExtremaSurviveTheSpillPath) {
  // Groups whose min/max column only ever holds strings emit the sentinel
  // (empty string) on the in-memory path; spilled re-aggregation must
  // agree, which exercises the (accumulator, seen) partial encoding.
  std::vector<Tuple> rows;
  for (int64_t g = 0; g < 30; ++g) {
    for (int64_t i = 0; i < 20; ++i) {
      if (g % 3 == 0) {
        rows.push_back(Tuple({Value(g), Value(std::string("label"))}));
      } else {
        rows.push_back(Tuple({Value(g), Value(g * 10 + i)}));
      }
    }
  }
  const std::vector<AggSpec> aggs = {{AggKind::kMin, 1},
                                     {AggKind::kMax, 1},
                                     {AggKind::kCount, 0}};
  const std::vector<Tuple> expected = RunGroupBy(aggs, rows, nullptr);
  ASSERT_EQ(expected.size(), 30u);

  MemoryQuota quota(4);
  EXPECT_EQ(RunGroupBy(aggs, rows, &quota), expected);
  EXPECT_EQ(quota.used(), 0u);
}

TEST(GroupBySpillTest, TeardownWithoutFinishReleasesQuotaAndFiles) {
  const int64_t live_before = SpillFile::live_files();
  MemoryQuota quota(3);
  {
    GroupByLogic group(
        0, std::vector<AggSpec>{{AggKind::kCount, 0}, {AggKind::kSum, 1}});
    ExecResources resources;
    resources.quota = &quota;
    group.BindExecution(resources);
    ASSERT_TRUE(group.Prepare(1).ok());
    for (int64_t i = 0; i < 200; ++i) {
      Deliver(group, 0, Tuple({Value(i % 40), Value(i)}), nullptr);
    }
    EXPECT_GT(SpillFile::live_files(), live_before);
    EXPECT_GT(quota.used(), 0u);
  }
  EXPECT_EQ(quota.used(), 0u);
  EXPECT_EQ(SpillFile::live_files(), live_before);
}

// ---------------------------------------------------- End-to-end (ESQL)

TEST(SpillJoinEndToEndTest, BudgetedEsqlMatchesUnbudgetedAndBoundsMemory) {
  Database db(2);
  Rng rng(41);
  auto a = std::make_unique<Relation>(
      "A", Schema({{"k", ValueType::kInt64}, {"v", ValueType::kInt64}}), 0,
      Partitioner(PartitionKind::kModulo, 4));
  for (int i = 0; i < 2'000; ++i) {
    ASSERT_TRUE(
        a->Insert(Tuple({Value(rng.Range(0, 200)), Value(rng.Range(0, 9))}))
            .ok());
  }
  auto b = std::make_unique<Relation>(
      "B", Schema({{"k", ValueType::kInt64}, {"g", ValueType::kInt64}}), 0,
      Partitioner(PartitionKind::kModulo, 4));
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(
        b->Insert(Tuple({Value(rng.Range(0, 200)), Value(rng.Range(0, 5))}))
            .ok());
  }
  ASSERT_TRUE(db.AddRelation(std::move(a)).ok());
  ASSERT_TRUE(db.AddRelation(std::move(b)).ok());

  const std::string query =
      "SELECT g, COUNT(*), SUM(v), MIN(v), MAX(v) "
      "FROM A JOIN B ON A.k = B.k GROUP BY g";
  EsqlOptions options;
  options.schedule.total_threads = 4;
  options.schedule.processors = 4;

  auto run = [&](uint64_t budget) {
    options.memory_units = budget;
    auto result = ExecuteEsql(db, query, options);
    EXPECT_TRUE(result.ok()) << "budget=" << budget << " -> "
                             << result.status().ToString();
    std::vector<Tuple> rows;
    if (result.ok()) rows = result.value().result->Scan();
    std::sort(rows.begin(), rows.end());
    return rows;
  };

  const std::vector<Tuple> unbudgeted = run(0);
  ASSERT_FALSE(unbudgeted.empty());
  for (uint64_t budget : {uint64_t{8}, uint64_t{64}, uint64_t{4096}}) {
    EXPECT_EQ(run(budget), unbudgeted) << "budget=" << budget;
  }

  // The spill activity rolled up into the database's runtime registry.
  MetricsSnapshot snap = db.metrics().Snapshot();
  EXPECT_GT(snap.counters["spill.bytes_written"], 0u);
  EXPECT_GT(snap.series["runtime.quota_high_water_units"].samples, 0u);
}

TEST(SpillJoinEndToEndTest, BudgetedSubmitReportsBoundedHighWater) {
  Database db(2);
  auto a = std::make_unique<Relation>(
      "A", Schema({{"k", ValueType::kInt64}, {"v", ValueType::kInt64}}), 0,
      Partitioner(PartitionKind::kModulo, 2));
  auto b = std::make_unique<Relation>(
      "B", Schema({{"k", ValueType::kInt64}, {"g", ValueType::kInt64}}), 0,
      Partitioner(PartitionKind::kModulo, 2));
  for (int64_t i = 0; i < 1'000; ++i) {
    ASSERT_TRUE(a->Insert(Tuple({Value(i % 150), Value(i)})).ok());
  }
  for (int64_t i = 0; i < 400; ++i) {
    ASSERT_TRUE(b->Insert(Tuple({Value(i % 150), Value(i % 7)})).ok());
  }
  ASSERT_TRUE(db.AddRelation(std::move(a)).ok());
  ASSERT_TRUE(db.AddRelation(std::move(b)).ok());

  const int64_t live_before = SpillFile::live_files();
  EsqlOptions options;
  options.schedule.total_threads = 2;
  options.schedule.processors = 2;
  options.memory_units = 16;
  QueryHandle handle =
      SubmitEsql(db, "SELECT * FROM A JOIN B ON A.k = B.k", options);
  auto taken = handle.Take();
  ASSERT_TRUE(taken.ok()) << taken.status().ToString();

  const QueryRunStats stats = handle.stats();
  EXPECT_GT(stats.quota_high_water_units, 0u);
  // Enforced: the unconstrained working set (the 400-tuple build side)
  // would dwarf this. Slack covers the bounded per-instance overshoot of
  // the forced-progress charges.
  EXPECT_LE(stats.quota_high_water_units, options.memory_units + 16);

  // ESQL's sort-free plans finish with no residual quota: every phase's
  // spill files are gone once the query completes.
  EXPECT_EQ(SpillFile::live_files(), live_before);
}

TEST(SpillJoinEndToEndTest, SortOverTinyBudgetFailsWithResourceExhausted) {
  Database db(2);
  auto r = std::make_unique<Relation>(
      "r", Schema({{"k", ValueType::kInt64}, {"v", ValueType::kInt64}}), 0,
      Partitioner(PartitionKind::kModulo, 2));
  for (int64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(r->Insert(Tuple({Value(i), Value(i % 13)})).ok());
  }
  ASSERT_TRUE(db.AddRelation(std::move(r)).ok());

  EsqlOptions options;
  options.schedule.total_threads = 2;
  options.schedule.processors = 2;
  options.memory_units = 4;  // Sort has no spill path: must fail fast.
  auto result = ExecuteEsql(db, "SELECT * FROM r ORDER BY v", options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);

  // And with room it succeeds.
  options.memory_units = 4'096;
  auto ok = ExecuteEsql(db, "SELECT * FROM r ORDER BY v", options);
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

/// A and B of the facade and nested-loop cases: 3,000 probe rows over
/// keys 0..399 and a 2,000-row build side partitioned on its key.
void AddJoinPair(Database& db) {
  Rng rng(53);
  auto a = std::make_unique<Relation>(
      "A", Schema({{"k", ValueType::kInt64}, {"v", ValueType::kInt64}}), 1,
      Partitioner(PartitionKind::kModulo, 4));
  for (int i = 0; i < 3'000; ++i) {
    ASSERT_TRUE(
        a->Insert(Tuple({Value(rng.Range(0, 400)), Value(rng.Range(0, 9))}))
            .ok());
  }
  auto b = std::make_unique<Relation>(
      "B", Schema({{"k", ValueType::kInt64}, {"g", ValueType::kInt64}}), 0,
      Partitioner(PartitionKind::kModulo, 4));
  for (int64_t i = 0; i < 2'000; ++i) {
    ASSERT_TRUE(b->Insert(Tuple({Value(i % 500), Value(i % 7)})).ok());
  }
  ASSERT_TRUE(db.AddRelation(std::move(a)).ok());
  ASSERT_TRUE(db.AddRelation(std::move(b)).ok());
}

std::vector<Tuple> SortedRows(const Relation& result) {
  std::vector<Tuple> rows = result.Scan();
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(SpillJoinEndToEndTest, BudgetedFacadeJoinsChargeAndSpill) {
  // The facade's IdealJoin, AssocJoin and FilterJoin run the same
  // quota-charging join as ESQL: a budget under the build side is enforced
  // (bounded high water, spilled partitions), not just admission-charged.
  Database db(2);
  AddJoinPair(db);
  // IdealJoin needs its outer co-partitioned with B on k; A is partitioned
  // on v, so Ak holds A's rows partitioned on k.
  Relation* a = db.relation("A").value();
  auto ak = std::make_unique<Relation>("Ak", a->schema(), 0,
                                       a->partitioner());
  for (const Tuple& t : a->Scan()) ASSERT_TRUE(ak->Insert(t).ok());
  ASSERT_TRUE(db.AddRelation(std::move(ak)).ok());
  const uint64_t budget = 100;
  QueryOptions options;
  options.schedule.total_threads = 4;
  options.schedule.processors = 4;

  using Submit = std::function<QueryHandle(const QueryOptions&)>;
  const std::vector<std::pair<std::string, Submit>> joins = {
      {"ideal",
       [&](const QueryOptions& o) {
         return SubmitIdealJoin(db, "Ak", "k", "B", "k", o);
       }},
      {"assoc",
       [&](const QueryOptions& o) {
         return SubmitAssocJoin(db, "A", "k", "B", "k", o);
       }},
      {"filter",
       [&](const QueryOptions& o) {
         return SubmitFilterJoin(db, "A", ColumnBetween(1, 0, 4), 0.5, "k",
                                 "B", "k", o);
       }},
  };
  const int64_t live_before = SpillFile::live_files();
  for (const auto& [name, submit] : joins) {
    options.memory_units = 0;
    QueryHandle unbudgeted = submit(options);
    auto reference = unbudgeted.Take();
    ASSERT_TRUE(reference.ok()) << name << ": "
                                << reference.status().ToString();
    const std::vector<Tuple> expected =
        SortedRows(*reference.value().result);
    ASSERT_FALSE(expected.empty()) << name;

    const uint64_t written_before =
        db.metrics().Snapshot().counters["spill.bytes_written"];
    options.memory_units = budget;
    QueryHandle budgeted = submit(options);
    auto taken = budgeted.Take();
    ASSERT_TRUE(taken.ok()) << name << ": " << taken.status().ToString();
    EXPECT_EQ(SortedRows(*taken.value().result), expected) << name;

    const QueryRunStats stats = budgeted.stats();
    EXPECT_GT(stats.quota_high_water_units, 0u) << name;
    EXPECT_LE(stats.quota_high_water_units, budget + 2) << name;
    EXPECT_GT(db.metrics().Snapshot().counters["spill.bytes_written"],
              written_before)
        << name;
  }
  EXPECT_EQ(SpillFile::live_files(), live_before);
}

TEST(SpillJoinEndToEndTest, BudgetedEsqlKeepsNestedLoop) {
  // EsqlOptions::algorithm is honoured under a budget: the nested-loop
  // join holds no build state, so a budget far under the build side
  // charges nothing and spills nothing, and the rows match the hash join.
  Database db(2);
  AddJoinPair(db);
  const std::string query = "SELECT * FROM A JOIN B ON A.k = B.k";
  EsqlOptions options;
  options.schedule.total_threads = 4;
  options.schedule.processors = 4;
  auto reference = ExecuteEsql(db, query, options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  const std::vector<Tuple> expected = SortedRows(*reference.value().result);
  ASSERT_FALSE(expected.empty());

  const uint64_t written_before =
      db.metrics().Snapshot().counters["spill.bytes_written"];
  options.algorithm = JoinAlgorithm::kNestedLoop;
  options.memory_units = 16;
  QueryHandle handle = SubmitEsql(db, query, options);
  auto taken = handle.Take();
  ASSERT_TRUE(taken.ok()) << taken.status().ToString();
  EXPECT_EQ(SortedRows(*taken.value().result), expected);
  EXPECT_EQ(handle.stats().quota_high_water_units, 0u);
  EXPECT_EQ(db.metrics().Snapshot().counters["spill.bytes_written"],
            written_before);
}

}  // namespace
}  // namespace dbs3
