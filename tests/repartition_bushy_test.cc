// Tests for dynamic repartitioning (the paper's raise of the degree of
// partitioning) and for bushy plans (a pipelined operation fed by several
// producers — inter-operation parallelism).

#include <gtest/gtest.h>

#include "dbs3/database.h"
#include "dbs3/query.h"
#include "engine/executor.h"
#include "storage/skew.h"

namespace dbs3 {
namespace {

TEST(RepartitionTest, PreservesTuplesAndRouting) {
  SkewSpec spec;
  spec.a_cardinality = 2'000;
  spec.b_cardinality = 200;
  spec.degree = 10;
  spec.theta = 0.8;
  auto db = BuildSkewedDatabase(spec);
  ASSERT_TRUE(db.ok());
  auto repart = db.value().a->Repartitioned(40);
  ASSERT_TRUE(repart.ok()) << repart.status().ToString();
  const Relation& r = *repart.value();
  EXPECT_EQ(r.degree(), 40u);
  EXPECT_EQ(r.cardinality(), 2'000u);
  // Same multiset of tuples.
  std::vector<Tuple> before = db.value().a->Scan();
  std::vector<Tuple> after = r.Scan();
  std::sort(before.begin(), before.end());
  std::sort(after.begin(), after.end());
  EXPECT_EQ(before, after);
  // Routing invariant: fragment i holds keys congruent to i mod 40.
  for (size_t f = 0; f < 40; ++f) {
    for (const Tuple& t : r.fragment(f).tuples) {
      EXPECT_EQ(t.at(0).AsInt() % 40, static_cast<int64_t>(f));
    }
  }
}

TEST(RepartitionTest, HigherDegreeShrinksLargestFragment) {
  SkewSpec spec;
  spec.a_cardinality = 10'000;
  spec.b_cardinality = 1'000;
  spec.degree = 10;
  spec.theta = 1.0;
  auto db = BuildSkewedDatabase(spec);
  ASSERT_TRUE(db.ok());
  auto max_card = [](const Relation& r) {
    uint64_t m = 0;
    for (uint64_t c : r.FragmentCardinalities()) m = std::max(m, c);
    return m;
  };
  const uint64_t before = max_card(*db.value().a);
  auto repart = db.value().a->Repartitioned(100);
  ASSERT_TRUE(repart.ok());
  // The dominant fragment splits across the finer partitioning: the
  // sequential unit of work shrinks (what makes LPT effective again).
  EXPECT_LT(max_card(*repart.value()), before);
}

TEST(RepartitionTest, RejectsZeroDegree) {
  Relation r("r", SkewSchema(), 0, Partitioner(PartitionKind::kModulo, 2));
  EXPECT_FALSE(r.Repartitioned(0).ok());
}

TEST(RepartitionTest, RepartitionedJoinStillCorrect) {
  Database db(2);
  SkewSpec spec;
  spec.a_cardinality = 3'000;
  spec.b_cardinality = 300;
  spec.degree = 6;
  spec.theta = 0.9;
  ASSERT_TRUE(db.CreateSkewedPair(spec, "A", "B").ok());
  // Raise both degrees 6 -> 60 and join at the finer granularity.
  auto a60 = db.relation("A").value()->Repartitioned(60);
  auto b60 = db.relation("B").value()->Repartitioned(60);
  ASSERT_TRUE(a60.ok() && b60.ok());
  a60.value()->Repartitioned(1).value();  // Exercise down-partitioning too.
  auto a = std::move(a60).value();
  auto b = std::move(b60).value();
  // Rename to register alongside the originals.
  auto fine_a = std::make_unique<Relation>("A60", a->schema(), 0,
                                           a->partitioner());
  auto fine_b = std::make_unique<Relation>("B60", b->schema(), 0,
                                           b->partitioner());
  for (size_t f = 0; f < 60; ++f) {
    for (const Tuple& t : a->fragment(f).tuples) fine_a->AppendToFragment(f, t);
    for (const Tuple& t : b->fragment(f).tuples) fine_b->AppendToFragment(f, t);
  }
  ASSERT_TRUE(db.AddRelation(std::move(fine_a)).ok());
  ASSERT_TRUE(db.AddRelation(std::move(fine_b)).ok());
  QueryOptions options;
  options.schedule.total_threads = 4;
  options.schedule.processors = 4;
  auto coarse = RunIdealJoin(db, "A", "key", "B", "key", options);
  auto fine = RunIdealJoin(db, "A60", "key", "B60", "key", options);
  ASSERT_TRUE(coarse.ok() && fine.ok());
  EXPECT_EQ(fine.value().result->cardinality(),
            coarse.value().result->cardinality());
}

TEST(BushyPlanTest, TwoProducersFeedOneConsumer) {
  // Union-style plan: two triggered scans over different relations feed the
  // same store (inter-operation parallelism with a shared consumer).
  Database db(2);
  SkewSpec spec;
  spec.a_cardinality = 1'000;
  spec.b_cardinality = 400;
  spec.degree = 8;
  ASSERT_TRUE(db.CreateSkewedPair(spec, "A", "B").ok());
  Relation* a = db.relation("A").value();
  Relation* b = db.relation("B").value();

  Relation result("union", SkewSchema(), 0,
                  Partitioner(PartitionKind::kModulo, 8));
  Plan plan;
  const size_t scan_a =
      plan.AddNode("scan-a", ActivationMode::kTriggered, 8,
                   std::make_unique<FilterLogic>(a, MatchAll()));
  const size_t scan_b =
      plan.AddNode("scan-b", ActivationMode::kTriggered, 8,
                   std::make_unique<FilterLogic>(b, MatchAll()));
  const size_t store = plan.AddNode(
      "store", ActivationMode::kPipelined, 8,
      std::make_unique<StoreLogic>(&result));
  ASSERT_TRUE(plan.ConnectSameInstance(scan_a, store).ok());
  ASSERT_TRUE(plan.ConnectSameInstance(scan_b, store).ok());
  for (size_t i = 0; i < plan.num_nodes(); ++i) plan.params(i).threads = 2;

  Executor executor;
  auto run = executor.Run(plan);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(result.cardinality(), 1'400u);
  // The store only closed after BOTH producers finished.
  uint64_t store_processed = 0;
  for (uint64_t c : run.value().op_stats[2].per_thread_processed) {
    store_processed += c;
  }
  EXPECT_EQ(store_processed, 1'400u);
}

TEST(BushyPlanTest, TwoChainsIntoPipelinedJoin) {
  // A pipelined join probed by the concatenation of two filtered streams.
  Database db(2);
  SkewSpec spec;
  spec.a_cardinality = 2'000;
  spec.b_cardinality = 200;
  spec.degree = 10;
  ASSERT_TRUE(db.CreateSkewedPair(spec, "A", "B").ok());
  Relation* a = db.relation("A").value();
  Relation* b = db.relation("B").value();

  Relation result("res", Schema::Concat(b->schema(), a->schema()), 0,
                  Partitioner(PartitionKind::kModulo, 10));
  Plan plan;
  // Two halves of B' by payload parity, probing A.
  const size_t even = plan.AddNode(
      "scan-even", ActivationMode::kTriggered, 10,
      std::make_unique<FilterLogic>(
          b, [](const Tuple& t) { return t.at(1).AsInt() % 2 == 0; }, 0.5));
  const size_t odd = plan.AddNode(
      "scan-odd", ActivationMode::kTriggered, 10,
      std::make_unique<FilterLogic>(
          b, [](const Tuple& t) { return t.at(1).AsInt() % 2 != 0; }, 0.5));
  const size_t join = plan.AddNode(
      "join", ActivationMode::kPipelined, 10,
      std::make_unique<PipelinedJoinLogic>(a, 0, 0,
                                           JoinAlgorithm::kTempIndex));
  const size_t store =
      plan.AddNode("store", ActivationMode::kPipelined, 10,
                   std::make_unique<StoreLogic>(&result));
  ASSERT_TRUE(plan.ConnectByColumn(even, join, 0, a->partitioner()).ok());
  ASSERT_TRUE(plan.ConnectByColumn(odd, join, 0, a->partitioner()).ok());
  ASSERT_TRUE(plan.ConnectSameInstance(join, store).ok());
  for (size_t i = 0; i < plan.num_nodes(); ++i) plan.params(i).threads = 2;

  Executor executor;
  auto run = executor.Run(plan);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  // Every A tuple matches exactly one B' tuple, reached via one of the two
  // streams: the union of probes covers all of B'.
  EXPECT_EQ(result.cardinality(), 2'000u);
}

}  // namespace
}  // namespace dbs3
