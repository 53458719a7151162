#include "esql/planner.h"

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/skew.h"

namespace dbs3 {
namespace {

/// A database with:
///  - residents(key, payload) / cities(key, payload): co-partitioned pair,
///  - orders: partitioned on its key,
///  - misaligned: partitioned on payload (not a join column).
class EsqlPlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SkewSpec spec;
    spec.a_cardinality = 2'000;
    spec.b_cardinality = 200;
    spec.degree = 10;
    spec.theta = 0.4;
    ASSERT_TRUE(db_.CreateSkewedPair(spec, "residents", "cities").ok());

    // orders: modulo-partitioned on key like the pair (co-locatable).
    auto orders = std::make_unique<Relation>(
        "orders", Schema({{"key", ValueType::kInt64},
                          {"amount", ValueType::kInt64}}),
        0, Partitioner(PartitionKind::kModulo, 10));
    for (int64_t k = 0; k < 500; ++k) {
      ASSERT_TRUE(orders->Insert(Tuple({Value(k % 200), Value(k)})).ok());
    }
    ASSERT_TRUE(db_.AddRelation(std::move(orders)).ok());

    // misaligned: partitioned on its second column.
    auto misaligned = std::make_unique<Relation>(
        "misaligned", Schema({{"key", ValueType::kInt64},
                              {"grp", ValueType::kInt64}}),
        1, Partitioner(PartitionKind::kHash, 10));
    for (int64_t k = 0; k < 200; ++k) {
      ASSERT_TRUE(
          misaligned->Insert(Tuple({Value(k), Value(k % 7)})).ok());
    }
    ASSERT_TRUE(db_.AddRelation(std::move(misaligned)).ok());

    options_.schedule.total_threads = 4;
    options_.schedule.processors = 4;
  }

  Database db_{2};
  EsqlOptions options_;
};

TEST_F(EsqlPlannerTest, SelectStar) {
  auto r = ExecuteEsql(db_, "SELECT * FROM cities", options_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().result->cardinality(), 200u);
  EXPECT_EQ(r.value().phases, 1u);
}

TEST_F(EsqlPlannerTest, SelectWithWhereAndProjection) {
  auto r = ExecuteEsql(
      db_, "SELECT payload AS p FROM residents WHERE payload < 3",
      options_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().result->schema().num_columns(), 1u);
  EXPECT_EQ(r.value().result->schema().column(0).name, "p");
  for (const Tuple& t : r.value().result->Scan()) {
    EXPECT_LT(t.at(0).AsInt(), 3);
  }
}

TEST_F(EsqlPlannerTest, CoPartitionedJoinUsesIdealJoin) {
  auto r = ExecuteEsql(
      db_,
      "SELECT * FROM residents JOIN cities ON residents.key = cities.key",
      options_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r.value().physical_plan.find("IdealJoin"), std::string::npos)
      << r.value().physical_plan;
  EXPECT_EQ(r.value().result->cardinality(), 2'000u);
}

TEST_F(EsqlPlannerTest, BudgetedCoPartitionedJoinUsesIdealJoin) {
  // A declared budget keeps the IdealJoin: its build charges the query's
  // quota and spills like AssocJoin's, and the rows are the unbudgeted
  // run's.
  const std::string query =
      "SELECT * FROM residents JOIN cities ON residents.key = cities.key";
  auto unbudgeted = ExecuteEsql(db_, query, options_);
  ASSERT_TRUE(unbudgeted.ok()) << unbudgeted.status().ToString();
  std::vector<Tuple> expected = unbudgeted.value().result->Scan();
  std::sort(expected.begin(), expected.end());

  const uint64_t written_before =
      db_.metrics().Snapshot().counters["spill.bytes_written"];
  options_.memory_units = 8;  // Each cities fragment holds 20 rows.
  QueryHandle handle = SubmitEsql(db_, query, options_);
  auto budgeted = handle.Take();
  ASSERT_TRUE(budgeted.ok()) << budgeted.status().ToString();
  EXPECT_NE(budgeted.value().detail.find("IdealJoin"), std::string::npos)
      << budgeted.value().detail;
  std::vector<Tuple> rows = budgeted.value().result->Scan();
  std::sort(rows.begin(), rows.end());
  EXPECT_EQ(rows, expected);

  const QueryRunStats stats = handle.stats();
  EXPECT_GT(stats.quota_high_water_units, 0u);
  EXPECT_LE(stats.quota_high_water_units, options_.memory_units + 2);
  EXPECT_GT(db_.metrics().Snapshot().counters["spill.bytes_written"],
            written_before);
}

TEST_F(EsqlPlannerTest, JoinWithPushdownUsesAssocJoin) {
  // A probe-side WHERE disables the IdealJoin shortcut; the planner scans
  // residents with the filter pushed down and probes cities.
  auto r = ExecuteEsql(db_,
                       "SELECT * FROM residents JOIN cities ON "
                       "residents.key = cities.key "
                       "WHERE residents.payload < 5",
                       options_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r.value().physical_plan.find("AssocJoin"), std::string::npos)
      << r.value().physical_plan;
  // residents.payload < 5 keeps 5 tuples per fragment... validate by
  // recomputing: every result row has payload < 5.
  const size_t payload_col = 1;
  for (const Tuple& t : r.value().result->Scan()) {
    EXPECT_LT(t.at(payload_col).AsInt(), 5);
  }
}

TEST_F(EsqlPlannerTest, MisalignedInnerSwapsProbeSide) {
  // misaligned is not partitioned on its join column, but residents is on
  // its own — the planner swaps the probe side instead of materializing.
  auto r = ExecuteEsql(
      db_,
      "SELECT * FROM residents JOIN misaligned ON residents.key = "
      "misaligned.key",
      options_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r.value().physical_plan.find("probe=misaligned"),
            std::string::npos)
      << r.value().physical_plan;
  EXPECT_EQ(r.value().phases, 1u);
  // misaligned keys 0..199 each match the residents holding that key:
  // total matches = |residents| with key < 200 = all 2000 (keys are drawn
  // from cities' 200-key domain).
  EXPECT_EQ(r.value().result->cardinality(), 2'000u);
}

TEST_F(EsqlPlannerTest, FullyMisalignedJoinRepartitions) {
  // Neither side is partitioned on its join column: the planner
  // materializes a repartition of the right side first (a subquery
  // boundary), then runs an AssocJoin.
  auto r = ExecuteEsql(
      db_,
      "SELECT * FROM misaligned JOIN orders ON misaligned.key = "
      "orders.amount",
      options_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r.value().physical_plan.find("repartition"), std::string::npos)
      << r.value().physical_plan;
  EXPECT_EQ(r.value().phases, 2u);  // Materialization boundary.
  // orders.amount runs 0..499, misaligned.key runs 0..199: 200 matches.
  EXPECT_EQ(r.value().result->cardinality(), 200u);
}

TEST_F(EsqlPlannerTest, GroupByWithAggregates) {
  auto r = ExecuteEsql(db_,
                       "SELECT key, COUNT(*) AS n, SUM(amount) AS total "
                       "FROM orders GROUP BY key",
                       options_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // 200 distinct keys; counts sum to 500.
  EXPECT_EQ(r.value().result->cardinality(), 200u);
  int64_t count_sum = 0, amount_sum = 0;
  for (const Tuple& t : r.value().result->Scan()) {
    count_sum += t.at(1).AsInt();
    amount_sum += t.at(2).AsInt();
  }
  EXPECT_EQ(count_sum, 500);
  EXPECT_EQ(amount_sum, 499 * 500 / 2);
  EXPECT_EQ(r.value().result->schema().column(1).name, "n");
}

TEST_F(EsqlPlannerTest, GroupKeysGloballyDistinct) {
  // The repartition before group-by must co-locate equal keys: no key may
  // appear in two result rows.
  auto r = ExecuteEsql(db_, "SELECT key, COUNT(*) FROM orders GROUP BY key",
                       options_);
  ASSERT_TRUE(r.ok());
  std::map<int64_t, int> seen;
  for (const Tuple& t : r.value().result->Scan()) {
    ++seen[t.at(0).AsInt()];
  }
  for (const auto& [key, times] : seen) {
    EXPECT_EQ(times, 1) << "key " << key << " split across instances";
  }
}

TEST_F(EsqlPlannerTest, GlobalAggregateWithoutGroupBy) {
  auto r = ExecuteEsql(db_,
                       "SELECT COUNT(*) AS n, MIN(amount) AS lo, "
                       "MAX(amount) AS hi FROM orders WHERE amount >= 100",
                       options_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().result->cardinality(), 1u);
  const Tuple row = r.value().result->Scan()[0];
  // Columns: [_const group key, n, lo, hi].
  EXPECT_EQ(row.at(1).AsInt(), 400);
  EXPECT_EQ(row.at(2).AsInt(), 100);
  EXPECT_EQ(row.at(3).AsInt(), 499);
}

TEST_F(EsqlPlannerTest, OrderBySortsEachFragment) {
  auto r = ExecuteEsql(
      db_, "SELECT amount FROM orders ORDER BY amount DESC", options_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().result->cardinality(), 500u);
  // Each result fragment is internally descending.
  const Relation& res = *r.value().result;
  for (size_t f = 0; f < res.degree(); ++f) {
    const auto& tuples = res.fragment(f).tuples;
    for (size_t i = 1; i < tuples.size(); ++i) {
      EXPECT_LE(tuples[i].at(0).AsInt(), tuples[i - 1].at(0).AsInt())
          << "fragment " << f;
    }
  }
}

TEST_F(EsqlPlannerTest, JoinThenGroupBy) {
  auto r = ExecuteEsql(db_,
                       "SELECT payload, COUNT(*) AS n FROM residents JOIN "
                       "cities ON residents.key = cities.key "
                       "GROUP BY residents.payload",
                       options_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  int64_t total = 0;
  for (const Tuple& t : r.value().result->Scan()) total += t.at(1).AsInt();
  EXPECT_EQ(total, 2'000);
}

TEST_F(EsqlPlannerTest, ThreeWayJoinChain) {
  auto r = ExecuteEsql(db_,
                       "SELECT * FROM residents "
                       "JOIN cities ON residents.key = cities.key "
                       "JOIN orders ON cities.key = orders.key",
                       options_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Reference cardinality: every resident matches exactly one city; each
  // key k appears in orders (500 rows of k % 200) 3x for k < 100, 2x
  // otherwise.
  uint64_t expected = 0;
  for (const Tuple& t : db_.relation("residents").value()->Scan()) {
    expected += t.at(0).AsInt() < 100 ? 3 : 2;
  }
  EXPECT_EQ(r.value().result->cardinality(), expected);
  // Two pipelined joins in one chain, no materialization.
  EXPECT_EQ(r.value().phases, 1u);
  EXPECT_NE(r.value().physical_plan.find("inner=cities"),
            std::string::npos);
  EXPECT_NE(r.value().physical_plan.find("inner=orders"),
            std::string::npos);
}

TEST_F(EsqlPlannerTest, ThreeWayJoinWithAggregation) {
  auto r = ExecuteEsql(db_,
                       "SELECT COUNT(*) AS n, SUM(amount) AS total "
                       "FROM residents "
                       "JOIN cities ON residents.key = cities.key "
                       "JOIN orders ON cities.key = orders.key "
                       "WHERE amount < 200",
                       options_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().result->cardinality(), 1u);
  const Tuple row = r.value().result->Scan()[0];
  // amount < 200 keeps orders rows 0..199 (key = amount % 200 = amount):
  // each such order joins the residents holding that key once per
  // resident; total matches = sum over orders k<200 of resident count of
  // key k.
  std::map<int64_t, int64_t> residents_per_key;
  for (const Tuple& t : db_.relation("residents").value()->Scan()) {
    ++residents_per_key[t.at(0).AsInt()];
  }
  int64_t expected_n = 0, expected_total = 0;
  for (int64_t amount = 0; amount < 200; ++amount) {
    expected_n += residents_per_key[amount % 200];
    expected_total += amount * residents_per_key[amount % 200];
  }
  EXPECT_EQ(row.at(1).AsInt(), expected_n);
  EXPECT_EQ(row.at(2).AsInt(), expected_total);
}

TEST_F(EsqlPlannerTest, SelectStarPlansRenderWholeRows) {
  // `*` reads every column: no scan or repartition is pruned, and the
  // plan renders without column tags.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"SELECT * FROM cities", "scan(cities) ; store"},
      {"SELECT * FROM residents WHERE payload < 3",
       "scan(residents) ; store"},
      {"SELECT * FROM residents JOIN cities ON residents.key = cities.key",
       "IdealJoin(residents, cities) ; store"},
      {"SELECT * FROM misaligned JOIN orders ON misaligned.key = "
       "orders.amount",
       "repartition(orders) ; scan(misaligned) ; "
       "AssocJoin(probe=misaligned, inner=orders_repart) ; store"},
      {"SELECT * FROM residents JOIN misaligned ON residents.key = "
       "misaligned.key",
       "scan(misaligned) ; AssocJoin(probe=misaligned, inner=residents) ; "
       "store"},
  };
  for (const auto& [query, plan] : cases) {
    auto r = ExecuteEsql(db_, query, options_);
    ASSERT_TRUE(r.ok()) << query << ": " << r.status().ToString();
    EXPECT_EQ(r.value().physical_plan, plan) << query;
  }
}

TEST_F(EsqlPlannerTest, PlanShowsPrunedColumns) {
  // Only the columns read after a scan leave it: the WHERE column is
  // evaluated in the scan, the select list keeps `key`, and the identity
  // projection that is left is dropped.
  auto scan = ExecuteEsql(db_, "SELECT key FROM orders WHERE amount < 10",
                          options_);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(scan.value().physical_plan,
            "scan(orders)[1 of 2 cols] ; store");
  EXPECT_EQ(scan.value().result->schema().num_columns(), 1u);
  EXPECT_EQ(scan.value().result->cardinality(), 10u);

  // COUNT(*) keeps no column at all.
  auto count = ExecuteEsql(db_, "SELECT COUNT(*) AS n FROM orders", options_);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count.value().physical_plan,
            "scan(orders)[0 of 2 cols] ; group-by(all) ; store");
  ASSERT_EQ(count.value().result->cardinality(), 1u);
  EXPECT_EQ(count.value().result->Scan()[0].at(1).AsInt(), 500);

  // The repartitioned inner materializes only its join column.
  auto join = ExecuteEsql(db_,
                          "SELECT misaligned.grp, COUNT(*) AS n "
                          "FROM misaligned JOIN orders "
                          "ON misaligned.key = orders.amount "
                          "GROUP BY misaligned.grp",
                          options_);
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  EXPECT_EQ(join.value().physical_plan,
            "repartition(orders)[1 of 2 cols] ; scan(misaligned) ; "
            "AssocJoin(probe=misaligned, inner=orders_repart) ; "
            "group-by(grp) ; store");
  int64_t matches = 0;
  for (const Tuple& t : join.value().result->Scan()) matches += t.at(1).AsInt();
  EXPECT_EQ(matches, 200);
}

TEST_F(EsqlPlannerTest, RepartitionPhaseHonoursCostModel) {
  // The materialization phase is scheduled with the query's cost model:
  // making the scan expensive relative to the store moves threads from
  // the store to the repartition scan.
  const std::string query =
      "SELECT * FROM misaligned JOIN orders ON misaligned.key = orders.amount";
  auto threads_of = [&](const EsqlOptions& options) {
    QueryHandle handle = SubmitEsql(db_, query, options);
    Result<QueryResult> r = handle.Take();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    std::vector<size_t> threads;
    if (!r.ok() || r.value().phases.empty()) return threads;
    for (const OperationStats& op : r.value().phases[0].op_stats) {
      threads.push_back(op.per_thread_processed.size());
    }
    return threads;
  };
  EsqlOptions scan_heavy = options_;
  scan_heavy.cost_model.scan_tuple = 100.0;
  scan_heavy.cost_model.store_tuple = 1.0;
  EsqlOptions store_heavy = options_;
  store_heavy.cost_model.scan_tuple = 1.0;
  store_heavy.cost_model.store_tuple = 100.0;
  const std::vector<size_t> scan_split = threads_of(scan_heavy);
  const std::vector<size_t> store_split = threads_of(store_heavy);
  ASSERT_EQ(scan_split.size(), 2u);  // repartition-scan, store.
  ASSERT_EQ(store_split.size(), 2u);
  EXPECT_GT(scan_split[0], scan_split[1]);
  EXPECT_LT(store_split[0], store_split[1]);
}

TEST_F(EsqlPlannerTest, SemanticErrors) {
  EXPECT_EQ(ExecuteEsql(db_, "SELECT * FROM nope", options_)
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(ExecuteEsql(db_, "SELECT zzz FROM orders", options_)
                .status()
                .code(),
            StatusCode::kNotFound);
  // GROUP BY without aggregates.
  EXPECT_FALSE(
      ExecuteEsql(db_, "SELECT key FROM orders GROUP BY key", options_)
          .ok());
  // Plain select item that is not the grouping column.
  EXPECT_FALSE(ExecuteEsql(db_,
                           "SELECT amount, COUNT(*) FROM orders GROUP BY "
                           "key",
                           options_)
                   .ok());
  // Join condition referencing only one side.
  EXPECT_FALSE(ExecuteEsql(db_,
                           "SELECT * FROM residents JOIN cities ON "
                           "residents.key = residents.payload",
                           options_)
                   .ok());
}

TEST_F(EsqlPlannerTest, ParseErrorsPropagate) {
  auto r = ExecuteEsql(db_, "SELEKT * FROM x", options_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dbs3
