#include "dbs3/database.h"

#include <gtest/gtest.h>

#include "dbs3/query.h"

namespace dbs3 {
namespace {

TEST(DatabaseTest, CreateWisconsinRegistersRelation) {
  Database db(4);
  WisconsinOptions opt;
  opt.cardinality = 1'000;
  opt.degree = 8;
  ASSERT_TRUE(db.CreateWisconsin("tenk", opt).ok());
  auto rel = db.relation("tenk");
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel.value()->cardinality(), 1'000u);
  // Fragments were placed on disks.
  for (size_t f = 0; f < rel.value()->degree(); ++f) {
    EXPECT_GE(rel.value()->fragment(f).disk_id, 0);
    EXPECT_LT(rel.value()->fragment(f).disk_id, 4);
  }
}

TEST(DatabaseTest, CreateSkewedPairUsesGivenNames) {
  Database db(2);
  SkewSpec spec;
  spec.a_cardinality = 1'000;
  spec.b_cardinality = 100;
  spec.degree = 10;
  spec.theta = 0.5;
  ASSERT_TRUE(db.CreateSkewedPair(spec, "big", "small").ok());
  ASSERT_TRUE(db.relation("big").ok());
  ASSERT_TRUE(db.relation("small").ok());
  EXPECT_EQ(db.relation("big").value()->cardinality(), 1'000u);
  EXPECT_EQ(db.relation("small").value()->cardinality(), 100u);
  EXPECT_FALSE(db.relation("A").ok());  // Generator names not leaked.
}

TEST(DatabaseTest, DuplicateRelationRejected) {
  Database db(2);
  WisconsinOptions opt;
  opt.cardinality = 10;
  opt.degree = 2;
  ASSERT_TRUE(db.CreateWisconsin("r", opt).ok());
  EXPECT_EQ(db.CreateWisconsin("r", opt).code(),
            StatusCode::kAlreadyExists);
}

TEST(QueryTest, UnknownRelationFails) {
  Database db(2);
  QueryOptions options;
  auto r = RunIdealJoin(db, "nope", "a", "also_nope", "b", options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(QueryTest, UnknownColumnFails) {
  Database db(2);
  SkewSpec spec;
  spec.a_cardinality = 100;
  spec.b_cardinality = 50;
  spec.degree = 5;
  ASSERT_TRUE(db.CreateSkewedPair(spec, "A", "B").ok());
  QueryOptions options;
  auto r = RunIdealJoin(db, "A", "no_such_column", "B", "key", options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(QueryTest, AssocJoinRequiresInnerPartitionedOnJoinColumn) {
  Database db(2);
  SkewSpec spec;
  spec.a_cardinality = 100;
  spec.b_cardinality = 50;
  spec.degree = 5;
  ASSERT_TRUE(db.CreateSkewedPair(spec, "A", "B").ok());
  QueryOptions options;
  // "payload" is not the partition column of A.
  auto r = RunAssocJoin(db, "B", "key", "A", "payload", options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(QueryTest, WisconsinSelfJoinOnUnique1) {
  // Join tenk with itself via unique1 (a key): every tuple matches once.
  Database db(2);
  WisconsinOptions opt;
  opt.cardinality = 2'000;
  opt.degree = 10;
  opt.partition_kind = PartitionKind::kHash;
  ASSERT_TRUE(db.CreateWisconsin("tenk1", opt).ok());
  opt.seed = 77;  // Different permutation, same key set.
  ASSERT_TRUE(db.CreateWisconsin("tenk2", opt).ok());
  QueryOptions options;
  options.schedule.total_threads = 4;
  options.schedule.processors = 4;
  auto r = RunIdealJoin(db, "tenk1", "unique1", "tenk2", "unique1", options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().result->cardinality(), 2'000u);
  // Join output schema is the concatenation with collision prefixes.
  EXPECT_TRUE(r.value().result->schema().IndexOf("r_unique1").ok());
}

TEST(QueryTest, SelectivityOnePercentColumn) {
  Database db(2);
  WisconsinOptions opt;
  opt.cardinality = 10'000;
  opt.degree = 10;
  ASSERT_TRUE(db.CreateWisconsin("tenk", opt).ok());
  const size_t col =
      db.relation("tenk").value()->schema().IndexOf("onePercent").value();
  QueryOptions options;
  options.schedule.total_threads = 2;
  options.schedule.processors = 2;
  auto r = RunSelect(db, "tenk", ColumnEquals(col, Value(int64_t{7})), 0.01,
                     options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().result->cardinality(), 100u);  // 1% of 10K.
}

TEST(QueryTest, ScheduleReportExposed) {
  Database db(2);
  SkewSpec spec;
  spec.a_cardinality = 2'000;
  spec.b_cardinality = 200;
  spec.degree = 8;
  spec.theta = 1.0;
  ASSERT_TRUE(db.CreateSkewedPair(spec, "A", "B").ok());
  QueryOptions options;
  options.schedule.total_threads = 4;
  options.schedule.processors = 8;
  options.algorithm = JoinAlgorithm::kNestedLoop;
  auto r = RunIdealJoin(db, "A", "key", "B", "key", options);
  ASSERT_TRUE(r.ok());
  // The skewed triggered join was given LPT by step 4.
  EXPECT_EQ(r.value().schedule.strategies[0], Strategy::kLpt);
  EXPECT_EQ(r.value().schedule.total_threads, 4u);
  EXPECT_GT(r.value().execution.seconds, 0.0);
}

TEST(QueryTest, ResultNameHonored) {
  Database db(2);
  SkewSpec spec;
  spec.a_cardinality = 100;
  spec.b_cardinality = 50;
  spec.degree = 5;
  ASSERT_TRUE(db.CreateSkewedPair(spec, "A", "B").ok());
  QueryOptions options;
  options.result_name = "join_output";
  auto r = RunIdealJoin(db, "A", "key", "B", "key", options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().result->name(), "join_output");
  // The result can be registered back into the database.
  ASSERT_TRUE(db.AddRelation(std::move(r.value().result)).ok());
  EXPECT_TRUE(db.relation("join_output").ok());
}

TEST(QueryTest, AllJoinAlgorithmsAgree) {
  Database db(2);
  SkewSpec spec;
  spec.a_cardinality = 3'000;
  spec.b_cardinality = 300;
  spec.degree = 12;
  spec.theta = 0.7;
  ASSERT_TRUE(db.CreateSkewedPair(spec, "A", "B").ok());
  QueryOptions options;
  options.schedule.total_threads = 3;
  options.schedule.processors = 4;
  uint64_t cardinality[2];
  int i = 0;
  for (JoinAlgorithm algo :
       {JoinAlgorithm::kNestedLoop, JoinAlgorithm::kTempIndex}) {
    options.algorithm = algo;
    auto r = RunIdealJoin(db, "A", "key", "B", "key", options);
    ASSERT_TRUE(r.ok()) << JoinAlgorithmName(algo);
    cardinality[i++] = r.value().result->cardinality();
  }
  EXPECT_EQ(cardinality[0], 3'000u);
  EXPECT_EQ(cardinality[0], cardinality[1]);
}

}  // namespace
}  // namespace dbs3
