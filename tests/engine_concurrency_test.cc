// Stress and failure-injection tests for the real multithreaded engine.

#include <atomic>
#include <chrono>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dbs3/database.h"
#include "dbs3/query.h"
#include "engine/operation.h"
#include "engine/operator_logic.h"

namespace dbs3 {
namespace {

TEST(EngineConcurrencyTest, RepeatedAssocJoinsAreStable) {
  Database db(4);
  SkewSpec spec;
  spec.a_cardinality = 5'000;
  spec.b_cardinality = 500;
  spec.degree = 25;
  spec.theta = 0.9;
  ASSERT_TRUE(db.CreateSkewedPair(spec, "A", "B").ok());
  QueryOptions options;
  options.schedule.total_threads = 6;
  options.schedule.processors = 8;
  for (int run = 0; run < 10; ++run) {
    auto r = RunAssocJoin(db, "B", "key", "A", "key", options);
    ASSERT_TRUE(r.ok()) << "run " << run;
    EXPECT_EQ(r.value().result->cardinality(), 5'000u) << "run " << run;
  }
}

TEST(EngineConcurrencyTest, TinyQueueCapacityForcesBackpressure) {
  Database db(4);
  SkewSpec spec;
  spec.a_cardinality = 4'000;
  spec.b_cardinality = 400;
  spec.degree = 16;
  spec.theta = 0.5;
  ASSERT_TRUE(db.CreateSkewedPair(spec, "A", "B").ok());
  QueryOptions options;
  options.schedule.total_threads = 4;
  options.schedule.processors = 4;
  options.schedule.queue_capacity = 2;  // Brutal back-pressure.
  auto r = RunAssocJoin(db, "B", "key", "A", "key", options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().result->cardinality(), 4'000u);
}

TEST(EngineConcurrencyTest, CacheSizeSweepPreservesResults) {
  Database db(4);
  SkewSpec spec;
  spec.a_cardinality = 3'000;
  spec.b_cardinality = 300;
  spec.degree = 15;
  spec.theta = 0.8;
  ASSERT_TRUE(db.CreateSkewedPair(spec, "A", "B").ok());
  for (size_t cache : {1ul, 4ul, 64ul}) {
    QueryOptions options;
    options.schedule.total_threads = 5;
    options.schedule.processors = 8;
    options.schedule.cache_size = cache;
    auto r = RunAssocJoin(db, "B", "key", "A", "key", options);
    ASSERT_TRUE(r.ok()) << "cache " << cache;
    EXPECT_EQ(r.value().result->cardinality(), 3'000u) << "cache " << cache;
  }
}

TEST(EngineConcurrencyTest, ChunkSizeSweepPreservesResults) {
  Database db(4);
  SkewSpec spec;
  spec.a_cardinality = 3'000;
  spec.b_cardinality = 300;
  spec.degree = 15;
  spec.theta = 0.8;
  ASSERT_TRUE(db.CreateSkewedPair(spec, "A", "B").ok());
  for (size_t chunk : {1ul, 16ul, 256ul}) {
    QueryOptions options;
    options.schedule.total_threads = 5;
    options.schedule.processors = 8;
    options.schedule.chunk_size = chunk;
    auto r = RunAssocJoin(db, "B", "key", "A", "key", options);
    ASSERT_TRUE(r.ok()) << "chunk " << chunk;
    EXPECT_EQ(r.value().result->cardinality(), 3'000u) << "chunk " << chunk;
  }
}

TEST(EngineConcurrencyTest, ChunkingReducesActivationTraffic) {
  // The join's per-instance counters stay tuple-denominated (skew and
  // load-balance figures keep their meaning) while the activation counter
  // drops by roughly the chunk factor. Chunk 0 is the scheduler's derived
  // grain: at most one partial chunk per (transmit worker, join instance)
  // beyond the full ones.
  Database db(4);
  SkewSpec spec;
  spec.a_cardinality = 4'000;
  spec.b_cardinality = 2'000;
  spec.degree = 16;
  spec.theta = 0.3;
  ASSERT_TRUE(db.CreateSkewedPair(spec, "A", "B").ok());
  uint64_t activations_per_tuple_mode = 0;
  for (size_t chunk : {1ul, 32ul, 0ul}) {
    QueryOptions options;
    options.schedule.total_threads = 4;
    options.schedule.processors = 8;
    options.schedule.chunk_size = chunk;
    auto r = RunAssocJoin(db, "B", "key", "A", "key", options);
    ASSERT_TRUE(r.ok()) << "chunk " << chunk;
    const auto& join_stats = r.value().execution.op_stats[1];
    uint64_t tuples = 0;
    for (uint64_t c : join_stats.per_instance_processed) tuples += c;
    EXPECT_EQ(tuples, 2'000u) << "chunk " << chunk;
    if (chunk == 1) {
      activations_per_tuple_mode = join_stats.activations;
      EXPECT_EQ(join_stats.activations, 2'000u);
    } else if (chunk == 0) {
      const ScheduleReport& schedule = r.value().schedule;
      const size_t derived = schedule.chunk_sizes[0];
      EXPECT_GT(derived, 1u);
      EXPECT_LE(join_stats.activations,
                2'000u / derived + spec.degree * schedule.threads[0]);
      EXPECT_LT(join_stats.activations, activations_per_tuple_mode);
    } else {
      EXPECT_LT(join_stats.activations, activations_per_tuple_mode / 8);
    }
  }
}

TEST(EngineConcurrencyTest, ChunkLargerThanQueueCapacityDoesNotDeadlock) {
  // The contract under chunking + bounded queues: the emitter splits chunks
  // down to the consumer's capacity, so chunk_size 64 against capacity-2
  // queues must complete (and reproduce the full result), not deadlock.
  Database db(4);
  SkewSpec spec;
  spec.a_cardinality = 2'000;
  spec.b_cardinality = 200;
  spec.degree = 8;
  spec.theta = 0.5;
  ASSERT_TRUE(db.CreateSkewedPair(spec, "A", "B").ok());
  QueryOptions options;
  options.schedule.total_threads = 4;
  options.schedule.processors = 4;
  options.schedule.queue_capacity = 2;
  options.schedule.chunk_size = 64;
  auto r = RunAssocJoin(db, "B", "key", "A", "key", options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().result->cardinality(), 2'000u);
}

TEST(EngineConcurrencyTest, ManyThreadsOnFewFragments) {
  // Degree of partitioning caps the degree of parallelism: requesting more
  // threads than fragments must still execute correctly (the scheduler
  // clamps per-node pools).
  Database db(2);
  SkewSpec spec;
  spec.a_cardinality = 1'000;
  spec.b_cardinality = 100;
  spec.degree = 3;
  ASSERT_TRUE(db.CreateSkewedPair(spec, "A", "B").ok());
  QueryOptions options;
  options.schedule.total_threads = 16;
  options.schedule.processors = 16;
  auto r = RunIdealJoin(db, "A", "key", "B", "key", options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().result->cardinality(), 1'000u);
  for (size_t t : r.value().schedule.threads) EXPECT_LE(t, 3u);
}

TEST(EngineConcurrencyTest, EmptyInputRelationYieldsEmptyResult) {
  Database db(2);
  auto empty_a = std::make_unique<Relation>(
      "A", SkewSchema(), 0, Partitioner(PartitionKind::kModulo, 4));
  auto empty_b = std::make_unique<Relation>(
      "B", SkewSchema(), 0, Partitioner(PartitionKind::kModulo, 4));
  ASSERT_TRUE(db.AddRelation(std::move(empty_a)).ok());
  ASSERT_TRUE(db.AddRelation(std::move(empty_b)).ok());
  QueryOptions options;
  options.schedule.total_threads = 2;
  options.schedule.processors = 2;
  auto r = RunIdealJoin(db, "A", "key", "B", "key", options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().result->cardinality(), 0u);
}

TEST(EngineConcurrencyTest, LoadBalanceUnderSkewWithLpt) {
  // With heavy skew, LPT plus shared queues keeps every thread busy: no
  // thread processes zero activations on the pipelined join.
  Database db(4);
  SkewSpec spec;
  spec.a_cardinality = 8'000;
  spec.b_cardinality = 800;
  spec.degree = 40;
  spec.theta = 1.0;
  ASSERT_TRUE(db.CreateSkewedPair(spec, "A", "B").ok());
  QueryOptions options;
  options.schedule.total_threads = 4;
  options.schedule.processors = 8;
  options.schedule.force_strategy = Strategy::kLpt;
  auto r = RunAssocJoin(db, "B", "key", "A", "key", options);
  ASSERT_TRUE(r.ok());
  const auto& join_stats = r.value().execution.op_stats[1];
  uint64_t total = 0;
  for (uint64_t c : join_stats.per_thread_processed) total += c;
  EXPECT_EQ(total, 800u);  // Every probe processed exactly once.
}

TEST(EngineConcurrencyTest, SelectAfterJoinPipeline) {
  // Chain queries through the catalog: join, register result, select on it.
  Database db(2);
  SkewSpec spec;
  spec.a_cardinality = 2'000;
  spec.b_cardinality = 200;
  spec.degree = 10;
  ASSERT_TRUE(db.CreateSkewedPair(spec, "A", "B").ok());
  QueryOptions options;
  options.schedule.total_threads = 4;
  options.schedule.processors = 4;
  options.result_name = "AB";
  auto join = RunIdealJoin(db, "A", "key", "B", "key", options);
  ASSERT_TRUE(join.ok());
  ASSERT_TRUE(db.AddRelation(std::move(join.value().result)).ok());
  options.result_name = "filtered";
  auto select =
      RunSelect(db, "AB", ColumnBetween(/*column=*/0, 0, 4), 0.5, options);
  ASSERT_TRUE(select.ok()) << select.status().ToString();
  for (const Tuple& t : select.value().result->Scan()) {
    EXPECT_LE(t.at(0).AsInt(), 4);
  }
}

TEST(EngineConcurrencyTest, RandomizedShortQueryStress) {
  // Many short executions with randomized knobs, several in flight at
  // once: each driver thread runs its own database through query shapes
  // drawn from a deterministic per-thread RNG. This is the sanitizer
  // honeypot — rapid Operation construction/teardown, pool start/join,
  // back-pressure and chunking all churn concurrently.
  constexpr int kDrivers = 3;
  constexpr int kQueriesPerDriver = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> drivers;
  for (int d = 0; d < kDrivers; ++d) {
    drivers.emplace_back([d, &failures] {
      std::mt19937 rng(0x9e3779b9u + static_cast<unsigned>(d));
      Database db(2 + d % 3);
      SkewSpec spec;
      spec.a_cardinality = 800;
      spec.b_cardinality = 80;
      spec.degree = 8;
      spec.theta = 0.5;
      if (!db.CreateSkewedPair(spec, "A", "B").ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int q = 0; q < kQueriesPerDriver; ++q) {
        QueryOptions options;
        options.schedule.total_threads = 2 + rng() % 5;
        options.schedule.processors = 4 + rng() % 5;
        options.schedule.cache_size = 1 + rng() % 8;
        options.schedule.chunk_size = 1 + rng() % 32;
        options.schedule.queue_capacity = (q % 2 == 0) ? 4 + rng() % 16 : 0;
        auto r = RunAssocJoin(db, "B", "key", "A", "key", options);
        if (!r.ok() || r.value().result->cardinality() != 800u) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& t : drivers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(EngineConcurrencyTest, DestroyWhileWorkersStillDrainingIsSafe) {
  // Tear an Operation down while its pool is mid-drain: the destructor's
  // defensive path (close queues, mark producers done, join) must race
  // cleanly against workers still popping and processing — the executor
  // never does this, but a failing query unwind does.
  class SlowLogic : public OperatorLogic {
   public:
    void OnDataBatch(size_t, std::span<Tuple> tuples, Emitter*) override {
      for (size_t i = 0; i < tuples.size(); ++i) {
        processed.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    std::string name() const override { return "slow"; }
    std::atomic<uint64_t> processed{0};
  };

  for (int round = 0; round < 8; ++round) {
    SlowLogic logic;
    uint64_t accepted = 0;
    {
      OperationConfig config;
      config.name = "teardown";
      config.num_instances = 4;
      config.num_threads = 3;
      config.cache_size = 2;
      Operation op(config, &logic, DataOutput{});
      op.AddProducer();
      op.Start();
      for (int64_t k = 0; k < 400; ++k) {
        op.PushDataChunk(static_cast<size_t>(k) % 4,
                         TupleChunk{Tuple({Value(k)})});
      }
      accepted = 400;
      // No ProducerDone, no Join: the destructor must shut the pool down
      // itself while workers are still chewing on the backlog.
    }
    const uint64_t done = logic.processed.load();
    EXPECT_LE(done, accepted) << "round " << round;
    EXPECT_GT(done, 0u) << "round " << round;
  }
}

}  // namespace
}  // namespace dbs3
