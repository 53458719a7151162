// Tests of the batch kernels: the arena, the columnar batch view, the
// predicate IR kernels, the batched index probe — and differential checks
// that every operator produces exactly a test-side reference's results
// across chunk sizes, with chunk-size-independent stats ledgers.

#include "engine/vector/column_batch.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/arena.h"
#include "common/rng.h"
#include "dbs3/database.h"
#include "dbs3/query.h"
#include "engine/blocking_operators.h"
#include "engine/vector/kernels.h"
#include "engine/vector/pred.h"
#include "storage/temp_index.h"

namespace dbs3 {
namespace {

// ---------------------------------------------------------------- Arena --

TEST(ArenaTest, AllocationsAlignedAndWritable) {
  Arena arena;
  char* c = arena.AllocateArrayOf<char>(3);
  ASSERT_NE(c, nullptr);
  int64_t* ints = arena.AllocateArrayOf<int64_t>(100);
  ASSERT_NE(ints, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(ints) % alignof(int64_t), 0u);
  for (int i = 0; i < 100; ++i) ints[i] = i;
  c[0] = 'a';  // Distinct storage: the int array did not overlap.
  EXPECT_EQ(ints[99], 99);
}

TEST(ArenaTest, ResetRetainsBlocks) {
  Arena arena;
  arena.AllocateArrayOf<int64_t>(1000);
  const size_t warmed = arena.block_count();
  const size_t reserved = arena.reserved_bytes();
  EXPECT_GE(warmed, 1u);
  for (int round = 0; round < 100; ++round) {
    arena.Reset();
    arena.AllocateArrayOf<int64_t>(1000);
  }
  EXPECT_EQ(arena.block_count(), warmed);  // Steady state: no new blocks.
  EXPECT_EQ(arena.reserved_bytes(), reserved);
}

TEST(ArenaTest, MarkRewindRecyclesSpace) {
  Arena arena;
  arena.AllocateArrayOf<int64_t>(16);  // Force the first block into being.
  const Arena::Mark m = arena.mark();
  int64_t* first = arena.AllocateArrayOf<int64_t>(64);
  arena.Rewind(m);
  int64_t* second = arena.AllocateArrayOf<int64_t>(64);
  EXPECT_EQ(first, second);  // Same bytes handed out again.
}

// Regression: a ScopedArena opened on a still-empty arena must rewind to
// the start of the first block (allocated inside the scope), not to the
// pre-block null cursor — the original bug returned null pointers from
// every allocation after the first scope exit.
TEST(ArenaTest, ScopedArenaOnEmptyArenaStaysValid) {
  Arena arena;
  for (int round = 0; round < 50; ++round) {
    ScopedArena scope(&arena);
    int64_t* data = scope.get()->AllocateArrayOf<int64_t>(512);
    ASSERT_NE(data, nullptr);
    for (int i = 0; i < 512; ++i) data[i] = round + i;
    EXPECT_EQ(data[511], round + 511);
  }
  EXPECT_LE(arena.block_count(), 2u);  // Space was recycled, not regrown.
}

TEST(ArenaTest, OversizedRequestGetsDedicatedBlock) {
  Arena arena;
  const size_t huge = (1 << 22) + 4096;  // Past the block-doubling cap.
  char* data = arena.AllocateArrayOf<char>(huge);
  ASSERT_NE(data, nullptr);
  data[0] = 'x';
  data[huge - 1] = 'y';
  EXPECT_GE(arena.reserved_bytes(), huge);
}

// ------------------------------------------------------ SelectionVector --

TEST(SelectionVectorTest, AllIsIdentity) {
  Arena arena;
  SelectionVector sel = SelectionVector::All(&arena, 10);
  ASSERT_EQ(sel.size(), 10u);
  for (size_t i = 0; i < 10; ++i) EXPECT_EQ(sel[i], i);
  sel.set_size(3);
  EXPECT_EQ(sel.size(), 3u);
  EXPECT_FALSE(sel.empty());
}

// ---------------------------------------------------------- ColumnBatch --

std::vector<Tuple> IntRows(Rng& rng, size_t n) {
  std::vector<Tuple> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(Tuple({Value(rng.Range(-50, 50)), Value(rng.Range(0, 10)),
                          Value(static_cast<int64_t>(i))}));
  }
  return rows;
}

TEST(ColumnBatchTest, IntColumnGatheredAndCached) {
  Rng rng(1);
  std::vector<Tuple> rows = IntRows(rng, 37);
  Arena arena;
  ColumnBatch batch(rows, &arena);
  EXPECT_EQ(batch.num_rows(), 37u);
  EXPECT_EQ(batch.num_columns(), 3u);
  const int64_t* col0 = batch.Ints(0);
  ASSERT_NE(col0, nullptr);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(col0[i], rows[i].at(0).AsInt());
  }
  EXPECT_EQ(batch.Ints(0), col0);  // Second access reuses the build.
}

TEST(ColumnBatchTest, MixedColumnHasNoIntViewButValuesWork) {
  std::vector<Tuple> rows;
  rows.push_back(Tuple({Value(int64_t{1})}));
  rows.push_back(Tuple({Value(std::string("s"))}));
  rows.push_back(Tuple({Value(int64_t{3})}));
  Arena arena;
  ColumnBatch batch(rows, &arena);
  EXPECT_EQ(batch.Ints(0), nullptr);
  const Value* const* values = batch.Values(0);
  ASSERT_NE(values, nullptr);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(values[i], &rows[i].at(0));  // Pointers into the rows.
  }
}

// ------------------------------------------------------------- PredExpr --

TEST(PredExprTest, FactoriesNormalizeDegenerateForms) {
  EXPECT_EQ(PredExpr::IntBetween(0, 7, 3).kind, PredExpr::Kind::kNone);
  EXPECT_EQ(PredExpr::IntLess(0, std::numeric_limits<int64_t>::min()).kind,
            PredExpr::Kind::kNone);
  EXPECT_EQ(PredExpr::IntGreater(0, std::numeric_limits<int64_t>::max()).kind,
            PredExpr::Kind::kNone);
  // Single-child conjunctions collapse.
  std::vector<PredExpr> one;
  one.push_back(PredExpr::IntEquals(2, 5));
  EXPECT_EQ(PredExpr::And(std::move(one)).kind, PredExpr::Kind::kIntRange);
}

TEST(PredExprTest, LeafSemanticsAreTyped) {
  const PredExpr range = PredExpr::IntBetween(0, 0, 10);
  EXPECT_TRUE(range.EvalValue(Value(int64_t{5})));
  EXPECT_FALSE(range.EvalValue(Value(int64_t{11})));
  EXPECT_FALSE(range.EvalValue(Value(std::string("5"))));  // Ints only.
  const PredExpr ne = PredExpr::IntNotEquals(0, 5);
  EXPECT_FALSE(ne.EvalValue(Value(int64_t{5})));
  EXPECT_TRUE(ne.EvalValue(Value(int64_t{6})));
  EXPECT_TRUE(ne.EvalValue(Value(std::string("5"))));  // Non-ints match.
  const PredExpr eq = PredExpr::StringEquals(0, "x");
  EXPECT_TRUE(eq.EvalValue(Value(std::string("x"))));
  EXPECT_FALSE(eq.EvalValue(Value(int64_t{0})));
  const PredExpr sne = PredExpr::StringNotEquals(0, "x");
  EXPECT_FALSE(sne.EvalValue(Value(std::string("x"))));
  EXPECT_TRUE(sne.EvalValue(Value(int64_t{0})));
}

/// Reference evaluation: per-row EvalRow over the whole span.
std::vector<uint32_t> RowPathSelection(const PredExpr& pred,
                                       const std::vector<Tuple>& rows) {
  std::vector<uint32_t> out;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (pred.EvalRow(rows[i])) out.push_back(static_cast<uint32_t>(i));
  }
  return out;
}

TEST(PredKernelTest, BatchSelectionMatchesRowPath) {
  Rng rng(42);
  std::vector<Tuple> rows = IntRows(rng, 200);
  rows[17] = Tuple({Value(std::string("odd")), Value(int64_t{3}),
                    Value(int64_t{17})});  // Poison column 0 -> fallback.
  std::vector<PredExpr> preds;
  preds.push_back(PredExpr::All());
  preds.push_back(PredExpr::None());
  preds.push_back(PredExpr::IntBetween(0, -10, 10));
  preds.push_back(PredExpr::IntNotEquals(1, 4));
  preds.push_back(PredExpr::StringEquals(0, "odd"));
  preds.push_back(PredExpr::StringNotEquals(0, "odd"));
  {
    std::vector<PredExpr> conj;
    conj.push_back(PredExpr::IntBetween(0, -30, 30));
    conj.push_back(PredExpr::IntBetween(1, 2, 8));
    conj.push_back(PredExpr::IntNotEquals(2, 100));
    preds.push_back(PredExpr::And(std::move(conj)));
  }
  Arena arena;
  for (const PredExpr& pred : preds) {
    ScopedArena scope(&arena);
    ColumnBatch batch(rows, scope.get());
    uint32_t* sel = scope.get()->AllocateArrayOf<uint32_t>(rows.size());
    const size_t n = EvalPredAll(pred, batch, sel);
    const std::vector<uint32_t> expect = RowPathSelection(pred, rows);
    ASSERT_EQ(n, expect.size()) << pred.ToString();
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(sel[i], expect[i]) << pred.ToString();
    }
  }
}

TEST(PredKernelTest, FilterRefinesExistingSelection) {
  Rng rng(7);
  std::vector<Tuple> rows = IntRows(rng, 100);
  Arena arena;
  ColumnBatch batch(rows, &arena);
  uint32_t* sel = arena.AllocateArrayOf<uint32_t>(rows.size());
  const PredExpr first = PredExpr::IntBetween(0, -25, 25);
  const PredExpr second = PredExpr::IntBetween(1, 0, 4);
  size_t n = EvalPredAll(first, batch, sel);
  n = EvalPredFilter(second, batch, sel, n);
  std::vector<PredExpr> both;
  both.push_back(first);
  both.push_back(second);
  const std::vector<uint32_t> expect =
      RowPathSelection(PredExpr::And(std::move(both)), rows);
  ASSERT_EQ(n, expect.size());
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(sel[i], expect[i]);
}

// -------------------------------------------------------------- Hashing --

TEST(HashKernelTest, HashColumnMatchesValueHash) {
  std::vector<Tuple> rows;
  rows.push_back(Tuple({Value(int64_t{-3}), Value(std::string("a"))}));
  rows.push_back(Tuple({Value(int64_t{0}), Value(int64_t{9})}));
  rows.push_back(Tuple({Value(int64_t{1234567}), Value(std::string("b"))}));
  Arena arena;
  ColumnBatch batch(rows, &arena);
  const uint64_t* ints = HashColumn(batch, 0, &arena);   // Int fast path.
  const uint64_t* mixed = HashColumn(batch, 1, &arena);  // Value fallback.
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(ints[i], rows[i].at(0).Hash());
    EXPECT_EQ(mixed[i], rows[i].at(1).Hash());
  }
}

// -------------------------------------------------------- Batched probe --

TEST(BatchedProbeTest, MatchesScalarProbeIncludingChains) {
  // A fragment with heavy duplication so chains have length > 1.
  Relation rel("inner", Schema({{"k", ValueType::kInt64}}), 0,
               Partitioner(PartitionKind::kModulo, 1));
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(rel.Insert(Tuple({Value(rng.Range(0, 60))})).ok());
  }
  const TempIndex index(rel.fragment(0), 0);

  std::vector<Tuple> probes;
  for (int i = 0; i < 300; ++i) {
    probes.push_back(Tuple({Value(rng.Range(0, 80))}));  // Some miss.
  }
  Arena arena;
  ColumnBatch batch(probes, &arena);
  const uint64_t* hashes = HashColumn(batch, 0, &arena);
  const Value* const* keys = batch.Values(0);
  uint32_t* first = arena.AllocateArrayOf<uint32_t>(probes.size());
  index.ProbeHashed(std::span<const uint64_t>(hashes, probes.size()), keys,
                    first);
  for (size_t i = 0; i < probes.size(); ++i) {
    const std::vector<uint32_t> expect = index.Lookup(probes[i].at(0));
    std::vector<uint32_t> got;
    for (uint32_t pos = first[i]; pos != TempIndex::kNone;
         pos = index.NextMatchAfter(pos, hashes[i], *keys[i])) {
      got.push_back(pos);
    }
    EXPECT_EQ(got, expect) << "probe key " << probes[i].at(0).AsInt();
  }
}

TEST(BatchedProbeTest, ProbeKeysMatchesScalarProbe) {
  // Spans several kProbeTile tiles so the three-stage pipeline's prologue,
  // steady state, and ragged tail all run; duplicated keys give chains.
  Relation rel("inner", Schema({{"k", ValueType::kInt64}}), 0,
               Partitioner(PartitionKind::kModulo, 1));
  Rng rng(7);
  for (int i = 0; i < 900; ++i) {
    ASSERT_TRUE(rel.Insert(Tuple({Value(rng.Range(0, 120))})).ok());
  }
  const TempIndex index(rel.fragment(0), 0);
  ASSERT_TRUE(index.int_keyed());

  std::vector<int64_t> keys;
  for (int i = 0; i < 333; ++i) keys.push_back(rng.Range(0, 160));
  std::vector<uint32_t> first(keys.size());
  index.ProbeKeys(std::span<const int64_t>(keys), first.data());
  for (size_t i = 0; i < keys.size(); ++i) {
    const std::vector<uint32_t> expect = index.Lookup(Value(keys[i]));
    std::vector<uint32_t> got;
    for (uint32_t pos = first[i]; pos != TempIndex::kNone;
         pos = index.NextMatchAfter(pos, keys[i])) {
      got.push_back(pos);
    }
    EXPECT_EQ(got, expect) << "probe key " << keys[i];
  }
}

TEST(BatchedProbeTest, StringKeyedIndexUsesGenericWave) {
  // Non-int keys keep the index off the inline-key fast path; the batched
  // probe must fall back to the hash-prefilter wave and still agree with
  // the scalar walk. Few distinct keys force multi-node chains.
  Relation rel("inner", Schema({{"k", ValueType::kString}}), 0,
               Partitioner(PartitionKind::kModulo, 1));
  Rng rng(13);
  const char* words[] = {"ada", "bee", "cat", "doe", "elk"};
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(rel.Insert(Tuple({Value(words[rng.Range(0, 4)])})).ok());
  }
  const TempIndex index(rel.fragment(0), 0);
  ASSERT_FALSE(index.int_keyed());

  std::vector<Tuple> probes;
  for (int i = 0; i < 150; ++i) {
    probes.push_back(Tuple({Value(words[rng.Range(0, 4)])}));
  }
  probes.push_back(Tuple({Value("missing")}));
  Arena arena;
  ColumnBatch batch(probes, &arena);
  const uint64_t* hashes = HashColumn(batch, 0, &arena);
  const Value* const* keys = batch.Values(0);
  uint32_t* first = arena.AllocateArrayOf<uint32_t>(probes.size());
  index.ProbeHashed(std::span<const uint64_t>(hashes, probes.size()), keys,
                    first);
  for (size_t i = 0; i < probes.size(); ++i) {
    const std::vector<uint32_t> expect = index.Lookup(probes[i].at(0));
    std::vector<uint32_t> got;
    for (uint32_t pos = first[i]; pos != TempIndex::kNone;
         pos = index.NextMatchAfter(pos, hashes[i], *keys[i])) {
      got.push_back(pos);
    }
    EXPECT_EQ(got, expect) << "probe key " << probes[i].at(0).AsString();
  }
}

TEST(BatchedProbeTest, IntKeyedIndexRejectsNonIntProbeKeys) {
  // A mixed probe column against an int-keyed index: the int tiles resolve
  // on the fast path and the tile holding the string key falls back to
  // per-key resolution, which cannot match any int key.
  Relation rel("inner", Schema({{"k", ValueType::kInt64}}), 0,
               Partitioner(PartitionKind::kModulo, 1));
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(rel.Insert(Tuple({Value(static_cast<int64_t>(i))})).ok());
  }
  const TempIndex index(rel.fragment(0), 0);
  ASSERT_TRUE(index.int_keyed());

  std::vector<Tuple> probes;
  for (int i = 0; i < 10; ++i) {
    probes.push_back(Tuple({Value(static_cast<int64_t>(i * 5))}));
  }
  probes.push_back(Tuple({Value("7")}));  // String, not the int 7.
  Arena arena;
  ColumnBatch batch(probes, &arena);
  const uint64_t* hashes = HashColumn(batch, 0, &arena);
  uint32_t* first = arena.AllocateArrayOf<uint32_t>(probes.size());
  index.ProbeHashed(std::span<const uint64_t>(hashes, probes.size()),
                    batch.Values(0), first);
  for (size_t i = 0; i + 1 < probes.size(); ++i) {
    EXPECT_EQ(first[i], static_cast<uint32_t>(i * 5));
  }
  EXPECT_EQ(first[probes.size() - 1], TempIndex::kNone);
}

TEST(BatchedProbeTest, EmptyIndexReturnsNoMatches) {
  Relation rel("empty", Schema({{"k", ValueType::kInt64}}), 0,
               Partitioner(PartitionKind::kModulo, 1));
  const TempIndex index(rel.fragment(0), 0);
  std::vector<Tuple> probes = {Tuple({Value(int64_t{1})})};
  Arena arena;
  ColumnBatch batch(probes, &arena);
  const uint64_t* hashes = HashColumn(batch, 0, &arena);
  uint32_t first = 0;
  index.ProbeHashed(std::span<const uint64_t>(hashes, 1), batch.Values(0),
                    &first);
  EXPECT_EQ(first, TempIndex::kNone);
}

// ------------------------------------------------- Concurrent execution --

// Several threads hammer the kernels through their thread-local arenas
// against one shared (read-only) index. Run under TSan by the sanitizer CI
// job; any cross-thread kernel state would fire there.
TEST(ConcurrentKernelTest, ThreadLocalArenasDoNotInterfere) {
  Relation rel("inner", Schema({{"k", ValueType::kInt64}}), 0,
               Partitioner(PartitionKind::kModulo, 1));
  Rng seed_rng(11);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(rel.Insert(Tuple({Value(seed_rng.Range(0, 50))})).ok());
  }
  const TempIndex index(rel.fragment(0), 0);
  std::atomic<uint64_t> total_matches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&index, &total_matches, t] {
      Rng rng(100 + t);
      std::vector<Tuple> rows = IntRows(rng, 128);
      const PredExpr pred = PredExpr::IntBetween(0, -20, 20);
      uint64_t matches = 0;
      for (int round = 0; round < 200; ++round) {
        Arena& arena = ThreadLocalKernelArena();
        ScopedArena scope(&arena);
        ColumnBatch batch(rows, scope.get());
        uint32_t* sel = scope.get()->AllocateArrayOf<uint32_t>(rows.size());
        const size_t n = EvalPredAll(pred, batch, sel);
        const uint64_t* hashes = HashColumn(batch, 2, scope.get());
        uint32_t* first =
            scope.get()->AllocateArrayOf<uint32_t>(rows.size());
        index.ProbeHashed(
            std::span<const uint64_t>(hashes, rows.size()),
            batch.Values(2), first);
        for (size_t i = 0; i < n; ++i) {
          if (first[sel[i]] != TempIndex::kNone) ++matches;
        }
      }
      total_matches.fetch_add(matches);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_GT(total_matches.load(), 0u);
}

// ------------------------------------------- Differential: whole queries --

std::vector<Tuple> SortedScan(const Relation& rel) {
  std::vector<Tuple> rows = rel.Scan();
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// The portion of an execution's ledger that must not depend on the chunk
/// size: per-operation tuple units in and out.
std::vector<std::tuple<std::string, uint64_t, uint64_t>> Ledger(
    const ExecutionResult& execution) {
  std::vector<std::tuple<std::string, uint64_t, uint64_t>> out;
  for (const OperationStats& stats : execution.op_stats) {
    uint64_t processed = 0;
    for (uint64_t units : stats.per_instance_processed) processed += units;
    out.emplace_back(stats.name, processed, stats.emitted);
  }
  return out;
}

/// Test-side reference selection: the base rows `keep` accepts, sorted.
std::vector<Tuple> ReferenceSelect(
    const Relation& rel, const std::function<bool(const Tuple&)>& keep) {
  std::vector<Tuple> out;
  for (const Tuple& t : rel.Scan()) {
    if (keep(t)) out.push_back(t);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Test-side reference equi-join by a plain nested loop: every outer row
/// `keep` accepts, concatenated with each inner row of equal key, sorted.
std::vector<Tuple> ReferenceJoin(
    const Relation& outer, size_t outer_column, const Relation& inner,
    size_t inner_column,
    const std::function<bool(const Tuple&)>& keep = [](const Tuple&) {
      return true;
    }) {
  const std::vector<Tuple> inner_rows = inner.Scan();
  std::vector<Tuple> out;
  for (const Tuple& r : outer.Scan()) {
    if (!keep(r)) continue;
    for (const Tuple& s : inner_rows) {
      if (s.at(inner_column) == r.at(outer_column)) out.push_back(r.Concat(s));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

class VectorDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    WisconsinOptions wopt;
    wopt.cardinality = 2'000;
    wopt.degree = 8;
    wopt.partition_kind = PartitionKind::kHash;
    wopt.with_strings = true;
    ASSERT_TRUE(db_.CreateWisconsin("tenk1", wopt).ok());
    wopt.seed = 99;  // Different permutation, same key set.
    ASSERT_TRUE(db_.CreateWisconsin("tenk2", wopt).ok());
    SkewSpec spec;  // Zipf-skewed join pair.
    spec.a_cardinality = 3'000;
    spec.b_cardinality = 300;
    spec.degree = 8;
    spec.theta = 0.8;
    ASSERT_TRUE(db_.CreateSkewedPair(spec, "Z", "W").ok());
  }

  QueryOptions Options(size_t chunk_size) {
    QueryOptions options;
    options.schedule.total_threads = 4;
    options.schedule.processors = 4;
    options.schedule.chunk_size = chunk_size;
    return options;
  }

  const Relation& Rel(const std::string& name) {
    return *db_.relation(name).value();
  }

  size_t Column(const std::string& rel, const std::string& column) {
    return Rel(rel).schema().IndexOf(column).value();
  }

  /// Runs `run` at every chunk size — 1 keeps data activations on the row
  /// loops, larger sizes take the batch kernels, 0 is the scheduler's
  /// derived grain — and requires sorted results equal to `expected` and
  /// tuple ledgers equal to chunk size 1's.
  void ExpectMatchesReference(
      const std::function<Result<QueryResult>(const QueryOptions&)>& run,
      const std::vector<Tuple>& expected) {
    ASSERT_FALSE(expected.empty());
    auto per_tuple = run(Options(1));
    ASSERT_TRUE(per_tuple.ok()) << per_tuple.status().ToString();
    EXPECT_EQ(SortedScan(*per_tuple.value().result), expected)
        << "chunk_size=1";
    for (size_t chunk_size : {0, 4, 16, 64}) {
      auto got = run(Options(chunk_size));
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(SortedScan(*got.value().result), expected)
          << "chunk_size=" << chunk_size;
      EXPECT_EQ(Ledger(got.value().execution),
                Ledger(per_tuple.value().execution))
          << "chunk_size=" << chunk_size;
    }
  }

  Database db_{4};
};

TEST_F(VectorDifferentialTest, IntFilterOnWisconsin) {
  const size_t col = Column("tenk1", "unique1");
  ExpectMatchesReference(
      [&](const QueryOptions& options) {
        return RunSelect(db_, "tenk1", ColumnBetween(col, 100, 700), 0.3,
                         options);
      },
      ReferenceSelect(Rel("tenk1"), [&](const Tuple& t) {
        return t.at(col).AsInt() >= 100 && t.at(col).AsInt() <= 700;
      }));
}

TEST_F(VectorDifferentialTest, StringFilterOnWisconsin) {
  const size_t col = Column("tenk1", "string4");
  // string4 cycles AAAA/HHHH/OOOO/VVVV, each padded with 'x' to 52 chars.
  const Value hhhh(std::string("HHHH").append(48, 'x'));
  ExpectMatchesReference(
      [&](const QueryOptions& options) {
        return RunSelect(db_, "tenk1", ColumnEquals(col, hhhh), 0.25,
                         options);
      },
      ReferenceSelect(Rel("tenk1"),
                      [&](const Tuple& t) { return t.at(col) == hhhh; }));
}

TEST_F(VectorDifferentialTest, HashJoinOnWisconsin) {
  const size_t col = Column("tenk1", "unique1");
  ExpectMatchesReference(
      [&](const QueryOptions& options) {
        return RunIdealJoin(db_, "tenk1", "unique1", "tenk2", "unique1",
                            options);
      },
      ReferenceJoin(Rel("tenk1"), col, Rel("tenk2"), col));
}

TEST_F(VectorDifferentialTest, FilterJoinOnZipfPair) {
  const size_t payload = Column("Z", "payload");
  const size_t key = Column("Z", "key");
  ExpectMatchesReference(
      [&](const QueryOptions& options) {
        return RunFilterJoin(db_, "Z",
                             ColumnBetween(payload, 0, 1'000'000'000), 0.5,
                             "key", "W", "key", options);
      },
      ReferenceJoin(Rel("Z"), key, Rel("W"), Column("W", "key"),
                    [&](const Tuple& t) {
                      return t.at(payload).AsInt() >= 0 &&
                             t.at(payload).AsInt() <= 1'000'000'000;
                    }));
}

TEST_F(VectorDifferentialTest, TempIndexJoinOnZipfPair) {
  ExpectMatchesReference(
      [&](const QueryOptions& options) {
        QueryOptions opt = options;
        opt.algorithm = JoinAlgorithm::kTempIndex;
        return RunIdealJoin(db_, "Z", "key", "W", "key", opt);
      },
      ReferenceJoin(Rel("Z"), Column("Z", "key"), Rel("W"),
                    Column("W", "key")));
}

// ------------------------------------------ Differential: semi/anti join --

// Drives PipelinedSemiJoinLogic's data entry point directly: the batched
// existence probe (chunks of 4 and more) must match the per-tuple row loop
// (chunk size 1) tuple for tuple, for both semi and anti joins.
TEST(SemiJoinDifferentialTest, BatchedExistenceMatchesRowPath) {
  Rng rng(21);
  auto inner = std::make_unique<Relation>(
      "inner", Schema({{"k", ValueType::kInt64}}), 0,
      Partitioner(PartitionKind::kModulo, 2));
  for (int i = 0; i < 150; ++i) {
    ASSERT_TRUE(inner->Insert(Tuple({Value(rng.Range(0, 40))})).ok());
  }
  std::vector<Tuple> probes;
  for (int i = 0; i < 256; ++i) {
    probes.push_back(Tuple({Value(rng.Range(0, 60)), Value(rng.Range(0, 5))}));
  }
  struct Collector : Emitter {
    void Emit(size_t, Tuple tuple) override {
      rows.push_back(std::move(tuple));
    }
    std::vector<Tuple> rows;
  };
  auto run = [&](bool anti, size_t chunk_size) {
    PipelinedSemiJoinLogic semi(inner.get(), 0, 0, anti);
    EXPECT_TRUE(semi.Prepare(2).ok());
    Collector out;
    std::vector<Tuple> copy = probes;  // OnDataBatch may move from.
    for (size_t base = 0; base < copy.size(); base += chunk_size) {
      const size_t n = std::min(chunk_size, copy.size() - base);
      // Every probe goes to the same instance at every chunk size: chunks
      // never straddle a 64-probe block.
      semi.OnDataBatch((base / 64) % 2, std::span<Tuple>(&copy[base], n),
                       &out);
    }
    return out.rows;
  };
  for (bool anti : {false, true}) {
    const std::vector<Tuple> per_tuple = run(anti, 1);
    for (size_t chunk_size : {4, 16, 64}) {
      EXPECT_EQ(run(anti, chunk_size), per_tuple)
          << "anti=" << anti << " chunk_size=" << chunk_size;
    }
  }
}

}  // namespace
}  // namespace dbs3
