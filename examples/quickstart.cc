// Quickstart: build a database, run parallel queries, inspect the
// scheduler's decisions.
//
//   $ ./build/examples/quickstart
//
// Walks through the whole public API: generating Wisconsin benchmark
// relations, a parallel selection, an IdealJoin (co-partitioned operands)
// and an AssocJoin (dynamic repartitioning), printing the adaptive
// scheduling decisions (threads per operation, consumption strategy) along
// the way.

#include <cstdio>

#include "dbs3/database.h"
#include "dbs3/query.h"

namespace {

void Check(const dbs3::Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace

int main() {
  using namespace dbs3;

  // 1. A database with 8 simulated disks. Relations are hash-partitioned
  //    into fragments placed round-robin on the disks; the degree of
  //    partitioning (16 here) is independent of the disk count.
  Database db(/*num_disks=*/8);

  WisconsinOptions wisconsin;
  wisconsin.cardinality = 20'000;
  wisconsin.degree = 16;
  wisconsin.partition_column = "unique1";
  Check(db.CreateWisconsin("tenk1", wisconsin), "create tenk1");
  wisconsin.seed = 7;
  Check(db.CreateWisconsin("tenk2", wisconsin), "create tenk2");
  std::printf("created %s and %s (20K tuples, 16 fragments each)\n",
              "tenk1", "tenk2");

  // 2. A parallel selection: 1%-selectivity predicate on the onePercent
  //    column. The scheduler picks the thread count from the query's
  //    estimated complexity (Section 3 of the paper).
  Relation* tenk1 = db.relation("tenk1").value();
  const size_t one_percent =
      tenk1->schema().IndexOf("onePercent").value();
  QueryOptions select_options;
  select_options.schedule.processors = 8;
  select_options.result_name = "selected";
  auto select = RunSelect(db, "tenk1",
                          ColumnEquals(one_percent, Value(int64_t{42})),
                          /*selectivity=*/0.01, select_options);
  Check(select.status(), "select");
  std::printf("\nselection kept %llu tuples in %.1f ms using %zu threads\n",
              static_cast<unsigned long long>(
                  select.value().result->cardinality()),
              select.value().execution.seconds * 1e3,
              select.value().schedule.total_threads);

  // 3. IdealJoin: both relations are hash-partitioned on unique1 with the
  //    same degree, so join instance i joins fragment i with fragment i —
  //    no data movement at all.
  QueryOptions join_options;
  join_options.schedule.total_threads = 8;
  join_options.schedule.processors = 8;
  join_options.algorithm = JoinAlgorithm::kTempIndex;
  join_options.result_name = "ideal_result";
  auto ideal = RunIdealJoin(db, "tenk1", "unique1", "tenk2", "unique1",
                            join_options);
  Check(ideal.status(), "ideal join");
  std::printf("\nIdealJoin produced %llu tuples in %.1f ms\n",
              static_cast<unsigned long long>(
                  ideal.value().result->cardinality()),
              ideal.value().execution.seconds * 1e3);
  std::printf("scheduler decisions:\n%s",
              ideal.value().schedule.ToString().c_str());

  // 4. AssocJoin: tenk2 is redistributed on the fly (Transmit operator)
  //    and pipelined into the join as many small data activations — the
  //    fine granularity that makes pipelined operations insensitive to
  //    skew. The scheduler sizes each activation's chunk so the Eq. 3
  //    skew bound stays under 2%; chunk_size = 1 gives the paper's one
  //    activation per tuple.
  join_options.result_name = "assoc_result";
  auto assoc = RunAssocJoin(db, "tenk2", "unique1", "tenk1", "unique1",
                            join_options);
  Check(assoc.status(), "assoc join");
  std::printf("\nAssocJoin produced %llu tuples in %.1f ms\n",
              static_cast<unsigned long long>(
                  assoc.value().result->cardinality()),
              assoc.value().execution.seconds * 1e3);
  const auto& ops = assoc.value().execution.op_stats;
  for (const auto& op : ops) {
    uint64_t processed = 0;
    for (uint64_t c : op.per_thread_processed) processed += c;
    std::printf("  %-10s processed %8llu units in %8llu activations, "
                "emitted %8llu\n",
                op.name.c_str(),
                static_cast<unsigned long long>(processed),
                static_cast<unsigned long long>(op.activations),
                static_cast<unsigned long long>(op.emitted));
  }

  // 5. Results are ordinary relations: register and reuse them.
  Check(db.AddRelation(std::move(ideal.value().result)), "register result");
  std::printf("\nregistered 'ideal_result'; catalog now holds:");
  for (const std::string& name : db.catalog().Names()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\n");
  return 0;
}
