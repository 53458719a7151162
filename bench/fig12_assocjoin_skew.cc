// Reproduces Figure 12: AssocJoin execution time vs. skew factor.
//
// Paper setup (Section 5.4): relations A (100K tuples, Zipf-skewed) and B'
// (10K tuples), both partitioned in 200 fragments; AssocJoin with 10
// threads, Random consumption. The paper measures a *constant* execution
// time whatever the skew (the 10K pipelined activations absorb the skew),
// within 3% of the analytical worst case Tworst.

#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"
#include "dbs3/database.h"
#include "dbs3/query.h"
#include "model/analysis.h"
#include "sim/workload.h"

namespace dbs3 {
namespace {

void Run() {
  PrintHeader("Figure 12", "AssocJoin execution time vs skew (Zipf 0..1)");
  std::printf("A=100K, B'=10K, degree=200, threads=10, Random strategy\n");
  std::printf("paper: flat ~26-33 s band; measured within 3%% of Tworst\n\n");
  std::printf("%6s %14s %12s %12s %10s\n", "zipf", "measured(s)", "Tideal(s)",
              "Tworst(s)", "dev/worst");

  SimCosts costs;
  const size_t threads = 10;
  double min_time = 1e30, max_time = 0.0;
  for (int z = 0; z <= 10; ++z) {
    JoinWorkloadSpec spec;
    spec.a_cardinality = 100'000;
    spec.b_cardinality = 10'000;
    spec.degree = 200;
    spec.theta = 0.1 * z;
    spec.threads = threads;
    spec.strategy = Strategy::kRandom;
    SimPlanSpec plan = UnwrapOrDie(BuildAssocJoinSim(spec, costs), "build");
    SimMachine machine(KsrConfig(costs));
    SimResult result = UnwrapOrDie(machine.Run(plan), "run");

    // Analytical envelope of the pipelined join operation.
    OperationProfile profile =
        UnwrapOrDie(JoinProfile(spec, costs, /*pipelined=*/true), "profile");
    // The join's thread share (the transmit pool takes a slice of the 10).
    const size_t join_threads = plan.ops[1].threads;
    const double tideal = TIdeal(profile, join_threads);
    const double tworst = TWorst(profile, join_threads);
    std::printf("%6.1f %14.2f %12.2f %12.2f %9.1f%%\n", spec.theta,
                result.elapsed, tideal, tworst,
                100.0 * (result.elapsed / tworst - 1.0));
    min_time = std::min(min_time, result.elapsed);
    max_time = std::max(max_time, result.elapsed);
  }
  std::printf("\nspread over all skews: %.1f%% (paper: constant time, "
              "max deviation ~3%%)\n",
              100.0 * (max_time / min_time - 1.0));
}

/// Per-instance skew of the join: max/mean of tuple units per instance.
double InstanceSpread(const OperationStats& join) {
  uint64_t max = 0, sum = 0;
  for (uint64_t c : join.per_instance_processed) {
    max = std::max(max, c);
    sum += c;
  }
  const double mean =
      join.per_instance_processed.empty()
          ? 0.0
          : static_cast<double>(sum) /
                static_cast<double>(join.per_instance_processed.size());
  return mean > 0.0 ? static_cast<double>(max) / mean : 0.0;
}

const OperationStats& JoinStats(const ExecutionResult& execution) {
  for (const OperationStats& op : execution.op_stats) {
    if (op.name == "join") return op;
  }
  std::fprintf(stderr, "no join operation in execution\n");
  std::exit(1);
}

/// The same experiment on the real multithreaded engine, with the
/// activation tracer on: the per-instance tuple counts carry the Zipf skew,
/// while the per-thread busy fractions of the pipelined join stay flat —
/// the shared thread pool absorbing instance skew is exactly the paper's
/// point. The theta=1 run dumps a chrome://tracing-loadable span file. A
/// triggered IdealJoin on the same skewed data is traced as the contrast:
/// there the skew *does* surface in the per-thread busy fractions.
void RunEngineTraced() {
  std::printf("\n--- real engine, activation tracing on "
              "(A=40K zipf, B'=8K, degree=32, threads=4) ---\n");
  Database db(4);
  SkewSpec spec;
  spec.a_cardinality = 40'000;
  spec.b_cardinality = 8'000;
  spec.degree = 32;

  for (int z = 0; z <= 1; ++z) {
    spec.theta = static_cast<double>(z);
    const std::string a = "A" + std::to_string(z);
    const std::string b = "B" + std::to_string(z);
    CheckOk(db.CreateSkewedPair(spec, a, b), "CreateSkewedPair");

    QueryOptions options;
    options.schedule.total_threads = 4;
    options.schedule.processors = 4;
    options.schedule.chunk_size = 1;  // Per-tuple, as the paper measured.
    options.schedule.trace.enabled = true;
    if (z == 1) options.schedule.trace.path = "BENCH_fig12_trace.json";
    // A (skewed) is the transmitted probe, B' the partitioned inner — the
    // paper's orientation, so the Zipf lands on the join instances.
    QueryResult r = UnwrapOrDie(RunAssocJoin(db, a, "key", b, "key", options),
                                "AssocJoin");
    const OperationStats& join = JoinStats(r.execution);
    std::printf("AssocJoin  zipf=%d: wall %.2f ms, join instance spread "
                "(max/mean) %.2f\n",
                z, r.execution.seconds * 1e3, InstanceSpread(join));
    PrintThreadLoad(r.execution);
  }
  std::printf("wrote BENCH_fig12_trace.json (chrome://tracing)\n");

  // Contrast: the triggered IdealJoin has one activation per instance, so
  // instance skew lands on whichever thread grabbed the heavy trigger.
  QueryOptions options;
  options.schedule.total_threads = 4;
  options.schedule.processors = 4;
  options.schedule.chunk_size = 1;
  options.schedule.force_strategy = Strategy::kRandom;
  options.schedule.trace.enabled = true;
  QueryResult r = UnwrapOrDie(RunIdealJoin(db, "A1", "key", "B1", "key",
                                           options), "IdealJoin");
  std::printf("IdealJoin  zipf=1 (triggered, Random): wall %.2f ms, join "
              "instance spread %.2f\n",
              r.execution.seconds * 1e3, InstanceSpread(JoinStats(r.execution)));
  PrintThreadLoad(r.execution);
}

}  // namespace
}  // namespace dbs3

int main() {
  dbs3::Run();
  dbs3::RunEngineTraced();
  return 0;
}
