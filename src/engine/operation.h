#ifndef DBS3_ENGINE_OPERATION_H_
#define DBS3_ENGINE_OPERATION_H_

#include <cstddef>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/rng.h"
#include "common/thread_annotations.h"
#include "common/status.h"
#include "common/trace.h"
#include "engine/activation.h"
#include "engine/activation_queue.h"
#include "engine/cancel.h"
#include "engine/chunk_pool.h"
#include "engine/operator_logic.h"
#include "engine/strategy.h"
#include "engine/thread_source.h"
#include "storage/partitioner.h"

namespace dbs3 {

class Operation;

/// Where an operation sends its result tuples.
struct DataOutput {
  enum class Route {
    /// Tuple from producer instance i goes to consumer instance i
    /// (join_i -> store_i in Figures 10/11).
    kSameInstance,
    /// Tuple goes to the consumer instance chosen by applying `partitioner`
    /// to column `column` of the tuple (dynamic repartitioning: the Transmit
    /// -> Join edge of AssocJoin, or Filter -> Join in Figure 1).
    kByColumn,
  };

  Operation* consumer = nullptr;
  Route route = Route::kSameInstance;
  size_t column = 0;
  Partitioner partitioner{PartitionKind::kHash, 1};
};

/// Execution statistics of one operation, for load-balance analysis.
struct OperationStats {
  std::string name;
  /// Tuple units processed (a trigger counts 1, a data activation counts
  /// its tuples) — identical to activation counts in the paper-faithful
  /// chunk_size=1 mode.
  std::vector<uint64_t> per_thread_processed;
  std::vector<uint64_t> per_instance_processed;
  /// Activations dequeued and processed (triggers + data chunks).
  /// per-thread totals / activations = mean tuples per activation, the
  /// direct measure of the chunking win.
  uint64_t activations = 0;
  uint64_t emitted = 0;
  /// True processing time: the sum over all workers of the time spent
  /// inside OnTrigger/OnDataBatch (activation spans). Idle waits excluded —
  /// this is the numerator of a per-thread load-balance fraction.
  double busy_seconds = 0.0;
  /// Seconds between Start() and the exit of the slowest worker (what
  /// busy_seconds used to report): start-up + processing + idle waits.
  double wall_span_seconds = 0.0;
  /// Per-thread split of busy_seconds, and the complementary idle time
  /// (each worker's lifetime minus its busy time). busy/(busy+idle) per
  /// thread is the paper's load-balance signal.
  std::vector<double> per_thread_busy_seconds;
  std::vector<double> per_thread_idle_seconds;
  /// Tuple units dropped because their queue was already closed (a trigger
  /// counts 1, a data chunk counts its tuples). Always 0 on a well-formed
  /// plan; non-zero only for cancelled/abandoned executions, and surfaced
  /// so it can never again be silent data loss.
  uint64_t dropped = 0;
  /// Tuple units the instance queues rejected after close, summed over the
  /// queues. Must equal `dropped` — the verify ledger cross-checks the two
  /// tallies after every execution.
  uint64_t queue_rejected_units = 0;
  /// Tuple units acquired after the execution's cancel token fired: the
  /// worker disposed of them without invoking operator logic. Kept in its
  /// own bucket (not `processed`) so the conservation ledger balances as
  /// units_in == processed + cancelled + dropped.
  uint64_t cancelled_units = 0;
  /// Batch acquisitions served from one of the consuming thread's own main
  /// queues vs. stolen from a secondary queue (load-balancing traffic).
  uint64_t main_queue_acquisitions = 0;
  uint64_t secondary_queue_acquisitions = 0;
  /// High-water mark of queued tuple units across the instance queues.
  uint64_t peak_queue_units = 0;
  /// Queue-mutex acquisitions across all instance queues, and how many of
  /// them hit a held mutex (producer/consumer interference).
  uint64_t queue_acquisitions = 0;
  uint64_t queue_contended = 0;
};

/// Runtime configuration of one operation (the `operation` struct of
/// Figure 4: QueueNb, ThreadNb, CacheSize, StrategyId...).
struct OperationConfig {
  std::string name = "op";
  /// Number of instances == number of activation queues (QueueNb).
  size_t num_instances = 1;
  /// Size of the thread pool (ThreadNb). The pool is shared by all
  /// instances — this decoupling of parallelism from partitioning is the
  /// paper's central mechanism.
  size_t num_threads = 1;
  Strategy strategy = Strategy::kRandom;
  /// Internal activation cache size (CacheSize): activations fetched from a
  /// queue under one mutex acquisition (consumer-side batching).
  size_t cache_size = 1;
  /// Tuples per emitted data activation (producer-side batching): the
  /// emitter buffers output per destination instance and flushes a chunk
  /// when it reaches this size. 1 = the paper-faithful per-tuple mode.
  /// When the consumer's queues are bounded, the effective chunk size is
  /// clamped to the consumer's queue capacity (chunks are split rather
  /// than deadlocking the bounded queue).
  size_t chunk_size = 1;
  /// Per-queue capacity in tuple units; 0 = unbounded.
  size_t queue_capacity = 0;
  /// Per-instance cost estimates for LPT ordering (empty = all equal).
  std::vector<double> cost_estimates;
  /// Prefer main queues before stealing from secondary queues (disable for
  /// interference ablation only).
  bool use_main_queues = true;
  uint64_t seed = 1;
  /// When set, every worker records its activation spans here (one span per
  /// acquired batch). Must outlive the operation. Null = tracing off; the
  /// only per-batch cost left is the busy-time clock reads.
  ActivationTracer* tracer = nullptr;
  /// Cooperative cancellation, checked after every batch acquisition. Once
  /// stopped, workers keep draining their queues but route the units into
  /// `cancelled_units` instead of the operator logic. The default None()
  /// token costs one null check per batch.
  CancelToken cancel = CancelToken::None();
  /// Chunk-buffer recycling (usually the executor's per-execution pool,
  /// shared by every operation of the plan). Emitters acquire outgoing
  /// chunk buffers here and workers release each drained data chunk back —
  /// including on the cancellation drain and the closed-queue drop path —
  /// so steady-state pipelining allocates no chunk buffers. Null = every
  /// chunk is a fresh vector (the pre-pool behavior).
  ChunkPool* chunk_pool = nullptr;
};

/// One node of the executing plan: a table of activation queues (one per
/// instance) plus a pool of consumer threads that can all consume from all
/// queues, preferring their main queues.
class Operation {
 public:
  /// `logic` must outlive the operation. `output.consumer == nullptr` for
  /// terminal operations.
  Operation(OperationConfig config, OperatorLogic* logic, DataOutput output);
  ~Operation();

  Operation(const Operation&) = delete;
  Operation& operator=(const Operation&) = delete;

  const OperationConfig& config() const { return config_; }

  /// Registers one upstream producer. Must be called before Start(); the
  /// executor registers each incoming plan edge (and itself, for the
  /// trigger source of a triggered operation).
  void AddProducer();

  /// Signals that one producer will push no more activations. When the last
  /// producer finishes, queues are closed and idle workers drain and exit.
  void ProducerDone() EXCLUDES(wait_mu_);

  /// Enqueues a data activation carrying `tuples` for `instance` (a
  /// one-tuple chunk is the paper's per-tuple activation). Empty chunks are
  /// ignored.
  void PushDataChunk(size_t instance, TupleChunk tuples) EXCLUDES(wait_mu_);

  /// Enqueues the control activation for `instance`.
  void PushTrigger(size_t instance) EXCLUDES(wait_mu_);

  /// Spawns the worker pool. Prepare() of the logic must have succeeded.
  void Start();

  /// Runs the worker loops on threads borrowed from `source` instead of
  /// spawning private ones. The caller must guarantee the source has enough
  /// threads for every concurrently-blocking worker it dispatches across
  /// all operations (the server's admission controller reserves slots for
  /// exactly this). `source` must outlive Join().
  void StartOn(ThreadSource* source) EXCLUDES(exit_mu_);

  /// Blocks until every worker has exited (i.e. all producers done and all
  /// queues drained).
  void Join() EXCLUDES(exit_mu_);

  /// Runs the logic's OnFinish hook for every instance (emitting through
  /// this operation's output edge). Must be called after Join() and before
  /// the consumer's ProducerDone().
  void Finish();

  /// Statistics; valid after Join().
  OperationStats stats() const;

  /// Total tuple units currently queued (approximate, for monitoring; can
  /// be transiently negative during producer/consumer races).
  int64_t pending() const { return pending_.load(); }

  /// --- Steady-state malleability (mid-query worker reallocation) ---
  ///
  /// The server's rebalancer shrinks a running operation by asking surplus
  /// workers to *park*: at its next activation boundary (top of the worker
  /// loop — the same cooperative grain as cancellation) a worker claims one
  /// outstanding park request and exits early, returning its thread to the
  /// shared pool. It grows an operation by *granting*: dispatching one
  /// extra worker loop onto the operation's ThreadSource mid-run. Join()
  /// needs no changes — parked workers exit through the normal protocol,
  /// granted workers are counted live before dispatch.

  /// Asks up to `n` workers to park. Returns how many were actually
  /// requested: the operation always keeps at least one worker (liveness
  /// with bounded queues requires a consumer), and requests the current
  /// workers cannot absorb are not made. Wakes idle workers so a request
  /// is seen promptly even on a starved operation.
  size_t RequestPark(size_t n) EXCLUDES(exit_mu_, wait_mu_);

  /// Dispatches one extra worker loop onto the StartOn source. False when
  /// the operation runs private threads, has not started / already joined,
  /// is drained, or is at its worker capacity (max(num_threads,
  /// num_instances) live workers). Thread ids of exited workers are
  /// recycled, so repeated park/grant cycles never exhaust the stat slots.
  bool TryGrantWorker() EXCLUDES(exit_mu_);

  /// Worker loops currently live and not claiming a park (the
  /// rebalancer's activity signal).
  size_t active_workers() const EXCLUDES(exit_mu_);

  /// All producers done and queues drained: remaining workers are exiting
  /// on their own.
  bool drained() const {
    return producers_done_.load(std::memory_order_acquire) &&
           pending_.load(std::memory_order_acquire) <= 0;
  }

  /// Installs a hook invoked once per worker exit (natural drain or park;
  /// the flag says which), from the exiting worker itself, *before* the
  /// exit becomes visible to Join(). The executor points it at the
  /// ExecutionBoard so the pool slot backing the worker is credited back
  /// exactly when the thread frees. Must be set before Start()/StartOn().
  void set_exit_callback(std::function<void(bool parked)> cb) {
    exit_callback_ = std::move(cb);
  }

 private:
  friend class OperationEmitter;

  void WorkerLoop(size_t thread_id) EXCLUDES(wait_mu_, exit_mu_);

  /// Claims one outstanding park request for the calling worker. False
  /// when none are outstanding or the worker is the operation's last
  /// active one (the stale request is dropped then, so a lone worker
  /// never spins on an undeliverable request).
  bool TryClaimPark() EXCLUDES(exit_mu_);

  /// Marks `count` workers as live before any of them runs, so Join() can
  /// wait for pool-dispatched workers that have no joinable thread handle.
  void BeginWorkers(size_t count) EXCLUDES(exit_mu_);

  /// Enqueues `a` on `instance` and wakes a worker; the pending-counter
  /// update is paired with wait_mu_ so the wakeup cannot be lost between a
  /// worker's predicate check and its wait.
  void PushActivation(size_t instance, Activation a, const char* what)
      EXCLUDES(wait_mu_);

  /// Pops a batch from the best queue per the strategy; returns the number
  /// of activations, sets `*instance` to the queue the batch came from and
  /// `*units` to the tuple units acquired.
  size_t AcquireBatch(size_t thread_id, Rng& rng,
                      std::vector<Activation>* batch, size_t* instance,
                      size_t* units);

  /// Secondary scan for LPT threads: consult live queue sizes (largest
  /// remaining work first) instead of the frozen construction-time order.
  size_t ScanQueuesLiveLpt(size_t start, std::vector<Activation>* batch,
                           size_t* instance);

  /// Scans the visit order starting at `start`, pops from the first
  /// non-empty queue, restricted to main queues of `thread_id` when
  /// `main_only`.
  size_t ScanQueues(size_t start, size_t thread_id, bool main_only,
                    std::vector<Activation>* batch, size_t* instance);

  /// Returns every data activation's chunk buffer in `batch` to the
  /// execution's pool (no-op without one). Called after processing a batch
  /// and on the cancellation drain, closing the recycling cycle.
  void ReleaseBatchChunks(std::vector<Activation>* batch);

  OperationConfig config_;
  OperatorLogic* logic_;
  DataOutput output_;

  std::vector<std::unique_ptr<ActivationQueue>> queues_;
  /// Strategy-determined queue visit order (identity for Random, cost-sorted
  /// for LPT).
  std::vector<uint32_t> visit_order_;

  std::vector<std::thread> threads_;

  /// Worker-exit tracking: counts live worker loops regardless of whether
  /// they run on private threads or on a shared ThreadSource. Join() waits
  /// on this (plus the private-thread joins) so both start modes share one
  /// lifetime protocol. `started_` arms the destructor's defensive drain
  /// for pool-backed runs, where threads_ stays empty.
  mutable Mutex exit_mu_{"Operation::exit_mu"};
  CondVar exit_cv_;
  size_t live_workers_ GUARDED_BY(exit_mu_) = 0;
  bool started_ = false;

  /// Malleability state. park_requests_ is an atomic so the worker loop's
  /// fast path (one relaxed load per batch) stays lock-free; every write
  /// pairs with exit_mu_, which serializes it against the claim/grant
  /// bookkeeping. parking_ counts claims whose workers have not exited
  /// yet — the claim guard live_workers_ - parking_ > 1 is what keeps two
  /// workers from both taking the last park and leaving the operation
  /// consumer-less. Worker ids of exited workers recycle through
  /// free_worker_ids_ (the previous holder's exit happens-before the
  /// grant under exit_mu_, so per-thread stat slots accumulate safely).
  std::atomic<size_t> park_requests_{0};
  size_t parking_ GUARDED_BY(exit_mu_) = 0;
  size_t next_worker_id_ GUARDED_BY(exit_mu_) = 0;
  std::vector<size_t> free_worker_ids_ GUARDED_BY(exit_mu_);
  /// max(num_threads, num_instances): grants beyond the degree of
  /// partitioning would only idle (paper invariant), so the stat vectors
  /// are pre-sized to this and never reallocate under concurrency.
  size_t worker_capacity_ = 0;
  /// Distinct worker ids ever used (== num_threads without grants);
  /// stats() reports this many per-thread slots.
  std::atomic<size_t> worker_high_water_{0};
  /// The StartOn source, kept for mid-run grants (null = private threads,
  /// grants refused). Guarded by exit_mu_: the rebalance tick can probe
  /// TryGrantWorker before StartOn has published the source.
  ThreadSource* thread_source_ GUARDED_BY(exit_mu_) = nullptr;
  std::function<void(bool parked)> exit_callback_;

  /// Producer/consumer synchronization across all queues. pending_ counts
  /// queued tuple units (not activations) so bounded-queue back-pressure
  /// and drain detection keep their meaning under chunking. pending_ and
  /// producers_done_ stay atomics rather than GUARDED_BY(wait_mu_):
  /// workers read them lock-free on the acquire fast path; writes pair
  /// with wait_mu_ only to close the lost-wakeup window against a waiting
  /// worker's predicate check.
  ///
  /// waiting_workers_ is the push fast path's eventcount: a producer only
  /// pays the wait_mu_ acquisition and the condvar signal when a worker is
  /// actually parked. Both sides use seq_cst (Dekker pattern): the worker
  /// publishes waiting_workers_ before re-reading pending_, the producer
  /// publishes pending_ before reading waiting_workers_, so at least one
  /// of them sees the other — a worker can sleep through a push only if
  /// the push already saw and signalled a waiter.
  Mutex wait_mu_{"Operation::wait_mu"};
  CondVar work_cv_;
  std::atomic<int64_t> pending_{0};
  std::atomic<size_t> waiting_workers_{0};
  std::atomic<int64_t> open_producers_{0};
  std::atomic<bool> producers_done_{false};

  /// Stats. The per-thread vectors are written each by its own worker
  /// thread only and read after Join() (the join is the happens-before
  /// edge), so they need no atomics.
  std::vector<uint64_t> per_thread_processed_;
  std::vector<int64_t> per_thread_busy_ns_;
  std::vector<int64_t> per_thread_idle_ns_;
  std::unique_ptr<std::atomic<uint64_t>[]> per_instance_processed_;
  std::atomic<uint64_t> activations_{0};
  std::atomic<uint64_t> emitted_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> cancelled_units_{0};
  std::atomic<uint64_t> main_acquisitions_{0};
  std::atomic<uint64_t> secondary_acquisitions_{0};
  std::chrono::steady_clock::time_point start_time_;
  /// Nanoseconds from Start() to the slowest worker's exit (wall span).
  std::atomic<int64_t> wall_span_ns_{0};
};

}  // namespace dbs3

#endif  // DBS3_ENGINE_OPERATION_H_
