#include "engine/operation.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"
#include "common/mutex.h"

namespace dbs3 {

/// Routes tuples emitted while processing an activation to the consumer
/// operation, per the plan edge (same-instance or repartition-by-column).
///
/// The emitter keeps one buffer per destination instance and pushes a whole
/// TupleChunk when a buffer reaches chunk_size, amortizing the consumer's
/// queue-mutex acquisition and condition-variable notify over the chunk
/// (the producer-side mirror of the paper's internal activation cache).
/// chunk_size == 1 flushes after every tuple — the paper's per-tuple mode.
///
/// Buffers come from the execution's ChunkPool: a recycled buffer arrives
/// with its Tuple elements intact, and the emitter overwrites those slots in
/// place (EmitCopy / EmitConcat assign into the slot; Emit move-assigns), so
/// a warm producer->consumer->pool cycle allocates neither chunk vectors nor
/// — when slot capacities suffice — tuple value storage.
class OperationEmitter : public Emitter {
 public:
  explicit OperationEmitter(Operation* op)
      : op_(op),
        consumer_(op->output_.consumer),
        pool_(op->config_.chunk_pool) {
    if (consumer_ != nullptr) {
      chunk_size_ = std::max<size_t>(1, op_->config_.chunk_size);
      // Split-chunks contract: never emit a chunk a bounded consumer queue
      // could not admit within its capacity.
      const size_t cap = consumer_->config_.queue_capacity;
      if (cap > 0 && chunk_size_ > cap) chunk_size_ = cap;
      buffers_.resize(consumer_->config_.num_instances);
    }
  }

  ~OperationEmitter() override { Flush(); }

  void Emit(size_t producer_instance, Tuple tuple) override {
    op_->emitted_.fetch_add(1, std::memory_order_relaxed);
    if (consumer_ == nullptr) return;  // Terminal operation: discard.
    const size_t dest = DestOf(producer_instance, tuple);
    // Move-assign into the slot: adopts the tuple's storage, no copy.
    *NextSlot(dest) = std::move(tuple);
    CommitSlot(dest);
  }

  void EmitCopy(size_t producer_instance, const Tuple& tuple) override {
    op_->emitted_.fetch_add(1, std::memory_order_relaxed);
    if (consumer_ == nullptr) return;
    const size_t dest = DestOf(producer_instance, tuple);
    NextSlot(dest)->AssignFrom(tuple);
    CommitSlot(dest);
  }

  void EmitConcat(size_t producer_instance, const Tuple& left,
                  const Tuple& right) override {
    op_->emitted_.fetch_add(1, std::memory_order_relaxed);
    if (consumer_ == nullptr) return;
    const DataOutput& out = op_->output_;
    size_t dest = producer_instance;
    if (out.route == DataOutput::Route::kByColumn) {
      // The route column indexes the concatenated output row; resolve it
      // against the half it falls in without materializing the row.
      const Value& key = out.column < left.size()
                             ? left.at(out.column)
                             : right.at(out.column - left.size());
      dest = out.partitioner.FragmentOf(key);
    }
    NextSlot(dest)->AssignConcat(left, right);
    CommitSlot(dest);
  }

  void EmitSelect(size_t producer_instance, const Tuple& src,
                  std::span<const size_t> columns) override {
    op_->emitted_.fetch_add(1, std::memory_order_relaxed);
    if (consumer_ == nullptr) return;
    const DataOutput& out = op_->output_;
    size_t dest = producer_instance;
    if (out.route == DataOutput::Route::kByColumn) {
      // The route column indexes the projected output row; resolve it to
      // the source column without materializing the row.
      dest = out.partitioner.FragmentOf(src.at(columns[out.column]));
    }
    NextSlot(dest)->AssignSelect(src, columns);
    CommitSlot(dest);
  }

  /// Pushes every residual (partially filled) buffer downstream. Called
  /// when the producing worker exits and after OnFinish emissions, so no
  /// tuple outlives its producer inside an emitter buffer.
  void Flush() {
    for (size_t dest = 0; dest < buffers_.size(); ++dest) {
      FlushBuffer(dest);
    }
  }

 private:
  /// One outgoing chunk per consumer instance. `used` is the logical fill:
  /// a recycled chunk may hold more (reusable) elements than have been
  /// overwritten so far.
  struct Buffer {
    TupleChunk chunk;
    size_t used = 0;
  };

  size_t DestOf(size_t producer_instance, const Tuple& tuple) const {
    const DataOutput& out = op_->output_;
    if (out.route == DataOutput::Route::kByColumn) {
      return out.partitioner.FragmentOf(tuple.at(out.column));
    }
    return producer_instance;
  }

  /// The next output slot of `dest`'s buffer: a recycled element to
  /// overwrite when one is available, else a freshly appended Tuple.
  /// Acquires a buffer (from the pool when the operation has one) on first
  /// use after a flush.
  Tuple* NextSlot(size_t dest) {
    Buffer& b = buffers_[dest];
    if (b.used == 0 && b.chunk.capacity() == 0) {
      if (pool_ != nullptr) {
        b.chunk = pool_->Acquire(chunk_size_);
      } else {
        b.chunk.reserve(chunk_size_);
      }
    }
    if (b.used < b.chunk.size()) return &b.chunk[b.used];
    return &b.chunk.emplace_back();
  }

  void CommitSlot(size_t dest) {
    Buffer& b = buffers_[dest];
    ++b.used;
    if (b.used >= chunk_size_) FlushBuffer(dest);
  }

  void FlushBuffer(size_t dest) {
    Buffer& b = buffers_[dest];
    if (b.used == 0) return;
    // Trim leftover recycled elements so the activation's unit count is
    // exactly the tuples written this round.
    if (b.chunk.size() > b.used) b.chunk.resize(b.used);
    consumer_->PushDataChunk(dest, std::move(b.chunk));
    b.chunk = TupleChunk{};
    b.used = 0;
  }

  Operation* op_;
  Operation* consumer_;
  ChunkPool* pool_;
  size_t chunk_size_ = 1;
  std::vector<Buffer> buffers_;
};

Operation::Operation(OperationConfig config, OperatorLogic* logic,
                     DataOutput output)
    : config_(std::move(config)), logic_(logic), output_(output) {
  assert(config_.num_instances >= 1);
  assert(config_.num_threads >= 1);
  assert(config_.cache_size >= 1);
  assert(config_.chunk_size >= 1);
  queues_.reserve(config_.num_instances);
  for (size_t i = 0; i < config_.num_instances; ++i) {
    queues_.push_back(
        std::make_unique<ActivationQueue>(config_.queue_capacity));
  }
  visit_order_ = QueueVisitOrder(config_.strategy, config_.cost_estimates,
                                 config_.num_instances);
  // Stat slots are pre-sized to the worker capacity (threads plus any
  // mid-run grants up to the instance count) so a granted worker never
  // races a vector reallocation with running peers.
  worker_capacity_ = std::max(config_.num_threads, config_.num_instances);
  worker_high_water_.store(config_.num_threads, std::memory_order_relaxed);
  per_thread_processed_.assign(worker_capacity_, 0);
  per_thread_busy_ns_.assign(worker_capacity_, 0);
  per_thread_idle_ns_.assign(worker_capacity_, 0);
  per_instance_processed_ =
      std::make_unique<std::atomic<uint64_t>[]>(config_.num_instances);
  for (size_t i = 0; i < config_.num_instances; ++i) {
    per_instance_processed_[i].store(0);
  }
}

Operation::~Operation() {
  // Defensive: a well-formed executor always Joins explicitly.
  if (started_) {
    for (auto& q : queues_) q->Close();
    {
      // The flag write must pair with wait_mu_, exactly like ProducerDone:
      // an unpaired store+notify can land between a worker's predicate
      // check and its wait, losing the wakeup and hanging the Join below.
      MutexLock lock(&wait_mu_);
      producers_done_.store(true);
    }
    work_cv_.SignalAll();
    Join();
  }
}

void Operation::AddProducer() {
  assert(threads_.empty() && "producers must be wired before Start()");
  open_producers_.fetch_add(1);
}

void Operation::ProducerDone() {
  const int64_t left = open_producers_.fetch_sub(1) - 1;
  assert(left >= 0);
  if (left == 0) {
    for (auto& q : queues_) q->Close();
    {
      // Pairing the flag write with the wait mutex prevents a lost wakeup
      // between a worker's predicate check and its wait.
      MutexLock lock(&wait_mu_);
      producers_done_.store(true);
    }
    work_cv_.SignalAll();
  }
}

void Operation::PushActivation(size_t instance, Activation a,
                               const char* what) {
  assert(instance < queues_.size());
  const int64_t units = static_cast<int64_t>(a.unit_count());
  if (!queues_[instance]->Push(std::move(a))) {
    // Only cancelled/abandoned executions reach this; the drop is counted
    // (stats().dropped, surfaced per execution) so it is never silent.
    dropped_.fetch_add(units > 0 ? static_cast<uint64_t>(units) : 1,
                       std::memory_order_relaxed);
    DBS3_LOG(kWarning) << what << " dropped: queue " << instance
                       << " of operation '" << config_.name << "' is closed";
    // A rejected Push leaves the activation intact — reclaim its buffer so
    // cancellation doesn't leak chunks out of the recycling cycle.
    if (!a.is_trigger() && config_.chunk_pool != nullptr) {
      config_.chunk_pool->Release(std::move(a.tuples));
    }
    return;
  }
  // Eventcount fast path: publish the units (seq_cst), then only pay the
  // mutex + signal when a worker is actually parked. A worker announces
  // itself in waiting_workers_ (seq_cst, under wait_mu_) *before* its final
  // predicate check, so either that check sees these units or this load
  // sees the waiter — the lost-wakeup window stays closed without
  // serializing every push through wait_mu_.
  pending_.fetch_add(units, std::memory_order_seq_cst);
  if (waiting_workers_.load(std::memory_order_seq_cst) > 0) {
    // Taking (and releasing) the mutex fences against a waiter between its
    // predicate check and its wait; signal after unlock per the codebase's
    // discipline.
    { MutexLock lock(&wait_mu_); }
    work_cv_.Signal();
  }
}

void Operation::PushDataChunk(size_t instance, TupleChunk tuples) {
  if (tuples.empty()) return;
  PushActivation(instance, Activation::DataChunk(std::move(tuples)),
                 "data chunk");
}

void Operation::PushTrigger(size_t instance) {
  PushActivation(instance, Activation::Trigger(), "trigger");
}

void Operation::BeginWorkers(size_t count) {
  MutexLock lock(&exit_mu_);
  live_workers_ = count;
  next_worker_id_ = count;
}

void Operation::Start() {
  assert(!started_);
  started_ = true;
  start_time_ = std::chrono::steady_clock::now();
  BeginWorkers(config_.num_threads);
  threads_.reserve(config_.num_threads);
  for (size_t t = 0; t < config_.num_threads; ++t) {
    threads_.emplace_back([this, t] { WorkerLoop(t); });
  }
}

void Operation::StartOn(ThreadSource* source) {
  assert(!started_);
  assert(source != nullptr);
  started_ = true;
  // Remembering the source lets the rebalancer grant extra workers into
  // this operation mid-run (TryGrantWorker dispatches on it). Published
  // under exit_mu_: the rebalance tick may probe concurrently.
  {
    MutexLock lock(&exit_mu_);
    thread_source_ = source;
  }
  start_time_ = std::chrono::steady_clock::now();
  // All workers are marked live before the first dispatch: a worker that
  // runs and exits immediately must not let Join() observe a 0 count while
  // later workers are still being handed to the pool.
  BeginWorkers(config_.num_threads);
  for (size_t t = 0; t < config_.num_threads; ++t) {
    source->Dispatch([this, t] { WorkerLoop(t); });
  }
}

void Operation::Join() {
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  {
    // Pool-dispatched workers have no thread handle; their exit is the
    // count reaching zero. Private-thread runs pass through trivially.
    MutexLock lock(&exit_mu_);
    while (live_workers_ > 0) exit_cv_.Wait(&exit_mu_);
  }
  started_ = false;
}

size_t Operation::RequestPark(size_t n) {
  size_t granted = 0;
  {
    MutexLock lock(&exit_mu_);
    if (live_workers_ == 0) return 0;
    const size_t active = live_workers_ - parking_;
    const size_t outstanding = park_requests_.load(std::memory_order_relaxed);
    // Never ask for more parks than would leave one active worker after all
    // outstanding requests are honored — the last worker must keep draining.
    const size_t parkable =
        active > outstanding + 1 ? active - outstanding - 1 : 0;
    granted = std::min(n, parkable);
    if (granted == 0) return 0;
    park_requests_.store(outstanding + granted, std::memory_order_release);
  }
  // Wake idle workers so they observe the request at their wait predicate;
  // empty critical section fences against a waiter between its predicate
  // check and its wait (same pattern as PushActivation).
  { MutexLock lock(&wait_mu_); }
  work_cv_.SignalAll();
  return granted;
}

bool Operation::TryClaimPark() {
  MutexLock lock(&exit_mu_);
  const size_t outstanding = park_requests_.load(std::memory_order_relaxed);
  if (outstanding == 0) return false;
  if (live_workers_ - parking_ <= 1) {
    // Last active worker: drop the stale request entirely rather than
    // retaining it — a retained request would spin this worker between its
    // wait predicate (which the request satisfies) and this refusal.
    park_requests_.store(outstanding - 1, std::memory_order_release);
    return false;
  }
  park_requests_.store(outstanding - 1, std::memory_order_release);
  ++parking_;
  return true;
}

bool Operation::TryGrantWorker() {
  size_t id = 0;
  ThreadSource* source = nullptr;
  {
    MutexLock lock(&exit_mu_);
    // Only pool-dispatched operations can grow; private threads (Start())
    // have nowhere to dispatch a new loop. Read under exit_mu_ — the
    // rebalance tick can race StartOn publishing the source.
    source = thread_source_;
    if (source == nullptr) return false;
    // live_workers_ > 0 doubles as the "still running" check: reading
    // started_ here would race the executor's Join epilogue.
    if (live_workers_ == 0) return false;
    if (producers_done_.load(std::memory_order_acquire) &&
        pending_.load(std::memory_order_acquire) <= 0) {
      return false;  // Drained: a new worker would exit immediately.
    }
    if (!free_worker_ids_.empty()) {
      id = free_worker_ids_.back();
      free_worker_ids_.pop_back();
    } else if (next_worker_id_ < worker_capacity_) {
      id = next_worker_id_++;
      worker_high_water_.store(next_worker_id_, std::memory_order_release);
    } else {
      return false;  // At capacity: no free stat slot for another worker.
    }
    ++live_workers_;
  }
  source->Dispatch([this, id] { WorkerLoop(id); });
  return true;
}

size_t Operation::active_workers() const {
  MutexLock lock(&exit_mu_);
  return live_workers_ - parking_;
}

void Operation::Finish() {
  OperationEmitter emitter(this);
  for (size_t i = 0; i < config_.num_instances; ++i) {
    logic_->OnFinish(i, &emitter);
  }
  emitter.Flush();
}

OperationStats Operation::stats() const {
  OperationStats s;
  s.name = config_.name;
  s.per_thread_processed = per_thread_processed_;
  s.per_instance_processed.resize(config_.num_instances);
  for (size_t i = 0; i < config_.num_instances; ++i) {
    s.per_instance_processed[i] = per_instance_processed_[i].load();
  }
  s.activations = activations_.load();
  s.emitted = emitted_.load();
  s.dropped = dropped_.load();
  s.cancelled_units = cancelled_units_.load();
  s.main_queue_acquisitions = main_acquisitions_.load();
  s.secondary_queue_acquisitions = secondary_acquisitions_.load();
  s.wall_span_seconds = static_cast<double>(wall_span_ns_.load()) * 1e-9;
  for (const auto& q : queues_) s.queue_rejected_units += q->rejected_units();
  // Report one slot per distinct worker id ever used: granted workers get
  // their own slots past num_threads (reused ids accumulate in place).
  const size_t workers =
      std::max(config_.num_threads,
               worker_high_water_.load(std::memory_order_acquire));
  s.per_thread_processed.resize(workers);
  s.per_thread_busy_seconds.reserve(workers);
  s.per_thread_idle_seconds.reserve(workers);
  for (size_t t = 0; t < workers; ++t) {
    const double busy = static_cast<double>(per_thread_busy_ns_[t]) * 1e-9;
    s.per_thread_busy_seconds.push_back(busy);
    s.per_thread_idle_seconds.push_back(
        static_cast<double>(per_thread_idle_ns_[t]) * 1e-9);
    s.busy_seconds += busy;
  }
  for (const auto& q : queues_) {
    s.queue_acquisitions += q->total_acquisitions();
    s.queue_contended += q->contended_acquisitions();
    s.peak_queue_units = std::max(s.peak_queue_units, q->peak_units());
  }
  return s;
}

void Operation::WorkerLoop(size_t thread_id) {
  Rng rng(config_.seed * 0x9e3779b97f4a7c15ULL + thread_id + 1);
  OperationEmitter emitter(this);
  TraceBuffer* trace =
      config_.tracer != nullptr
          ? config_.tracer->AddBuffer(config_.name,
                                      static_cast<uint32_t>(thread_id))
          : nullptr;
  const auto worker_start = std::chrono::steady_clock::now();
  int64_t busy_ns = 0;
  bool parked = false;
  std::vector<Activation> batch;
  batch.reserve(config_.cache_size);
  while (true) {
    // Park point: activation boundaries are the only places a worker gives
    // its thread back, mirroring how cancellation drains between batches.
    // The claim is refused (and the stale request dropped) when this is the
    // operation's last active worker.
    if (park_requests_.load(std::memory_order_acquire) > 0 &&
        TryClaimPark()) {
      parked = true;
      break;
    }
    batch.clear();
    size_t instance = 0;
    size_t units = 0;
    const size_t got = AcquireBatch(thread_id, rng, &batch, &instance,
                                    &units);
    if (got == 0) {
      bool drained_and_done = false;
      {
        MutexLock lock(&wait_mu_);
        // Announce the (imminent) wait before re-checking the predicate —
        // the producer-side eventcount in PushActivation relies on this
        // order (see the waiting_workers_ comment in the header).
        // A pending park request also ends the wait: parking must not stall
        // behind an idle (but not yet done) producer.
        waiting_workers_.fetch_add(1, std::memory_order_seq_cst);
        while (pending_.load(std::memory_order_seq_cst) <= 0 &&
               !producers_done_.load() &&
               park_requests_.load(std::memory_order_acquire) == 0) {
          work_cv_.Wait(&wait_mu_);
        }
        waiting_workers_.fetch_sub(1, std::memory_order_seq_cst);
        drained_and_done = pending_.load(std::memory_order_acquire) <= 0 &&
                           producers_done_.load();
      }
      if (drained_and_done) break;
      continue;
    }
    if (config_.cancel.ShouldStop()) {
      // Cancelled execution: keep draining so bounded queues unblock their
      // producers and the executor's drain protocol terminates, but dispose
      // of the units without invoking operator logic. They land in their
      // own conservation-ledger bucket instead of `processed`.
      cancelled_units_.fetch_add(units, std::memory_order_relaxed);
      ReleaseBatchChunks(&batch);
      continue;
    }
    // Busy time is measured per acquired batch, not per tuple: two clock
    // reads amortized over the whole batch keep the accounting overhead off
    // the per-tuple path.
    const auto t_begin = std::chrono::steady_clock::now();
    for (Activation& a : batch) {
      if (a.is_trigger()) {
        logic_->OnTrigger(instance, &emitter);
      } else {
        logic_->OnDataBatch(instance, std::span<Tuple>(a.tuples), &emitter);
      }
    }
    const auto t_end = std::chrono::steady_clock::now();
    busy_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                   t_end - t_begin)
                   .count();
    if (trace != nullptr) {
      trace->Record(static_cast<uint32_t>(instance), t_begin, t_end,
                    static_cast<uint32_t>(units),
                    static_cast<uint32_t>(got));
    }
    per_thread_processed_[thread_id] += units;
    per_instance_processed_[instance].fetch_add(units,
                                                std::memory_order_relaxed);
    activations_.fetch_add(got, std::memory_order_relaxed);
    ReleaseBatchChunks(&batch);
  }
  // Residual chunks must reach the consumer before this producer counts as
  // exited (the executor signals the consumer's ProducerDone after Join).
  emitter.Flush();
  const auto now = std::chrono::steady_clock::now();
  // Accumulate (not assign): a granted worker may reuse the id of an
  // earlier, already-exited worker. The reuse is exit-ordered through
  // exit_mu_ (the id is only handed out after the previous holder's exit
  // section below), so plain += does not race.
  per_thread_busy_ns_[thread_id] += busy_ns;
  per_thread_idle_ns_[thread_id] +=
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - worker_start)
          .count() -
      busy_ns;
  // Track the exit time of the slowest worker as the operation's wall span.
  const int64_t span =
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - start_time_)
          .count();
  int64_t prev = wall_span_ns_.load();
  while (prev < span && !wall_span_ns_.compare_exchange_weak(prev, span)) {
  }
  // The exit callback fires before the exit becomes visible to Join(): the
  // board must credit the freed pool slot before the executor can finish
  // joining and unregister this execution.
  if (exit_callback_) exit_callback_(parked);
  {
    MutexLock lock(&exit_mu_);
    if (parked) --parking_;
    free_worker_ids_.push_back(thread_id);
    --live_workers_;
    // Signal while still holding exit_mu_ — the exception to the
    // signal-after-unlock discipline. Once live_workers_ hits 0, Join()
    // may return and the Operation be destroyed the moment we drop the
    // lock; signaling after the unlock would touch a dead CondVar. Under
    // the lock, the waiter cannot observe the decrement (and destroy us)
    // until SignalAll has already returned.
    exit_cv_.SignalAll();
  }
}

void Operation::ReleaseBatchChunks(std::vector<Activation>* batch) {
  if (config_.chunk_pool == nullptr) return;
  for (Activation& a : *batch) {
    if (!a.is_trigger()) config_.chunk_pool->Release(std::move(a.tuples));
  }
}

size_t Operation::AcquireBatch(size_t thread_id, Rng& rng,
                               std::vector<Activation>* batch,
                               size_t* instance, size_t* units) {
  // Random threads scan from a random queue; LPT threads from a start
  // staggered by thread id, so concurrent scans fan out instead of every
  // thread hammering visit_order_[0]'s mutex first. Granted workers (ids
  // beyond num_threads) fold onto a lane so the stagger and main-queue
  // ownership math stay within the original thread count.
  const size_t lane = thread_id % config_.num_threads;
  const size_t start = config_.strategy == Strategy::kRandom
                           ? rng.Below(queues_.size())
                           : (lane * queues_.size()) / config_.num_threads;
  // Main queues first; fall back to any queue (the paper's secondary scan).
  size_t got = 0;
  bool from_main = false;
  if (config_.use_main_queues) {
    got = ScanQueues(start, thread_id, /*main_only=*/true, batch, instance);
    from_main = got > 0;
  }
  if (got == 0) {
    // LPT steals by live remaining work, not the frozen construction-time
    // estimate order: mid-run, what matters is which queue is fullest now.
    got = config_.strategy == Strategy::kLpt
              ? ScanQueuesLiveLpt(start, batch, instance)
              : ScanQueues(start, thread_id, /*main_only=*/false, batch,
                           instance);
  }
  *units = 0;
  if (got > 0) {
    (from_main ? main_acquisitions_ : secondary_acquisitions_)
        .fetch_add(1, std::memory_order_relaxed);
    for (size_t k = batch->size() - got; k < batch->size(); ++k) {
      *units += (*batch)[k].unit_count();
    }
    pending_.fetch_sub(static_cast<int64_t>(*units));
  }
  return got;
}

size_t Operation::ScanQueuesLiveLpt(size_t start,
                                    std::vector<Activation>* batch,
                                    size_t* instance) {
  // A failed main scan usually means the operation is drained (the worker
  // is about to sleep on work_cv_); don't pay a full size snapshot of every
  // queue just to confirm that. Same predicate as the wait loop, so a push
  // racing past this check still wakes a worker for a fresh scan.
  if (pending_.load(std::memory_order_acquire) <= 0) {
    return 0;
  }
  const size_t n = queues_.size();
  std::vector<size_t> live(n);
  // Advisory lock-free sizes: the snapshot only orders the scan, and stale
  // entries are tolerated below either way.
  for (size_t q = 0; q < n; ++q) live[q] = queues_[q]->ApproxUnits();
  const std::vector<uint32_t> order =
      LiveLptOrder(live, config_.cost_estimates, start);
  // NOLINTNEXTLINE(dbs3-cancel-check-in-consume-loop) // bounded single sweep (one PopBatch attempt per queue); WorkerLoop consults the token between batches
  for (uint32_t q : order) {
    // The snapshot is advisory: a queue seen non-empty may have been drained
    // by a peer, so keep scanning past stale entries (empty queues sort
    // last, which also makes this a full fallback scan).
    const size_t got = queues_[q]->PopBatch(config_.cache_size, batch);
    if (got > 0) {
      *instance = q;
      return got;
    }
  }
  return 0;
}

size_t Operation::ScanQueues(size_t start, size_t thread_id, bool main_only,
                             std::vector<Activation>* batch,
                             size_t* instance) {
  const size_t n = queues_.size();
  // Granted workers share the main-queue lane of the thread id they fold
  // onto (see AcquireBatch).
  const size_t lane = thread_id % config_.num_threads;
  // NOLINTNEXTLINE(dbs3-cancel-check-in-consume-loop) // bounded single sweep (one PopBatch attempt per queue); WorkerLoop consults the token between batches
  for (size_t k = 0; k < n; ++k) {
    const uint32_t q = visit_order_[(start + k) % n];
    // Queues are distributed to threads round-robin: queue q is the main
    // queue of thread q mod ThreadNb (paper: "all activation queues are
    // equally distributed among the associated threads").
    if (main_only && q % config_.num_threads != lane) continue;
    // Lock-free emptiness peek: sweeping all-idle queues must not cost one
    // mutex acquisition per queue. A push racing past the peek is caught by
    // the pending/work_cv re-scan, never lost.
    if (queues_[q]->ApproxUnits() == 0) continue;
    const size_t got = queues_[q]->PopBatch(config_.cache_size, batch);
    if (got > 0) {
      *instance = q;
      return got;
    }
  }
  return 0;
}

}  // namespace dbs3
