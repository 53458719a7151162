#include "engine/activation_queue.h"

#include <atomic>
#include <thread>

#include <gtest/gtest.h>

namespace dbs3 {
namespace {

Activation DataWithKey(int64_t key) {
  return Activation::DataChunk(TupleChunk{Tuple({Value(key)})});
}

TEST(ActivationQueueTest, FifoOrder) {
  ActivationQueue q;
  for (int64_t k = 0; k < 5; ++k) ASSERT_TRUE(q.Push(DataWithKey(k)));
  std::vector<Activation> out;
  EXPECT_EQ(q.PopBatch(10, &out), 5u);
  for (int64_t k = 0; k < 5; ++k) {
    EXPECT_EQ(out[static_cast<size_t>(k)].tuples.front().at(0).AsInt(), k);
  }
  EXPECT_TRUE(q.Empty());
}

TEST(ActivationQueueTest, PopBatchRespectsMax) {
  ActivationQueue q;
  for (int64_t k = 0; k < 10; ++k) ASSERT_TRUE(q.Push(DataWithKey(k)));
  std::vector<Activation> out;
  EXPECT_EQ(q.PopBatch(3, &out), 3u);
  EXPECT_EQ(q.Size(), 7u);
  EXPECT_EQ(q.PopBatch(100, &out), 7u);
  EXPECT_EQ(out.size(), 10u);
}

TEST(ActivationQueueTest, PopFromEmptyReturnsZero) {
  ActivationQueue q;
  std::vector<Activation> out;
  EXPECT_EQ(q.PopBatch(4, &out), 0u);
  EXPECT_TRUE(out.empty());
}

TEST(ActivationQueueTest, TriggerAndDataKindsPreserved) {
  ActivationQueue q;
  ASSERT_TRUE(q.Push(Activation::Trigger()));
  ASSERT_TRUE(q.Push(DataWithKey(9)));
  std::vector<Activation> out;
  ASSERT_EQ(q.PopBatch(2, &out), 2u);
  EXPECT_TRUE(out[0].is_trigger());
  EXPECT_FALSE(out[1].is_trigger());
  EXPECT_EQ(out[1].tuples.front().at(0).AsInt(), 9);
}

TEST(ActivationQueueTest, CloseRejectsFurtherPushes) {
  ActivationQueue q;
  ASSERT_TRUE(q.Push(DataWithKey(1)));
  q.Close();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.Push(DataWithKey(2)));
  // Queued items stay poppable after close.
  std::vector<Activation> out;
  EXPECT_EQ(q.PopBatch(10, &out), 1u);
}

TEST(ActivationQueueTest, BoundedPushBlocksUntilPop) {
  ActivationQueue q(/*capacity=*/2);
  ASSERT_TRUE(q.Push(DataWithKey(1)));
  ASSERT_TRUE(q.Push(DataWithKey(2)));
  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    ASSERT_TRUE(q.Push(DataWithKey(3)));  // Blocks while full.
    third_pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(third_pushed.load());
  std::vector<Activation> out;
  EXPECT_EQ(q.PopBatch(1, &out), 1u);  // Frees one slot.
  producer.join();
  EXPECT_TRUE(third_pushed.load());
  EXPECT_EQ(q.Size(), 2u);
}

TEST(ActivationQueueTest, CloseWakesBlockedProducer) {
  ActivationQueue q(/*capacity=*/1);
  ASSERT_TRUE(q.Push(DataWithKey(1)));
  std::atomic<bool> push_result{true};
  std::thread producer([&] { push_result.store(q.Push(DataWithKey(2))); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  q.Close();
  producer.join();
  EXPECT_FALSE(push_result.load());  // Push failed: queue closed.
}

Activation ChunkOf(size_t n) {
  TupleChunk chunk;
  for (size_t k = 0; k < n; ++k) {
    chunk.push_back(Tuple({Value(static_cast<int64_t>(k))}));
  }
  return Activation::DataChunk(std::move(chunk));
}

TEST(ActivationQueueTest, RejectedPushLeavesActivationIntact) {
  // The chunk-recycling contract: a rejected Push must leave the caller's
  // activation (and so its tuple buffer) intact, so the producer can
  // release the buffer back to the pool instead of leaking it into a
  // moved-from shell.
  ActivationQueue q;
  q.Close();
  Activation a = ChunkOf(3);
  const Tuple* buffer = a.tuples.data();
  EXPECT_FALSE(q.Push(std::move(a)));
  ASSERT_EQ(a.tuples.size(), 3u);
  EXPECT_EQ(a.tuples.data(), buffer);
  EXPECT_EQ(a.tuples.front().at(0).AsInt(), 0);
}

TEST(ActivationQueueTest, ApproxUnitsTracksPushAndPop) {
  ActivationQueue q;
  EXPECT_EQ(q.ApproxUnits(), 0u);
  ASSERT_TRUE(q.Push(ChunkOf(3)));
  ASSERT_TRUE(q.Push(DataWithKey(1)));
  EXPECT_EQ(q.ApproxUnits(), 4u);
  std::vector<Activation> out;
  EXPECT_EQ(q.PopBatch(10, &out), 2u);
  EXPECT_EQ(q.ApproxUnits(), 0u);
}

TEST(ActivationQueueTest, SizeCountsActivationsUnitsCountTuples) {
  ActivationQueue q;
  ASSERT_TRUE(q.Push(ChunkOf(3)));
  ASSERT_TRUE(q.Push(Activation::Trigger()));  // A trigger is one unit.
  ASSERT_TRUE(q.Push(DataWithKey(7)));
  EXPECT_EQ(q.Size(), 3u);
  EXPECT_EQ(q.SizeUnits(), 5u);
  std::vector<Activation> out;
  EXPECT_EQ(q.PopBatch(10, &out), 3u);
  EXPECT_EQ(q.SizeUnits(), 0u);
}

TEST(ActivationQueueTest, BoundedCapacityIsDenominatedInTuples) {
  // Capacity 4 tuples: a 3-tuple chunk fits, a second 3-tuple chunk must
  // wait for a pop even though only one *activation* is queued.
  ActivationQueue q(/*capacity=*/4);
  ASSERT_TRUE(q.Push(ChunkOf(3)));
  std::atomic<bool> second_pushed{false};
  std::thread producer([&] {
    ASSERT_TRUE(q.Push(ChunkOf(3)));
    second_pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(second_pushed.load());
  std::vector<Activation> out;
  EXPECT_EQ(q.PopBatch(1, &out), 1u);
  producer.join();
  EXPECT_TRUE(second_pushed.load());
  EXPECT_EQ(q.SizeUnits(), 3u);
}

TEST(ActivationQueueTest, OversizedChunkAdmittedWhenEmptyNotDeadlocked) {
  // The split-or-overshoot contract: a chunk larger than the whole capacity
  // is admitted once the queue is empty (transient overshoot) instead of
  // blocking forever. The engine's emitter clamps chunks to the capacity,
  // so this path only serves hand-built producers.
  ActivationQueue q(/*capacity=*/2);
  ASSERT_TRUE(q.Push(ChunkOf(5)));  // Empty queue: admitted immediately.
  EXPECT_EQ(q.SizeUnits(), 5u);
  // While the oversized chunk is in, further pushes wait for the drain.
  std::atomic<bool> second_pushed{false};
  std::thread producer([&] {
    ASSERT_TRUE(q.Push(DataWithKey(1)));
    second_pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(second_pushed.load());
  std::vector<Activation> out;
  EXPECT_EQ(q.PopBatch(1, &out), 1u);  // Drains to empty.
  producer.join();
  EXPECT_TRUE(second_pushed.load());
}

TEST(ActivationQueueTest, ConcurrentProducersConserveCount) {
  ActivationQueue q;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2'000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.Push(DataWithKey(p * kPerProducer + i)));
      }
    });
  }
  std::atomic<uint64_t> consumed{0};
  std::vector<std::thread> consumers;
  std::atomic<bool> done{false};
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      std::vector<Activation> out;
      while (!done.load() || !q.Empty()) {
        out.clear();
        consumed.fetch_add(q.PopBatch(16, &out));
      }
    });
  }
  for (auto& t : producers) t.join();
  done.store(true);
  for (auto& t : consumers) t.join();
  EXPECT_EQ(consumed.load(),
            static_cast<uint64_t>(kProducers) * kPerProducer);
}

}  // namespace
}  // namespace dbs3
