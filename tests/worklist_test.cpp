// The work-stealing scheduler's contract (core/worklist.hpp):
//   * exactly-once execution -- every index in [0, count) runs once, at
//     any thread count, with or without cost estimates, across chunk/bin
//     boundary shapes (empty, one item, fewer items than workers, many
//     chunks per worker);
//   * sequential semantics -- a resolved thread count of 1 runs inline in
//     index order, cost estimates ignored (fail-fast callers depend on
//     this);
//   * stealing -- an idle worker takes chunks from a loaded one (observed
//     through WorklistStats::steals with a deliberately imbalanced batch);
//   * resolve_threads -- the one thread-resolution rule BatchExecutor and
//     run_worklist share, so threads_used == workers spawned.
// The suite rides in ci.sh's ThreadSanitizer stage: exactly-once under
// TSan is the race check for the deque/steal paths.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "core/worklist.hpp"

namespace treesat {
namespace {

TEST(Worklist, EveryIndexRunsExactlyOnce) {
  for (const std::size_t count : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                                  std::size_t{64}, std::size_t{257}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      // Distinct indices write distinct slots, so plain ints are race-free
      // exactly when the exactly-once contract holds (TSan enforces it).
      std::vector<int> hits(count, 0);
      std::atomic<std::size_t> total{0};
      WorklistOptions options;
      options.threads = threads;
      const WorklistStats stats = run_worklist(count, options, [&](std::size_t i) {
        ++hits[i];
        total.fetch_add(1, std::memory_order_relaxed);
      });
      EXPECT_EQ(total.load(), count) << "count=" << count << " threads=" << threads;
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(hits[i], 1) << "index " << i << " at count=" << count
                              << " threads=" << threads;
      }
      EXPECT_EQ(stats.threads_used, resolve_threads(threads, count));
    }
  }
}

TEST(Worklist, CostOrderedRunsEveryIndexOnceThroughPriorityBins) {
  const std::size_t count = 113;  // prime: exercises ragged bin/chunk edges
  std::vector<double> cost(count);
  for (std::size_t i = 0; i < count; ++i) {
    cost[i] = static_cast<double>((i * 7919) % 101);  // scrambled, with ties
  }
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    std::vector<int> hits(count, 0);
    WorklistOptions options;
    options.threads = threads;
    options.cost = cost;
    const WorklistStats stats =
        run_worklist(count, options, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(hits[i], 1) << "index " << i << " at threads=" << threads;
    }
    EXPECT_GT(stats.bins_used, 1u);
    EXPECT_LE(stats.bins_used, count);
    EXPECT_GT(stats.chunks, 0u);
  }
}

TEST(Worklist, SequentialRunsInIndexOrderAndIgnoresCost) {
  const std::size_t count = 16;
  // Ascending cost would schedule 15, 14, ... first on a parallel pool;
  // one thread must still run 0, 1, 2, ... (documented sequential
  // semantics: ordering is a wall-clock optimization only).
  std::vector<double> cost(count);
  std::iota(cost.begin(), cost.end(), 0.0);
  std::vector<std::size_t> order;
  WorklistOptions options;
  options.threads = 1;
  options.cost = cost;
  const WorklistStats stats =
      run_worklist(count, options, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), count);
  for (std::size_t i = 0; i < count; ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(stats.threads_used, 1u);
  EXPECT_EQ(stats.steals, 0u);
}

TEST(Worklist, IdleWorkerStealsFromALoadedOne) {
  // 32 items on 2 workers, 4 chunks each. The very first task *started* --
  // whichever worker grabs it -- stalls long enough for the other worker
  // to drain its own deque and come stealing the stalled worker's three
  // remaining chunks. (Keying the stall on "first started" rather than on
  // an index keeps the test independent of how chunks are dealt and of
  // the LIFO pop order.)
  const std::size_t count = 32;
  std::atomic<int> started{0};
  WorklistOptions options;
  options.threads = 2;
  const WorklistStats stats = run_worklist(count, options, [&](std::size_t) {
    if (started.fetch_add(1, std::memory_order_relaxed) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
  });
  EXPECT_EQ(stats.threads_used, 2u);
  EXPECT_GE(stats.steals, 1u);
}

TEST(Worklist, CostSpanMustCoverEveryItem) {
  const std::vector<double> cost(3, 1.0);
  WorklistOptions options;
  options.threads = 2;
  options.cost = cost;
  EXPECT_THROW(static_cast<void>(run_worklist(5, options, [](std::size_t) {})),
               InvalidArgument);
}

TEST(Worklist, CostBlindRunCoversEveryIndex) {
  std::vector<int> hits(40, 0);
  WorklistOptions options;
  options.threads = 4;
  static_cast<void>(run_worklist(hits.size(), options, [&](std::size_t i) { ++hits[i]; }));
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i], 1) << i;
}

TEST(Worklist, ResolveThreadsIsTheOneClampingRule) {
  // 0 = one worker per hardware thread, never resolving to 0 itself.
  EXPECT_GE(resolve_threads(0, 100), 1u);
  EXPECT_LE(resolve_threads(0, 100), 100u);
  // Never more workers than items...
  EXPECT_EQ(resolve_threads(8, 3), 3u);
  EXPECT_EQ(resolve_threads(2, 100), 2u);
  // ...but always at least one, even for an empty or auto request.
  EXPECT_EQ(resolve_threads(3, 0), 1u);
  EXPECT_EQ(resolve_threads(0, 0), 1u);
  EXPECT_EQ(resolve_threads(1, 1), 1u);
}

}  // namespace
}  // namespace treesat
