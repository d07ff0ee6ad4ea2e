// The work-stealing scheduler behind every parallel loop in treesat.
//
// run_worklist() executes task(i) for every i in [0, count) on a pool of
// workers built around per-thread chunked deques (the Galois idiom):
//
//   * Chunked deques. The schedule is cut into small chunks of indices;
//     each worker owns a deque of chunks per priority bin. A worker pops
//     from the back of its own deque (LIFO -- the hot end it just pushed)
//     and thieves steal whole chunks from the front (FIFO -- the cold
//     end), so owner and thieves contend on opposite ends.
//   * Randomized stealing. An out-of-work worker probes the other queues
//     starting from a pseudo-random victim; the probe sequence comes from
//     a splitmix64 stream seeded by the worker's own id, so runs are
//     reproducible under identical interleavings and no global RNG state
//     is shared.
//   * Priority bins. When per-item cost estimates are supplied the items
//     are sorted largest-first and bucketed into priority bins (the OBIM
//     shape); workers drain bin 0 (the most expensive items) before
//     touching bin 1, both locally and when stealing. Longest-first
//     scheduling is what keeps one huge item claimed last from
//     serializing the tail of a batch.
//
// Determinism contract: the scheduler decides only *when and where* an
// item runs, never what it computes. Callers keep results a pure function
// of their inputs by making task(i) independent of every other index and
// combining results in index order after the join -- exactly what
// BatchExecutor (core/executor.hpp) does, so reports stay byte-identical
// at any thread count, with or without cost-ordered scheduling.
#pragma once

#include <cstddef>
#include <functional>
#include <span>

namespace treesat {

/// The one thread-count resolution rule, shared by run_worklist and
/// BatchExecutor so `threads_used` can never disagree with the workers
/// actually spawned: 0 means one worker per hardware thread (itself
/// clamped to 1 when hardware_concurrency() reports 0), and the result is
/// clamped to [1, max(count, 1)] -- never more workers than items.
[[nodiscard]] std::size_t resolve_threads(std::size_t requested, std::size_t count);

/// Scheduling knobs of one run_worklist call.
struct WorklistOptions {
  /// Worker threads; 0 = one per hardware thread (see resolve_threads).
  /// A resolved count <= 1 runs inline on the calling thread in index
  /// order 0..count-1 -- the sequential semantics fail-fast callers rely
  /// on (cost ordering is a wall-clock optimization and moot on one
  /// thread).
  std::size_t threads = 1;
  /// Per-item cost estimates (size() must equal count when non-empty).
  /// Items are scheduled largest-cost-first through the priority bins;
  /// ties break toward the smaller index. Empty = input order, one bin.
  std::span<const double> cost = {};
  /// Priority-bin count used when `cost` is present (clamped to
  /// [1, count]). More bins = stricter cost ordering, more scan overhead.
  std::size_t bins = 8;
};

/// What one run did -- observability for tests and benches, not part of
/// any result (wall-clock-dependent fields like `steals` vary run to run).
struct WorklistStats {
  std::size_t threads_used = 1;  ///< workers actually spawned
  std::size_t bins_used = 1;     ///< priority bins after clamping
  std::size_t chunks = 0;        ///< chunks dealt across all deques
  std::size_t steals = 0;        ///< chunks taken from another worker's deque
};

/// Runs task(i) for every i in [0, count) exactly once on the stealing
/// pool described above. `task` must be safe to call concurrently for
/// distinct indices and must not throw -- capture exceptions per index
/// and rethrow after the join (deterministically, e.g. smallest index
/// first), as BatchExecutor does.
WorklistStats run_worklist(std::size_t count, const WorklistOptions& options,
                           const std::function<void(std::size_t)>& task);

}  // namespace treesat
