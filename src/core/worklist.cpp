#include "core/worklist.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace treesat {

std::size_t resolve_threads(std::size_t requested, std::size_t count) {
  const std::size_t hw = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t threads = requested == 0 ? hw : requested;
  return std::max<std::size_t>(1, std::min(threads, std::max<std::size_t>(count, 1)));
}

namespace {

/// splitmix64 (Steele et al.) -- the same finalizer Rng and
/// derive_instance_seed use; here it drives each worker's victim probe
/// sequence from a seed derived from its own id, so no RNG state is
/// shared between workers.
std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// A chunk is a window into the immutable schedule array -- dealing and
/// stealing move two integers, never the items.
struct ChunkRef {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
};

/// One worker's queue: a chunk deque per priority bin, guarded by one
/// mutex (items here are whole solves, microseconds at minimum, so a
/// mutex round-trip per *chunk* is noise; heap-allocated per worker, so
/// queues never share a cache line). The owner pops from the back of the
/// first non-empty bin, thieves from the front -- LIFO-local, FIFO-steal.
struct ThreadQueue {
  std::mutex mu;
  std::vector<std::deque<ChunkRef>> bins;

  explicit ThreadQueue(std::size_t bin_count) : bins(bin_count) {}

  bool pop_local(ChunkRef& out) {
    const std::lock_guard<std::mutex> lock(mu);
    for (std::deque<ChunkRef>& bin : bins) {
      if (bin.empty()) continue;
      out = bin.back();
      bin.pop_back();
      return true;
    }
    return false;
  }

  /// On success also reports how many chunks the victim still holds --
  /// the queue-depth sample the wall-clock depth histogram records.
  bool steal(ChunkRef& out, std::size_t* remaining) {
    const std::lock_guard<std::mutex> lock(mu);
    bool taken = false;
    for (std::deque<ChunkRef>& bin : bins) {
      if (taken || bin.empty()) continue;
      out = bin.front();
      bin.pop_front();
      taken = true;
    }
    if (taken && remaining != nullptr) {
      std::size_t depth = 0;
      for (const std::deque<ChunkRef>& bin : bins) depth += bin.size();
      *remaining = depth;
    }
    return taken;
  }
};

}  // namespace

WorklistStats run_worklist(std::size_t count, const WorklistOptions& options,
                           const std::function<void(std::size_t)>& task) {
  WorklistStats stats;
  if (count == 0) return stats;
  TS_REQUIRE(options.cost.empty() || options.cost.size() == count,
             "run_worklist: cost estimates cover " << options.cost.size() << " items but "
                                                   << count << " were scheduled");

  // Every thread count flows through here (threads<=1 runs inline below),
  // so runs/items are deterministic. Steals, chunk counts and queue
  // depths are scheduler outcomes -- wall-clock class only.
  obs::Span span(obs::trace(), "worklist.run");
  span.attr("items", static_cast<std::uint64_t>(count));
  obs::count("treesat_worklist_runs_total", "Worklist executions");
  obs::observe("treesat_worklist_items", "Items per worklist execution",
               obs::MetricClass::kDeterministic, static_cast<double>(count));

  const std::size_t threads = resolve_threads(options.threads, count);
  stats.threads_used = threads;
  if (threads <= 1) {
    // Sequential semantics: plain index order, cost ignored (ordering is a
    // wall-clock optimization; on one thread it only reorders failures).
    for (std::size_t i = 0; i < count; ++i) task(i);
    return stats;
  }

  // The schedule: item indices, largest-cost-first when estimates were
  // given (stable sort, so ties keep input order -- the whole schedule is
  // a deterministic function of (count, cost)).
  std::vector<std::uint32_t> order(count);
  std::iota(order.begin(), order.end(), 0u);
  const bool prioritized = !options.cost.empty();
  if (prioritized) {
    std::stable_sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
      return options.cost[a] > options.cost[b];
    });
  }

  const std::size_t bins =
      prioritized ? std::max<std::size_t>(1, std::min(options.bins, count)) : 1;
  stats.bins_used = bins;

  // Chunk size balances steal granularity against contention: enough
  // chunks that every worker can stay busy (~4 per worker per bin), small
  // enough that a steal moves real work.
  const std::size_t chunk_size =
      std::clamp<std::size_t>(count / (threads * 4), 1, 32);

  // Deal the schedule: bin b holds the b-th cost quantile (the sorted
  // order makes bin 0 the most expensive items), cut into chunks, dealt
  // round-robin across the workers so every worker starts with a share of
  // the expensive bin.
  std::vector<std::unique_ptr<ThreadQueue>> queues;
  queues.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    queues.push_back(std::make_unique<ThreadQueue>(bins));
  }
  std::size_t dealt = 0;
  for (std::size_t b = 0; b < bins; ++b) {
    const std::size_t lo = count * b / bins;
    const std::size_t hi = count * (b + 1) / bins;
    for (std::size_t begin = lo; begin < hi; begin += chunk_size) {
      const std::size_t end = std::min(begin + chunk_size, hi);
      queues[dealt % threads]->bins[b].push_back(
          {static_cast<std::uint32_t>(begin), static_cast<std::uint32_t>(end)});
      ++dealt;
    }
  }
  stats.chunks = dealt;

  std::atomic<std::size_t> steals{0};
  // Handles cached up front: workers record without touching the registry
  // lock. All wall-clock class -- scheduler state, never deterministic.
  obs::Histogram* depth_hist = nullptr;
  if (obs::MetricsRegistry* m = obs::metrics()) {
    depth_hist = &m->histogram("treesat_worklist_queue_depth",
                               "Victim queue depth (chunks) sampled at each steal",
                               obs::MetricClass::kWallClock);
  }
  const auto worker = [&](std::size_t self) {
    // Per-worker deterministic seed: the victim probe order depends only
    // on the worker id and how many probes it has made.
    std::uint64_t rng_state = 0x5EEDF00Du ^ (0x9e3779b97f4a7c15ULL * (self + 1));
    ChunkRef chunk;
    while (true) {
      if (!queues[self]->pop_local(chunk)) {
        // Out of local work: probe every other queue once, starting from a
        // pseudo-random victim. Tasks never push new work, so one full
        // empty sweep means the list is drained (bar chunks already being
        // executed) and the worker can retire.
        bool stolen = false;
        std::size_t depth = 0;
        const std::size_t start = static_cast<std::size_t>(splitmix64(rng_state) % threads);
        for (std::size_t k = 0; k < threads && !stolen; ++k) {
          const std::size_t victim = (start + k) % threads;
          if (victim == self) continue;
          stolen = queues[victim]->steal(chunk, &depth);
        }
        if (!stolen) return;
        steals.fetch_add(1, std::memory_order_relaxed);
        if (depth_hist != nullptr) depth_hist->observe(static_cast<double>(depth));
      }
      for (std::uint32_t i = chunk.begin; i < chunk.end; ++i) {
        task(order[i]);
      }
    }
  };

  {
    std::vector<std::jthread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back(worker, t);
    }
    // ~jthread joins every worker before the stats read below.
  }
  stats.steals = steals.load(std::memory_order_relaxed);
  obs::count("treesat_worklist_steals_total", "Chunks stolen across all worklist runs",
             obs::MetricClass::kWallClock, stats.steals);
  obs::count("treesat_worklist_chunks_total", "Chunks dealt across all worklist runs",
             obs::MetricClass::kWallClock, stats.chunks);
  return stats;
}

}  // namespace treesat
