#include "core/executor.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <thread>
#include <utility>

#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace treesat {

std::uint64_t derive_instance_seed(std::uint64_t plan_seed, std::uint64_t instance_index) {
  // The golden-ratio stride per instance, then Rng's own finalizer, so
  // adjacent instances get independent streams.
  std::uint64_t state = plan_seed + 0x9e3779b97f4a7c15ULL * instance_index;
  return splitmix64(state);
}

namespace {

/// 0 means one worker per hardware thread (itself clamped to 1 when
/// hardware_concurrency() reports 0), and the result is clamped to
/// [1, max(count, 1)] -- never more workers than instances.
std::size_t resolve_threads(std::size_t requested, std::size_t count) {
  const std::size_t hw = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t threads = requested == 0 ? hw : requested;
  return std::max<std::size_t>(1, std::min(threads, std::max<std::size_t>(count, 1)));
}

SolvePlan instance_plan(const SolvePlan& plan, std::size_t index) {
  SolvePlan derived = plan;
  if (plan.seeded()) {
    derived.with_seed(derive_instance_seed(plan.seed(), static_cast<std::uint64_t>(index)));
  }
  return derived;
}

std::string describe(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown error";
  }
}

}  // namespace

void BatchReport::rethrow_if_failed() const {
  if (failures.empty()) return;
  const BatchFailure& first = failures.front();
  if (first.error) std::rethrow_exception(first.error);
  throw ResourceLimit("solve_batch: instance " + std::to_string(first.index) + " " +
                      first.message + " (" + std::to_string(failures.size()) + " of " +
                      std::to_string(results.size()) + " instances unfinished)");
}

std::vector<SolveReport> BatchReport::take_reports() {
  rethrow_if_failed();
  std::vector<SolveReport> reports;
  reports.reserve(results.size());
  for (std::optional<SolveReport>& result : results) {
    reports.push_back(std::move(*result));
  }
  results.clear();
  return reports;
}

BatchReport solve_batch_report(std::span<const Colouring* const> instances,
                               const SolvePlan& plan) {
  const Stopwatch watch;
  const ExecutorOptions& options = plan.executor();
  const std::size_t count = instances.size();
  // Validate the whole span before any work starts: a bad batch must not
  // burn solves (or, under fail_fast, leave the caller guessing how far it
  // got) before the precondition fires.
  for (std::size_t i = 0; i < count; ++i) {
    TS_REQUIRE(instances[i] != nullptr, "solve_batch: instance " << i << " is null");
  }

  // Instance count is deterministic; threads_used, solve order and
  // failures-by-deadline are wall-clock facts and stay out of the span.
  obs::Span span(obs::trace(), "batch.run");
  span.attr("instances", static_cast<std::uint64_t>(count));
  static const obs::CounterSite runs("treesat_batch_runs_total", "Batch executor runs");
  static const obs::HistogramSite batch_sizes("treesat_batch_instances",
                                              "Instances per batch run",
                                              obs::MetricClass::kDeterministic);
  runs.add();
  batch_sizes.observe(static_cast<double>(count));

  BatchReport report;
  report.results.resize(count);

  const std::size_t threads = resolve_threads(options.threads, count);
  report.threads_used = threads;

  // The claim order: largest tree first (the node count is a precomputed
  // tree property), stable so ties keep input order. One thread keeps plain
  // index order, which is what gives fail-fast its "later instances were
  // never started" reading. Only the wall clock sees the order; results
  // are index-addressed.
  std::vector<std::size_t> order(count);
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (threads > 1) {
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return instances[a]->tree().size() > instances[b]->tree().size();
    });
  }

  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> abort{false};  // fail-fast fuse, shared by all workers
  std::vector<std::exception_ptr> errors(count);
  const std::uint64_t batch_span_id = span.id();
  const auto worker = [&] {
    for (std::size_t next = cursor.fetch_add(1, std::memory_order_relaxed); next < count;
         next = cursor.fetch_add(1, std::memory_order_relaxed)) {
      if (abort.load(std::memory_order_relaxed)) return;
      if (options.deadline_seconds > 0.0 && watch.seconds() > options.deadline_seconds) {
        return;
      }
      const std::size_t i = order[next];
      // Explicit parent: a helper thread's span stack is empty. The
      // per-instance span anchors the solver's own phase spans under the
      // batch deterministically (the canonical export sorts siblings, so
      // worker interleaving washes out).
      obs::Span inst_span(obs::trace(), "batch.instance", batch_span_id);
      inst_span.attr("instance", static_cast<std::uint64_t>(i));
      try {
        report.results[i].emplace(solve(*instances[i], instance_plan(plan, i)));
      } catch (...) {
        errors[i] = std::current_exception();
        if (options.fail_fast) abort.store(true, std::memory_order_relaxed);
      }
    }
  };
  {
    // The calling thread is one of the workers; ~jthread joins the helpers
    // before anything below reads the results.
    std::vector<std::jthread> helpers;
    helpers.reserve(threads - 1);
    for (std::size_t t = 1; t < threads; ++t) helpers.emplace_back(worker);
    worker();
  }

  // Failure attribution is settled *after* the join, from facts that no
  // longer move, under one precedence order: the instance's own error >
  // deadline > fail-fast abort. Whether the deadline expired is re-derived
  // from the wall clock here rather than from a flag a worker may or may
  // not have reached before the abort fired, so the message never depends
  // on worker interleaving.
  const bool deadline_expired =
      options.deadline_seconds > 0.0 && watch.seconds() > options.deadline_seconds;
  for (std::size_t i = 0; i < count; ++i) {
    if (report.results[i].has_value()) continue;
    std::string message;
    if (errors[i]) {
      message = describe(errors[i]);
    } else if (deadline_expired) {
      message = "not started: batch deadline expired";
    } else {
      message = "not started: batch aborted after an earlier failure";
    }
    report.failures.push_back({i, std::move(message), errors[i]});
  }

  for (std::size_t i = 0; i < count; ++i) {
    if (!report.results[i].has_value()) continue;
    const SolveReport& solved = *report.results[i];
    ++report.method_counts[static_cast<std::size_t>(solved.method)];
    report.total_solve_seconds += solved.wall_seconds;
    // The first solved instance engages the straggler even at a 0.0-second
    // wall time; a batch where nothing solved keeps nullopt.
    if (!report.slowest_index.has_value() || solved.wall_seconds > report.slowest_seconds) {
      report.slowest_seconds = solved.wall_seconds;
      report.slowest_index = i;
    }
  }
  report.wall_seconds = watch.seconds();
  return report;
}

}  // namespace treesat
