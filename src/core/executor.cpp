#include "core/executor.hpp"

#include <atomic>
#include <utility>

#include "common/stopwatch.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace treesat {

std::uint64_t derive_instance_seed(std::uint64_t plan_seed, std::uint64_t instance_index) {
  // splitmix64 (Steele et al.), seeded at plan_seed plus the golden-ratio
  // stride per instance -- the same finalizer Rng uses to decorrelate
  // low-entropy seeds, so adjacent instances get independent streams.
  std::uint64_t z = plan_seed + 0x9e3779b97f4a7c15ULL * (instance_index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

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

BatchExecutor::BatchExecutor(ExecutorOptions options) : options_(std::move(options)) {
  TS_REQUIRE(options_.deadline_seconds >= 0.0,
             "BatchExecutor: deadline must be non-negative, got "
                 << options_.deadline_seconds);
}

BatchReport BatchExecutor::run(std::span<const Colouring* const> instances,
                               const SolvePlan& plan, std::stop_token cancel) const {
  const Stopwatch watch;
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
  obs::count("treesat_batch_runs_total", "Batch executor runs");
  obs::observe("treesat_batch_instances", "Instances per batch run",
               obs::MetricClass::kDeterministic, static_cast<double>(count));

  BatchReport report;
  report.results.resize(count);

  const std::size_t threads = resolve_threads(options_.threads, count);
  report.threads_used = threads;

  std::stop_source abort;  // fail-fast fuse, shared by all workers
  std::vector<std::exception_ptr> errors(count);

  // Cost-ordered schedule: largest trees first through the scheduler's
  // priority bins, so the likely stragglers start early. The estimate is
  // free -- the node count is a precomputed tree property. Only the wall
  // clock sees the order; results are index-addressed.
  WorklistOptions worklist;
  worklist.threads = threads;
  std::vector<double> cost;
  if (threads > 1) {
    cost.reserve(count);
    for (const Colouring* instance : instances) {
      cost.push_back(static_cast<double>(instance->tree().size()));
    }
    worklist.cost = cost;
  }

  // One work-list task per instance; the pre-claim checks of the old worker
  // loop become early returns, so an aborted/expired batch still marks every
  // unstarted instance below.
  const std::uint64_t batch_span_id = span.id();
  static_cast<void>(run_worklist(count, worklist, [&](std::size_t i) {
    if (abort.stop_requested() || cancel.stop_requested()) return;
    if (options_.deadline_seconds > 0.0 && watch.seconds() > options_.deadline_seconds) {
      return;
    }
    // Explicit parent: the task runs on a scheduler thread whose
    // thread-local span stack is empty. The per-instance span anchors the
    // solver's own phase spans under the batch deterministically (the
    // canonical export sorts siblings, so worker interleaving washes out).
    obs::Span inst_span(obs::trace(), "batch.instance", batch_span_id);
    inst_span.attr("instance", static_cast<std::uint64_t>(i));
    try {
      report.results[i].emplace(solve(*instances[i], instance_plan(plan, i)));
    } catch (...) {
      errors[i] = std::current_exception();
      if (options_.fail_fast) abort.request_stop();
    }
  }));

  // Failure attribution is settled *after* the join, from facts that no
  // longer move, under one precedence order: the instance's own error >
  // deadline > cancellation > fail-fast abort. Whether the deadline
  // expired is re-derived from the wall clock here rather than from a
  // flag a worker may or may not have reached before the cancel/abort
  // early-returns fired -- the old flag capture made the message depend
  // on worker interleaving when a deadline expiry and a cancel (or
  // abort) overlapped.
  const bool deadline_expired = options_.deadline_seconds > 0.0 &&
                                watch.seconds() > options_.deadline_seconds;
  const bool cancelled = cancel.stop_requested();
  for (std::size_t i = 0; i < count; ++i) {
    if (report.results[i].has_value()) continue;
    std::string message;
    if (errors[i]) {
      message = describe(errors[i]);
    } else if (deadline_expired) {
      message = "not started: batch deadline expired";
    } else if (cancelled) {
      message = "not started: batch cancelled";
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

BatchReport solve_batch_report(std::span<const Colouring* const> instances,
                               const SolvePlan& plan) {
  return BatchExecutor(plan.executor()).run(instances, plan);
}

}  // namespace treesat
