// TraceRecorder (obs/trace.hpp): the span layer's two contracts.
//
//   1. Structure determinism -- names, nesting, and attributes are pure
//      functions of the request stream, and structure_json() canonicalizes
//      away the recording interleaving. The anchor test replays the
//      committed golden service trace at shards=1 and shards=8 and
//      requires the timing-stripped trace (and the deterministic metrics
//      exposition) to be byte-identical -- the tracing extension of the
//      service's response byte wall.
//      A batch solve's forest is likewise the same at one and four
//      threads.
//   2. Recording safety -- concurrent spans from many threads (this suite
//      runs under TSan in ci.sh), the thread-local current-span nesting,
//      explicit cross-thread parents, and the disabled/uninstalled
//      recorder behaving as a total no-op.
#include <gtest/gtest.h>

#include <deque>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/colouring.hpp"
#include "core/executor.hpp"
#include "core/pareto_dp.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/service.hpp"
#include "workload/generator.hpp"
#include "workload/scenarios.hpp"

namespace treesat::obs {
namespace {

TEST(TraceRecorder, RaiiSpansNestViaTheThreadLocalCurrent) {
  TraceRecorder rec;
  EXPECT_EQ(TraceRecorder::current(), 0u);
  {
    Span outer(&rec, "outer");
    ASSERT_TRUE(outer);
    EXPECT_EQ(TraceRecorder::current(), outer.id());
    outer.attr("k", std::uint64_t{7});
    {
      Span inner(&rec, "inner");
      EXPECT_EQ(TraceRecorder::current(), inner.id());
      inner.attr("tag", "warm");
      inner.attr("ratio", 0.5);
    }
    EXPECT_EQ(TraceRecorder::current(), outer.id());
  }
  EXPECT_EQ(TraceRecorder::current(), 0u);

  const std::vector<SpanRecord> spans = rec.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].parent, spans[0].id);
  // Timing off: no clock was read, every field stays zero.
  EXPECT_EQ(spans[1].start_seconds, 0.0);
  EXPECT_EQ(spans[1].duration_seconds, 0.0);

  EXPECT_EQ(rec.structure_json(),
            "{\"spans\":[{\"name\":\"outer\",\"attrs\":{\"k\":7},\"children\":"
            "[{\"name\":\"inner\",\"attrs\":{\"tag\":\"warm\",\"ratio\":0.5},"
            "\"children\":[]}]}]}\n");
}

TEST(TraceRecorder, CanonicalFormErasesTheRecordingInterleaving) {
  // The same logical forest recorded in two different orders (the way two
  // scheduler interleavings would) must export identically.
  TraceRecorder a;
  {
    const std::uint64_t root = a.begin("root", 0);
    const std::uint64_t x = a.begin("x", root);
    a.attr(x, "i", std::uint64_t{1});
    a.end(x);
    const std::uint64_t y = a.begin("y", root);
    a.end(y);
    a.end(root);
  }
  TraceRecorder b;
  {
    const std::uint64_t root = b.begin("root", 0);
    const std::uint64_t y = b.begin("y", root);
    const std::uint64_t x = b.begin("x", root);  // children land reversed
    b.end(y);
    b.attr(x, "i", std::uint64_t{1});
    b.end(x);
    b.end(root);
  }
  EXPECT_EQ(a.structure_json(), b.structure_json());
}

TEST(TraceRecorder, DisabledOrAbsentRecorderIsANoOp) {
  Span null_span(nullptr, "nothing");
  EXPECT_FALSE(null_span);
  null_span.attr("k", std::uint64_t{1});  // must not crash

  TraceRecorder rec;
  rec.set_enabled(false);
  {
    Span span(&rec, "invisible");
    EXPECT_FALSE(span);
    EXPECT_EQ(TraceRecorder::current(), 0u);
  }
  EXPECT_EQ(rec.span_count(), 0u);
  EXPECT_EQ(rec.structure_json(), "{\"spans\":[]}\n");

  rec.set_enabled(true);
  { Span span(&rec, "visible"); }
  EXPECT_EQ(rec.span_count(), 1u);
  rec.clear();
  EXPECT_EQ(rec.span_count(), 0u);
}

TEST(TraceRecorder, TimingIsOptInAndFeedsTheChromeExport) {
  TraceRecorder rec(/*timing=*/true);
  {
    Span span(&rec, "timed");
    span.attr("k", "v");
  }
  const std::vector<SpanRecord> spans = rec.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_GE(spans[0].duration_seconds, 0.0);
  const std::string chrome = rec.chrome_trace_json();
  EXPECT_NE(chrome.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(chrome.find("\"name\":\"timed\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(chrome.find("\"k\":\"v\""), std::string::npos);
}

TEST(TraceRecorder, ConcurrentSpansFromManyThreadsAllLand) {
  TraceRecorder rec;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 400;
  {
    std::vector<std::jthread> pool;
    for (std::size_t t = 0; t < kThreads; ++t) {
      pool.emplace_back([&rec, t] {
        for (std::size_t i = 0; i < kPerThread; ++i) {
          Span outer(&rec, "worker");
          outer.attr("t", static_cast<std::uint64_t>(t));
          Span inner(&rec, "step");
          inner.attr("i", static_cast<std::uint64_t>(i));
        }
      });
    }
  }
  EXPECT_EQ(rec.span_count(), 2 * kThreads * kPerThread);
  EXPECT_EQ(rec.dropped_spans(), 0u);
  // Every "step" nested under a "worker" from its own thread.
  std::size_t nested = 0;
  for (const SpanRecord& span : rec.snapshot()) {
    if (span.name == "step" && span.parent != 0) ++nested;
  }
  EXPECT_EQ(nested, kThreads * kPerThread);
}

/// Serves the committed golden trace with a recorder + registry installed
/// and returns {structure_json, deterministic exposition}.
struct TracedReplay {
  std::string structure;
  std::string metrics_text;
};

TracedReplay traced_replay(const std::string& trace, const std::string& config) {
  TraceRecorder rec;  // timing off: the deterministic class only
  MetricsRegistry reg;
  install_trace(&rec);
  install_metrics(&reg);
  SolverService service(parse_service_config(config));
  std::istringstream in(trace);
  std::ostringstream out;
  const std::size_t errors = service.serve(in, out);
  static_cast<void>(service.telemetry());  // writes the service families
  install_trace(nullptr);
  install_metrics(nullptr);
  EXPECT_EQ(errors, 0u) << config;
  EXPECT_GT(rec.span_count(), 0u);
  return {rec.structure_json(), reg.exposition(/*include_wallclock=*/false)};
}

TEST(TraceDeterminism, GoldenReplayStructureIsShardInvariant) {
  std::ifstream file(TREESAT_SOURCE_DIR "/tests/golden/service_trace.jsonl");
  ASSERT_TRUE(file) << "golden trace missing";
  std::stringstream buffer;
  buffer << file.rdbuf();
  const std::string trace = buffer.str();

  const TracedReplay one = traced_replay(trace, "shards=1,mem_budget=64m,plan=pareto-dp");
  const TracedReplay many = traced_replay(trace, "shards=8,mem_budget=64m,plan=pareto-dp");

  // The timing-stripped span forest and the deterministic metrics subset
  // are part of the byte wall: the shard count must be invisible in both.
  EXPECT_EQ(one.structure, many.structure);
  EXPECT_EQ(one.metrics_text, many.metrics_text);

  // The replay actually produced the service-path span taxonomy README
  // documents. (Sessions fold their colours sequentially through the
  // region/colour caches and finish in dp.sweep and dp.reconstruct -- the
  // cold solve's dp.solve/dp.fold spans never run here, which is itself
  // part of the warm path's shape.)
  for (const char* name : {"\"req.solve\"", "\"req.submit\"", "\"store.lookup\"",
                           "\"dp.colour\"", "\"dp.sweep\"", "\"dp.reconstruct\"",
                           "\"session.resolve\""}) {
    EXPECT_NE(one.structure.find(name), std::string::npos) << name;
  }
  EXPECT_EQ(one.structure.find("\"dp.fold\""), std::string::npos);
  for (const char* family :
       {"treesat_requests_total", "treesat_warm_hits_total",
        "treesat_dp_minkowski_merges_total", "treesat_dp_merge_points_kept_total",
        "treesat_response_bytes_bucket", "treesat_store_bytes_used"}) {
    EXPECT_NE(one.metrics_text.find(family), std::string::npos) << family;
  }
  // And nothing wall-clock leaked into the deterministic subset.
  EXPECT_EQ(one.metrics_text.find(kWallClockMarker), std::string::npos);
  EXPECT_EQ(one.metrics_text.find("treesat_request_seconds"), std::string::npos);
}

TEST(TraceDeterminism, ArenaSolveStructureNamesEveryPhase) {
  // The cold solve's phase taxonomy: the solve, its colour fold with one
  // span per colour, the sweep and the reconstruction -- all on the
  // calling thread.
  Rng rng(0xA11);
  TreeGenOptions gen;
  gen.compute_nodes = 48;
  gen.satellites = 4;
  gen.policy = SensorPolicy::kClustered;
  const CruTree tree = random_tree(rng, gen);
  const Colouring colouring(tree);

  TraceRecorder rec;
  install_trace(&rec);
  static_cast<void>(pareto_dp_solve(colouring));
  install_trace(nullptr);
  const std::string structure = rec.structure_json();
  for (const char* name : {"\"dp.solve\"", "\"dp.fold\"", "\"dp.colour\"",
                           "\"dp.sweep\"", "\"dp.reconstruct\""}) {
    EXPECT_NE(structure.find(name), std::string::npos) << name;
  }
}

TEST(TraceDeterminism, BatchStructureIsThreadCountInvariant) {
  // solve_batch_report's spans: one batch.run with one batch.instance child
  // per instance, each holding its own solve's dp.* phase spans, and no
  // scheduler span in between. The forest is the same whether the calling
  // thread solves alone or as one of four workers.
  std::deque<CruTree> trees;
  std::deque<Colouring> colourings;
  std::vector<const Colouring*> instances;
  for (int copy = 0; copy < 2; ++copy) {
    for (const Scenario& sc : standard_scenarios()) {
      trees.push_back(sc.workload.lower(sc.platform));
      colourings.emplace_back(trees.back());
      instances.push_back(&colourings.back());
    }
  }

  std::string reference;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SolvePlan plan = SolvePlan::pareto_dp();
    plan.with_executor({.threads = threads});
    TraceRecorder rec;  // timing off: the deterministic class only
    install_trace(&rec);
    const BatchReport report = solve_batch_report(instances, plan);
    install_trace(nullptr);
    ASSERT_TRUE(report.complete());

    const std::vector<SpanRecord> spans = rec.snapshot();
    ASSERT_FALSE(spans.empty());
    EXPECT_EQ(spans[0].name, "batch.run");
    EXPECT_EQ(spans[0].parent, 0u);
    const std::uint64_t batch_id = spans[0].id;
    std::map<std::uint64_t, std::size_t> dp_spans_under;  // batch.instance id -> count
    for (const SpanRecord& span : spans) {
      if (span.parent != batch_id) continue;
      EXPECT_EQ(span.name, "batch.instance") << "threads=" << threads;
      dp_spans_under[span.id] = 0;
    }
    EXPECT_EQ(dp_spans_under.size(), instances.size()) << "threads=" << threads;
    for (const SpanRecord& span : spans) {
      const auto it = dp_spans_under.find(span.parent);
      if (it != dp_spans_under.end() && span.name.starts_with("dp.")) ++it->second;
    }
    for (const auto& [id, dp_spans] : dp_spans_under) {
      EXPECT_GT(dp_spans, 0u) << "batch.instance " << id << " at threads=" << threads;
    }

    const std::string structure = rec.structure_json();
    EXPECT_EQ(structure.find("\"worklist.run\""), std::string::npos);
    if (threads == 1) {
      reference = structure;
    } else {
      EXPECT_EQ(structure, reference) << "threads=" << threads;
    }
  }
}

TEST(TraceDeterminism, MetricsOpExposesTheSameDeterministicSubset) {
  // The protocol-level scrape: {"op":"metrics"} must return exactly the
  // registry's deterministic exposition, whatever else the request says.
  MetricsRegistry reg;
  install_metrics(&reg);
  SolverService service(parse_service_config("shards=2"));
  std::istringstream in("{\"op\":\"metrics\"}\n{\"op\":\"metrics\",\"timing\":true}\n");
  std::ostringstream out;
  EXPECT_EQ(service.serve(in, out), 0u);
  install_metrics(nullptr);

  std::size_t responses = 0;
  std::string line;
  std::istringstream lines(out.str());
  while (std::getline(lines, line)) {
    ++responses;
    EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
    EXPECT_NE(line.find("treesat_requests_total"), std::string::npos) << line;
    EXPECT_EQ(line.find("wall-clock"), std::string::npos) << line;
  }
  EXPECT_EQ(responses, 2u);
}

}  // namespace
}  // namespace treesat::obs
