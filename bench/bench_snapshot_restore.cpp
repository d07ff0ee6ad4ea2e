// E-SNAP: the storage subsystem's cost story (storage/snapshot.hpp,
// storage/checkpoint.hpp) -- what a snapshot costs to write and read, and
// what a checkpointed restart buys over re-solving from scratch.
//
//   1. Codec throughput: encode+write and read+decode+import MB/s over
//      drifted sessions of every scenario-library instance (drifted, so
//      the snapshots carry real frontier caches, not just a tree).
//   2. Rewarm vs cold: restoring a snapshotted session and answering the
//      next drift step, against cold-building the session and answering
//      the same step. rewarm_speedup is the committed-baseline ratio.
//   3. Restart identity: serve a trace head, checkpoint, restore into a
//      fresh service, serve the tail -- head+tail must equal the
//      single-process replay byte for byte. identity_ratio is 1.0 exactly
//      or the bench fails; bench_diff gates it with a tight tolerance.
//   4. The spill tier per session: microseconds per SessionStore spill
//      (encode from the live session, frame, write into the segment) and
//      per reload (read, decode, import) of E-SNAP2's sessions. Ungated;
//      every reload must come back warm.
//   5. Restoring a checkpoint in perfbench spill_churn's shape: one resident
//      session and 47 spilled drifted stars of its size, into a fresh
//      service. Median milliseconds (service construction plus restore, what
//      spill_churn's setup_s times) and microseconds per spilled row.
//      Ungated; every spilled row must reload warm afterwards.
//
// MB/s and milliseconds are machine-dependent and informational; the two
// gated keys (rewarm_speedup, identity_ratio) are same-machine ratios.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/incremental.hpp"
#include "io/json.hpp"
#include "io/table.hpp"
#include "service/service.hpp"
#include "storage/snapshot.hpp"
#include "tree/serialize.hpp"
#include "workload/drift.hpp"
#include "workload/generator.hpp"
#include "workload/scenarios.hpp"
#include "workload/traffic.hpp"

namespace treesat {
namespace {

/// Drift script shared with tests/snapshot_test.cpp: warms the caches so a
/// snapshot carries real state.
std::vector<Perturbation> drift_script() {
  return {Perturbation::global_drift(1.05, 1.0, 1.0),
          Perturbation::satellite_drift(SatelliteId{std::size_t{0}}, 1.2, 0.9, 1.1),
          Perturbation::global_drift(0.97, 1.02, 1.0),
          Perturbation::satellite_drift(SatelliteId{std::size_t{0}}, 0.8, 1.1, 0.95)};
}

/// Best-of-`reps` wall time of `fn` (seconds).
template <typename Fn>
double best_of(int reps, Fn&& fn) {
  double best = -1.0;
  for (int r = 0; r < reps; ++r) {
    const Stopwatch watch;
    fn();
    const double t = watch.seconds();
    if (best < 0.0 || t < best) best = t;
  }
  return best;
}

}  // namespace
}  // namespace treesat

int main(int argc, char** argv) {
  using namespace treesat;
  bench::BenchJson::init("bench_snapshot_restore", &argc, argv);
  bool ok = true;
  const std::string dir = std::filesystem::temp_directory_path().string() +
                          "/treesat_bench_snapshot";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  bench::banner("E-SNAP1", "snapshot codec throughput over drifted sessions");
  {
    Table t({"scenario", "bytes", "write [MB/s]", "read [MB/s]", "entries"});
    for (const Scenario& scenario : standard_scenarios()) {
      ResolveSession session{scenario.workload.lower(scenario.platform)};
      for (const Perturbation& p : drift_script()) static_cast<void>(session.resolve(p));
      const SessionState state = session.export_state();
      const std::string bytes = encode_snapshot(state);
      const std::string path = dir + "/" + scenario.name + ".tss";
      const double mb = static_cast<double>(bytes.size()) / (1024.0 * 1024.0);

      const int reps = 200;
      const double write_s = best_of(5, [&] {
        for (int r = 0; r < reps; ++r) write_snapshot_file(path, state);
      });
      double sink = 0.0;  // keeps the decode from being optimized away
      const double read_s = best_of(5, [&] {
        for (int r = 0; r < reps; ++r) {
          ResolveSession restored = ResolveSession::import_state(read_snapshot_file(path));
          sink += restored.current().objective_value;
        }
      });
      const double write_mbs = mb * reps / write_s;
      const double read_mbs = mb * reps / read_s;
      t.add(scenario.name, bytes.size(), write_mbs, read_mbs,
            state.colour_cache.size() + state.region_cache.size());
      bench::json().add_row(scenario.name, {{"snapshot_bytes", static_cast<double>(bytes.size())},
                                            {"write_mb_per_s", write_mbs},
                                            {"read_mb_per_s", read_mbs}});
      if (scenario.name == "epilepsy-tele-monitoring") {
        bench::json().set("snapshot_bytes", static_cast<double>(bytes.size()));
        bench::json().set("write_mb_per_s", write_mbs);
        bench::json().set("read_mb_per_s", read_mbs);
      }
      if (sink == 12345.0) std::cout << "";  // defeat dead-code elimination
    }
    t.print(std::cout);
    bench::note("read = read_file + decode + import (a full usable session, not just");
    bench::note("parsed bytes); sessions are drifted so snapshots carry frontier caches.");
  }

  // E-SNAP2's drifted sessions, by label, for E-SNAP4.
  std::vector<std::pair<std::string, std::string>> snapshots;
  bench::banner("E-SNAP2", "restore-and-answer vs cold-solve-and-answer");
  {
    // The restart question in miniature: given a drifted session's snapshot
    // and one more drift step to answer, is import-then-warm-resolve faster
    // than rebuild-then-resolve? The gate is the geometric mean; every row
    // is expected to read >= 1, star-128 included -- the spill tier's shape
    // (perfbench's spill_churn), whose sub-millisecond initial solve a
    // reload must beat to be worth spilling.
    Table t({"instance", "cold [ms]", "rewarm [ms]", "speedup"});
    Rng rng(0x5A4E2);
    DriftOptions drift;
    drift.steps = 12;
    drift.p_loss = 0.0;  // ids stable: pure profile drift warms the caches
    drift.p_insert = 0.0;
    drift.p_global = 0.0;
    double speedup_product = 1.0;
    std::size_t speedup_count = 0;
    const auto row = [&](const std::string& label, const CruTree& base, int reps) {
      ResolveSession drifted{CruTree(base)};
      const std::vector<Perturbation> stream = drift_stream(rng, base, drift);
      for (const Perturbation& p : stream) static_cast<void>(drifted.resolve(p));
      const std::string bytes = encode_snapshot(drifted.export_state());
      snapshots.emplace_back(label, bytes);
      const Perturbation next = Perturbation::satellite_drift(
          SatelliteId{std::size_t{0}}, 1.03, 0.98, 1.0);

      const auto cold = [&] {
        for (int r = 0; r < reps; ++r) {
          // Cold restart: the tree survives (re-submitted), the session and
          // its caches do not -- initial solve, then the drift step.
          ResolveSession session{drifted.tree()};
          static_cast<void>(session.resolve(next));
        }
      };
      const auto rewarm = [&] {
        for (int r = 0; r < reps; ++r) {
          ResolveSession session = ResolveSession::import_state(decode_snapshot(bytes));
          static_cast<void>(session.resolve(next));
        }
      };
      // Best of 5 batches per side, the sides alternating, so a drift in
      // core speed over the row's run lands on both of them.
      double cold_s = std::numeric_limits<double>::infinity();
      double rewarm_s = cold_s;
      for (int round = 0; round < 5; ++round) {
        cold_s = std::min(cold_s, best_of(1, cold));
        rewarm_s = std::min(rewarm_s, best_of(1, rewarm));
      }
      const double speedup = cold_s / rewarm_s;
      speedup_product *= speedup;
      ++speedup_count;
      t.add(label, cold_s * 1e3 / reps, rewarm_s * 1e3 / reps, speedup);
      bench::json().add_row(label, {{"cold_ms", cold_s * 1e3 / reps},
                                    {"rewarm_ms", rewarm_s * 1e3 / reps},
                                    {"rewarm_speedup", speedup}});
    };
    for (const std::size_t n : {192u, 384u, 768u}) {
      TreeGenOptions gen;
      gen.compute_nodes = n;
      gen.satellites = 4;
      gen.max_children = 2;  // deep regions: frontiers worth caching
      gen.policy = SensorPolicy::kClustered;
      row("clustered-" + std::to_string(n), random_tree(rng, gen), n >= 768 ? 3 : 10);
    }
    StarGenOptions star;
    star.arms = 60;  // the shape of spill_churn's sessions
    row("star-128", star_tree(rng, star), 50);
    const double geomean =
        std::pow(speedup_product, 1.0 / static_cast<double>(speedup_count));
    bench::json().set("rewarm_speedup", geomean);
    t.print(std::cout);
    std::cout << "geometric-mean rewarm speedup: " << geomean << "\n";
    if (geomean <= 1.0) {
      std::cerr << "FAIL: restoring a snapshot did not beat cold re-solving at sizes "
                   "where frontier work dominates\n";
      ok = false;
    }
    bench::note("cold rebuilds the session from the surviving tree (initial solve +");
    bench::note("drift step); rewarm decodes the snapshot and runs the same step warm.");
  }

  bench::banner("E-SNAP3", "checkpointed restart: byte-identical resumed stream");
  {
    TrafficOptions options;
    options.seed = 0x5A4E;
    options.tenants = 3;
    options.ticks = 120;
    const TrafficTrace trace = traffic_trace(options);
    const std::size_t split = trace.lines.size() / 2;
    std::string head, tail, whole;
    for (std::size_t i = 0; i < trace.lines.size(); ++i) {
      ((i < split) ? head : tail) += trace.lines[i] + "\n";
      whole += trace.lines[i] + "\n";
    }
    const std::string config = "shards=2,fail_fast=false";

    SolverService one(parse_service_config(config));
    std::istringstream whole_in(whole);
    std::ostringstream whole_out;
    static_cast<void>(one.serve(whole_in, whole_out));

    const std::string ckpt = dir + "/checkpoint";
    SolverService first(parse_service_config(config));
    std::istringstream head_in(head);
    std::ostringstream head_out;
    static_cast<void>(first.serve(head_in, head_out));
    const Stopwatch save_watch;
    first.checkpoint_to(ckpt);
    const double save_ms = save_watch.seconds() * 1e3;

    SolverService second(parse_service_config(config));
    const Stopwatch restore_watch;
    second.restore_from(ckpt);
    const double restore_ms = restore_watch.seconds() * 1e3;
    std::istringstream tail_in(tail);
    std::ostringstream tail_out;
    static_cast<void>(second.serve(tail_in, tail_out));

    const bool identical = head_out.str() + tail_out.str() == whole_out.str();
    const double identity = identical ? 1.0 : 0.0;
    Table t({"requests", "checkpoint [ms]", "restore [ms]", "identical"});
    t.add(trace.lines.size(), save_ms, restore_ms, identical ? "yes" : "NO");
    t.print(std::cout);
    bench::json().set("identity_ratio", identity);
    bench::json().set("checkpoint_ms", save_ms);
    bench::json().set("restore_ms", restore_ms);
    if (!identical) {
      std::cerr << "FAIL: restored tail diverged from the single-process replay\n";
      ok = false;
    }
    bench::note("identity_ratio is 1.0 exactly when head+tail across the restart");
    bench::note("equals the never-restarted replay -- the zero-rewarm contract.");
  }

  bench::banner("E-SNAP4", "the spill tier per session: SessionStore spill and reload");
  {
    Table t({"instance", "bytes", "spill [us]", "reload [us]"});
    SessionStore store(1, 0, dir + "/spill");
    std::size_t cold_reloads = 0;
    for (const auto& [label, bytes] : snapshots) {
      SessionState state = decode_snapshot(bytes);
      SessionEntry& entry = store.put("bench", label, CruTree(*state.tree));
      entry.session =
          std::make_unique<ResolveSession>(ResolveSession::import_state(std::move(state)));
      entry.tree.reset();
      store.refresh_bytes(entry);
      // Best of 5 batches of spill/reload cycles, each call timed alone.
      constexpr int kCycles = 20;
      double spill_s = std::numeric_limits<double>::infinity();
      double reload_s = spill_s;
      for (int round = 0; round < 5; ++round) {
        double spill_sum = 0.0;
        double reload_sum = 0.0;
        for (int r = 0; r < kCycles; ++r) {
          const Stopwatch spill_watch;
          static_cast<void>(store.evict("bench", label, /*drop=*/false));
          spill_sum += spill_watch.seconds();
          bool warm = false;
          const Stopwatch reload_watch;
          static_cast<void>(store.find("bench", label, &warm));
          reload_sum += reload_watch.seconds();
          cold_reloads += warm ? 0 : 1;
        }
        spill_s = std::min(spill_s, spill_sum / kCycles);
        reload_s = std::min(reload_s, reload_sum / kCycles);
      }
      static_cast<void>(store.evict("bench", label, /*drop=*/true));
      t.add(label, bytes.size(), spill_s * 1e6, reload_s * 1e6);
      bench::json().add_row("spill " + label,
                            {{"snapshot_bytes", static_cast<double>(bytes.size())},
                             {"spill_us", spill_s * 1e6},
                             {"reload_us", reload_s * 1e6}});
    }
    t.print(std::cout);
    if (cold_reloads != 0) {
      std::cerr << "FAIL: " << cold_reloads << " spill-tier reloads came back cold\n";
      ok = false;
    }
    bench::note("spill = encode from the live session, frame in the store's buffer and");
    bench::note("write into the segment; reload = read, decode and import. Ungated.");
  }

  bench::banner("E-SNAP5", "restoring a checkpoint in spill_churn's shape");
  {
    // 48 tenants, each a star of spill_churn's size (its stress_trace draws
    // 128 nodes, so 64 arms), solved and drifted so its snapshot carries
    // caches. All but the last are evicted into the spill tier before the
    // checkpoint, as spill_churn's budget leaves one session resident.
    constexpr std::size_t kTenants = 48;
    constexpr std::size_t kSpilled = kTenants - 1;
    constexpr int kRestores = 30;
    const std::string ckpt = dir + "/churn_checkpoint";
    const auto line = [](const char* op, std::size_t k, const std::string& fields) {
      return std::string("{\"op\":\"") + op + "\",\"tenant\":\"t" + std::to_string(k) +
             "\",\"instance\":\"w0\"" + fields + "}";
    };
    std::size_t failed = 0;
    const auto serve = [&failed](SolverService& service, const std::string& request) {
      if (service.handle_line(request).find("\"ok\":true") == std::string::npos) ++failed;
    };
    {
      SolverService live(parse_service_config("spill_dir=" + dir + "/churn_live"));
      Rng rng(0x5A4E5);
      StarGenOptions star;
      star.arms = 64;
      for (std::size_t k = 0; k < kTenants; ++k) {
        serve(live, line("submit", k,
                         ",\"tree\":\"" + json_escape(to_text(star_tree(rng, star))) + "\""));
        serve(live, line("solve", k, ""));
        for (std::size_t sat = 0; sat < star.satellites; ++sat) {
          serve(live, line("perturb", k,
                           ",\"kind\":\"satellite_drift\",\"satellite\":" + std::to_string(sat) +
                               ",\"host_scale\":1.1,\"sat_scale\":0.9,\"comm_scale\":1.05"));
        }
        if (k + 1 < kTenants) serve(live, line("evict", k, ""));
      }
      live.checkpoint_to(ckpt);
    }
    std::uintmax_t spilled_bytes = 0;
    for (const auto& file : std::filesystem::directory_iterator(ckpt + "/spilled")) {
      spilled_bytes += file.file_size();
    }

    std::vector<double> restore_ms;
    std::size_t warm = 0;
    for (int r = 0; r < kRestores; ++r) {
      const std::string spill = dir + "/churn_restored";
      std::filesystem::remove_all(spill);
      const Stopwatch watch;
      SolverService restored(parse_service_config("spill_dir=" + spill));
      restored.restore_from(ckpt);
      restore_ms.push_back(watch.seconds() * 1e3);
      if (r + 1 < kRestores) continue;
      // The last restore answers every spilled tenant: each must reload warm.
      const SessionStore& store = restored.store();
      if (store.spill_entries() != kSpilled) ++failed;
      const std::size_t reloads = store.spill_reloads();
      for (std::size_t k = 0; k < kSpilled; ++k) serve(restored, line("solve", k, ""));
      warm = store.spill_faults() == 0 ? store.spill_reloads() - reloads : 0;
    }
    std::sort(restore_ms.begin(), restore_ms.end());
    const double median_ms = restore_ms[restore_ms.size() / 2];
    const double per_row_us = median_ms * 1e3 / static_cast<double>(kSpilled);
    Table t({"resident", "spilled", "spilled [KiB]", "restore [ms]", "per spilled row [us]"});
    t.add(kTenants - kSpilled, kSpilled, static_cast<double>(spilled_bytes) / 1024.0, median_ms,
          per_row_us);
    t.print(std::cout);
    bench::json().add_row("restore spill_churn",
                          {{"spilled_bytes", static_cast<double>(spilled_bytes)},
                           {"restore_ms", median_ms},
                           {"restore_us_per_spilled_row", per_row_us}});
    if (failed != 0 || warm != kSpilled) {
      std::cerr << "FAIL: " << failed << " requests failed and " << warm << " of " << kSpilled
                << " restored spilled rows reloaded warm\n";
      ok = false;
    }
    bench::note("median of 30 fresh services, each constructed and restored; every");
    bench::note("spilled row of the last one is then solved and must reload warm. Ungated.");
  }

  std::filesystem::remove_all(dir);
  if (!ok) {
    std::cerr << "\nFAIL: see gates above\n";
    return 1;
  }
  std::cout << "\nOK: restart resumed byte-identically; codec throughput recorded\n";
  return bench::json().write() ? 0 : 1;
}
