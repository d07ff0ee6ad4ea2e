#include "storage/checkpoint.hpp"

#include <filesystem>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "storage/snapshot.hpp"
#include "storage/wire.hpp"

namespace treesat {

namespace {

constexpr std::string_view kMagic = "treesat_checkpoint";
constexpr std::string_view kVersion = "v3";

std::string manifest_path(const std::string& dir) { return dir + "/MANIFEST.tsc"; }

void append_tenant_counters(std::string& out, const TenantTelemetry& t) {
  for (const std::size_t counter :
       {t.requests, t.errors, t.submits, t.solves, t.perturbs, t.evict_requests,
        t.initial_solves, t.warm_hits, t.cold_solves, t.lru_evictions, t.explicit_evictions,
        t.spills, t.spill_reloads, t.degraded, t.rejected}) {
    out += ' ';
    out += std::to_string(counter);
  }
  out += ' ';
  out += std::to_string(t.method_counts.size());
  for (const std::size_t count : t.method_counts) {
    out += ' ';
    out += std::to_string(count);
  }
}

/// Decodes the counter tail of a tenant/overflow row starting at
/// tokens[at]. The row must be consumed exactly.
TenantTelemetry parse_tenant_counters(const std::vector<std::string_view>& tokens,
                                      std::size_t at) {
  TenantTelemetry t;
  std::size_t* const counters[] = {&t.requests,       &t.errors,        &t.submits,
                                   &t.solves,         &t.perturbs,      &t.evict_requests,
                                   &t.initial_solves, &t.warm_hits,     &t.cold_solves,
                                   &t.lru_evictions,  &t.explicit_evictions,
                                   &t.spills,         &t.spill_reloads, &t.degraded,
                                   &t.rejected};
  constexpr std::size_t kCounters = sizeof(counters) / sizeof(counters[0]);
  TS_REQUIRE(tokens.size() >= at + kCounters + 1, "checkpoint: truncated tenant row");
  for (std::size_t i = 0; i < kCounters; ++i) {
    *counters[i] =
        static_cast<std::size_t>(wire::parse_u64(tokens[at + i], "tenant counter"));
  }
  const std::size_t methods_at = at + kCounters;
  const std::uint64_t methods = wire::parse_u64(tokens[methods_at], "method count");
  TS_REQUIRE(methods == t.method_counts.size(),
             "checkpoint: tenant row carries " << methods << " method counters, this build has "
                                               << t.method_counts.size());
  TS_REQUIRE(tokens.size() == methods_at + 1 + t.method_counts.size(),
             "checkpoint: tenant row has trailing tokens");
  for (std::size_t m = 0; m < t.method_counts.size(); ++m) {
    t.method_counts[m] =
        static_cast<std::size_t>(wire::parse_u64(tokens[methods_at + 1 + m], "method counter"));
  }
  return t;
}

struct EntryRow {
  std::string tenant;
  std::string instance;
  std::uint64_t stamp = 0;
  std::size_t bytes = 0;
};

void append_entry_row(std::string& out, const std::string& tenant,
                      const std::string& instance, std::uint64_t stamp, std::size_t bytes) {
  out += "entry ";
  out += encode_token(tenant);
  out += ' ';
  out += encode_token(instance);
  out += ' ';
  out += std::to_string(stamp);
  out += ' ';
  out += std::to_string(bytes);
  out += '\n';
}

std::vector<EntryRow> parse_entry_rows(wire::LineReader& reader, const char* section) {
  const std::vector<std::string_view> head =
      wire::split_tokens(reader.next(section), section);
  TS_REQUIRE(head.size() == 2 && head[0] == section,
             "checkpoint: expected a '" << section << "' line");
  // The shortest row is "entry % % 0 0\n" (empty names encode as "%").
  constexpr std::size_t kMinRow = 14;
  const std::size_t count = wire::bounded_count(wire::parse_u64(head[1], "entry count"),
                                                reader.remaining(), kMinRow, "entry count");
  std::vector<EntryRow> rows;
  rows.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::vector<std::string_view> toks =
        wire::split_tokens(reader.next("entry row"), "entry row");
    TS_REQUIRE(toks.size() == 5 && toks[0] == "entry", "checkpoint: malformed entry row");
    EntryRow row;
    row.tenant = decode_token(std::string(toks[1]));
    row.instance = decode_token(std::string(toks[2]));
    row.stamp = wire::parse_u64(toks[3], "entry stamp");
    row.bytes = static_cast<std::size_t>(wire::parse_u64(toks[4], "entry bytes"));
    rows.push_back(std::move(row));
  }
  return rows;
}

void require_dir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    throw ResourceLimit("checkpoint: cannot create directory '" + dir + "': " + ec.message());
  }
}

}  // namespace

void write_checkpoint(const std::string& dir, const SessionStore& store,
                      const ServiceTelemetry& telemetry, std::size_t next_id) {
  // Entry/spill counts are deterministic; the directory path stays out of
  // the attributes (it varies per run and would break structure identity).
  obs::Span span(obs::trace(), "checkpoint.write");
  span.attr("entries", static_cast<std::uint64_t>(store.entries()));
  span.attr("spilled", static_cast<std::uint64_t>(store.spill_entries()));
  obs::count("treesat_checkpoint_writes_total", "Checkpoints written");
  require_dir(dir);
  require_dir(dir + "/sessions");

  std::string payload;
  payload += "next_id " + std::to_string(next_id) + '\n';
  payload += "clock " + std::to_string(store.clock()) + '\n';
  payload += "store_counters " + std::to_string(store.lru_evictions()) + ' ' +
             std::to_string(store.spills()) + ' ' + std::to_string(store.spill_reloads()) +
             ' ' + std::to_string(store.spill_drops()) + ' ' +
             std::to_string(store.spill_faults()) + ' ' +
             std::to_string(store.restore_faults()) + '\n';
  payload += "service_counters " + std::to_string(telemetry.requests) + ' ' +
             std::to_string(telemetry.errors) + '\n';

  const std::vector<const SessionEntry*> resident = store.resident_by_key();
  payload += "resident " + std::to_string(resident.size()) + '\n';
  for (const SessionEntry* entry : resident) {
    write_snapshot_file(dir + "/sessions/" + snapshot_file_name(entry->tenant, entry->instance),
                        session_entry_state(*entry));
    append_entry_row(payload, entry->tenant, entry->instance, entry->stamp, entry->bytes);
  }

  // The spill tier may hold fileless tombstones (failed spill writes) or
  // records whose file has since been lost (a vanished spill directory).
  // Both are checkpointed as the tree-only snapshot each record retains,
  // verbatim -- the restart serves those instances cold -- and a record
  // with neither file nor fallback is dropped from the checkpoint rather
  // than failing it. Manifest rows carry the bytes actually written.
  struct SpilledDump {
    const SpillRecord* record;
    std::string bytes;
  };
  std::vector<SpilledDump> dumps;
  for (const auto& [key, record] : store.spill_records()) {
    std::string bytes;
    if (record.bytes != 0) {
      try {
        bytes = read_file_bytes(store.spill_path(record.tenant, record.instance));
      } catch (const std::exception&) {
      }
    }
    if (bytes.empty()) bytes = record.fallback;
    if (bytes.empty()) continue;
    dumps.push_back({&record, std::move(bytes)});
  }
  payload += "spilled " + std::to_string(dumps.size()) + '\n';
  if (!dumps.empty()) {
    require_dir(dir + "/spilled");
    for (const SpilledDump& dump : dumps) {
      write_file_atomic(dir + "/spilled/" +
                            snapshot_file_name(dump.record->tenant, dump.record->instance),
                        dump.bytes);
      append_entry_row(payload, dump.record->tenant, dump.record->instance,
                       dump.record->stamp, dump.bytes.size());
    }
  }

  payload += "tenants " + std::to_string(telemetry.tenants.size()) + '\n';
  for (const auto& [name, tenant] : telemetry.tenants) {
    payload += "tenant ";
    payload += encode_token(name);
    append_tenant_counters(payload, tenant);
    payload += '\n';
  }
  payload += "overflow";
  append_tenant_counters(payload, telemetry.overflow);
  payload += '\n';
  payload += "end\n";

  // Manifest last: its presence is what marks the checkpoint complete.
  write_file_atomic(manifest_path(dir), frame_payload(kMagic, kVersion, payload));
}

RestoredService read_checkpoint(const std::string& dir, std::size_t shards,
                                std::size_t mem_budget, const std::string& spill_dir,
                                std::size_t spill_budget, FaultPlan* faults) {
  obs::Span span(obs::trace(), "checkpoint.restore");
  obs::count("treesat_checkpoint_restores_total", "Checkpoints restored");
  const std::string manifest = read_file_bytes(manifest_path(dir));
  const std::string_view payload = unframe_payload(kMagic, kVersion, manifest, "checkpoint");
  wire::LineReader reader(payload);

  const auto u64_line = [&reader](const char* keyword) {
    const std::vector<std::string_view> toks =
        wire::split_tokens(reader.next(keyword), keyword);
    TS_REQUIRE(toks.size() == 2 && toks[0] == keyword,
               "checkpoint: expected a '" << keyword << "' line");
    return wire::parse_u64(toks[1], keyword);
  };

  RestoredService out{SessionStore(shards, mem_budget, spill_dir, spill_budget),
                      ServiceTelemetry{}, 0};
  out.next_id = static_cast<std::size_t>(u64_line("next_id"));
  out.store.restore_clock(u64_line("clock"));

  const std::vector<std::string_view> counters =
      wire::split_tokens(reader.next("store_counters"), "store_counters");
  TS_REQUIRE(counters.size() == 7 && counters[0] == "store_counters",
             "checkpoint: expected a 'store_counters' line");
  out.store.restore_counters(
      static_cast<std::size_t>(wire::parse_u64(counters[1], "lru_evictions")),
      static_cast<std::size_t>(wire::parse_u64(counters[2], "spills")),
      static_cast<std::size_t>(wire::parse_u64(counters[3], "spill_reloads")),
      static_cast<std::size_t>(wire::parse_u64(counters[4], "spill_drops")),
      static_cast<std::size_t>(wire::parse_u64(counters[5], "spill_faults")),
      static_cast<std::size_t>(wire::parse_u64(counters[6], "restore_faults")));

  const std::vector<std::string_view> service =
      wire::split_tokens(reader.next("service_counters"), "service_counters");
  TS_REQUIRE(service.size() == 3 && service[0] == "service_counters",
             "checkpoint: expected a 'service_counters' line");
  out.telemetry.requests = static_cast<std::size_t>(wire::parse_u64(service[1], "requests"));
  out.telemetry.errors = static_cast<std::size_t>(wire::parse_u64(service[2], "errors"));

  for (const EntryRow& row : parse_entry_rows(reader, "resident")) {
    // Skip-and-count, never abort: a damaged session snapshot costs the
    // restart that one warm entry, not the whole process.
    try {
      if (faults != nullptr && faults->fires(FaultPoint::kRestoreRead)) {
        throw ResourceLimit("fault injection: restore read of '" + row.tenant + '/' +
                            row.instance + "' failed");
      }
      SessionState state = read_snapshot_file(
          dir + "/sessions/" + snapshot_file_name(row.tenant, row.instance));
      TS_REQUIRE(state.tenant == row.tenant && state.instance == row.instance,
                 "checkpoint: session file owner '" << state.tenant << '/' << state.instance
                                                    << "' does not match manifest row '"
                                                    << row.tenant << '/' << row.instance
                                                    << "'");
      SessionEntry entry = session_entry_from_state(std::move(state));
      TS_REQUIRE(entry.bytes == row.bytes,
                 "checkpoint: rebuilt entry '" << row.tenant << '/' << row.instance
                                               << "' estimates " << entry.bytes
                                               << " bytes, manifest says " << row.bytes);
      out.store.restore_entry(std::move(entry), row.stamp);
    } catch (const std::exception&) {
      ++out.restore_faults;
    }
  }

  const std::vector<EntryRow> spilled = parse_entry_rows(reader, "spilled");
  if (!spilled.empty()) {
    TS_REQUIRE(out.store.spill_enabled(),
               "checkpoint: holds " << spilled.size()
                                    << " spilled session(s) but the service has no spill_dir "
                                       "configured");
  }
  for (const EntryRow& row : spilled) {
    try {
      if (faults != nullptr && faults->fires(FaultPoint::kRestoreRead)) {
        throw ResourceLimit("fault injection: restore read of '" + row.tenant + '/' +
                            row.instance + "' failed");
      }
      const std::string file = snapshot_file_name(row.tenant, row.instance);
      const std::string bytes = read_file_bytes(dir + "/spilled/" + file);
      const SessionState state = decode_snapshot(bytes);  // full integrity check
      TS_REQUIRE(state.tenant == row.tenant && state.instance == row.instance,
                 "checkpoint: spilled file owner '" << state.tenant << '/' << state.instance
                                                    << "' does not match manifest row '"
                                                    << row.tenant << '/' << row.instance
                                                    << "'");
      TS_REQUIRE(bytes.size() == row.bytes,
                 "checkpoint: spilled file '" << file << "' is " << bytes.size()
                                              << " bytes, manifest says " << row.bytes);
      write_file_atomic(out.store.spill_path(row.tenant, row.instance), bytes);
      out.store.restore_spilled(row.tenant, row.instance, row.stamp, bytes.size());
    } catch (const std::exception&) {
      ++out.restore_faults;
    }
  }

  const std::vector<std::string_view> tenants_head =
      wire::split_tokens(reader.next("tenants"), "tenants");
  TS_REQUIRE(tenants_head.size() == 2 && tenants_head[0] == "tenants",
             "checkpoint: expected a 'tenants' line");
  const std::uint64_t tenant_count = wire::parse_u64(tenants_head[1], "tenant count");
  for (std::uint64_t i = 0; i < tenant_count; ++i) {
    const std::vector<std::string_view> toks =
        wire::split_tokens(reader.next("tenant row"), "tenant row");
    TS_REQUIRE(toks.size() >= 2 && toks[0] == "tenant", "checkpoint: malformed tenant row");
    const std::string name = decode_token(std::string(toks[1]));
    TS_REQUIRE(out.telemetry.tenants.find(name) == out.telemetry.tenants.end(),
               "checkpoint: duplicate tenant row '" << name << "'");
    out.telemetry.tenants[name] = parse_tenant_counters(toks, 2);
  }
  const std::vector<std::string_view> overflow =
      wire::split_tokens(reader.next("overflow"), "overflow");
  TS_REQUIRE(overflow.size() >= 1 && overflow[0] == "overflow",
             "checkpoint: expected an 'overflow' line");
  out.telemetry.overflow = parse_tenant_counters(overflow, 1);

  TS_REQUIRE(reader.next("end") == "end", "checkpoint: expected the 'end' sentinel");
  TS_REQUIRE(reader.done(), "checkpoint: trailing bytes after 'end'");
  // Fold this restore's skips into the store gauge on top of whatever the
  // manifest's persisted counter carried.
  out.store.count_restore_faults(out.restore_faults);
  span.attr("entries", static_cast<std::uint64_t>(out.store.entries()));
  span.attr("spilled", static_cast<std::uint64_t>(out.store.spill_entries()));
  span.attr("skipped", static_cast<std::uint64_t>(out.restore_faults));
  if (out.restore_faults != 0) {
    obs::count("treesat_restore_faults_total",
               "Checkpoint snapshots skipped during restore",
               obs::MetricClass::kDeterministic,
               static_cast<std::uint64_t>(out.restore_faults));
  }
  return out;
}

}  // namespace treesat
