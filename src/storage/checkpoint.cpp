#include "storage/checkpoint.hpp"

#include <filesystem>
#include <iterator>
#include <map>
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
  for (const TenantCounter& counter : kTenantCounters) {
    out += ' ';
    out += std::to_string(t.*counter.member);
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
  constexpr std::size_t kCounters = std::size(kTenantCounters);
  TS_REQUIRE(tokens.size() >= at + kCounters + 1, "checkpoint: truncated tenant row");
  for (const TenantCounter& counter : kTenantCounters) {
    t.*counter.member =
        static_cast<std::size_t>(wire::parse_u64(tokens[at++], "tenant counter"));
  }
  const std::uint64_t methods = wire::parse_u64(tokens[at], "method count");
  TS_REQUIRE(methods == t.method_counts.size(),
             "checkpoint: tenant row carries " << methods << " method counters, this build has "
                                               << t.method_counts.size());
  TS_REQUIRE(tokens.size() == at + 1 + t.method_counts.size(),
             "checkpoint: tenant row has trailing tokens");
  for (std::size_t m = 0; m < t.method_counts.size(); ++m) {
    t.method_counts[m] =
        static_cast<std::size_t>(wire::parse_u64(tokens[at + 1 + m], "method counter"));
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

  // Resident sessions are encoded live, as the spill tier encodes them,
  // through one buffer.
  const std::vector<const SessionEntry*> resident = store.resident_by_key();
  payload += "resident " + std::to_string(resident.size()) + '\n';
  std::string buffer;
  for (const SessionEntry* entry : resident) {
    write_file_atomic(dir + "/sessions/" + snapshot_file_name(entry->tenant, entry->instance),
                      encode_entry_snapshot(*entry, buffer));
    append_entry_row(payload, entry->tenant, entry->instance, entry->stamp, entry->bytes);
  }

  // Each spilled record's bytes are copied out of the store's segment. The
  // spill tier may hold slotless tombstones (failed spill writes) or
  // records whose slot has since been lost (a vanished spill directory).
  // Both are checkpointed as the tree-only snapshot each record retains,
  // verbatim -- the restart serves those instances cold. Manifest rows
  // carry the bytes actually written.
  const std::map<std::string, SpillRecord>& records = store.spill_records();
  payload += "spilled " + std::to_string(records.size()) + '\n';
  if (!records.empty()) require_dir(dir + "/spilled");
  for (const auto& [key, record] : records) {
    std::string bytes = store.spilled_bytes(record);
    if (bytes.empty()) bytes = record.fallback;
    write_file_atomic(dir + "/spilled/" + snapshot_file_name(record.tenant, record.instance),
                      bytes);
    append_entry_row(payload, record.tenant, record.instance, record.stamp, bytes.size());
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
      std::string fallback;
      const SessionState state = decode_snapshot(bytes, fallback);  // full integrity check
      TS_REQUIRE(state.tenant == row.tenant && state.instance == row.instance,
                 "checkpoint: spilled file owner '" << state.tenant << '/' << state.instance
                                                    << "' does not match manifest row '"
                                                    << row.tenant << '/' << row.instance
                                                    << "'");
      TS_REQUIRE(bytes.size() == row.bytes,
                 "checkpoint: spilled file '" << file << "' is " << bytes.size()
                                              << " bytes, manifest says " << row.bytes);
      // Into the new store's own segment: the live store's spilled
      // sessions stay untouched if this restore fails further on.
      out.store.restore_spilled(row.tenant, row.instance, row.stamp, bytes, std::move(fallback));
    } catch (const std::exception&) {
      ++out.restore_faults;
    }
  }

  const std::vector<std::string_view> tenants_head =
      wire::split_tokens(reader.next("tenants"), "tenants");
  TS_REQUIRE(tenants_head.size() == 2 && tenants_head[0] == "tenants",
             "checkpoint: expected a 'tenants' line");
  const std::uint64_t tenant_count = wire::parse_u64(tenants_head[1], "tenant count");
  // The live service tracks at most kMaxTrackedTenants names and folds the
  // rest into `overflow`; a restore holds a manifest to the same cap, rows
  // past it folding in manifest order.
  for (std::uint64_t i = 0; i < tenant_count; ++i) {
    const std::vector<std::string_view> toks =
        wire::split_tokens(reader.next("tenant row"), "tenant row");
    TS_REQUIRE(toks.size() >= 2 && toks[0] == "tenant", "checkpoint: malformed tenant row");
    const std::string name = decode_token(std::string(toks[1]));
    TS_REQUIRE(out.telemetry.tenants.find(name) == out.telemetry.tenants.end(),
               "checkpoint: duplicate tenant row '" << name << "'");
    TenantTelemetry row = parse_tenant_counters(toks, 2);
    if (out.telemetry.tenants.size() < ServiceTelemetry::kMaxTrackedTenants) {
      out.telemetry.tenants.emplace(name, std::move(row));
    } else {
      out.telemetry.overflow.merge(row);
    }
  }
  const std::vector<std::string_view> overflow =
      wire::split_tokens(reader.next("overflow"), "overflow");
  TS_REQUIRE(overflow.size() >= 1 && overflow[0] == "overflow",
             "checkpoint: expected an 'overflow' line");
  out.telemetry.overflow.merge(parse_tenant_counters(overflow, 1));

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
