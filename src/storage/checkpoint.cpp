#include "storage/checkpoint.hpp"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <map>
#include <string_view>
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
constexpr std::string_view kVersion = "v4";

// Floors bounded_count divides by: an entry row is two names (a u32 length
// each), its stamp and its bytes; a tenant row is a name, its counters and
// a method count; a method counter is one u64.
constexpr std::size_t kMinEntryRow = 4 + 4 + 8 + 8;
constexpr std::size_t kMinTenantRow = 4 + std::size(kTenantCounters) * 8 + 4;

std::string manifest_path(const std::string& dir) { return dir + "/MANIFEST.tsc"; }

void put_tenant_counters(std::string& out, const TenantTelemetry& t) {
  for (const TenantCounter& counter : kTenantCounters) {
    wire::put(out, std::uint64_t{t.*counter.member});
  }
  wire::put_count(out, t.method_counts.size());
  for (const std::size_t count : t.method_counts) wire::put(out, std::uint64_t{count});
}

/// The counters of a tenant or overflow row, which must carry exactly this
/// build's method counters.
TenantTelemetry take_tenant_counters(wire::ByteReader& in) {
  TenantTelemetry t;
  for (const TenantCounter& counter : kTenantCounters) {
    t.*counter.member = in.get<std::uint64_t>("tenant counter");
  }
  const std::size_t methods = in.count("method count", 8);
  TS_REQUIRE(methods == t.method_counts.size(),
             "checkpoint: tenant row carries " << methods << " method counters, this build has "
                                               << t.method_counts.size());
  for (std::size_t& count : t.method_counts) count = in.get<std::uint64_t>("method counter");
  return t;
}

struct EntryRow {
  std::string tenant;
  std::string instance;
  std::uint64_t stamp = 0;
  std::size_t bytes = 0;
};

void put_entry_row(std::string& out, const std::string& tenant, const std::string& instance,
                   std::uint64_t stamp, std::size_t bytes) {
  wire::put_string(out, tenant);
  wire::put_string(out, instance);
  wire::put(out, stamp);
  wire::put(out, std::uint64_t{bytes});
}

/// One counted section of entry rows.
std::vector<EntryRow> take_entry_rows(wire::ByteReader& in, const char* section) {
  std::vector<EntryRow> rows(in.count(section, kMinEntryRow));
  for (EntryRow& row : rows) {
    row.tenant = in.string("entry tenant");
    row.instance = in.string("entry instance");
    row.stamp = in.get<std::uint64_t>("entry stamp");
    row.bytes = in.get<std::uint64_t>("entry bytes");
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

/// Removes the snapshot files under `subdir` that `listed` does not name:
/// rows an earlier checkpoint into the same directory wrote and this one
/// no longer has, and staging files a crash left. Nothing else in a
/// directory a client named is touched. Best effort: the checkpoint is
/// complete once its manifest is written.
void remove_unlisted(const std::string& subdir, std::vector<std::string> listed) {
  std::sort(listed.begin(), listed.end());
  std::vector<std::filesystem::path> stale;
  std::error_code ec;
  for (std::filesystem::directory_iterator it(subdir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if ((name.ends_with(".tss") || name.ends_with(".tss.tmp")) &&
        !std::binary_search(listed.begin(), listed.end(), name)) {
      stale.push_back(it->path());
    }
  }
  for (const std::filesystem::path& path : stale) std::filesystem::remove(path, ec);
}

}  // namespace

void write_checkpoint(const std::string& dir, const SessionStore& store,
                      const ServiceTelemetry& telemetry, std::size_t next_id) {
  // Entry/spill counts are deterministic; the directory path stays out of
  // the attributes (it varies per run and would break structure identity).
  obs::Span span(obs::trace(), "checkpoint.write");
  span.attr("entries", static_cast<std::uint64_t>(store.entries()));
  span.attr("spilled", static_cast<std::uint64_t>(store.spill_entries()));
  static const obs::CounterSite writes("treesat_checkpoint_writes_total", "Checkpoints written");
  writes.add();
  require_dir(dir);
  require_dir(dir + "/sessions");

  std::string payload;
  wire::put(payload, std::uint64_t{next_id});
  wire::put(payload, store.clock());
  for (const std::size_t counter :
       {store.lru_evictions(), store.spills(), store.spill_reloads(), store.spill_drops(),
        store.spill_faults(), store.restore_faults(), telemetry.requests, telemetry.errors}) {
    wire::put(payload, std::uint64_t{counter});
  }

  // Resident sessions are encoded live, as the spill tier encodes them,
  // through one buffer.
  const std::vector<const SessionEntry*> resident = store.resident_by_key();
  wire::put_count(payload, resident.size());
  std::vector<std::string> session_files;
  std::string buffer;
  for (const SessionEntry* entry : resident) {
    session_files.push_back(snapshot_file_name(entry->tenant, entry->instance));
    write_file_atomic(dir + "/sessions/" + session_files.back(),
                      encode_entry_snapshot(*entry, buffer));
    put_entry_row(payload, entry->tenant, entry->instance, entry->stamp, entry->bytes);
  }

  // Each spilled record's bytes are copied out of the store's segment. The
  // spill tier may hold slotless tombstones (failed spill writes), records
  // whose slot has since been lost (a vanished spill directory) and slots
  // whose bytes fail their frame's hash check. All are checkpointed as the
  // tree-only snapshot each record retains, verbatim -- the restart serves
  // those instances cold, as the live process would. Manifest rows carry
  // the bytes actually written.
  const std::map<std::string, SpillRecord>& records = store.spill_records();
  wire::put_count(payload, records.size());
  std::vector<std::string> spilled_files;
  if (!records.empty()) require_dir(dir + "/spilled");
  for (const auto& [key, record] : records) {
    std::string bytes = store.spilled_bytes(record);
    if (bytes.empty()) bytes = record.fallback;
    spilled_files.push_back(snapshot_file_name(record.tenant, record.instance));
    write_file_atomic(dir + "/spilled/" + spilled_files.back(), bytes);
    put_entry_row(payload, record.tenant, record.instance, record.stamp, bytes.size());
  }

  wire::put_count(payload, telemetry.tenants.size());
  for (const auto& [name, tenant] : telemetry.tenants) {
    wire::put_string(payload, name);
    put_tenant_counters(payload, tenant);
  }
  put_tenant_counters(payload, telemetry.overflow);

  // Manifest last: its presence is what marks the checkpoint complete.
  write_file_atomic(manifest_path(dir), frame_payload(kMagic, kVersion, payload));
  remove_unlisted(dir + "/sessions", std::move(session_files));
  remove_unlisted(dir + "/spilled", std::move(spilled_files));
}

RestoredService read_checkpoint(const std::string& dir, std::size_t shards,
                                std::size_t mem_budget, const std::string& spill_dir,
                                std::size_t spill_budget, FaultPlan* faults) {
  obs::Span span(obs::trace(), "checkpoint.restore");
  static const obs::CounterSite restores("treesat_checkpoint_restores_total",
                                         "Checkpoints restored");
  restores.add();
  const std::string manifest = read_file_bytes(manifest_path(dir));
  wire::ByteReader in(unframe_payload(kMagic, kVersion, manifest, "checkpoint"));

  RestoredService out{SessionStore(shards, mem_budget, spill_dir, spill_budget),
                      ServiceTelemetry{}, 0};
  out.next_id = in.get<std::uint64_t>("next_id");
  out.store.restore_clock(in.get<std::uint64_t>("clock"));
  std::size_t counters[6];
  for (std::size_t& counter : counters) counter = in.get<std::uint64_t>("store counter");
  out.store.restore_counters(counters[0], counters[1], counters[2], counters[3], counters[4],
                             counters[5]);
  out.telemetry.requests = in.get<std::uint64_t>("requests");
  out.telemetry.errors = in.get<std::uint64_t>("errors");

  // Skip-and-count, never abort: a damaged snapshot costs the restart that
  // one warm entry, not the whole process. `faults` may fail each read.
  std::size_t skipped = 0;
  const auto read_row = [&](const char* subdir, const EntryRow& row) {
    if (faults != nullptr && faults->fires(FaultPoint::kRestoreRead)) {
      throw ResourceLimit("fault injection: restore read of '" + row.tenant + '/' +
                          row.instance + "' failed");
    }
    return read_file_bytes(dir + subdir + snapshot_file_name(row.tenant, row.instance));
  };
  for (const EntryRow& row : take_entry_rows(in, "resident rows")) {
    try {
      SessionState state = decode_snapshot(read_row("/sessions/", row));
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
      ++skipped;
    }
  }

  const std::vector<EntryRow> spilled = take_entry_rows(in, "spilled rows");
  TS_REQUIRE(spilled.empty() || out.store.spill_enabled(),
             "checkpoint: holds " << spilled.size() << " spilled session(s) but the service "
                                                       "has no spill_dir configured");
  for (const EntryRow& row : spilled) {
    try {
      const std::string bytes = read_row("/spilled/", row);
      std::string fallback;
      // Frame, owner, size and node table; the reload decodes the rest.
      const SessionState state = decode_snapshot_prefix(bytes, fallback);
      TS_REQUIRE(state.tenant == row.tenant && state.instance == row.instance,
                 "checkpoint: spilled file owner '" << state.tenant << '/' << state.instance
                                                    << "' does not match manifest row '"
                                                    << row.tenant << '/' << row.instance
                                                    << "'");
      TS_REQUIRE(bytes.size() == row.bytes,
                 "checkpoint: spilled '" << row.tenant << '/' << row.instance << "' is "
                                         << bytes.size() << " bytes, manifest says " << row.bytes);
      // Into the new store's own segment: the live store's spilled
      // sessions stay untouched if this restore fails further on.
      out.store.restore_spilled(row.tenant, row.instance, row.stamp, bytes, std::move(fallback));
    } catch (const std::exception&) {
      ++skipped;
    }
  }

  // The live service tracks at most kMaxTrackedTenants names and folds the
  // rest into `overflow`; a restore holds a manifest to the same cap, rows
  // past it folding in manifest order.
  const std::size_t tenants = in.count("tenant rows", kMinTenantRow);
  for (std::size_t i = 0; i < tenants; ++i) {
    std::string name(in.string("tenant name"));
    TS_REQUIRE(out.telemetry.tenants.find(name) == out.telemetry.tenants.end(),
               "checkpoint: duplicate tenant row '" << name << "'");
    TenantTelemetry row = take_tenant_counters(in);
    if (out.telemetry.tenants.size() < ServiceTelemetry::kMaxTrackedTenants) {
      out.telemetry.tenants.emplace(std::move(name), std::move(row));
    } else {
      out.telemetry.overflow.merge(row);
    }
  }
  out.telemetry.overflow.merge(take_tenant_counters(in));
  TS_REQUIRE(in.done(),
             "checkpoint: " << in.remaining() << " trailing bytes after the overflow row");
  // Fold this restore's skips into the store gauge on top of whatever the
  // manifest's persisted counter carried.
  out.store.count_restore_faults(skipped);
  span.attr("entries", static_cast<std::uint64_t>(out.store.entries()));
  span.attr("spilled", static_cast<std::uint64_t>(out.store.spill_entries()));
  span.attr("skipped", static_cast<std::uint64_t>(skipped));
  return out;
}

}  // namespace treesat
