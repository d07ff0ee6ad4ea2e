#include "service/telemetry.hpp"

#include "common/format.hpp"
#include "io/json.hpp"

namespace treesat {

namespace {

void append_field(std::string& out, std::string_view name, std::size_t value) {
  out += '"';
  out += name;
  out += "\":";
  out += std::to_string(value);
}

void append_ratio(std::string& out, std::string_view name, double value) {
  out += ",\"";
  out += name;
  out += "\":";
  out += shortest_round_trip(value);
}

/// One tenant block of the telemetry document (also the global totals and
/// the overflow aggregate). Each ratio follows the last counter it reads.
void append_tenant_block(std::string& out, const TenantTelemetry& t) {
  const char* sep = "";
  for (const TenantCounter& counter : kTenantCounters) {
    out += sep;
    sep = ",";
    append_field(out, counter.name, t.*counter.member);
    if (counter.member == &TenantTelemetry::cold_solves) {
      append_ratio(out, "warm_hit_ratio", t.warm_hit_ratio());
    } else if (counter.member == &TenantTelemetry::rejected) {
      append_ratio(out, "goodput_ratio", t.goodput_ratio());
    }
  }
  out += ",\"method_counts\":{";
  sep = "";
  for (std::size_t m = 0; m < t.method_counts.size(); ++m) {
    if (t.method_counts[m] == 0) continue;
    out += sep;
    sep = ",";
    append_field(out, method_name(static_cast<SolveMethod>(m)), t.method_counts[m]);
  }
  out += '}';
}

void append_tenant_section(std::string& out, const std::string& name,
                           const TenantTelemetry& t) {
  out += "{\"tenant\":\"";
  out += json_escape(name);
  out += "\",";
  append_tenant_block(out, t);
  out += '}';
}

}  // namespace

std::string service_telemetry_to_json(const ServiceTelemetry& telemetry,
                                      std::string_view tenant) {
  std::string out;
  const char* sep = "{";
  for (const ServiceGauge& gauge : kServiceGauges) {
    out += sep;
    sep = ",";
    append_field(out, gauge.name, telemetry.*gauge.member);
  }

  out += ",\"totals\":{";
  if (tenant.empty()) {
    append_tenant_block(out, telemetry.totals());
    out += "},\"tenants\":[";
    sep = "";
    for (const auto& [name, section] : telemetry.tenants) {
      out += sep;
      sep = ",";
      append_tenant_section(out, name, section);
    }
    if (telemetry.overflow.requests > 0) {
      out += sep;
      append_tenant_section(out, "(overflow)", telemetry.overflow);
    }
  } else {
    const auto it = telemetry.tenants.find(tenant);
    const TenantTelemetry untracked;
    append_tenant_block(out, it != telemetry.tenants.end() ? it->second : untracked);
    out += "},\"tenants\":[";
    if (it != telemetry.tenants.end()) append_tenant_section(out, it->first, it->second);
  }
  out += "]}";
  return out;
}

}  // namespace treesat
