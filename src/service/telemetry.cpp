#include "service/telemetry.hpp"

#include "common/json.hpp"

namespace treesat {

namespace {

/// One tenant block of the telemetry document (also the global totals and
/// the overflow aggregate), as members of the open object. Each ratio
/// follows the last counter it reads.
void write_tenant_block(JsonLineWriter& w, const TenantTelemetry& t) {
  for (const TenantCounter& counter : kTenantCounters) {
    w.field_uint(counter.name, t.*counter.member);
    if (counter.member == &TenantTelemetry::cold_solves) {
      w.field_num("warm_hit_ratio", t.warm_hit_ratio());
    } else if (counter.member == &TenantTelemetry::rejected) {
      w.field_num("goodput_ratio", t.goodput_ratio());
    }
  }
  w.begin_object("method_counts");
  for (std::size_t m = 0; m < t.method_counts.size(); ++m) {
    if (t.method_counts[m] == 0) continue;
    w.field_uint(method_name(static_cast<SolveMethod>(m)), t.method_counts[m]);
  }
  w.end_object();
}

void write_tenant_section(JsonLineWriter& w, std::string_view name, const TenantTelemetry& t) {
  w.begin_object().field_str("tenant", name);
  write_tenant_block(w, t);
  w.end_object();
}

}  // namespace

std::string service_telemetry_to_json(const ServiceTelemetry& telemetry,
                                      std::string_view tenant) {
  JsonLineWriter w;
  for (const ServiceGauge& gauge : kServiceGauges) {
    w.field_uint(gauge.name, telemetry.*gauge.member);
  }

  w.begin_object("totals");
  if (tenant.empty()) {
    write_tenant_block(w, telemetry.totals());
    w.end_object().begin_array("tenants");
    for (const auto& [name, section] : telemetry.tenants) {
      write_tenant_section(w, name, section);
    }
    if (telemetry.overflow.requests > 0) {
      write_tenant_section(w, "(overflow)", telemetry.overflow);
    }
  } else {
    const auto it = telemetry.tenants.find(tenant);
    const TenantTelemetry untracked;
    write_tenant_block(w, it != telemetry.tenants.end() ? it->second : untracked);
    w.end_object().begin_array("tenants");
    if (it != telemetry.tenants.end()) write_tenant_section(w, it->first, it->second);
  }
  w.end_array();
  return w.finish();
}

}  // namespace treesat
