// Observability dashboard: runs a small community simulation with the
// obs subsystem fully wired — one MetricsRegistry and one Tracer shared by
// the server, every client, the event loop and the fault injector — then
// dumps the live /metrics endpoint exactly as a scraper would see it,
// plus the most recent RPC trace spans.
//
// Metric naming scheme (see README): pisrep_<layer>_<name>, counters end
// in _total, per-label cells bake the label into the name —
// pisrep_net_faults_total{kind="drop"}. The text output is Prometheus
// exposition format; /metrics.json carries the same snapshot as JSON.
//
// Usage: ./build/examples/obs_dashboard [seed]

#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/scenario.h"
#include "trust/policy_rules.h"
#include "web/portal.h"

using namespace pisrep;

int main(int argc, char** argv) {
  std::uint64_t seed = 42;
  if (argc > 1) seed = std::strtoull(argv[1], nullptr, 10);

  sim::ScenarioConfig config;
  config.ecosystem.num_software = 60;
  config.ecosystem.num_vendors = 12;
  config.ecosystem.seed = seed;
  config.num_users = 15;
  config.duration = 7 * util::kDay;
  config.executions_per_day = 6.0;
  config.policy_rules = std::string(trust::PaperExampleRules());
  config.server.flood.registration_puzzle_bits = 0;
  config.server.flood.max_registrations_per_source_per_day = 0;
  // Log a metrics digest once per simulated day (driven by the sim clock).
  config.server.metrics_snapshot_period = util::kDay;
  config.seed = seed;

  // The registry and tracer must outlive the runner; every component
  // reports into them.
  obs::MetricsRegistry metrics;
  obs::Tracer tracer;
  config.metrics = &metrics;
  config.tracer = &tracer;

  sim::ScenarioRunner runner(std::move(config));
  sim::ScenarioResult result = runner.Run();

  std::printf("simulated 7 days: %zu votes, %zu metrics registered\n\n",
              result.total_votes, metrics.MetricCount());

  // The same bytes a monitoring scraper would fetch from the portal.
  web::WebPortal portal(&runner.server());
  auto text = portal.Handle("/metrics");
  if (!text.ok()) {
    std::fprintf(stderr, "metrics endpoint failed: %s\n",
                 text.status().ToString().c_str());
    return 1;
  }
  std::printf("== GET /metrics ==\n%s\n", text->c_str());

  std::printf("== recent trace spans (of %llu started) ==\n",
              static_cast<unsigned long long>(tracer.spans_started()));
  int shown = 0;
  for (auto it = tracer.finished().rbegin();
       it != tracer.finished().rend() && shown < 10; ++it, ++shown) {
    std::printf(
        "trace=%llu span=%llu parent=%llu %-28s [%lld..%lld ms]%s\n",
        static_cast<unsigned long long>(it->trace_id),
        static_cast<unsigned long long>(it->span_id),
        static_cast<unsigned long long>(it->parent_id), it->name.c_str(),
        static_cast<long long>(it->start), static_cast<long long>(it->end),
        it->error ? " ERROR" : "");
  }
  return 0;
}
