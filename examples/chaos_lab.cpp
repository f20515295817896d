// Chaos lab: drives a community deployment through a scripted fault
// schedule — a day-long server partition, a process crash with WAL-backed
// recovery, and a two-day window of packet loss, duplication and payload
// corruption — and reports how the client population degrades and
// recovers.
//
// The run demonstrates the graceful-degradation machinery end to end:
// circuit breakers failing fast while the server is gone, prompts served
// from stale cache entries (marked offline), ratings parked in offline
// outboxes and replayed after the heal, automatic re-login after the
// restarted server forgot every session. A no-fault control run with the
// same seed shows what the chaos cost.
//
// Usage: ./build/examples/chaos_lab [seed]

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "sim/scenario.h"
#include "trust/policy_rules.h"

using namespace pisrep;

namespace {

sim::ScenarioConfig MakeConfig(std::uint64_t seed) {
  sim::ScenarioConfig config;
  config.ecosystem.num_software = 120;
  config.ecosystem.num_vendors = 20;
  config.ecosystem.seed = seed;
  config.num_users = 30;
  config.frac_unprotected = 0.0;
  config.frac_av = 0.0;
  config.frac_expert = 0.15;
  config.frac_novice = 0.25;
  config.duration = 30 * util::kDay;
  config.executions_per_day = 6.0;
  config.policy_rules = std::string(trust::PaperExampleRules());
  config.trust_legit_vendors = true;
  config.server.flood.registration_puzzle_bits = 0;
  config.server.flood.max_registrations_per_source_per_day = 0;
  config.seed = seed;
  return config;
}

struct ClientTotals {
  std::uint64_t stale_served = 0;
  std::uint64_t ratings_queued = 0;
  std::uint64_t ratings_replayed = 0;
  std::uint64_t relogins = 0;
  std::uint64_t still_queued = 0;
  std::uint64_t breaker_opens = 0;
  std::uint64_t fast_failures = 0;
  std::uint64_t corrupt_responses = 0;
  std::uint64_t rpc_timeouts = 0;
};

ClientTotals Tally(sim::ScenarioRunner& runner) {
  ClientTotals t;
  for (auto& host : runner.hosts()) {
    if (host->protection() != sim::ProtectionKind::kReputation) continue;
    client::ClientApp* app = host->client();
    t.stale_served += app->stats().stale_served;
    t.ratings_queued += app->stats().ratings_queued;
    t.ratings_replayed += app->stats().ratings_replayed;
    t.relogins += app->stats().relogins;
    t.still_queued += app->offline_queue().size();
    t.breaker_opens += app->rpc().breaker_opens();
    t.fast_failures += app->rpc().fast_failures();
    t.corrupt_responses += app->rpc().corrupt_responses();
    t.rpc_timeouts += app->rpc().timeouts();
  }
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 42;

  std::string wal_path =
      (std::filesystem::temp_directory_path() /
       ("pisrep_chaos_lab_" + std::to_string(seed) + ".wal"))
          .string();
  std::filesystem::remove(wal_path);

  std::printf("pisrep chaos lab (seed %llu)\n",
              static_cast<unsigned long long>(seed));
  std::printf("  30 reputation hosts, 120 programs, 30 days\n");
  std::printf("  fault schedule: partition d5-d6 | server crash d12 "
              "(+6h down, WAL recovery) | 10%% loss + 2%% dup + 5%% "
              "corruption d20-d22\n\n");

  // --- Chaos run -------------------------------------------------------
  sim::ScenarioConfig config = MakeConfig(seed);
  config.server_db_path = wal_path;
  config.chaos.enabled = true;
  sim::ScenarioRunner chaos_run(config);
  sim::ScenarioResult chaos_result = chaos_run.Run();

  // --- Control run: same world, healthy network ------------------------
  sim::ScenarioRunner control_run(MakeConfig(seed));
  sim::ScenarioResult control_result = control_run.Run();

  const sim::GroupOutcome& chaos_rep =
      chaos_result.group(sim::ProtectionKind::kReputation);
  const sim::GroupOutcome& control_rep =
      control_result.group(sim::ProtectionKind::kReputation);

  std::printf("liveness under chaos:\n");
  std::printf("  executions             : %llu\n",
              static_cast<unsigned long long>(chaos_rep.executions));
  std::printf("  decisions resolved     : %llu (%s)\n",
              static_cast<unsigned long long>(chaos_rep.DecisionsResolved()),
              chaos_rep.DecisionsResolved() == chaos_rep.executions
                  ? "every callback fired exactly once"
                  : "MISMATCH — lost or duplicated callbacks!");

  net::FaultInjector& faults = chaos_run.faults();
  std::printf("\ninjected faults:\n");
  std::printf("  dropped by partition/loss : %llu\n",
              static_cast<unsigned long long>(faults.dropped_by_fault()));
  std::printf("  duplicated deliveries     : %llu\n",
              static_cast<unsigned long long>(faults.duplicated()));
  std::printf("  corrupted payloads        : %llu\n",
              static_cast<unsigned long long>(faults.corrupted()));

  ClientTotals totals = Tally(chaos_run);
  std::printf("\nclient degradation and recovery:\n");
  std::printf("  rpc timeouts              : %llu\n",
              static_cast<unsigned long long>(totals.rpc_timeouts));
  std::printf("  corrupt responses seen    : %llu\n",
              static_cast<unsigned long long>(totals.corrupt_responses));
  std::printf("  circuit-breaker opens     : %llu (%llu calls failed fast)\n",
              static_cast<unsigned long long>(totals.breaker_opens),
              static_cast<unsigned long long>(totals.fast_failures));
  std::printf("  prompts from stale cache  : %llu\n",
              static_cast<unsigned long long>(totals.stale_served));
  std::printf("  ratings queued offline    : %llu, replayed %llu, "
              "still queued %llu\n",
              static_cast<unsigned long long>(totals.ratings_queued),
              static_cast<unsigned long long>(totals.ratings_replayed),
              static_cast<unsigned long long>(totals.still_queued));
  std::printf("  automatic re-logins       : %llu\n",
              static_cast<unsigned long long>(totals.relogins));

  std::printf("\nchaos vs. healthy control (same seed):\n");
  std::printf("  %-22s %10s %10s\n", "", "chaos", "control");
  std::printf("  %-22s %9.1f%% %9.1f%%\n", "PIS blocked",
              100.0 * chaos_rep.PisBlockRate(),
              100.0 * control_rep.PisBlockRate());
  std::printf("  %-22s %9.2f%% %9.2f%%\n", "false blocks",
              100.0 * chaos_rep.FalseBlockRate(),
              100.0 * control_rep.FalseBlockRate());
  std::printf("  %-22s %10zu %10zu\n", "votes on server",
              chaos_result.total_votes, control_result.total_votes);
  std::printf("  %-22s %10.2f %10.2f\n", "score MAE",
              chaos_result.score_mae, control_result.score_mae);

  std::filesystem::remove(wal_path);

  bool ok = chaos_rep.DecisionsResolved() == chaos_rep.executions &&
            totals.still_queued == 0;
  std::printf("\n%s\n", ok ? "chaos run healthy: no lost callbacks, all "
                             "offline ratings delivered"
                           : "chaos run UNHEALTHY");
  return ok ? 0 : 1;
}
