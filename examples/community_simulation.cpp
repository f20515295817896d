// Community simulation: a 30-day deployment of the reputation system over
// a mixed population — the workload the paper's introduction motivates
// (home users drowning in grey-zone freeware).
//
// A third of the machines are unprotected, a third run a conventional
// signature scanner, a third run the pisrep client. Prints a comparative
// report.
//
// Usage: ./build/examples/community_simulation [seed]

#include <cstdio>
#include <cstdlib>
#include <string>

#include "sim/scenario.h"
#include "trust/policy_rules.h"
#include "web/portal.h"

using namespace pisrep;

namespace {

void PrintGroup(const sim::GroupOutcome& outcome) {
  std::printf("  %-14s : %3d hosts, %6llu launches | PIS blocked %5.1f%% | "
              "false blocks %4.2f%% | hosts exposed %3.0f%%\n",
              outcome.label.c_str(), outcome.hosts,
              static_cast<unsigned long long>(outcome.executions),
              100.0 * outcome.PisBlockRate(),
              100.0 * outcome.FalseBlockRate(),
              100.0 * outcome.InfectionRate());
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 42;

  sim::ScenarioConfig config;
  config.ecosystem.num_software = 200;
  config.ecosystem.num_vendors = 30;
  config.ecosystem.seed = seed;
  config.num_users = 60;
  config.frac_unprotected = 1.0 / 3.0;
  config.frac_av = 1.0 / 3.0;
  config.frac_expert = 0.15;
  config.frac_novice = 0.25;
  config.duration = 30 * util::kDay;
  config.executions_per_day = 6.0;
  config.policy_rules = std::string(trust::PaperExampleRules());
  config.trust_legit_vendors = true;
  config.server.flood.registration_puzzle_bits = 0;
  config.server.flood.max_registrations_per_source_per_day = 0;
  config.seed = seed;

  std::printf("pisrep community simulation\n");
  std::printf("  200 programs / 30 vendors, 60 hosts (1/3 bare, 1/3 AV, "
              "1/3 reputation), 30 days, seed %llu\n\n",
              static_cast<unsigned long long>(seed));

  sim::ScenarioRunner runner(config);
  sim::ScenarioResult result = runner.Run();

  std::printf("protection outcomes:\n");
  PrintGroup(result.group(sim::ProtectionKind::kNone));
  PrintGroup(result.group(sim::ProtectionKind::kSignatureAv));
  PrintGroup(result.group(sim::ProtectionKind::kReputation));

  const sim::GroupOutcome& rep =
      result.group(sim::ProtectionKind::kReputation);
  std::printf("\nreputation system activity:\n");
  std::printf("  votes collected        : %zu\n", result.total_votes);
  std::printf("  comment remarks        : %zu\n", result.total_remarks);
  std::printf("  programs with scores   : %d (of %zu in the wild)\n",
              result.visible_software, runner.ecosystem().size());
  std::printf("  score accuracy (MAE)   : %.2f on the 1..10 scale\n",
              result.score_mae);
  std::printf("  user prompts           : %llu (%.2f per host-week)\n",
              static_cast<unsigned long long>(rep.prompts),
              rep.prompts / (rep.hosts * 30.0 / 7.0));
  std::printf("  server RPC traffic     : %llu messages, %llu bytes\n",
              static_cast<unsigned long long>(
                  runner.network().messages_delivered()),
              static_cast<unsigned long long>(runner.network().bytes_sent()));

  std::printf("\nmost-rated programs:\n");
  int shown = 0;
  for (const sim::SoftwareSpec& spec : runner.ecosystem().specs()) {
    auto score = runner.server().registry().GetScore(spec.image.Digest());
    if (!score.ok() || score->vote_count < 3) continue;
    std::printf("  %-18s %-26s score %4.1f (%2d votes, truth %.1f) %s\n",
                spec.image.file_name().c_str(),
                spec.image.company().empty()
                    ? "<no company name>"
                    : spec.image.company().c_str(),
                score->score, score->vote_count, spec.true_quality,
                core::PisCategoryName(spec.truth));
    if (++shown == 8) break;
  }

  // The §3 web interface serves the same data as browsable pages.
  web::WebPortal portal(&runner.server());
  auto stats_page = portal.Handle("/stats");
  if (stats_page.ok()) {
    std::printf("\nweb portal /stats (%zu bytes of HTML); front page at "
                "/ lists %zu tracked programs\n",
                stats_page->size(), runner.ecosystem().size());
  }
  return 0;
}
