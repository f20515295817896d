// Experiment F7 — signature white-listing and the policy manager reduce
// user interruptions.
//
// §4.2: "In case the certificate is present and valid, the file is
// automatically allowed to proceed with the execution ... could
// considerably lower the need for user interaction" and the example
// policy: trusted-vendor software runs, "while other software only is
// allowed if it has a rating over 7.5/10 and does not show any
// advertisements."
//
// We run the same 30-day community under three client policies and report
// prompts per host-week alongside protection quality.

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "sim/scenario.h"
#include "trust/policy_rules.h"

namespace pisrep {
namespace {

using util::kDay;

int main_impl() {
  bench::Banner("F7 — policy manager vs user interruptions",
                "section 4.2 (improvement suggestions)");

  // Each policy is rule text; the client's white/black lists run before it.
  struct Config {
    const char* label;
    std::string policy_rules;
    bool trust_vendors;
  };
  Config configs[] = {
      {"proof-of-concept (lists only, always ask)", "default ask", false},
      {"+ signature white-listing of trusted vendors",
       "allow if signed-by trusted vendor\ndefault ask", true},
      {"+ full policy (rating>7.5 & no ads; deny<3)",
       std::string(trust::PaperExampleRules()), true},
  };

  std::printf("population: 40 hosts, 30 days, 6 launches/host-day\n\n");
  std::printf("%-46s | %-12s | %-10s | %-12s | %-12s\n", "client policy",
              "prompts/h-wk", "PIS block", "false block", "votes");
  bench::Rule();

  double prev_prompt_rate = 1e18;
  bool decreasing = true;
  for (Config& entry : configs) {
    sim::ScenarioConfig config;
    config.ecosystem.num_software = 150;
    config.ecosystem.num_vendors = 24;
    config.ecosystem.seed = 4242;
    config.num_users = 40;
    config.duration = 30 * kDay;
    config.executions_per_day = 6.0;
    config.policy_rules = entry.policy_rules;
    config.trust_legit_vendors = entry.trust_vendors;
    config.server.flood.registration_puzzle_bits = 0;
    config.server.flood.max_registrations_per_source_per_day = 0;
    config.seed = 9001;

    sim::ScenarioRunner runner(config);
    sim::ScenarioResult result = runner.Run();
    const sim::GroupOutcome& rep =
        result.group(sim::ProtectionKind::kReputation);
    double host_weeks = rep.hosts * 30.0 / 7.0;
    double prompt_rate = rep.prompts / host_weeks;
    std::printf("%-46s | %12.2f | %9.1f%% | %11.2f%% | %12zu\n", entry.label,
                prompt_rate, 100.0 * rep.PisBlockRate(),
                100.0 * rep.FalseBlockRate(), result.total_votes);
    if (prompt_rate > prev_prompt_rate) decreasing = false;
    prev_prompt_rate = prompt_rate;
  }
  bench::Rule();
  std::printf("\nshape check: each added policy layer lowers prompts per "
              "host-week: %s\n",
              decreasing ? "YES" : "NO");
  return decreasing ? 0 : 1;
}

}  // namespace
}  // namespace pisrep

int main() { return pisrep::main_impl(); }
