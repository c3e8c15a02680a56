#include "simcheck/explore.hpp"

#include "campaign/campaign.hpp"
#include "simcheck/generate.hpp"

namespace sm::simcheck {

ExploreResult explore(const ExploreOptions& options) {
  ExploreResult result;
  result.trials = options.trials;

  // Per-index slots: workers write only their own trial's slot; the
  // merge below runs on this thread after run_jobs joins the pool.
  std::vector<TrialOutcome> outcomes(options.trials);

  campaign::CampaignOptions pool;
  pool.threads = options.threads;
  campaign::run_jobs(
      options.trials,
      [&](size_t index, int /*worker*/) {
        SeedPack seeds = SeedPack::derive(options.seed, index);
        Scenario scenario = generate_scenario(seeds.generator, seeds.family);
        outcomes[index] = run_scenario(scenario, seeds, options.faults);
      },
      pool);

  for (size_t i = 0; i < outcomes.size(); ++i) {
    TrialOutcome& outcome = outcomes[i];
    result.log.push_back(outcome.log_line(i));
    result.packets_checked += outcome.packets_checked;
    if (outcome.ok()) continue;
    ++result.failed_trials;
    if (result.counterexamples.size() >= kMaxCounterexamples) continue;
    Counterexample ce;
    ce.trial_index = i;
    ce.seeds = outcome.seeds;
    ce.oracle = outcome.failures.front().oracle;
    ce.detail = outcome.failures.front().detail;
    ce.original = outcome.scenario;
    if (options.shrink) {
      ce.shrunk =
          shrink(outcome.scenario, outcome.seeds, options.faults, ce.oracle);
    } else {
      ce.shrunk.scenario = outcome.scenario;
      ce.shrunk.oracle = ce.oracle;
    }
    result.counterexamples.push_back(std::move(ce));
  }
  return result;
}

}  // namespace sm::simcheck
