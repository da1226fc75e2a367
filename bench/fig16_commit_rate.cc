// Figure 16: commit rate of shadow state — the fraction of shadow
// entries that end up promoted to the primary structures rather than
// annulled. Paper shape: d-cache commit rate substantially higher than
// i-cache (loads issue later in the pipeline, so a shadowed d-line is
// more likely to belong to an instruction that commits), and both well
// below 1 (the shadow filters plenty of wrong-path state).
#include <vector>

#include "common/stats.h"
#include "experiment/experiment.h"

int main(int argc, char** argv) {
  using namespace safespec;
  const auto opts = experiment::parse_bench_args(argc, argv);

  experiment::ExperimentSpec spec;
  spec.base_machine(experiment::resolve_machine(opts));
  spec.all_spec_profiles()
      .policy("WFC")
      .instrs(opts.instrs);
  const auto sweep = experiment::ParallelRunner(opts.threads).run(spec);
  const auto& profiles = spec.workload_axis();

  experiment::ResultTable table("Fig 16: commit rate of shadow state (WFC)",
                                {"i-cache", "d-cache"});
  std::vector<double> i_rates, d_rates;
  for (std::size_t p = 0; p < profiles.size(); ++p) {
    const auto& wfc = sweep.at(p, 0);
    table.add_row(profiles[p], {wfc.shadow_icache_commit_rate,
                                     wfc.shadow_dcache_commit_rate});
    table.annotate_last_row(sweep.stop_note(p));
    i_rates.push_back(wfc.shadow_icache_commit_rate);
    d_rates.push_back(wfc.shadow_dcache_commit_rate);
  }
  table.add_row("Average",
                {arithmetic_mean(i_rates), arithmetic_mean(d_rates)});
  experiment::emit_tables({&table}, opts);
  return 0;
}
