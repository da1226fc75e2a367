// Figures 6-9: shadow structure size needed to hold 99.99% of the
// speculative state, per SPEC2017-like benchmark, under WFC and WFB.
//
// Method (as in §IV-B): run each benchmark with worst-case-sized shadow
// structures, sample their occupancy every cycle, and report the 99.99th
// percentile of the occupancy distribution. Expected shape: small
// requirements everywhere (tens of entries), WFB <= WFC, shadow d-cache
// occasionally approaching the LDQ bound.
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
      .policy("WFB")
      .instrs(opts.instrs);
  const auto sweep = experiment::ParallelRunner(opts.threads).run(spec);

  const struct {
    const char* title;
    std::uint64_t sim::SimResult::*field;
  } figures[] = {
      {"Fig 6: shadow i-cache entries for 99.99% of accesses",
       &sim::SimResult::shadow_icache_p9999},
      {"Fig 7: shadow d-cache entries for 99.99% of accesses",
       &sim::SimResult::shadow_dcache_p9999},
      {"Fig 8: shadow iTLB entries for 99.99% of accesses",
       &sim::SimResult::shadow_itlb_p9999},
      {"Fig 9: shadow dTLB entries for 99.99% of accesses",
       &sim::SimResult::shadow_dtlb_p9999},
  };

  const auto& profiles = spec.workload_axis();
  std::vector<experiment::ResultTable> tables;
  for (const auto& fig : figures) {
    experiment::ResultTable table(fig.title, {"WFC", "WFB"});
    std::vector<double> wfc_values, wfb_values;
    for (std::size_t p = 0; p < profiles.size(); ++p) {
      const double wfc = static_cast<double>(sweep.at(p, 0).*(fig.field));
      const double wfb = static_cast<double>(sweep.at(p, 1).*(fig.field));
      table.add_row(profiles[p], {wfc, wfb}, "%12.0f");
      table.annotate_last_row(sweep.stop_note(p));
      wfc_values.push_back(wfc);
      wfb_values.push_back(wfb);
    }
    table.add_row("Average",
                  {arithmetic_mean(wfc_values), arithmetic_mean(wfb_values)},
                  "%12.1f");
    tables.push_back(std::move(table));
  }

  std::vector<const experiment::ResultTable*> refs;
  for (const auto& t : tables) refs.push_back(&t);
  experiment::emit_tables(refs, opts);
  return 0;
}
