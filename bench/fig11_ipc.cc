// Figure 11: IPC of SafeSpec (WFC, worst-case-sized shadow structures)
// normalised to the insecure baseline, per benchmark, plus the geometric
// mean. Paper shape: near 1.0 everywhere with a small geomean gain.
#include <optional>
#include <vector>

#include "common/stats.h"
#include "experiment/experiment.h"

int main(int argc, char** argv) {
  using namespace safespec;
  const auto opts = experiment::parse_bench_args(argc, argv);

  experiment::ExperimentSpec spec;
  spec.base_machine(experiment::resolve_machine(opts));
  spec.all_spec_profiles()
      .policy("baseline")
      .policy("WFC")
      .instrs(opts.instrs);
  const auto sweep = experiment::ParallelRunner(opts.threads).run(spec);

  experiment::ResultTable table(
      "Fig 11: IPC relative to non-secure OoO execution (WFC / baseline)",
      {"base IPC", "WFC IPC", "normalized"});
  std::vector<double> normalized;
  const auto& profiles = spec.workload_axis();
  for (std::size_t p = 0; p < profiles.size(); ++p) {
    const auto& base = sweep.at(p, 0);
    const auto& wfc = sweep.at(p, 1);
    const double norm = base.ipc == 0 ? 0 : wfc.ipc / base.ipc;
    normalized.push_back(norm);
    table.add_row(profiles[p], {base.ipc, wfc.ipc, norm});
    table.annotate_last_row(sweep.stop_note(p));
  }
  table.add_partial_row("GeoMean", {std::nullopt, std::nullopt,
                                    geometric_mean(normalized)});
  experiment::emit_tables({&table}, opts);
  return 0;
}
