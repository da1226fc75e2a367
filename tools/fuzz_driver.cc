// Differential fuzzing driver: a one-shot, in-memory fuzz campaign.
//
//   fuzz_driver --seed=1 --count=200 --threads=8
//   fuzz_driver --seed=123 --count=1 --dump        # reproduce + disassemble
//   fuzz_driver --spec=fuzz.json --count=500       # custom distribution
//   fuzz_driver --count=40 --mutate=commit-xor     # the harness must fail
//
// Each seed generates one random program (see src/fuzz/generator.h),
// computes its reference architectural state with the in-order oracle,
// runs it through every protection policy x machine preset, and checks
// the three differential invariants (oracle equivalence, policy
// invariance, shadow drain). The flags fill a one-shard fuzz campaign
// manifest (docs/campaigns.md), whose units run on the campaign unit
// runner without a journal; the output is the campaign triage report,
// with every violation of each failure group's first seed and a repro
// line. The exit code is 1 when any seed failed, 2 on bad flags and 0
// otherwise; sweeps that must survive a kill or split across machines
// belong to campaign_driver, which journals every verdict.
#include <cstdio>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/triage.h"
#include "common/cli.h"
#include "experiment/experiment.h"
#include "fuzz/generator.h"
#include "isa/program.h"

namespace {

void usage(const char* prog, std::FILE* out) {
  std::fprintf(
      out,
      "usage: %s [--seed=N] [--count=N] [--spec=FILE] [--threads=N]\n"
      "          [--policies=a,b,...] [--presets=a,b,...] [--dump]\n"
      "  --seed=N          first seed (default 1)\n"
      "  --count=N         seeds to check (default 100)\n"
      "  --spec=FILE       FuzzSpec JSON shaping the program distribution\n"
      "                    (default: built-in defaults; see --print-spec)\n"
      "  --threads=N       worker threads (default: hardware concurrency)\n"
      "  --policies=...    comma-separated policy subset (default: all)\n"
      "  --presets=...     comma-separated preset subset (default: all)\n"
      "  --cores=N         cores per cell (default 1); every core runs the\n"
      "                    seed's program on private memory under the\n"
      "                    shared L2/L3, each checked against the oracle\n"
      "  --mutate=NAME     inject the named core defect into every cell, to\n"
      "                    check that the harness catches it (a campaign's\n"
      "                    \"mutate\" field; an unknown NAME lists the known)\n"
      "  --dump            disassemble each seed's program (use with a\n"
      "                    small --count when reproducing a failure)\n"
      "  --print-spec      print the effective FuzzSpec JSON and exit\n",
      prog);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace safespec;

  campaign::Manifest manifest;
  manifest.name = "fuzz_driver";
  manifest.kind = "fuzz";
  manifest.fuzz.count = 100;
  campaign::FuzzAxis& axis = manifest.fuzz;
  int threads = 0;
  bool dump = false;
  bool print_spec = false;

  // Every value flag accepts "--flag value" as well as "--flag=value",
  // as the hand-rolled loop always did.
  cli::FlagSet flags(usage);
  flags.u64("--seed", &axis.first_seed, /*separated=*/true)
      .u64("--count", &axis.count, /*separated=*/true)
      .bounded_int("--threads", &threads, /*separated=*/true)
      .string("--spec", &axis.spec, /*separated=*/true)
      .csv_list("--policies", &axis.policies, /*separated=*/true)
      .csv_list("--presets", &axis.presets, /*separated=*/true)
      .bounded_int("--cores", &axis.cores, /*separated=*/true)
      .string("--mutate", &axis.mutate, /*separated=*/true)
      .set_true("--dump", &dump)
      .set_true("--print-spec", &print_spec);
  flags.parse(argc, argv);

  try {
    manifest.validate();
    const campaign::UnitRunner runner(manifest);
    if (print_spec) {
      std::fputs(runner.spec().to_json().c_str(), stdout);
      return 0;
    }
    for (std::uint64_t i = 0; dump && i < axis.count; ++i) {
      const std::uint64_t seed = axis.first_seed + i;
      const auto fp = fuzz::generate_program(seed, runner.spec());
      std::printf("=== seed %llu: %zu instructions, blocks:",
                  static_cast<unsigned long long>(seed), fp.program.size());
      for (const auto& c : fp.classes) std::printf(" %s", c.c_str());
      std::printf(" ===\n%s", isa::to_string(fp.program).c_str());
    }
    std::vector<campaign::UnitRecord> records(manifest.num_units());
    experiment::ParallelRunner(threads).parallel_for(
        records.size(), [&](std::size_t unit) {
          records[unit] = {unit, runner.run(unit).line};
        });
    const campaign::TriageReport report = campaign::triage_records(records);
    std::fputs(campaign::render_triage_text(report, manifest).c_str(),
               stdout);
    return report.failures > 0 ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fuzz_driver: %s\n", e.what());
    return 2;
  }
}
