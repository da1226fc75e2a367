// Differential fuzzing driver.
//
//   fuzz_driver --seed=1 --count=200 --threads=8
//   fuzz_driver --seed=123 --count=1 --dump        # reproduce + disassemble
//   fuzz_driver --spec=fuzz.json --count=500       # custom distribution
//
// Each seed generates one random program (see src/fuzz/generator.h),
// computes its reference architectural state with the in-order oracle,
// runs it through every protection policy x machine preset, and checks
// the three differential invariants (oracle equivalence, policy
// invariance, shadow drain). Failing seeds print one-line repro
// commands; the exit code is 1 when any seed failed, 0 otherwise (so
// scripts and CI see a plain pass/fail — per-seed detail lives in the
// output, and large sweeps belong to campaign_driver, which journals
// every verdict).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/cli.h"
#include "fuzz/differential.h"
#include "fuzz/generator.h"
#include "fuzz/fuzz_spec.h"
#include "isa/program.h"
#include "safespec/policy.h"
#include "sim/machine.h"
#include "trace/trace_workload.h"

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
      "  --dump            disassemble each seed's program (use with a\n"
      "                    small --count when reproducing a failure)\n"
      "  --trace=FILE      with --dump: also record each seed's program,\n"
      "                    regions and pokes as a trace file (FILE for a\n"
      "                    single seed, FILE.<seed> for several); replay\n"
      "                    with anything that accepts trace:FILE\n"
      "  --print-spec      print the effective FuzzSpec JSON and exit\n",
      prog);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace safespec;

  std::uint64_t first_seed = 1;
  int count = 100;
  int threads = 0;
  bool dump = false;
  bool print_spec = false;
  std::string spec_path;
  std::string trace_path;
  fuzz::FuzzSpec spec;
  fuzz::DifferentialConfig config;

  // Every value flag accepts "--flag value" as well as "--flag=value",
  // as the hand-rolled loop always did.
  cli::FlagSet flags(usage);
  flags.u64("--seed", &first_seed, /*separated=*/true)
      .bounded_int("--count", &count, /*separated=*/true)
      .bounded_int("--threads", &threads, /*separated=*/true)
      .string("--spec", &spec_path, /*separated=*/true)
      .csv_list("--policies", &config.policies, /*separated=*/true)
      .csv_list("--presets", &config.presets, /*separated=*/true)
      .value(
          "--cores",
          [&config](const char* value) {
            config.cores = cli::parse_int_or_exit(value, "--cores");
            if (config.cores < 1 || config.cores > 64) {
              std::fprintf(stderr, "--cores=%s is out of range (1..64)\n",
                           value);
              std::exit(2);
            }
          },
          /*separated=*/true)
      .set_true("--dump", &dump)
      .string("--trace", &trace_path, /*separated=*/true)
      .set_true("--print-spec", &print_spec);
  flags.parse(argc, argv);

  if (!trace_path.empty() && !dump) {
    std::fprintf(stderr, "--trace requires --dump (it records the dumped "
                         "seeds' programs)\n");
    return 2;
  }
  try {
    if (!spec_path.empty()) spec = fuzz::FuzzSpec::from_json_file(spec_path);
    spec.validate();
    // Resolve name subsets eagerly so a typo fails before the sweep.
    for (const auto& name : config.policies) policy::named_policy(name);
    for (const auto& name : config.presets) sim::machine_preset(name);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad configuration: %s\n", e.what());
    return 2;
  }
  if (print_spec) {
    std::fputs(spec.to_json().c_str(), stdout);
    return 0;
  }

  fuzz::FuzzReport report;
  try {
    if (dump) {
      for (int i = 0; i < count; ++i) {
        const auto fp = fuzz::generate_program(first_seed + i, spec);
        std::printf("=== seed %llu: %zu instructions, blocks:",
                    static_cast<unsigned long long>(first_seed + i),
                    fp.program.size());
        for (const auto& c : fp.classes) std::printf(" %s", c.c_str());
        std::printf(" ===\n%s", isa::to_string(fp.program).c_str());
        if (!trace_path.empty()) {
          const std::string path =
              count == 1 ? trace_path
                         : trace_path + "." + std::to_string(first_seed + i);
          trace::write_trace_file(path, trace::record_workload(fp));
          std::printf("trace: wrote %s\n", path.c_str());
        }
      }
    }
    report = fuzz::run_fuzz(first_seed, count, spec, config, threads);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fuzz sweep failed: %s\n", e.what());
    return 2;
  }

  for (const auto& failure : report.failures) {
    std::printf("FAIL seed=%llu (%zu cells)\n",
                static_cast<unsigned long long>(failure.seed),
                failure.cells);
    for (const auto& violation : failure.violations) {
      std::printf("  %s\n", violation.c_str());
    }
    std::printf("  repro: %s\n",
                fuzz::repro_command(argv[0], failure.seed, spec_path, config)
                    .c_str());
  }

  std::printf(
      "fuzz: %d seeds (%llu..%llu), %zu cells, %llu oracle instructions, "
      "%zu failures\n",
      report.count, static_cast<unsigned long long>(report.first_seed),
      static_cast<unsigned long long>(
          report.count > 0 ? report.first_seed + report.count - 1
                           : report.first_seed),
      report.total_cells,
      static_cast<unsigned long long>(report.total_committed),
      report.failures.size());

  // A plain pass/fail: anything in [2, 255] is reserved for usage and
  // harness errors (and the historical count-of-failures code collided
  // with shells' 126/127 and signal codes anyway).
  return report.failures.empty() ? 0 : 1;
}
