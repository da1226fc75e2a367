// Simulation-throughput harness (the BENCH perf signal).
//
//   perf_driver                          # default cell grid, JSON to
//                                        # BENCH_sim_throughput.json
//   perf_driver --instrs=500000 --repeat=3
//   perf_driver --out=perf.json --cells=mcf/WFC/skylake,gcc/baseline/skylake
//
// Each cell runs one representative workload profile under one protection
// policy on one machine preset for a fixed committed-instruction budget.
// It times two phases in host wall time: set-up (program generation and
// machine construction, reported as setup_ms) and the simulation loop
// (wall_ms). The figure of merit is MIPS — millions of simulated
// committed instructions per host wall second of the simulation loop —
// per cell and aggregated over the grid; setup_ms shows set-up costs the
// MIPS figure leaves out. Results are written as machine-readable JSON so
// CI can archive them and successive runs can be compared; with
// --repeat=N each cell reports its best-of-N of each phase (the minimum
// of each on its own), which filters scheduler noise on shared runners.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/cli.h"
#include "experiment/cell.h"

namespace {

using safespec::experiment::Cell;
using safespec::experiment::CellRun;

/// The default grid covers the hot-path variety that matters for
/// throughput: pointer-chasing (mcf) and streaming (lbm) d-side traffic,
/// a large code footprint stressing the i-side shadow (gcc), a
/// branchy/squash-heavy control profile (exchange2), the kStall
/// full-table path (WFB-stall), and the little "embedded" preset. The
/// SHARP cells cover the cache-protection family's hot path (the
/// protected-victim scan on every fill; at cores=1 it is
/// cycle-identical to the baseline, so the perf signal is pure host
/// cost). The cores=2 cells exercise the multi-core path — round-robin
/// scheduling and the shared L2/L3 with per-core owner attribution. The
/// trace:@ cells run the same workloads through the trace codec round
/// trip (cycle-identical to their synthetic twins by construction, so
/// the perf_compare gate covers the codec too). The trailing
/// sampled/sampled-fast/functional cells track the sampled-simulation
/// paths: effective MIPS for the SMARTS schedule, the aggressive-gap
/// asymptote, and the raw oracle-engine MIPS.
constexpr const char* kDefaultCells =
    "mcf/baseline/skylake,mcf/WFC/skylake,"
    "gcc/baseline/skylake,gcc/WFC/skylake,"
    "lbm/baseline/skylake,lbm/WFB/skylake,"
    "exchange2/baseline/skylake,exchange2/WFC/skylake,"
    "xalancbmk/WFB-stall/skylake,mcf/WFC/embedded,mcf/SHARP/skylake,"
    "gcc/SHARP/skylake/cores=2,mcf/baseline/skylake/cores=2,"
    "gcc/WFC/skylake/cores=2,"
    "trace:@mcf/baseline/skylake,trace:@exchange2/WFC/skylake,"
    "mcf/baseline/skylake/sampled,gcc/WFC/skylake/sampled,"
    "mcf/baseline/skylake/sampled-fast,mcf/baseline/skylake/functional";

/// Committed instructions per host microsecond. For sampled cells this is
/// *effective* MIPS: fast-forwarded instructions count too, since they
/// are architecturally covered.
double mips(std::uint64_t instrs, double wall_ms) {
  return wall_ms <= 0.0 ? 0.0 : static_cast<double>(instrs) / (wall_ms * 1e3);
}

void usage(const char* prog, std::FILE* out) {
  std::fprintf(
      out,
      "usage: %s [--instrs=N] [--repeat=N] [--out=FILE] [--cells=...]\n"
      "          [--ff-interval=N] [--warmup=N] [--detail=N]\n"
      "  --instrs=N       committed instructions per cell (default 200000)\n"
      "  --repeat=N       runs per cell; best (fastest) one is reported\n"
      "                   (default 1)\n"
      "  --out=FILE       JSON output path (default\n"
      "                   BENCH_sim_throughput.json; \"-\" suppresses it)\n"
      "  --cells=...      comma-separated items of the form\n"
      "                   workload/policy/preset[/mode][/cores=N]; mode is\n"
      "                   detailed (default), sampled, sampled-fast, or\n"
      "                   functional; cores=N (detailed mode only) runs N\n"
      "                   cores sharing the L2/L3 (default: a\n"
      "                   representative grid). Workload trace:@NAME\n"
      "                   runs NAME through the trace codec in memory\n"
      "  --set=key=value  override one machine field on every cell's\n"
      "                   preset (repeatable; see MachineSpec::set) —\n"
      "                   e.g. --set=dib_lines=0 measures the\n"
      "                   decoded-instruction buffer's host-side win\n"
      "  --ff-interval=N  sampled cells: functional instrs per gap\n"
      "                   (default: --instrs/10, ~10 windows per cell;\n"
      "                   sampled-fast always uses --instrs/2)\n"
      "  --warmup=N       sampled cells: detailed unmeasured instrs per\n"
      "                   window (default 2000; sampled-fast 1000)\n"
      "  --detail=N       sampled cells: detailed measured instrs per\n"
      "                   window (default 10000; sampled-fast 5000)\n",
      prog);
}

void write_json(std::FILE* f, std::uint64_t instrs, int repeat,
                const std::vector<Cell>& cells,
                const std::vector<CellRun>& runs) {
  std::uint64_t total_instrs = 0;
  double total_ms = 0.0;
  double total_setup_ms = 0.0;
  std::fprintf(f,
               "{\n  \"instrs_per_cell\": %llu,\n  \"repeat\": %d,\n"
               "  \"cells\": [\n",
               static_cast<unsigned long long>(instrs), repeat);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    const safespec::sim::SimResult& r = runs[i].result;
    total_instrs += r.committed_all_cores;
    total_ms += runs[i].run_ms;
    total_setup_ms += runs[i].setup_ms;
    std::fprintf(
        f,
        "    {\"workload\": \"%s\", \"policy\": \"%s\", \"preset\": \"%s\","
        " \"mode\": \"%s\", \"cores\": %d,"
        " \"committed_instrs\": %llu, \"cycles\": %llu,"
        " \"setup_ms\": %.3f, \"wall_ms\": %.3f, \"mips\": %.2f,"
        " \"stop\": \"%s\"",
        cell.workload.c_str(), cell.policy.c_str(), cell.preset.c_str(),
        cell.mode.c_str(), cell.cores,
        static_cast<unsigned long long>(r.committed_all_cores),
        static_cast<unsigned long long>(r.cycles), runs[i].setup_ms,
        runs[i].run_ms,
        mips(r.committed_all_cores, runs[i].run_ms),
        safespec::cpu::to_string(r.stop));
    if (cell.mode.rfind("sampled", 0) == 0) {
      std::fprintf(f, ", \"windows\": %llu, \"ipc\": %.4f, \"ipc_ci95\": %.4f",
                   static_cast<unsigned long long>(r.sampling.windows), r.ipc,
                   r.sampling.ipc_ci95);
    }
    std::fprintf(f, "}%s\n", i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"aggregate\": {\"total_instrs\": %llu,"
               " \"total_setup_ms\": %.3f, \"total_wall_ms\": %.3f,"
               " \"mips\": %.2f}\n}\n",
               static_cast<unsigned long long>(total_instrs), total_setup_ms,
               total_ms, mips(total_instrs, total_ms));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace safespec;

  std::uint64_t instrs = 200'000;
  int repeat = 1;
  std::string out_path = "BENCH_sim_throughput.json";
  std::string cell_list = kDefaultCells;
  std::vector<std::string> overrides;
  // Sampled-cell schedule. fast_forward_interval == 0 here means "auto":
  // instrs/10, so a sampled cell runs ~10 windows at any --instrs and the
  // detailed duty cycle shrinks as the budget grows (0.012% per window's
  // 12k detailed instrs at --instrs=100000000).
  sim::SamplingSpec sampling;
  sampling.warmup_instrs = 2'000;
  sampling.detail_instrs = 10'000;

  // Historical grammar preserved exactly: "--flag=value" forms only, any
  // other argument (including "--flag value") is an error.
  cli::FlagSet flags(usage);
  flags.u64("--instrs", &instrs)
      .value("--repeat",
             [&repeat](const char* value) {
               repeat = static_cast<int>(
                   cli::parse_u64_or_exit(value, "--repeat"));
               if (repeat < 1 || repeat > 100) {
                 std::fprintf(stderr, "--repeat must be in [1, 100]\n");
                 std::exit(2);
               }
             })
      .string("--out", &out_path)
      .string("--cells", &cell_list)
      .repeated("--set", &overrides)
      .u64("--ff-interval", &sampling.fast_forward_interval)
      .u64("--warmup", &sampling.warmup_instrs)
      .u64("--detail", &sampling.detail_instrs);
  flags.parse(argc, argv);

  if (sampling.fast_forward_interval == 0) {
    sampling.fast_forward_interval = std::max<std::uint64_t>(instrs / 10, 1);
  }
  try {
    sampling.validate();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad sampling schedule: %s\n", e.what());
    return 2;
  }

  // Every cell gets the --set overrides, then its mode's schedule on top,
  // whatever --set says about sampling: detailed cells run unsampled,
  // sampled cells under --ff-interval/--warmup/--detail. Each cell is
  // resolved and validated here, so a typo fails before any run.
  std::vector<Cell> cells;
  try {
    for (std::size_t start = 0; start < cell_list.size();) {
      const std::size_t end = std::min(cell_list.find(',', start),
                                       cell_list.size());
      Cell cell = Cell::parse(cell_list.substr(start, end - start));
      start = end + 1;
      cell.overrides = overrides;
      if (cell.mode == "detailed") {
        cell.overrides.push_back("sampling.fast_forward_interval=0");
      } else if (cell.mode == "sampled") {
        cell.overrides.push_back(
            "sampling.fast_forward_interval=" +
            std::to_string(sampling.fast_forward_interval));
        cell.overrides.push_back("sampling.warmup_instrs=" +
                                 std::to_string(sampling.warmup_instrs));
        cell.overrides.push_back("sampling.detail_instrs=" +
                                 std::to_string(sampling.detail_instrs));
      }
      cell.instrs = instrs;
      experiment::resolve(cell).machine.validate();
      cells.push_back(std::move(cell));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad cell: %s\n", e.what());
    return 2;
  }

  std::vector<CellRun> runs;
  runs.reserve(cells.size());
  std::uint64_t total_instrs = 0;
  double total_ms = 0.0;
  double total_setup_ms = 0.0;
  for (const Cell& cell : cells) {
    // A fresh machine per run: the measurement is always a cold start,
    // identical across repeats and across harness invocations. The best
    // (fastest) of --repeat runs is reported, and the fastest set-up.
    CellRun best;
    double setup_ms = 0.0;
    for (int r = 0; r < repeat; ++r) {
      CellRun run = experiment::run_cell(cell);
      setup_ms = r == 0 ? run.setup_ms : std::min(setup_ms, run.setup_ms);
      if (r == 0 || run.run_ms < best.run_ms) best = std::move(run);
    }
    best.setup_ms = setup_ms;
    // Multi-core cells count every core's committed work (equal to
    // committed_instrs at cores=1, so historical artifacts compare).
    const sim::SimResult& result = best.result;
    const bool full_budget = result.stop == cpu::StopReason::kMaxInstrs;
    const std::string mode_col =
        cell.cores > 1 ? cell.mode + "/c" + std::to_string(cell.cores)
                       : cell.mode;
    std::printf("perf: %-16s %-9s %-8s %-12s %9llu instrs %8llu Kcycles "
                "setup %6.2f ms %8.1f ms %7.2f MIPS%s%s",
                cell.workload.c_str(), cell.policy.c_str(),
                cell.preset.c_str(), mode_col.c_str(),
                static_cast<unsigned long long>(result.committed_all_cores),
                static_cast<unsigned long long>(result.cycles / 1000),
                best.setup_ms, best.run_ms,
                mips(result.committed_all_cores, best.run_ms),
                full_budget ? "" : " stop=",
                full_budget ? "" : cpu::to_string(result.stop));
    if (cell.mode.rfind("sampled", 0) == 0) {
      std::printf(" (%llu windows, ipc %.3f +/- %.3f)",
                  static_cast<unsigned long long>(result.sampling.windows),
                  result.ipc, result.sampling.ipc_ci95);
    }
    std::printf("\n");
    total_instrs += result.committed_all_cores;
    total_ms += best.run_ms;
    total_setup_ms += best.setup_ms;
    runs.push_back(std::move(best));
  }

  std::printf("perf: aggregate %llu instrs in %.1f ms -> %.2f MIPS "
              "(set-up %.1f ms; %zu cells, repeat=%d)\n",
              static_cast<unsigned long long>(total_instrs), total_ms,
              mips(total_instrs, total_ms), total_setup_ms, runs.size(),
              repeat);

  const auto write = [&](std::FILE* f) {
    write_json(f, instrs, repeat, cells, runs);
  };
  if (out_path != "-" && !cli::write_file(out_path, write)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 2;
  }
  return 0;
}
