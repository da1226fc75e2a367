// The SafeSpec simulator benchmark: two closed-loop, single-threaded
// workloads driven through the simulator library's public API.
//
//   detailed   sliced single-core Simulator::run over seven cells
//   multicore  sliced cores=4 Simulator::run over the shared L2/L3
//
// A run makes every input from its seed, first runs an untimed reference
// pass (one-shot runs, functional-engine references, digests), then
// repeats a fixed number of timed passes over the same inputs. Every pass
// is checked against the reference; a mismatch fails the units it
// touched. Host time is CPU time of the benchmark thread, and each unit
// (and set-up call) is timed at the least of its repeats. A traced run
// also probes the layers the workload never calls: sampled runs,
// fuzz::check_seed and, where unused, the trace codec.
// See perfbench/README.md for the metric definitions.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cpu/core.h"
#include "sim/simulator.h"

namespace perfbench {

/// One simulated machine of a workload or of the sampled-run probe:
/// one seeded program of a synthetic SPEC stand-in (or its trace:@ round
/// trip) under one policy on the skylake preset.
struct Cell {
  std::string workload;      ///< workloads::profile_by_name spelling
  std::string policy;        ///< protection-policy registry name
  int cores = 1;
  std::uint64_t instrs = 0;  ///< committed-instruction budget of core 0
  /// Committed instructions of core 0 per timed unit (0 for the sampled
  /// probe, which runs whole).
  std::uint64_t slice = 0;
  /// Which of the workload's programs this is. Cells that differ only in
  /// policy share their programs.
  int program = 0;
  /// False: the cell only runs in the reference pass, for sim_ipc and
  /// the per-layer counts.
  bool timed = true;

  std::string name() const;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Sets the number of timed passes: this many seconds at the
  /// workload's pass rate on the tuning host.
  double seconds = 10.0;
  bool trace = false;     ///< per-layer run: spans + per-layer metrics
  /// Multiplies every instruction budget (the tests shrink runs with it).
  double scale = 1.0;
  /// Defect injection applied to every machine the run builds (the
  /// tests use it to prove that mismatches are caught).
  safespec::cpu::MutationHooks mutation;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::uint64_t attempted = 0;  ///< timed units
  std::uint64_t failed = 0;     ///< timed units that failed a check
  int passes = 0;               ///< timed passes over the inputs
  /// End-to-end metrics (trace off) or per-layer metrics (trace on).
  std::vector<Metric> metrics;
  /// Simulated-statistics digest per cell of the reference pass (and of
  /// the sampled probe in a traced run), plus "programs" over the inputs.
  std::vector<std::pair<std::string, std::uint64_t>> digests;
  /// One line per failed check.
  std::vector<std::string> problems;
  /// Per-layer self time from the spans (trace on only).
  struct SelfTime {
    std::string name;
    std::uint64_t calls = 0;
    double self_ms = 0.0;
    double total_ms = 0.0;
  };
  std::vector<SelfTime> self_times;
  /// Chrome trace-event JSON of every span (trace on only).
  std::string spans_json;

  bool correct() const { return failed == 0 && attempted > 0; }
};

/// "detailed", "multicore".
const std::vector<std::string>& workload_names();

/// The cells of a workload, every program of each, with budgets
/// multiplied by `scale`; timed cells come first.
std::vector<Cell> workload_cells(const std::string& workload, double scale);

/// The cells the sampled-run probe of a traced run runs whole under a
/// SMARTS schedule: mcf/WFC and gcc/WFC.
std::vector<Cell> sampled_probe_cells(double scale);

/// Runs one workload. Throws std::invalid_argument on an unknown name.
Report run(const Options& options);

// ---- building blocks (exposed for the benchmark's tests) -----------------

/// Generates the cell's program from `seed` and builds a fresh machine.
std::unique_ptr<safespec::sim::Simulator> build_cell(
    const Cell& cell, std::uint64_t seed,
    const safespec::cpu::MutationHooks& mutation = {});

/// Runs a built cell to its budget in `cell.slice` committed-instruction
/// slices, with absolute slice targets so the run is cycle-identical to
/// one Simulator::run call. Returns the final snapshot; `slice_stops`
/// receives each slice's stop reason.
safespec::sim::SimResult run_sliced(
    safespec::sim::Simulator& sim, const Cell& cell,
    std::vector<safespec::cpu::StopReason>* slice_stops = nullptr);

/// FNV-1a over every simulated statistic of a finished machine: cycles,
/// commits, and each per-core and shared-level counter (host-side
/// counters such as the decoded-instruction buffer's are left out).
std::uint64_t stats_digest(safespec::sim::Simulator& sim,
                           const safespec::sim::SimResult& result);

/// FNV-1a over the encoded program of core 0 (the seed's input).
std::uint64_t program_digest(const safespec::sim::Simulator& sim);

}  // namespace perfbench
