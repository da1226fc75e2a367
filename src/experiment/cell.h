// The cell: one workload under one protection policy on one machine, the
// unit every sweep in this repo is made of. Benches expand an
// ExperimentSpec into cells, perf_driver parses them from --cells, and
// campaign grids decode them from unit ids; all three run them through
// run_cell(), so a cell means the same machine and the same run
// everywhere.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/machine.h"
#include "workloads/workload.h"

namespace safespec::experiment {

/// Committed-instruction budget per cell. Large enough that the occupancy/miss-rate distributions stabilise, small
/// enough that the whole 22-benchmark sweep stays interactive.
inline constexpr std::uint64_t kInstrsPerRun = 60'000;

/// Cycle budget for a run that should commit `instrs` instructions:
/// generous, since the worst (pointer-chasing) profiles run well under
/// 10 cycles per instruction.
constexpr Cycle cycle_budget(std::uint64_t instrs) {
  return instrs * 40 + 1'000'000;
}

/// One cell. It is deterministic in isolation (workload generation seeds
/// from the profile), so its result never depends on which thread runs
/// it.
struct Cell {
  /// Any workloads::profile_by_name spelling, trace:@NAME (profile NAME
  /// through the trace codec in memory) included.
  std::string workload;
  std::string policy = "baseline";  ///< protection-policy name
  std::string preset = "skylake";   ///< machine-preset name
  /// MachineSpec::set "key=value" strings, applied after the preset.
  std::vector<std::string> overrides;
  /// How the cell runs:
  ///   detailed, sampled — the cycle-accurate core under the machine's
  ///       sampling schedule, off unless a sampling.* override sets one
  ///       ("sampled" names the cells that carry one);
  ///   sampled-fast — an aggressive schedule instead: one gap spans half
  ///       the budget, so almost everything fast-forwards;
  ///   functional — the bare FunctionalEngine, no detailed core at all.
  std::string mode = "detailed";
  /// Cores sharing the L2/L3 (detailed mode only). 0 keeps the machine's
  /// own count, so a cores=N override applies.
  int cores = 1;
  std::uint64_t instrs = kInstrsPerRun;

  /// The cell grammar, workload/policy/preset[/mode][/cores=N], with the
  /// mode and the core count only when not the defaults. Overrides and
  /// the budget are not part of it.
  std::string key() const;

  /// Inverse of key(). Throws std::invalid_argument unless `text` has
  /// three non-empty names followed by at most one known mode and at
  /// most one cores=N with N in 1..64, in either order. Names are
  /// checked when the cell resolves.
  static Cell parse(const std::string& text);
};

/// What a cell runs: the profile to generate and the machine to build.
struct ResolvedCell {
  workloads::WorkloadProfile profile;
  sim::MachineSpec machine;
};

/// The one resolver: `base`, then the cell's overrides, then its policy
/// and cores, then the mode's sampling schedule. Throws std::out_of_range
/// on an unknown workload, policy or preset name, and
/// std::invalid_argument on a bad override, an unknown mode, or more
/// than one core outside detailed mode. The machine is not validated;
/// MachineBuilder does that when the cell runs.
ResolvedCell resolve(const Cell& cell, sim::MachineSpec base);
/// resolve() on the cell's own preset.
ResolvedCell resolve(const Cell& cell);

/// One finished cell: its result, plus the host wall times of its two
/// phases: set-up (program generation and machine construction) and run.
struct CellRun {
  sim::SimResult result;
  double setup_ms = 0.0;
  double run_ms = 0.0;
};

/// Resolves, builds and runs one cell (the unit of work a pool thread
/// executes). A fresh machine per call, so every run is a cold start. A
/// functional cell reports the engine's commits and stop reason, with
/// zero cycles. Propagates resolve()'s and MachineBuilder's exceptions.
CellRun run_cell(const Cell& cell, const sim::MachineSpec& base);
/// run_cell() on the cell's own preset.
CellRun run_cell(const Cell& cell);

}  // namespace safespec::experiment
