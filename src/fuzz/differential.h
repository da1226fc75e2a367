// Differential policy-invariance harness.
//
// For each seed: generate a program, compute its reference final
// architectural state with the oracle (sim::FunctionalEngine), then run
// the *same* program through every protection policy x machine preset
// cell (via the experiment engine's thread pool) and check three
// invariants per cell:
//
//   1. ORACLE EQUIVALENCE — the committed state (stop reason, committed
//      instruction and fault counts, registers, memory image) equals the
//      oracle's. Catches any microarchitectural mechanism that leaks
//      into architecture (e.g. a corrupted writeback datapath).
//   2. POLICY INVARIANCE — the committed state is bit-identical across
//      all cells. Implied by (1) when (1) holds everywhere, but checked
//      independently so a systematic oracle-and-cores divergence still
//      names the offending pair.
//   3. SHADOW DRAIN — after the final commit/squash drain, all four
//      shadow structures are empty. Squashed speculation must leave no
//      live shadow state behind (Fig 3's annulment, §III).
//
// check_seed is pure: same (seed, spec, config) in, same verdict out, on
// any thread — which makes every failure a one-line repro command. Seed
// ranges run as campaigns (campaign::UnitRunner), from campaign_driver's
// sharded journals or fuzz_driver's one-shot, in-memory sweep.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "cpu/core.h"
#include "fuzz/fuzz_spec.h"

namespace safespec::fuzz {

/// Everything architecturally observable at the end of one run.
struct ArchState {
  cpu::StopReason stop = cpu::StopReason::kMaxCycles;
  std::uint64_t committed = 0;
  std::uint64_t faults = 0;
  std::array<std::uint64_t, kNumArchRegs> regs{};
  /// Sorted nonzero memory words (MainMemory::nonzero_words).
  std::vector<std::pair<Addr, std::uint64_t>> memory;
};

bool operator==(const ArchState& a, const ArchState& b);
inline bool operator!=(const ArchState& a, const ArchState& b) {
  return !(a == b);
}

/// "" when equal; otherwise a one-line description of the first
/// difference found (stop, counts, first diverging register, first
/// diverging memory word).
std::string first_difference(const ArchState& expected,
                             const ArchState& actual);

/// What to sweep and how hard to drive each cell.
struct DifferentialConfig {
  /// Protection policies to cross (empty: every registered policy).
  std::vector<std::string> policies;
  /// Machine presets to cross (empty: every registered preset).
  std::vector<std::string> presets;
  /// Cores per cell. At cores > 1 every core runs the seed's program on
  /// its own private memory under the shared L2/L3, and the oracle
  /// invariants are checked against *each* core's architectural state —
  /// the interleaving and shared-level contention must never reach
  /// architecture.
  int cores = 1;
  /// Per-cell cycle budget; exceeding it is a convergence violation.
  Cycle max_cycles = 4'000'000;
  /// Defect injection for mutation-testing the harness itself (all off
  /// in normal fuzzing).
  cpu::MutationHooks mutation;
};

/// Outcome of one seed across every cell.
struct SeedVerdict {
  std::uint64_t seed = 0;
  bool ok = true;
  /// One line per violated invariant, named by "policy/preset".
  std::vector<std::string> violations;
  std::uint64_t committed = 0;  ///< oracle committed-instruction count
  std::size_t cells = 0;
};

/// Generates, runs and checks one seed. Throws only on harness misuse
/// (unknown policy/preset names propagate std::out_of_range).
SeedVerdict check_seed(std::uint64_t seed, const FuzzSpec& spec,
                       const DifferentialConfig& config);

}  // namespace safespec::fuzz
