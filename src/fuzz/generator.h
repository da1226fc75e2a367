// Seeded random program generator for the differential fuzzer.
//
// generate_program(seed, spec) deterministically emits one valid
// micro-ISA program — a bounded outer loop over a weighted mix of
// scenario blocks — together with the address-space setup (regions,
// init words) the program assumes. Programs are *total*: every
// architectural path re-masks its addresses into mapped regions and the
// loop counter is never clobbered, so each program halts on its own well
// inside any sane budget. Speculative paths, by contrast, are free to
// wander: guarded gadgets read kernel secrets, indirect jumps mistrain
// the BTB, and branch fans squash deep windows — the scenario diversity
// the differential invariants are checked under.
//
// Generation depends on nothing but (seed, spec): the same pair yields a
// bit-identical FuzzProgram on any thread, which is what makes a failing
// seed a one-line repro.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/fuzz_spec.h"
#include "workloads/workload.h"

namespace safespec::fuzz {

/// One generated program plus the address space it assumes: its regions
/// (user data/chase, kernel secrets) and init words (chase links,
/// secrets, seed data), as a workload image carries them.
struct FuzzProgram : workloads::WorkloadImage {
  /// Scenario class of each emitted block, in program order (diagnostics
  /// for failing-seed reports).
  std::vector<std::string> classes;
  /// Generous upper bound on committed instructions (the harness treats
  /// exceeding it as non-convergence).
  std::uint64_t max_instrs_hint = 0;
};

/// Deterministically generates the program for `seed` under `spec`
/// (validates the spec first).
FuzzProgram generate_program(std::uint64_t seed, const FuzzSpec& spec);

}  // namespace safespec::fuzz
