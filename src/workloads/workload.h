// Synthetic SPEC CPU2017 stand-ins.
//
// The paper evaluates on 22 SPEC2017 benchmarks. SPEC sources and inputs
// are proprietary and cannot ship with the repository, so each
// benchmark is replaced by a *parameterised synthetic program* generated
// in the micro-ISA, tuned to the published behaviour class of its
// namesake: data footprint, pointer-chasing vs. streaming access mix,
// branch predictability, code footprint and compute density. Figures 6-16
// report distributional microarchitectural properties (occupancy
// percentiles, miss rates, relative IPC), which depend on exactly these
// characteristics rather than on program semantics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "isa/program.h"
#include "memory/main_memory.h"

namespace safespec::workloads {

/// Tuning knobs for one synthetic benchmark.
struct WorkloadProfile {
  std::string name;

  // ---- data side -------------------------------------------------------
  std::uint64_t data_footprint = 1 << 20;  ///< bytes; swept by random/stream
  std::uint64_t chase_footprint = 0;       ///< bytes of pointer-chase region
  double load_frac = 0.25;    ///< fraction of body instructions that load
  double store_frac = 0.10;
  double chase_frac = 0.0;    ///< of loads: dependent pointer-chase
  double stream_frac = 0.3;   ///< of loads: sequential streaming (8 B steps)
  // Remainder of loads: random — mostly within a small hot set
  // (temporal locality), occasionally anywhere in the footprint.
  double hot_frac = 0.90;            ///< of random loads hitting the hot set
  std::uint64_t hot_bytes = 16 * 1024;

  // ---- control side ----------------------------------------------------
  double branch_frac = 0.15;  ///< of body instructions that branch
  int branch_random_bits = 4; ///< taken with p = 2^-bits (0 => 50/50 noise)
  int code_blocks = 24;       ///< basic blocks (code footprint)
  int block_len = 12;         ///< instructions per block (pre-branch)

  // ---- compute side ----------------------------------------------------
  double mul_frac = 0.10;     ///< of ALU ops: 3-cycle multiplies
  double div_frac = 0.0;      ///< of ALU ops: 20-cycle divides

  std::uint64_t seed = 1;

  // ---- trace codec -----------------------------------------------------
  /// "" (synthetic generation from the knobs above) or "@" (generate
  /// synthetically, then round-trip the image through the trace codec
  /// in memory: encode → decode, bit-identical by construction and by
  /// test).
  std::string trace_file;
};

/// A program image: the program plus everything needed to set up its
/// address space. The generator emits one user data region; fuzz
/// programs add kernel-only secret regions, and fuzz::FuzzProgram is one
/// of these.
struct WorkloadImage {
  isa::Program program;
  std::vector<memory::Region> regions;  ///< mapped identity-translated
  /// Initial memory words (pointer-chase permutation links), in the
  /// order they are written; make_image_sim hands them to the machine as
  /// its pokes.
  std::vector<memory::Poke> init_words;
};

/// Generates a program whose committed instruction count is approximately
/// `target_instrs` (one outer loop around the synthetic body).
WorkloadImage generate(const WorkloadProfile& profile,
                       std::uint64_t target_instrs);

/// The 22 SPEC2017-rate benchmarks in the order the paper's figures plot
/// them (perlbench ... gcc).
std::vector<WorkloadProfile> spec2017_profiles();

/// Just the names, in the same plotting order (convenience for CLIs and
/// the experiment engine; builds the profile table internally).
std::vector<std::string> spec2017_profile_names();

/// Look up one profile by name. Besides the 22 SPEC names, "trace:@NAME"
/// is profile NAME round-tripped through the trace codec in memory (see
/// WorkloadProfile::trace_file). Any other name throws std::out_of_range
/// naming it and listing the known ones.
WorkloadProfile profile_by_name(const std::string& name);

}  // namespace safespec::workloads
