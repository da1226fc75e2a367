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

  // ---- trace frontend --------------------------------------------------
  /// Empty: synthetic generation from the knobs above. "@": generate
  /// synthetically, then round-trip the image through the trace codec
  /// in memory (encode → decode — exercises the trace path with no
  /// file; bit-identical by construction and by test). Anything else:
  /// a trace file path to load instead of generating (the knobs above
  /// are ignored; see src/trace/trace_format.h for the format).
  std::string trace_file;
};

/// One extra mapped region a workload needs beyond data_base/data_bytes
/// (trace-loaded workloads carry their full region list, including
/// kernel-only secret regions recorded from fuzz programs).
struct WorkloadRegion {
  Addr base = 0;
  std::uint64_t bytes = 0;
  bool kernel = false;
};

/// A generated benchmark: the program plus everything needed to set up
/// the address space.
struct WorkloadImage {
  isa::Program program;
  Addr data_base = 0;
  std::uint64_t data_bytes = 0;  ///< map [data_base, +data_bytes) as user
  /// Initial memory words (pointer-chase permutation links), in the
  /// order they are written; make_image_sim hands them to the machine as
  /// its pokes.
  std::vector<memory::Poke> init_words;
  /// Additional regions to map (empty for synthetic workloads).
  std::vector<WorkloadRegion> regions;
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

/// Look up one profile by name (throws std::out_of_range if unknown).
/// Besides the 22 SPEC names, two trace spellings are accepted:
///   "trace:PATH"   — replay the trace file at PATH;
///   "trace:@NAME"  — profile NAME, round-tripped through the trace
///                    codec in memory (see WorkloadProfile::trace_file).
WorkloadProfile profile_by_name(const std::string& name);

}  // namespace safespec::workloads
