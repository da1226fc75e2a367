// Declarative machine descriptions (the construction API).
//
// A MachineSpec is everything needed to stand up one simulated machine:
// the resolved micro-architecture (cpu::CoreConfig, including shadow
// sizing and the protection policy *name*), the address-space layout
// (memory map regions), and pre-run pokes. Specs serialize to/from JSON,
// so a sweep point is data — shippable in a config file, overridable
// with --set key=value — instead of a hand-written construction site.
//
// Three pieces:
//   * the presets: named starting points ("skylake" — Tables I/II,
//     which are MachineSpec's defaults; "embedded" — a 2-wide
//     in-order-ish little core);
//   * MachineSpec::validate(): rejects nonsense (zero widths,
//     overlapping regions, unknown policy names) and — §V's security
//     argument — shadow sizing below the secure bound (d-side ≥ LDQ,
//     i-side ≥ ROB) unless allow_undersized_shadows is set explicitly;
//   * MachineBuilder: a fluent layer that yields a ready-to-run
//     Simulator (text + regions mapped, pokes applied).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cpu/core.h"
#include "isa/program.h"
#include "memory/main_memory.h"
#include "sim/simulator.h"

namespace safespec::sim {

using MemRegion = memory::Region;  ///< one mapped address-space region
using memory::Poke;  ///< one pre-run architectural memory write

/// Declarative description of one simulated machine.
struct MachineSpec {
  std::string preset = "skylake";  ///< preset this spec derives from
  cpu::CoreConfig core;            ///< resolved micro-architecture
  /// §V: d-side shadows below the LDQ bound / i-side below the ROB bound
  /// open the TSA channel; validate() rejects such sizing unless this is
  /// set explicitly (sizing studies and attack PoCs set it).
  bool allow_undersized_shadows = false;
  /// Sampled-simulation schedule (disabled by default). The experiment
  /// engine's run_cell passes it to Simulator::run_sampled. See
  /// sim::SamplingSpec.
  SamplingSpec sampling;
  std::vector<MemRegion> regions;
  std::vector<Poke> pokes;

  /// Throws std::invalid_argument on the first problem found: zero or
  /// negative widths/queue sizes, degenerate cache or TLB geometry,
  /// overlapping or wrapping memory-map regions, or shadow sizing below
  /// the secure bound without allow_undersized_shadows. An unknown
  /// policy name throws std::out_of_range listing the registered
  /// policies (policy::named_policy's error).
  void validate() const;

  /// Pretty-printed JSON document (stable key order — round-trips).
  std::string to_json() const;
  /// Unlisted fields keep the named preset's values. Throws
  /// std::invalid_argument on a key the layout lacks, a group that is not
  /// an object, a mistyped leaf, or an integer its field cannot hold; an
  /// unknown preset or policy name throws std::out_of_range.
  static MachineSpec from_json(const std::string& text);
  static MachineSpec from_json_file(const std::string& path);

  /// Applies one "key=value" override (the --set grammar). Dotted keys
  /// address nested fields: policy=WFB-stall, cores=2, rob_entries=64,
  /// l2.size_bytes=524288, shadow_dcache.entries=16,
  /// shadow_dcache.full_policy=stall, predictor.direction=perceptron,
  /// preset=embedded (re-seeds the core from that preset; apply first).
  /// Throws std::invalid_argument on unknown keys or malformed values
  /// (an integer its field cannot hold included); unknown policy=/preset=
  /// names throw std::out_of_range listing the registered names.
  void set(const std::string& key_equals_value);
  void set(const std::string& key, const std::string& value);
};

// ---- presets ----------------------------------------------------------------

/// Looks up a preset by name. Throws std::out_of_range with a message
/// listing every preset name when `name` is unknown.
MachineSpec machine_preset(const std::string& name);
std::vector<std::string> machine_preset_names();

// ---- builder ----------------------------------------------------------------

/// Fluent construction: preset (or explicit spec) -> tweaks -> a
/// validated, ready-to-run Simulator.
///
///   auto sim = MachineBuilder::from_preset("skylake")
///                  .policy("WFC")
///                  .map_region(kData, kPageSize)
///                  .poke(kData, 42)
///                  .build(std::move(program));
class MachineBuilder {
 public:
  MachineBuilder();  ///< starts from the "skylake" preset
  explicit MachineBuilder(MachineSpec spec);
  static MachineBuilder from_preset(const std::string& name);

  /// Selects the protection policy by name.
  MachineBuilder& policy(const std::string& name);
  MachineBuilder& map_region(Addr base, std::uint64_t bytes,
                             memory::PagePerm perm = memory::PagePerm::kUser);
  MachineBuilder& poke(Addr addr, std::uint64_t value);
  /// Applies one "key=value" override (MachineSpec::set grammar), e.g.
  /// set("cores=4") or set("shadow_dcache.entries=8").
  MachineBuilder& set(const std::string& key_equals_value);

  const MachineSpec& spec() const { return spec_; }

  /// Validates the spec and yields a ready-to-run simulator: program
  /// text mapped, regions mapped, pokes applied — once, into core 0's
  /// image, which the other cores share copy-on-write.
  /// Propagates MachineSpec::validate()'s exceptions
  /// (std::invalid_argument, or std::out_of_range for unknown names).
  std::unique_ptr<Simulator> build(isa::Program program) const;

 private:
  MachineSpec spec_;
};

}  // namespace safespec::sim
