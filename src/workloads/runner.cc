#include "workloads/runner.h"

#include "sim/machine.h"

namespace safespec::workloads {

std::unique_ptr<sim::Simulator> make_workload_sim(
    const WorkloadProfile& profile, const cpu::CoreConfig& config,
    std::uint64_t target_instrs) {
  return make_image_sim(generate(profile, target_instrs), config);
}

std::unique_ptr<sim::Simulator> make_image_sim(
    WorkloadImage image, const cpu::CoreConfig& config) {
  sim::MachineSpec spec;
  spec.core = config;
  // Sweep axes legitimately undersize the shadows (sizing studies, TSA
  // grids); the strict §V bound is enforced on user-authored specs by
  // resolve_machine / from_json, not on this internal path.
  spec.allow_undersized_shadows = true;
  spec.regions = std::move(image.regions);
  spec.pokes = std::move(image.init_words);
  return sim::MachineBuilder{std::move(spec)}.build(std::move(image.program));
}

}  // namespace safespec::workloads
