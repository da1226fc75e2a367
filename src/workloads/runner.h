// Builds the simulator a workload profile runs on; experiment::run_cell
// (experiment/cell.h) runs it for every figure, campaign and perf cell.
#pragma once

#include <memory>

#include "cpu/core.h"
#include "sim/simulator.h"
#include "workloads/workload.h"

namespace safespec::workloads {

/// Builds the simulator for `profile` (program generated for
/// `target_instrs` committed instructions, address space mapped, chase
/// links initialised).
std::unique_ptr<sim::Simulator> make_workload_sim(
    const WorkloadProfile& profile, const cpu::CoreConfig& config,
    std::uint64_t target_instrs);

/// Builds the simulator for an already-materialised image (the
/// generate() half of make_workload_sim factored out): maps its regions
/// and applies its init words. Used directly where the image comes from
/// a fuzz seed or a trace codec round trip rather than the generator.
std::unique_ptr<sim::Simulator> make_image_sim(WorkloadImage image,
                                               const cpu::CoreConfig& config);

}  // namespace safespec::workloads
