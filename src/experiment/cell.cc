#include "experiment/cell.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "common/json.h"
#include "sim/functional.h"
#include "workloads/runner.h"

namespace safespec::experiment {

namespace {

bool known_mode(const std::string& mode) {
  return mode == "detailed" || mode == "sampled" || mode == "sampled-fast" ||
         mode == "functional";
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

std::string Cell::key() const {
  std::string k = workload + "/" + policy + "/" + preset;
  if (mode != "detailed") k += "/" + mode;
  if (cores > 1) k += "/cores=" + std::to_string(cores);
  return k;
}

Cell Cell::parse(const std::string& text) {
  const auto bad = [&text](const std::string& why) {
    return std::invalid_argument("cell \"" + text + "\" " + why);
  };
  std::vector<std::string> parts;
  for (std::size_t start = 0;;) {
    const std::size_t slash = std::min(text.find('/', start), text.size());
    parts.push_back(text.substr(start, slash - start));
    if (slash == text.size()) break;
    start = slash + 1;
  }
  if (parts.size() < 3 || parts.size() > 5 || parts[0].empty() ||
      parts[1].empty() || parts[2].empty()) {
    throw bad("is not workload/policy/preset[/mode][/cores=N]");
  }
  Cell cell;
  cell.workload = parts[0];
  cell.policy = parts[1];
  cell.preset = parts[2];
  bool have_mode = false;
  bool have_cores = false;
  for (std::size_t i = 3; i < parts.size(); ++i) {
    const std::string& part = parts[i];
    if (part.rfind("cores=", 0) == 0) {
      if (have_cores) throw bad("gives cores=N twice");
      have_cores = true;
      // Range-check the full value before narrowing it to int.
      const std::uint64_t n = json::parse_u64(part.substr(6), "cores");
      if (n < 1 || n > 64) throw bad("has " + part + ", outside 1..64");
      cell.cores = static_cast<int>(n);
    } else {
      if (have_mode) throw bad("gives a mode twice");
      if (!known_mode(part)) {
        throw bad("has unknown mode \"" + part +
                  "\" (detailed, sampled, sampled-fast, functional)");
      }
      have_mode = true;
      cell.mode = part;
    }
  }
  return cell;
}

ResolvedCell resolve(const Cell& cell, sim::MachineSpec base) {
  if (!known_mode(cell.mode)) {
    throw std::invalid_argument("cell " + cell.key() + ": unknown mode");
  }
  if (cell.cores > 1 && cell.mode != "detailed") {
    throw std::invalid_argument("cell " + cell.key() +
                                ": cores=N needs detailed mode (sampled and "
                                "functional runs are single-core)");
  }
  ResolvedCell r{workloads::profile_by_name(cell.workload), std::move(base)};
  sim::MachineSpec& machine = r.machine;
  for (const std::string& kv : cell.overrides) machine.set(kv);
  machine.set("policy", cell.policy);
  if (cell.cores > 0) machine.core.cores = cell.cores;
  if (cell.mode == "sampled-fast") {
    machine.sampling.fast_forward_interval =
        std::max<std::uint64_t>(cell.instrs / 2, 1);
    machine.sampling.warmup_instrs = 1'000;
    machine.sampling.detail_instrs = 5'000;
  }
  return r;
}

ResolvedCell resolve(const Cell& cell) {
  return resolve(cell, sim::machine_preset(cell.preset));
}

CellRun run_cell(const Cell& cell, const sim::MachineSpec& base) {
  const ResolvedCell r = resolve(cell, base);
  CellRun run;
  const auto setup_start = std::chrono::steady_clock::now();
  auto sim = workloads::make_workload_sim(r.profile, r.machine.core,
                                          cell.instrs);
  run.setup_ms = ms_since(setup_start);
  if (cell.mode == "functional") {
    // The bare engine over the same program, memory and page table the
    // detailed cells use: the oracle fast path in isolation.
    sim::FunctionalEngine engine(&sim->program(), &sim->memory(),
                                 &sim->page_table());
    const auto start = std::chrono::steady_clock::now();
    run.result.stop = engine.run(cell.instrs);
    run.run_ms = ms_since(start);
    run.result.committed_instrs = engine.committed();
    run.result.committed_all_cores = engine.committed();
    return run;
  }
  const auto start = std::chrono::steady_clock::now();
  run.result = sim->run_sampled(r.machine.sampling, cycle_budget(cell.instrs),
                                cell.instrs);
  run.run_ms = ms_since(start);
  return run;
}

CellRun run_cell(const Cell& cell) {
  return run_cell(cell, sim::machine_preset(cell.preset));
}

}  // namespace safespec::experiment
