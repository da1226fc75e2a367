#include "experiment/experiment.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>
#include <thread>

#include "common/json.h"

namespace safespec::experiment {

// ---- spec -------------------------------------------------------------------

ExperimentSpec& ExperimentSpec::all_spec_profiles() {
  workloads_ = workloads::spec2017_profile_names();
  return *this;
}

ExperimentSpec& ExperimentSpec::profile_names(std::vector<std::string> names) {
  for (const std::string& name : names) workloads::profile_by_name(name);
  workloads_ = std::move(names);
  return *this;
}

ExperimentSpec& ExperimentSpec::base_machine(sim::MachineSpec machine) {
  base_ = std::move(machine);
  return *this;
}

ExperimentSpec& ExperimentSpec::policy(const std::string& name,
                                       std::vector<std::string> overrides) {
  // Fail here, not in a pool thread: the policy name and every override
  // must apply to a machine.
  sim::MachineSpec probe = base_;
  for (const std::string& kv : overrides) probe.set(kv);
  probe.set("policy", name);
  Cell variant;
  variant.policy = name;
  variant.overrides = std::move(overrides);
  variant.cores = 0;  // the base machine's own count
  variants_.push_back(std::move(variant));
  return *this;
}

ExperimentSpec& ExperimentSpec::instrs(std::uint64_t n) {
  instrs_ = n;
  return *this;
}

std::vector<Cell> ExperimentSpec::expand() const {
  std::vector<Cell> cells;
  cells.reserve(workloads_.size() * variants_.size());
  for (const std::string& workload : workloads_) {
    for (Cell cell : variants_) {
      cell.workload = workload;
      cell.preset = base_.preset;
      cell.instrs = instrs_;
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

// ---- runner -----------------------------------------------------------------

ParallelRunner::ParallelRunner(int threads) : threads_(threads) {
  if (threads_ <= 0) {
    threads_ = static_cast<int>(std::thread::hardware_concurrency());
    if (threads_ <= 0) threads_ = 1;
  }
}

void ParallelRunner::parallel_for(
    std::size_t n, const std::function<void(std::size_t)>& fn) const {
  const std::size_t workers =
      std::min<std::size_t>(static_cast<std::size_t>(threads_), n);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t t = 0; t < workers; ++t) pool.emplace_back(worker);
  for (auto& thread : pool) thread.join();
  if (first_error) std::rethrow_exception(first_error);
}

SweepResult ParallelRunner::run(const ExperimentSpec& spec) const {
  const std::vector<Cell> cells = spec.expand();
  std::vector<sim::SimResult> results(cells.size());
  parallel_for(cells.size(), [&](std::size_t i) {
    results[i] = run_cell(cells[i], spec.machine()).result;
  });
  std::vector<std::string> variant_names;
  for (const Cell& v : spec.variant_axis()) variant_names.push_back(v.policy);
  return SweepResult(spec.workload_axis().size(), spec.variant_axis().size(),
                     std::move(results), std::move(variant_names));
}

std::string SweepResult::stop_note(
    std::size_t profile, const std::vector<std::size_t>& variants) const {
  std::string note;
  for (const std::size_t v : variants) {
    const auto stop = at(profile, v).stop;
    if (stop == cpu::StopReason::kHalted ||
        stop == cpu::StopReason::kMaxInstrs) {
      continue;  // converged
    }
    if (!note.empty()) note += ' ';
    note += v < variant_names_.size() ? variant_names_[v]
                                      : "v" + std::to_string(v);
    note += ':';
    note += cpu::to_string(stop);
  }
  return note;
}

// ---- result table -----------------------------------------------------------

namespace {

std::string format_value(double value, const char* format) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

std::string csv_escape(const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) return field;
  std::string quoted = "\"";
  for (char c : field) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

}  // namespace

ResultTable::ResultTable(std::string title, std::vector<std::string> columns)
    : title_(std::move(title)), columns_(std::move(columns)) {}

void ResultTable::add_row(const std::string& name,
                          const std::vector<double>& values,
                          const char* format) {
  Row row;
  row.name = name;
  for (double v : values) row.cells.push_back({format_value(v, format), v});
  rows_.push_back(std::move(row));
}

void ResultTable::add_partial_row(
    const std::string& name, const std::vector<std::optional<double>>& values,
    const char* format) {
  Row row;
  row.name = name;
  for (const auto& v : values) {
    if (v) {
      row.cells.push_back({format_value(*v, format), v});
    } else {
      row.cells.push_back({std::string(12, ' '), std::nullopt});
    }
  }
  rows_.push_back(std::move(row));
}

void ResultTable::annotate_last_row(const std::string& note) {
  if (note.empty() || rows_.empty()) return;
  rows_.back().note = note;
}

void ResultTable::print(std::FILE* out) const {
  std::fprintf(out, "\n%s\n", title_.c_str());
  std::fprintf(out, "%-12s", "benchmark");
  for (const auto& c : columns_) std::fprintf(out, " %12s", c.c_str());
  std::fprintf(out, "\n%s\n",
               std::string(12 + columns_.size() * 13, '-').c_str());
  for (const auto& row : rows_) {
    std::fprintf(out, "%-12s", row.name.c_str());
    for (const auto& cell : row.cells) {
      std::fprintf(out, " %s", cell.text.c_str());
    }
    if (!row.note.empty()) std::fprintf(out, "  !%s", row.note.c_str());
    std::fprintf(out, "\n");
  }
}

void ResultTable::append_csv(std::FILE* out) const {
  const bool notes =
      std::any_of(rows_.begin(), rows_.end(),
                  [](const Row& row) { return !row.note.empty(); });
  std::fprintf(out, "table,benchmark");
  for (const auto& c : columns_) {
    std::fprintf(out, ",%s", csv_escape(c).c_str());
  }
  std::fprintf(out, notes ? ",stop\n" : "\n");
  for (const auto& row : rows_) {
    std::fprintf(out, "%s,%s", csv_escape(title_).c_str(),
                 csv_escape(row.name).c_str());
    for (const auto& cell : row.cells) {
      if (cell.value) {
        std::fprintf(out, ",%.17g", *cell.value);
      } else {
        std::fprintf(out, ",");
      }
    }
    if (notes) std::fprintf(out, ",%s", csv_escape(row.note).c_str());
    std::fprintf(out, "\n");
  }
}

void ResultTable::append_json(std::vector<std::string>& items) const {
  for (const auto& row : rows_) {
    json::JsonlObject item;
    item.text("table", title_).text("row", row.name);
    for (std::size_t c = 0; c < row.cells.size(); ++c) {
      const std::string key =
          c < columns_.size() ? columns_[c] : "col" + std::to_string(c);
      item.number(key.c_str(), row.cells[c].value.value_or(NAN));
    }
    if (!row.note.empty()) item.text("stop", row.note);
    items.push_back(item.str());
  }
}

// ---- CLI --------------------------------------------------------------------

sim::MachineSpec resolve_machine(const BenchOptions& options) {
  try {
    sim::MachineSpec spec =
        options.config_path.empty()
            ? sim::machine_preset("skylake")
            : sim::MachineSpec::from_json_file(options.config_path);
    for (const auto& kv : options.overrides) spec.set(kv);
    spec.validate();
    if (!spec.regions.empty() || !spec.pokes.empty()) {
      // Workload sweeps generate their own address space per cell; only
      // MachineBuilder-driven runs honour a spec's memory map.
      std::fprintf(stderr,
                   "note: memory_map/pokes in the machine config are "
                   "ignored by workload sweeps\n");
    }
    return spec;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad machine configuration: %s\n", e.what());
    std::exit(2);
  }
}

namespace {

/// Writes one output file through `write`; false, with the reason on
/// stderr, when the file cannot be opened, written or closed.
bool write_file(const std::string& path, const char* what,
                const std::function<void(std::FILE*)>& write) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  write(out);
  const bool write_failed = std::ferror(out) != 0;
  if (std::fclose(out) != 0 || write_failed) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(stderr, "wrote %s to %s\n", what, path.c_str());
  return true;
}

}  // namespace

bool write_files(const std::vector<ResultTable>& tables,
                 const BenchOptions& options) {
  bool ok = true;
  if (!options.csv_path.empty()) {
    ok &= write_file(options.csv_path, "CSV", [&](std::FILE* out) {
      for (const ResultTable& table : tables) table.append_csv(out);
    });
  }
  if (!options.json_path.empty()) {
    ok &= write_file(options.json_path, "JSON", [&](std::FILE* out) {
      std::vector<std::string> items;
      for (const ResultTable& table : tables) table.append_json(items);
      std::fprintf(out, "[\n");
      for (std::size_t i = 0; i < items.size(); ++i) {
        std::fprintf(out, "  %s%s\n", items[i].c_str(),
                     i + 1 < items.size() ? "," : "");
      }
      std::fprintf(out, "]\n");
    });
  }
  return ok;
}

}  // namespace safespec::experiment
