// Declarative experiment engine: every figure/table bench is a sweep of
// workload profiles across named configuration variants. The bench
// declares the grid (ExperimentSpec), the engine expands it into
// independent cells (experiment/cell.h), runs them on a thread pool
// (ParallelRunner — one Simulator per cell, nothing shared, results in
// stable cell order so output is bitwise identical regardless of thread
// count), and the bench renders rows through ResultTable (aligned text,
// CSV, JSON).
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.h"
#include "experiment/cell.h"
#include "sim/machine.h"
#include "sim/simulator.h"

namespace safespec::experiment {

// ---- spec -------------------------------------------------------------------

/// Declarative sweep grid: workloads x variants, every cell on one base
/// machine. Expansion is workload-major (all variants of one benchmark
/// adjacent), the row order every figure prints.
class ExperimentSpec {
 public:
  /// All 22 SPEC2017-like profiles in paper order.
  ExperimentSpec& all_spec_profiles();
  /// Workloads by profile_by_name spelling (throws std::out_of_range on
  /// an unknown name).
  ExperimentSpec& profile_names(std::vector<std::string> names);

  /// The machine every cell runs on (default: the "skylake" preset).
  /// Benches pass resolve_machine(opts) here so --config / --set reshape
  /// the whole sweep, its core count and sampling schedule included.
  ExperimentSpec& base_machine(sim::MachineSpec machine);
  const sim::MachineSpec& machine() const { return base_; }

  /// One point on the configuration axis: the named protection policy,
  /// plus MachineSpec::set overrides applied on top of the base machine
  /// (e.g. {"predictor.direction=gshare"}). The policy name is the
  /// variant's display name. Throws std::out_of_range on an unknown
  /// policy and std::invalid_argument on a malformed override.
  ExperimentSpec& policy(const std::string& name,
                         std::vector<std::string> overrides = {});

  ExperimentSpec& instrs(std::uint64_t n);

  const std::vector<std::string>& workload_axis() const { return workloads_; }
  /// One partial cell per variant: its policy and overrides, on the base
  /// machine's own core count (cores 0).
  const std::vector<Cell>& variant_axis() const { return variants_; }

  /// Expands the grid into cells in stable order: workload-major, variant
  /// within workload. Cells name the base machine's preset; run them with
  /// run_cell(cell, machine()).
  std::vector<Cell> expand() const;

 private:
  sim::MachineSpec base_ = sim::machine_preset("skylake");
  std::vector<std::string> workloads_;
  std::vector<Cell> variants_;
  std::uint64_t instrs_ = kInstrsPerRun;
};

// ---- runner -----------------------------------------------------------------

/// Results of a grid sweep, indexed by the spec's two axes.
class SweepResult {
 public:
  SweepResult(std::size_t num_profiles, std::size_t num_variants,
              std::vector<sim::SimResult> results,
              std::vector<std::string> variant_names = {})
      : num_profiles_(num_profiles),
        num_variants_(num_variants),
        results_(std::move(results)),
        variant_names_(std::move(variant_names)) {}

  const sim::SimResult& at(std::size_t profile, std::size_t variant) const {
    return results_[profile * num_variants_ + variant];
  }
  const std::vector<sim::SimResult>& flat() const { return results_; }
  std::size_t num_profiles() const { return num_profiles_; }
  std::size_t num_variants() const { return num_variants_; }

  /// "" when each listed variant's cell of the profile's row converged
  /// (halted or reached its instruction budget); otherwise space-joined
  /// "variant:stop-reason" fragments for the cells that did not, in the
  /// order `variants` lists them. A table passes the variants its row
  /// reads, so a non-converged cell shows in every format it writes.
  std::string stop_note(std::size_t profile,
                        const std::vector<std::size_t>& variants) const;

 private:
  std::size_t num_profiles_;
  std::size_t num_variants_;
  std::vector<sim::SimResult> results_;
  std::vector<std::string> variant_names_;
};

/// Thread-pool sweep executor. Each cell constructs its own Simulator
/// (own Program / MainMemory / PageTable — cells share nothing), so runs
/// are embarrassingly parallel; results land in a pre-sized vector at the
/// cell's index, making output order (and content — generation is seeded
/// per cell) independent of thread count.
class ParallelRunner {
 public:
  /// threads == 0 picks std::thread::hardware_concurrency().
  explicit ParallelRunner(int threads = 0);

  int threads() const { return threads_; }

  /// Runs every cell of the spec; results in expansion order.
  SweepResult run(const ExperimentSpec& spec) const;

  /// Generic stable-order parallel map: invokes fn(i) for i in [0, n)
  /// across the pool. Used by benches whose work items are not simulator
  /// cells (attack suites, model sweeps).
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& fn) const;

 private:
  int threads_;
};

// ---- result table -----------------------------------------------------------

/// Rows and columns of one figure or table. Renders the paper's aligned
/// text layout (12-wide name column, 12-wide right-aligned cells) and
/// re-emits the same rows as CSV or JSON for the bench trajectory.
class ResultTable {
 public:
  ResultTable(std::string title, std::vector<std::string> columns);

  /// Appends one row; each value is formatted with `format` (a printf
  /// conversion for one double, default "%12.4f").
  void add_row(const std::string& name, const std::vector<double>& values,
               const char* format = "%12.4f");
  /// Appends a row with some cells blank (e.g. Fig 11's GeoMean row shows
  /// only the last column). std::nullopt renders as an empty cell.
  void add_partial_row(const std::string& name,
                       const std::vector<std::optional<double>>& values,
                       const char* format = "%12.4f");

  /// Attaches a note to the most recently added row (no-op on "").
  /// Benches feed SweepResult::stop_note() here so a cell that hit the
  /// cycle budget or faulted is flagged in text, CSV and JSON output.
  void annotate_last_row(const std::string& note);

  /// Aligned text: the title, a header, a rule, then one line per row
  /// with any stop note appended as "  !note".
  void print(std::FILE* out = stdout) const;
  /// CSV section: `table,benchmark,<columns...>[,stop]` header then one
  /// line per row (full-precision values, blanks for missing cells); the
  /// stop column appears only when some row carries a note.
  void append_csv(std::FILE* out) const;
  /// JSON objects {"table":..., "row":..., "<column>": value, ...,
  /// ["stop": note]} appended to `items` (write_files wraps them in one
  /// array); missing and non-finite values are null.
  void append_json(std::vector<std::string>& items) const;

 private:
  struct Cell {
    std::string text;             ///< formatted, right-aligned when printed
    std::optional<double> value;  ///< raw value for CSV/JSON
  };
  struct Row {
    std::string name;
    std::vector<Cell> cells;
    std::string note;  ///< e.g. "WFC:max-cycles"; "" on converged rows
  };
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<Row> rows_;
};

// ---- CLI --------------------------------------------------------------------

using BenchOptions = cli::BenchOptions;

/// Parses the shared bench flags (common/cli.h) with the default
/// instruction budget; prints usage and exits on --help or an unknown
/// --flag, and exits(2) on a malformed number or a zero budget.
/// Positional arguments pass through untouched.
inline BenchOptions parse_bench_args(int argc, char** argv,
                                     const char* extra_usage = nullptr) {
  return cli::parse_bench_args(argc, argv, extra_usage, kInstrsPerRun);
}

/// The machine the options describe: --config's JSON file (default: the
/// "skylake" preset) with every --set override applied in order, then
/// validated. Prints the problem and exits(2) on bad input — benches
/// call this once, right after parse_bench_args.
sim::MachineSpec resolve_machine(const BenchOptions& options);

/// Writes the tables to the CSV and JSON files the options name (a bench
/// prints their text itself, interleaved with any prose, and calls this
/// at the end). False, with the reason on stderr, when a file could
/// not be opened, written or closed; the bench then exits nonzero.
[[nodiscard]] bool write_files(const std::vector<ResultTable>& tables,
                               const BenchOptions& options);

}  // namespace safespec::experiment
