// Simulation-throughput regression gate (CI companion to perf_driver).
//
//   perf_compare BASE.json HEAD.json [--max-drop=0.10] [--summary=FILE]
//                [--waived]
//
// Diffs two BENCH_sim_throughput.json documents cell by cell and prints a
// markdown table (also appended to --summary for the GitHub step
// summary). The gate's actionable signature is deliberately narrow:
//
//   * every matched cell's cycle count is bit-identical (the simulated
//     machine did exactly the same work), AND
//   * the matched-cell aggregate MIPS dropped by more than --max-drop
//     (default 10%).
//
// That combination can only mean the *simulator* got slower — a perf
// regression — so the tool exits 1. Any cycle difference means the
// timing model intentionally changed and wall-clock deltas are not
// comparable; the tool reports and exits 0 (correctness gates live
// elsewhere). --waived (CI passes it for [perf-waive] commit messages)
// downgrades a failure to a warning. Exit 2 on malformed input.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/perf_artifacts.h"
#include "common/cli.h"

namespace {

/// The cell schema and the loader live in campaign/perf_artifacts.h,
/// shared with perf_driver's consumers (the campaign trend report reads
/// the same artifacts); a cell's key is experiment::Cell::key(), the
/// grammar perf_driver's --cells parses.
using Cell = safespec::campaign::PerfCell;

std::vector<Cell> load_cells(const std::string& path) {
  return safespec::campaign::load_perf_cells(path);
}

const Cell* find_cell(const std::vector<Cell>& cells, const std::string& key) {
  for (const Cell& c : cells) {
    if (c.key() == key) return &c;
  }
  return nullptr;
}

void usage(const char* prog, std::FILE* out) {
  std::fprintf(out,
               "usage: %s BASE.json HEAD.json [--max-drop=FRAC] "
               "[--summary=FILE] [--waived]\n",
               prog);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> positional;
  double max_drop = 0.10;
  std::string summary_path;
  bool waived = false;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      usage(argv[0], stdout);
      return 0;
    } else if (std::strncmp(arg, "--max-drop=", 11) == 0) {
      max_drop = std::atof(arg + 11);
      if (!(max_drop > 0.0 && max_drop < 1.0)) {
        std::fprintf(stderr, "--max-drop must be in (0, 1)\n");
        return 2;
      }
    } else if (std::strncmp(arg, "--summary=", 10) == 0) {
      summary_path = arg + 10;
    } else if (std::strcmp(arg, "--waived") == 0) {
      waived = true;
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "unknown argument: %s\n", arg);
      usage(argv[0], stderr);
      return 2;
    } else {
      positional.emplace_back(arg);
    }
  }
  if (positional.size() != 2) {
    usage(argv[0], stderr);
    return 2;
  }

  std::vector<Cell> base, head;
  try {
    base = load_cells(positional[0]);
    head = load_cells(positional[1]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_compare: %s\n", e.what());
    return 2;
  }

  // Markdown report + the aggregate over matched cells only, so a grid
  // change (new/removed cells) never skews the comparison.
  std::string report;
  report += "### Simulation-throughput diff vs base\n\n";
  report +=
      "| cell | base MIPS | head MIPS | delta | cycles |\n"
      "|---|---:|---:|---:|---|\n";
  std::size_t matched = 0;
  std::size_t cycles_changed = 0;
  std::uint64_t base_instrs = 0, head_instrs = 0;
  double base_ms = 0.0, head_ms = 0.0;
  char line[256];
  for (const Cell& b : base) {
    const Cell* h = find_cell(head, b.key());
    if (h == nullptr) {
      std::snprintf(line, sizeof line, "| %s | %.2f | - | - | removed |\n",
                    b.key().c_str(), b.mips);
      report += line;
      continue;
    }
    ++matched;
    const bool identical =
        b.cycles == h->cycles && b.committed_instrs == h->committed_instrs;
    if (!identical) ++cycles_changed;
    base_instrs += b.committed_instrs;
    head_instrs += h->committed_instrs;
    base_ms += b.wall_ms;
    head_ms += h->wall_ms;
    const double delta =
        b.mips <= 0.0 ? 0.0 : (h->mips - b.mips) / b.mips * 100.0;
    std::snprintf(line, sizeof line,
                  "| %s | %.2f | %.2f | %+.1f%% | %s |\n", b.key().c_str(),
                  b.mips, h->mips, delta,
                  identical ? "identical" : "**changed**");
    report += line;
  }
  for (const Cell& h : head) {
    if (find_cell(base, h.key()) == nullptr) {
      std::snprintf(line, sizeof line, "| %s | - | %.2f | - | new |\n",
                    h.key().c_str(), h.mips);
      report += line;
    }
  }

  const double base_mips =
      base_ms <= 0.0 ? 0.0 : static_cast<double>(base_instrs) / (base_ms * 1e3);
  const double head_mips =
      head_ms <= 0.0 ? 0.0 : static_cast<double>(head_instrs) / (head_ms * 1e3);
  const double drop = base_mips <= 0.0 ? 0.0 : 1.0 - head_mips / base_mips;
  std::snprintf(line, sizeof line,
                "\nMatched-cell aggregate: %.2f -> %.2f MIPS (%+.1f%%), "
                "%zu cells matched, %zu with changed cycles.\n",
                base_mips, head_mips,
                base_mips <= 0.0 ? 0.0 : -drop * 100.0, matched,
                cycles_changed);
  report += line;

  int rc = 0;
  if (matched == 0) {
    report += "\nNo matching cells — grids are disjoint; nothing to gate.\n";
  } else if (cycles_changed != 0) {
    report +=
        "\nCycle counts changed: the timing model moved, so wall-clock "
        "deltas are not comparable. Not gating (cycle-level correctness "
        "is covered by golden CSVs and the differential fuzzer).\n";
  } else if (drop > max_drop) {
    std::snprintf(line, sizeof line,
                  "\n**Cycle-identical aggregate MIPS dropped %.1f%% "
                  "(limit %.0f%%): the simulator itself got slower.**\n",
                  drop * 100.0, max_drop * 100.0);
    report += line;
    if (waived) {
      report += "Waived by [perf-waive] in the commit message.\n";
    } else {
      report +=
          "Optimize the change, or add [perf-waive] to the commit message "
          "to accept the slowdown.\n";
      rc = 1;
    }
  } else {
    report += "\nPerf gate: OK.\n";
  }

  std::fputs(report.c_str(), stdout);
  const auto append = [&report](std::FILE* f) {
    std::fputs(report.c_str(), f);
  };
  if (!summary_path.empty() &&
      !safespec::cli::write_file(summary_path, append, "a")) {
    std::fprintf(stderr, "cannot append to %s\n", summary_path.c_str());
    return 2;
  }
  return rc;
}
