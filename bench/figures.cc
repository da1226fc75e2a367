// Every SPEC figure and Table V from one sweep: the 22 SPEC2017-like
// profiles under baseline, WFB and WFC, each cell run once. Expected
// shapes, as in the paper:
//  * Figs 6-9: 99.99th-percentile shadow occupancy under WFC and WFB
//    (§IV-B: worst-case-sized shadows, occupancy sampled every cycle).
//    Tens of entries, WFB <= WFC, the shadow d-cache at times near the
//    LDQ bound.
//  * Fig 11: WFC IPC normalised to the insecure baseline: near 1.0, with
//    a small geomean gain.
//  * Figs 12-15: d- and i-cache miss rate including the shadow cache, WFC
//    vs baseline: nearly identical. Share of hits the shadow cache serves
//    under WFC: small on the d-side (little spatial locality), high on
//    the i-side (several instructions run from a line still shadowed).
//  * Fig 16: share of WFC shadow entries promoted rather than annulled:
//    d-cache well above i-cache (loads issue later, so a shadowed d-line
//    more likely belongs to an instruction that commits), both below 1.
//  * Table V: shadow-structure power and area at 40 nm (CACTI-lite).
//    Secure is the worst-case sizing (d-side = LDQ = 72, i-side = ROB =
//    224) that provably closes TSAs (§V); WFC is the suite's 99.99%
//    sizing. Secure costs several times WFC; both are a modest fraction
//    of the cache hierarchy. SHARP's cost is estimated alongside
//    (docs/mitigations.md): an owner id per cache way plus an alarm
//    counter per cache, no shadow structures.
//
// A figure's rows flag the non-converged cells of the variants it reads.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <vector>

#include "common/stats.h"
#include "experiment/experiment.h"
#include "memory/cache_hierarchy.h"
#include "model/cacti_lite.h"

using namespace safespec;
using experiment::ResultTable;

namespace {

// The sweep's variant axis.
constexpr std::size_t kBase = 0, kWFB = 1, kWFC = 2;

// Figs 6-9, and the shadow structure each sizes in Table V's WFC row.
const struct {
  const char* title;
  std::uint64_t sim::SimResult::*field;
  int model::ShadowSizing::*sizing;
} kOccupancy[] = {
    {"Fig 6: shadow i-cache entries for 99.99% of accesses",
     &sim::SimResult::shadow_icache_p9999,
     &model::ShadowSizing::icache_entries},
    {"Fig 7: shadow d-cache entries for 99.99% of accesses",
     &sim::SimResult::shadow_dcache_p9999,
     &model::ShadowSizing::dcache_entries},
    {"Fig 8: shadow iTLB entries for 99.99% of accesses",
     &sim::SimResult::shadow_itlb_p9999, &model::ShadowSizing::itlb_entries},
    {"Fig 9: shadow dTLB entries for 99.99% of accesses",
     &sim::SimResult::shadow_dtlb_p9999, &model::ShadowSizing::dtlb_entries},
};

/// Figs 6-9, 11, 12-15 and 16, in that order.
std::vector<ResultTable> figure_tables(
    const experiment::SweepResult& sweep,
    const std::vector<std::string>& profiles) {
  using Row = std::vector<double>;
  // One row per profile from values(p), flagged with the stop note over
  // the variants the figure reads; returns the values column by column.
  const auto add_rows = [&](ResultTable& table,
                            const std::vector<std::size_t>& reads,
                            const char* format, const auto& values) {
    std::vector<Row> columns;
    for (std::size_t p = 0; p < profiles.size(); ++p) {
      const Row row = values(p);
      table.add_row(profiles[p], row, format);
      table.annotate_last_row(sweep.stop_note(p, reads));
      columns.resize(row.size());
      for (std::size_t c = 0; c < row.size(); ++c) columns[c].push_back(row[c]);
    }
    return columns;
  };
  // A figure whose last row averages each column.
  const auto averaged = [&](const char* title,
                            std::vector<std::string> columns,
                            const std::vector<std::size_t>& reads,
                            const char* format, const char* average_format,
                            const auto& values) {
    ResultTable table(title, std::move(columns));
    Row means;
    for (const Row& column : add_rows(table, reads, format, values)) {
      means.push_back(arithmetic_mean(column));
    }
    table.add_row("Average", means, average_format);
    return table;
  };

  std::vector<ResultTable> tables;
  for (const auto& fig : kOccupancy) {
    tables.push_back(averaged(
        fig.title, {"WFC", "WFB"}, {kWFC, kWFB}, "%12.0f", "%12.1f",
        [&](std::size_t p) {
          return Row{static_cast<double>(sweep.at(p, kWFC).*fig.field),
                     static_cast<double>(sweep.at(p, kWFB).*fig.field)};
        }));
  }

  ResultTable fig11(
      "Fig 11: IPC relative to non-secure OoO execution (WFC / baseline)",
      {"base IPC", "WFC IPC", "normalized"});
  const auto ipc =
      add_rows(fig11, {kBase, kWFC}, "%12.4f", [&](std::size_t p) {
        const double base = sweep.at(p, kBase).ipc;
        const double wfc = sweep.at(p, kWFC).ipc;
        return Row{base, wfc, base == 0 ? 0 : wfc / base};
      });
  fig11.add_partial_row("GeoMean", {std::nullopt, std::nullopt,
                                    geometric_mean(ipc[2])});
  tables.push_back(std::move(fig11));

  const struct {
    const char* miss_title;
    const char* hits_title;
    double (sim::SimResult::*miss_rate)() const;
    double (sim::SimResult::*hit_fraction)() const;
  } caches[] = {
      {"Fig 12: d-cache read miss rate (including shadow d-cache)",
       "Fig 13: percentage of hits on shadow d-cache (WFC)",
       &sim::SimResult::dcache_miss_rate_incl_shadow,
       &sim::SimResult::shadow_dcache_hit_fraction},
      {"Fig 14: i-cache miss rate (including shadow i-cache)",
       "Fig 15: percentage of hits on shadow i-cache (WFC)",
       &sim::SimResult::icache_miss_rate_incl_shadow,
       &sim::SimResult::shadow_icache_hit_fraction},
  };
  for (const auto& cache : caches) {
    tables.push_back(averaged(
        cache.miss_title, {"WFC", "baseline"}, {kBase, kWFC}, "%12.4f",
        "%12.4f", [&](std::size_t p) {
          return Row{(sweep.at(p, kWFC).*cache.miss_rate)(),
                     (sweep.at(p, kBase).*cache.miss_rate)()};
        }));
    tables.push_back(averaged(
        cache.hits_title, {"% of hits"}, {kBase, kWFC}, "%12.2f", "%12.2f",
        [&](std::size_t p) {
          return Row{100.0 * (sweep.at(p, kWFC).*cache.hit_fraction)()};
        }));
  }

  tables.push_back(averaged(
      "Fig 16: commit rate of shadow state (WFC)", {"i-cache", "d-cache"},
      {kWFC}, "%12.4f", "%12.4f", [&](std::size_t p) {
        const auto& wfc = sweep.at(p, kWFC);
        return Row{wfc.shadow_icache_commit_rate,
                   wfc.shadow_dcache_commit_rate};
      }));
  return tables;
}

/// Prints Table V and the SHARP owner-metadata estimate, and returns the
/// two as tables for the CSV and JSON files.
std::vector<ResultTable> overhead_tables(const experiment::SweepResult& sweep) {
  std::printf("Measuring 99.99%% shadow occupancies across SPEC2017-like "
              "suite...\n");
  // The WFC row's sizing is the max over the suite of each structure's
  // 99.99% occupancy, as §VI-C derives it from the Fig 6-9 data.
  model::ShadowSizing wfc_sizing{1, 1, 1, 1};
  for (std::size_t p = 0; p < sweep.num_profiles(); ++p) {
    for (const auto& fig : kOccupancy) {
      int& entries = wfc_sizing.*fig.sizing;
      entries = std::max<int>(
          entries, static_cast<int>(sweep.at(p, kWFC).*fig.field));
    }
  }
  std::printf("WFC sizing (entries): d-cache=%d i-cache=%d dTLB=%d iTLB=%d\n",
              wfc_sizing.dcache_entries, wfc_sizing.icache_entries,
              wfc_sizing.dtlb_entries, wfc_sizing.itlb_entries);

  // Prints a table's heading and column header; its rows follow.
  const auto overhead_table = [](const char* title) {
    std::printf("\n=== %s ===\n", title);
    std::printf("%-10s %12s %10s %12s %10s\n", "", "Power (mW)", "Power (%)",
                "Area (mm2)", "Area (%)");
    return ResultTable(title, {"power_mw", "power_pct", "area_mm2",
                               "area_pct"});
  };
  ResultTable table_v =
      overhead_table("Table V: SafeSpec hardware overhead at 40nm");
  const auto secure = model::shadow_overhead({72, 224, 72, 224}, 40);
  const std::pair<const char*, model::OverheadReport> sizings[] = {
      {"Secure", secure}, {"WFC", model::shadow_overhead(wfc_sizing, 40)}};
  for (const auto& [name, r] : sizings) {
    const std::vector<double> row = {r.total_power_mw, r.power_percent,
                                     r.total_area_mm2, r.area_percent};
    std::printf("%-10s %12.2f %10.1f %12.3f %10.1f\n", name, row[0], row[1],
                row[2], row[3]);
    table_v.add_row(name, row);
  }
  const auto base = model::baseline_hierarchy(40);
  std::printf("\n(baseline L1I+L1D+L2+L3: %.2f mW, %.3f mm2)\n",
              base.total_mw(), base.area_mm2);

  std::printf("\nPer-structure breakdown (Secure sizing):\n");
  for (const auto& s : secure.structures) {
    std::printf("  %-14s %8.2f mW %8.4f mm2 %6.2f ns\n", s.name.c_str(),
                s.estimate.total_mw(), s.estimate.area_mm2,
                s.estimate.access_ns);
  }

  // SHARP owner metadata: one owner id per way of every cache level
  // (Table II geometry), direct-addressed by set/way — no CAM, no extra
  // ports (it rides the existing fill/victim access).
  ResultTable sharp = overhead_table("SHARP owner-metadata overhead at 40nm");
  const auto share_of_base = [&](const model::SramEstimate& e) {
    return std::vector<double>{
        e.total_mw(), 100.0 * e.total_mw() / base.total_mw(), e.area_mm2,
        100.0 * e.area_mm2 / base.area_mm2};
  };
  const memory::HierarchyConfig h;
  const std::pair<const char*, const memory::CacheConfig*> levels[] = {
      {"L1I owner", &h.l1i}, {"L1D owner", &h.l1d},
      {"L2 owner", &h.l2},   {"L3 owner", &h.l3}};
  model::SramEstimate total;
  std::vector<model::StructureReport> owners;
  for (const auto& [name, cache] : levels) {
    model::SramParams params;
    params.name = name;
    params.entries = cache->size_bytes / kLineSize;
    params.bits_per_entry = 6;  // owner ids for MachineSpec's 64 cores
    params.tag_bits = 0;
    const auto est = model::estimate(params);
    owners.push_back({name, est});
    sharp.add_row(name, share_of_base(est));
    total.area_mm2 += est.area_mm2;
    total.dynamic_mw += est.dynamic_mw;
    total.leakage_mw += est.leakage_mw;
  }
  const std::vector<double> row = share_of_base(total);
  sharp.add_row("SHARP total", row);
  std::printf("%-10s %12.2f %10.2f %12.4f %10.2f\n", "SHARP", row[0], row[1],
              row[2], row[3]);
  for (const auto& s : owners) {
    std::printf("  %-14s %8.2f mW %8.4f mm2\n", s.name.c_str(),
                s.estimate.total_mw(), s.estimate.area_mm2);
  }
  return {std::move(table_v), std::move(sharp)};
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = experiment::parse_bench_args(argc, argv);

  experiment::ExperimentSpec spec;
  spec.base_machine(experiment::resolve_machine(opts));
  spec.all_spec_profiles()
      .policy("baseline")
      .policy("WFB")
      .policy("WFC")
      .instrs(opts.instrs);
  const auto sweep = experiment::ParallelRunner(opts.threads).run(spec);

  std::vector<ResultTable> tables = figure_tables(sweep, spec.workload_axis());
  for (const auto& table : tables) table.print(stdout);
  for (auto& table : overhead_tables(sweep)) tables.push_back(std::move(table));

  return experiment::write_files(tables, opts) ? 0 : 1;
}
