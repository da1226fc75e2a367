// Tables I & II: echoes the simulated CPU and memory-system
// configuration exactly as the evaluation uses it.
#include <cstdio>
#include <sstream>
#include <string>

#include "experiment/experiment.h"

namespace safespec {
namespace {

/// The configuration laid out the way the paper tabulates it.
std::string describe_config(const cpu::CoreConfig& c) {
  std::ostringstream oss;
  oss << "CPU (Table I)\n"
      << "  Issue               " << c.issue_width << "-way issue\n"
      << "  IQ                  " << c.iq_entries << "-entry Issue Queue\n"
      << "  Commit              up to " << c.commit_width
      << " micro-ops/cycle\n"
      << "  ROB                 " << c.rob_entries
      << "-entry Reorder Buffer\n"
      << "  iTLB                " << c.itlb.entries << "-entry\n"
      << "  dTLB                " << c.dtlb.entries << "-entry\n"
      << "  LDQ                 " << c.ldq_entries << "-entry\n"
      << "  STQ                 " << c.stq_entries << "-entry\n"
      << "Memory system (Table II)\n"
      << "  L1I-Cache           " << c.hierarchy.l1i.size_bytes / 1024
      << " KB, " << c.hierarchy.l1i.ways << "-way, "
      << c.hierarchy.l1i.line_bytes << "B line, "
      << c.hierarchy.l1i.hit_latency << " cycle hit\n"
      << "  L1D-Cache           " << c.hierarchy.l1d.size_bytes / 1024
      << " KB, " << c.hierarchy.l1d.ways << "-way, "
      << c.hierarchy.l1d.line_bytes << "B line, "
      << c.hierarchy.l1d.hit_latency << " cycle hit\n"
      << "  L2 Shared Cache     " << c.hierarchy.l2.size_bytes / 1024
      << " KB, " << c.hierarchy.l2.ways << "-way, "
      << c.hierarchy.l2.line_bytes << "B line, "
      << c.hierarchy.l2.hit_latency << " cycle hit\n"
      << "  L3 Shared Cache     " << c.hierarchy.l3.size_bytes / (1024 * 1024)
      << " MB, " << c.hierarchy.l3.ways << "-way, "
      << c.hierarchy.l3.line_bytes << "B line, "
      << c.hierarchy.l3.hit_latency << " cycle hit\n"
      << "  Memory              " << c.hierarchy.memory_latency
      << " cycles\n"
      << "SafeSpec\n"
      << "  Policy              " << c.policy << "\n"
      << "  shadow d-cache      " << c.shadow_dcache.entries << " entries ("
      << shadow::to_string(c.shadow_dcache.full_policy) << ")\n"
      << "  shadow i-cache      " << c.shadow_icache.entries << " entries ("
      << shadow::to_string(c.shadow_icache.full_policy) << ")\n"
      << "  shadow dTLB         " << c.shadow_dtlb.entries << " entries ("
      << shadow::to_string(c.shadow_dtlb.full_policy) << ")\n"
      << "  shadow iTLB         " << c.shadow_itlb.entries << " entries ("
      << shadow::to_string(c.shadow_itlb.full_policy) << ")\n";
  return oss.str();
}

}  // namespace
}  // namespace safespec

int main(int argc, char** argv) {
  using namespace safespec;
  const auto opts = experiment::parse_bench_args(argc, argv);

  std::printf("=== Tables I & II: simulated CPU configuration ===\n\n");
  cpu::CoreConfig c = experiment::resolve_machine(opts).core;
  c.policy = "WFC";
  std::printf("%s\n", describe_config(c).c_str());

  if (!opts.csv_path.empty() || !opts.json_path.empty()) {
    experiment::ResultTable table("Tables I & II: simulated configuration",
                                  {"value"});
    const struct {
      const char* name;
      double value;
    } params[] = {
        {"issue_width", static_cast<double>(c.issue_width)},
        {"iq_entries", static_cast<double>(c.iq_entries)},
        {"rob_entries", static_cast<double>(c.rob_entries)},
        {"ldq_entries", static_cast<double>(c.ldq_entries)},
        {"stq_entries", static_cast<double>(c.stq_entries)},
        {"itlb_entries", static_cast<double>(c.itlb.entries)},
        {"dtlb_entries", static_cast<double>(c.dtlb.entries)},
        {"l1i_kb", c.hierarchy.l1i.size_bytes / 1024.0},
        {"l1d_kb", c.hierarchy.l1d.size_bytes / 1024.0},
        {"l2_kb", c.hierarchy.l2.size_bytes / 1024.0},
        {"l3_kb", c.hierarchy.l3.size_bytes / 1024.0},
        {"memory_latency", static_cast<double>(c.hierarchy.memory_latency)},
        {"shadow_dcache", static_cast<double>(c.shadow_dcache.entries)},
        {"shadow_icache", static_cast<double>(c.shadow_icache.entries)},
        {"shadow_dtlb", static_cast<double>(c.shadow_dtlb.entries)},
        {"shadow_itlb", static_cast<double>(c.shadow_itlb.entries)},
    };
    for (const auto& p : params) table.add_row(p.name, {p.value}, "%12.0f");
    if (!experiment::write_files({table}, opts)) return 1;
  }
  return 0;
}
