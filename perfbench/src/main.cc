// Command-line front end of the SafeSpec simulator benchmark.
//
//   safespec_bench --workload detailed --seed 1 --seconds 10 --trace 0
//   safespec_bench --workload multicore --seed 7 --seconds 10 --trace 1
//                  --spans spans.json
//
// Prints one "digest" line per cell (simulated-statistics fingerprints),
// the per-layer self-time table when tracing, and as its last line one
// JSON object: {"correct", "attempted", "failed", "metrics"}. Exits 0
// whenever a result was printed (a failed check shows as correct=false),
// 2 on bad arguments and 1 on an internal error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.h"

namespace {

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: safespec_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans FILE]\n"
               "  workloads: detailed, multicore\n"
               "  --spans FILE  with --trace 1, write the spans there "
               "(Chrome trace-event JSON)\n");
}

bool parse_double(const char* text, double& out) {
  char* end = nullptr;
  out = std::strtod(text, &end);
  return end != text && *end == '\0' && std::isfinite(out);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string spans_path;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      usage(stdout);
      return 0;
    }
    if (i + 1 >= argc) {
      usage(stderr);
      return 2;
    }
    const char* value = argv[++i];
    double number = 0.0;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed" && parse_double(value, number) && number >= 0) {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds" && parse_double(value, number) &&
               number > 0) {
      options.seconds = number;
    } else if (flag == "--trace" && (std::strcmp(value, "0") == 0 ||
                                     std::strcmp(value, "1") == 0)) {
      options.trace = value[0] == '1';
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      std::fprintf(stderr, "bad argument: %s %s\n", flag.c_str(), value);
      usage(stderr);
      return 2;
    }
  }
  if (!have_workload) {
    usage(stderr);
    return 2;
  }

  perfbench::Report report;
  try {
    report = perfbench::run(options);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark error: %s\n", e.what());
    return 1;
  }

  std::printf("perfbench: workload=%s seed=%llu passes=%d units=%llu "
              "failed=%llu\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), report.passes,
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (const auto& [name, digest] : report.digests) {
    std::printf("digest %s %016llx\n", name.c_str(),
                static_cast<unsigned long long>(digest));
  }
  for (const auto& t : report.self_times) {
    std::printf("self %-24s calls=%-8llu self_ms=%-12.3f total_ms=%.3f\n",
                t.name.c_str(), static_cast<unsigned long long>(t.calls),
                t.self_ms, t.total_ms);
  }
  for (const std::string& p : report.problems) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", p.c_str());
  }
  if (options.trace && !spans_path.empty()) {
    std::FILE* f = std::fopen(spans_path.c_str(), "w");
    if (f == nullptr ||
        std::fwrite(report.spans_json.data(), 1, report.spans_json.size(),
                    f) != report.spans_json.size() ||
        std::fclose(f) != 0) {
      std::fprintf(stderr, "cannot write %s\n", spans_path.c_str());
      return 1;
    }
    std::printf("spans written to %s\n", spans_path.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct() && report.problems.empty() ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
