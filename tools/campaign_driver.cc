// Campaign driver: resumable, shardable sweeps from a manifest.
//
//   campaign_driver run    --manifest=M.json --dir=DIR [--shard=K]
//   campaign_driver status --manifest=M.json --dir=DIR
//   campaign_driver merge  --manifest=M.json --dir=DIR [--out=FILE]
//   campaign_driver triage --manifest=M.json (--dir=DIR | --merged=FILE)
//                          [--json=FILE]
//   campaign_driver report --perf-dir=DIR [--html=FILE] [--json=FILE]
//
// `run` executes (or resumes) a campaign's work units, streaming each
// shard's results to DIR/NAME.shard<K>.jsonl with a flush per unit — a
// SIGKILLed run loses at most one in-flight line and `run` again picks
// up exactly where it stopped. N processes cover one campaign by each
// passing a distinct --shard. `merge` writes the deterministic combined
// artifact (byte-identical however the campaign was split or
// interrupted), `triage` deduplicates a fuzz campaign's failures into
// distinct groups with one repro line each (exit 1 when any seed
// failed — the CI gate), and `report` renders an HTML/JSON MIPS trend
// across a directory of perf_driver artifacts. See docs/campaigns.md.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/perf_artifacts.h"
#include "campaign/report.h"
#include "campaign/triage.h"
#include "common/cli.h"

namespace {

using namespace safespec;

void usage(const char* prog, std::FILE* out) {
  std::fprintf(
      out,
      "usage: %s COMMAND [options]\n"
      "  run    --manifest=FILE --dir=DIR [--shard=K] [--threads=N]\n"
      "         [--max-units=N]\n"
      "         run (or resume) the campaign's unfinished units; with\n"
      "         --shard, only shard K (other shards' files are never\n"
      "         touched, so N processes can split one campaign);\n"
      "         --max-units stops after N new units (testing aid)\n"
      "  status --manifest=FILE --dir=DIR\n"
      "         per-shard progress\n"
      "  merge  --manifest=FILE --dir=DIR [--out=FILE]\n"
      "         combine all shard journals into one unit-sorted artifact\n"
      "         (default DIR/NAME.merged.jsonl); requires every unit done\n"
      "  triage --manifest=FILE (--dir=DIR | --merged=FILE) [--json=FILE]\n"
      "         group a fuzz campaign's failing seeds by normalized\n"
      "         failure fingerprint; prints one repro per group; exit 1\n"
      "         when any seed failed\n"
      "  report --perf-dir=DIR [--html=FILE] [--json=FILE]\n"
      "         MIPS trend across a directory of perf_driver artifacts\n"
      "         (default HTML to perf_trend.html)\n",
      prog);
}

bool write_text_file(const std::string& path, const std::string& text) {
  const auto write = [&text](std::FILE* f) {
    std::fwrite(text.data(), 1, text.size(), f);
  };
  if (!cli::write_file(path, write, "wb")) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

struct Options {
  std::string manifest_path;
  std::string dir;
  int shard = -1;  ///< -1: every shard, sequentially
  int threads = 0;
  std::uint64_t max_units = 0;
  std::string out_path;
  std::string merged_path;
  std::string json_path;
  std::string html_path;
  std::string perf_dir;
};

/// The validated manifest; exits 2 without --manifest, or without --dir
/// when `need_dir`.
campaign::Manifest load_manifest(const Options& options,
                                 bool need_dir = true) {
  if (options.manifest_path.empty()) {
    std::fprintf(stderr, "need --manifest=FILE\n");
    std::exit(2);
  }
  if (need_dir && options.dir.empty()) {
    std::fprintf(stderr, "need --dir=DIR\n");
    std::exit(2);
  }
  campaign::Manifest manifest =
      campaign::Manifest::from_json_file(options.manifest_path);
  manifest.validate();
  return manifest;
}

int cmd_run(const Options& options) {
  const campaign::Manifest manifest = load_manifest(options);
  std::filesystem::create_directories(options.dir);
  if (options.shard >= manifest.shards) {
    std::fprintf(stderr, "--shard=%d out of range (manifest has %d)\n",
                 options.shard, manifest.shards);
    return 2;
  }
  campaign::RunOptions run_options;
  run_options.threads = options.threads;
  run_options.max_units = options.max_units;
  campaign::RunStats total;
  const int first = options.shard >= 0 ? options.shard : 0;
  const int last = options.shard >= 0 ? options.shard : manifest.shards - 1;
  for (int shard = first; shard <= last; ++shard) {
    const campaign::RunStats stats =
        campaign::run_shard(manifest, options.dir, shard, run_options);
    // "failing" only means something for fuzz campaigns; grid units have
    // no pass/fail verdict.
    char failing[64] = "";
    if (manifest.kind == "fuzz") {
      std::snprintf(failing, sizeof failing, ", %llu failing",
                    static_cast<unsigned long long>(stats.failures));
    }
    std::printf("campaign %s shard %d/%d: %llu units run, %llu resumed "
                "(already done)%s\n",
                manifest.name.c_str(), shard, manifest.shards,
                static_cast<unsigned long long>(stats.ran),
                static_cast<unsigned long long>(stats.skipped), failing);
    total.ran += stats.ran;
    total.skipped += stats.skipped;
    total.failures += stats.failures;
  }
  char failing[80] = "";
  if (manifest.kind == "fuzz") {
    std::snprintf(failing, sizeof failing,
                  ", %llu failing (failures gate in `triage`)",
                  static_cast<unsigned long long>(total.failures));
  }
  std::printf("campaign %s: %llu units run, %llu skipped%s\n",
              manifest.name.c_str(),
              static_cast<unsigned long long>(total.ran),
              static_cast<unsigned long long>(total.skipped), failing);
  return 0;
}

int cmd_status(const Options& options) {
  const campaign::Manifest manifest = load_manifest(options);
  std::uint64_t done = 0;
  for (const campaign::ShardStatus& s :
       campaign::status(manifest, options.dir)) {
    done += s.done;
    std::printf("shard %d: %llu/%llu units%s%s\n", s.shard,
                static_cast<unsigned long long>(s.done),
                static_cast<unsigned long long>(s.expected),
                s.exists ? "" : " (no journal yet)",
                s.torn_tail ? " (torn tail — will recover on resume)" : "");
  }
  std::printf("campaign %s v%llu (%s, fingerprint %s): %llu/%llu units "
              "done\n",
              manifest.name.c_str(),
              static_cast<unsigned long long>(manifest.version),
              manifest.kind.c_str(), manifest.fingerprint().c_str(),
              static_cast<unsigned long long>(done),
              static_cast<unsigned long long>(manifest.num_units()));
  return 0;
}

int cmd_merge(const Options& options) {
  const campaign::Manifest manifest = load_manifest(options);
  const std::string out_path = options.out_path.empty()
                                   ? manifest.merged_path(options.dir)
                                   : options.out_path;
  const campaign::MergeStats stats =
      campaign::merge(manifest, options.dir, out_path);
  std::printf("merged %llu units from %d shards -> %s\n",
              static_cast<unsigned long long>(stats.units),
              stats.shards_read, out_path.c_str());
  return 0;
}

int cmd_triage(const Options& options) {
  // A merged artifact replaces the journals as the source of units; the
  // manifest still names the axes every repro line must carry.
  const bool merged = !options.merged_path.empty();
  const campaign::Manifest manifest = load_manifest(options, !merged);
  const campaign::TriageReport report =
      merged ? campaign::triage_merged_file(options.merged_path)
             : campaign::triage(manifest, options.dir);
  std::fputs(campaign::render_triage_text(report, manifest).c_str(),
             stdout);
  if (!options.json_path.empty()) {
    if (!write_text_file(options.json_path,
                         campaign::render_triage_json(report))) {
      return 2;
    }
    std::fprintf(stderr, "wrote triage JSON to %s\n",
                 options.json_path.c_str());
  }
  return report.failures > 0 ? 1 : 0;
}

int cmd_report(const Options& options) {
  if (options.perf_dir.empty()) {
    std::fprintf(stderr, "need --perf-dir=DIR\n");
    return 2;
  }
  const std::vector<campaign::PerfRun> runs =
      campaign::load_perf_dir(options.perf_dir);
  if (runs.empty()) {
    std::fprintf(stderr, "no perf artifacts (*.json with a \"cells\" "
                         "array) in %s\n",
                 options.perf_dir.c_str());
    return 2;
  }
  const std::string html_path =
      options.html_path.empty() && options.json_path.empty()
          ? "perf_trend.html"
          : options.html_path;
  if (!html_path.empty()) {
    if (!write_text_file(html_path, campaign::render_trend_html(runs))) {
      return 2;
    }
    std::printf("wrote %s (%zu runs)\n", html_path.c_str(), runs.size());
  }
  if (!options.json_path.empty()) {
    if (!write_text_file(options.json_path,
                         campaign::render_trend_json(runs))) {
      return 2;
    }
    std::printf("wrote %s (%zu runs)\n", options.json_path.c_str(),
                runs.size());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(argv[0], stderr);
    return 2;
  }
  const std::string command = argv[1];
  if (command == "--help" || command == "-h") {
    usage(argv[0], stdout);
    return 0;
  }

  Options options;
  int shard = -1;
  cli::FlagSet flags(usage);
  flags.string("--manifest", &options.manifest_path, /*separated=*/true)
      .string("--dir", &options.dir, /*separated=*/true)
      .bounded_int("--shard", &shard, /*separated=*/true)
      .bounded_int("--threads", &options.threads, /*separated=*/true)
      .u64("--max-units", &options.max_units, /*separated=*/true)
      .string("--out", &options.out_path, /*separated=*/true)
      .string("--merged", &options.merged_path, /*separated=*/true)
      .string("--json", &options.json_path, /*separated=*/true)
      .string("--html", &options.html_path, /*separated=*/true)
      .string("--perf-dir", &options.perf_dir, /*separated=*/true);
  // Parse everything after the command (argv[0] kept for usage lines).
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 2; i < argc; ++i) rest.push_back(argv[i]);
  flags.parse(static_cast<int>(rest.size()), rest.data());
  options.shard = shard;

  try {
    if (command == "run") return cmd_run(options);
    if (command == "status") return cmd_status(options);
    if (command == "merge") return cmd_merge(options);
    if (command == "triage") return cmd_triage(options);
    if (command == "report") return cmd_report(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_driver %s: %s\n", command.c_str(),
                 e.what());
    return 2;
  }
  std::fprintf(stderr, "unknown command: %s\n", command.c_str());
  usage(argv[0], stderr);
  return 2;
}
