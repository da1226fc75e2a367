// Tests for the campaign layer: manifest round-trip and validation, the
// resume protocol (kill modeled as a unit cap, torn-tail truncation,
// header mismatch refusal), the two byte-identity guarantees (resumed ==
// uninterrupted, S-shard == 1-shard), deduplicated failure triage, and
// the perf-trend report. A real SIGKILL variant of the resume test runs
// as a ctest script (tests/campaign/kill_resume.cmake).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/perf_artifacts.h"
#include "campaign/report.h"
#include "campaign/triage.h"

namespace safespec::campaign {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test, under the ctest working directory.
std::string scratch_dir(const std::string& name) {
  const fs::path dir = fs::path("campaign_test_work") / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
}

void append_raw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out << bytes;
}

/// A cheap fuzz campaign: one policy x one preset per seed.
Manifest fuzz_manifest(const std::string& name, std::uint64_t count,
                       int shards, const std::string& mutate = "") {
  Manifest m;
  m.name = name;
  m.version = 1;
  m.kind = "fuzz";
  m.shards = shards;
  m.fuzz.first_seed = 1;
  m.fuzz.count = count;
  m.fuzz.policies = {"baseline"};
  m.fuzz.presets = {"skylake"};
  m.fuzz.mutate = mutate;
  return m;
}

Manifest grid_manifest(const std::string& name, int shards) {
  Manifest m;
  m.name = name;
  m.version = 1;
  m.kind = "grid";
  m.shards = shards;
  m.grid.workloads = {"mcf", "exchange2"};
  m.grid.policies = {"baseline", "WFC"};
  m.grid.presets = {"skylake"};
  m.grid.instrs = 2'000;
  return m;
}

TEST(Manifest, RoundTripsThroughJson) {
  Manifest m = fuzz_manifest("round-trip", 10, 3);
  m.fuzz.spec = "spec.json";
  m.fuzz.cores = 2;
  const Manifest parsed = Manifest::from_json(m.to_json());
  EXPECT_EQ(parsed.name, m.name);
  EXPECT_EQ(parsed.version, m.version);
  EXPECT_EQ(parsed.kind, m.kind);
  EXPECT_EQ(parsed.shards, m.shards);
  EXPECT_EQ(parsed.fuzz.first_seed, m.fuzz.first_seed);
  EXPECT_EQ(parsed.fuzz.count, m.fuzz.count);
  EXPECT_EQ(parsed.fuzz.spec, m.fuzz.spec);
  EXPECT_EQ(parsed.fuzz.policies, m.fuzz.policies);
  EXPECT_EQ(parsed.fuzz.presets, m.fuzz.presets);
  EXPECT_EQ(parsed.fuzz.cores, m.fuzz.cores);
  EXPECT_EQ(parsed.fingerprint(), m.fingerprint());

  const Manifest g = grid_manifest("grid-trip", 2);
  EXPECT_EQ(Manifest::from_json(g.to_json()).fingerprint(), g.fingerprint());
  EXPECT_EQ(Manifest::from_json(g.to_json()).grid.workloads,
            g.grid.workloads);
}

TEST(Manifest, FromJsonRejectsUnknownKeysAndWideIntegers) {
  // A typo must fail loudly: "polices" would otherwise sweep every
  // policy, and the fingerprint (of the re-serialized manifest) would
  // not show it. 2^32 + 1 shards is not 1 shard, 2^32 + 2 cores not 2.
  for (const char* doc : {
           R"({"campaign": "c", "kind": "fuzz",
               "fuzz": {"count": 1, "polices": ["WFC"]}})",
           R"({"campaign": "c", "kind": "fuzz", "shard": 2})",
           R"({"campaign": "c", "kind": "grid",
               "grid": {"workload": ["mcf"]}})",
           R"({"campaign": "c", "kind": "fuzz", "fuzz": 5})",
           R"({"campaign": "c", "kind": "fuzz", "shards": 4294967297})",
           R"({"campaign": "c", "kind": "fuzz",
               "fuzz": {"count": 1, "cores": 4294967298}})",
       }) {
    SCOPED_TRACE(doc);
    EXPECT_THROW(Manifest::from_json(doc), std::invalid_argument);
  }
}

TEST(Manifest, FingerprintTracksEveryField) {
  const Manifest m = fuzz_manifest("fingerprint", 10, 1);
  Manifest changed = m;
  changed.version = 2;
  EXPECT_NE(changed.fingerprint(), m.fingerprint());
  changed = m;
  changed.fuzz.count = 11;
  EXPECT_NE(changed.fingerprint(), m.fingerprint());
  changed = m;
  changed.fuzz.mutate = "commit-xor";
  EXPECT_NE(changed.fingerprint(), m.fingerprint());
}

TEST(Manifest, ValidateRejectsNonsense) {
  EXPECT_THROW(fuzz_manifest("", 10, 1).validate(), std::invalid_argument);
  EXPECT_THROW(fuzz_manifest("bad/name", 10, 1).validate(),
               std::invalid_argument);
  EXPECT_THROW(fuzz_manifest("ok", 0, 1).validate(), std::invalid_argument);
  EXPECT_THROW(fuzz_manifest("ok", 10, 0).validate(), std::invalid_argument);
  EXPECT_THROW(fuzz_manifest("ok", 10, 1, "typo").validate(),
               std::invalid_argument);
  Manifest bad_kind = fuzz_manifest("ok", 10, 1);
  bad_kind.kind = "sweep";
  EXPECT_THROW(bad_kind.validate(), std::invalid_argument);
  Manifest bad_policy = fuzz_manifest("ok", 10, 1);
  bad_policy.fuzz.policies = {"no-such-policy"};
  EXPECT_THROW(bad_policy.validate(), std::out_of_range);
  Manifest empty_grid = grid_manifest("ok", 1);
  empty_grid.grid.workloads.clear();
  EXPECT_THROW(empty_grid.validate(), std::invalid_argument);
  EXPECT_NO_THROW(fuzz_manifest("ok", 10, 1).validate());
  EXPECT_NO_THROW(grid_manifest("ok", 2).validate());
}

TEST(Manifest, UnitsAndShardOwnership) {
  const Manifest m = fuzz_manifest("units", 10, 3);
  EXPECT_EQ(m.num_units(), 10u);
  EXPECT_EQ(m.units_of_shard(0), 4u);  // units 0,3,6,9
  EXPECT_EQ(m.units_of_shard(1), 3u);
  EXPECT_EQ(m.units_of_shard(2), 3u);
  const Manifest g = grid_manifest("gunits", 1);
  EXPECT_EQ(g.num_units(), 4u);  // 2 workloads x 2 policies x 1 preset
}

TEST(Campaign, ResumedFuzzRunMergesByteIdentical) {
  const Manifest m = fuzz_manifest("resume", 6, 1);
  const std::string clean = scratch_dir("resume_clean");
  const std::string killed = scratch_dir("resume_killed");

  RunOptions all;
  all.threads = 2;
  RunStats stats = run_shard(m, clean, 0, all);
  EXPECT_EQ(stats.ran, 6u);
  EXPECT_EQ(stats.skipped, 0u);
  merge(m, clean, clean + "/merged.jsonl");

  // "Kill" after two units, then resume: the journal must pick up where
  // it stopped, rerun nothing, and merge to the same bytes.
  RunOptions capped = all;
  capped.max_units = 2;
  stats = run_shard(m, killed, 0, capped);
  EXPECT_EQ(stats.ran, 2u);
  stats = run_shard(m, killed, 0, all);
  EXPECT_EQ(stats.ran, 4u);
  EXPECT_EQ(stats.skipped, 2u);
  merge(m, killed, killed + "/merged.jsonl");

  const std::string clean_bytes = read_file(clean + "/merged.jsonl");
  EXPECT_FALSE(clean_bytes.empty());
  EXPECT_EQ(clean_bytes, read_file(killed + "/merged.jsonl"));
}

TEST(Campaign, GridShardSplitMergesByteIdentical) {
  // Same axes, different shard counts: the merged artifact may not
  // depend on how the campaign was split.
  const Manifest one = grid_manifest("grid", 1);
  const Manifest two = grid_manifest("grid", 2);
  const std::string dir1 = scratch_dir("grid_1shard");
  const std::string dir2 = scratch_dir("grid_2shard");

  RunOptions options;
  options.threads = 2;
  run_shard(one, dir1, 0, options);
  merge(one, dir1, dir1 + "/merged.jsonl");
  run_shard(two, dir2, 1, options);  // shard order must not matter either
  run_shard(two, dir2, 0, options);
  merge(two, dir2, dir2 + "/merged.jsonl");

  const std::string bytes = read_file(dir1 + "/merged.jsonl");
  EXPECT_FALSE(bytes.empty());
  EXPECT_EQ(bytes, read_file(dir2 + "/merged.jsonl"));
  EXPECT_NE(bytes.find("\"workload\":\"mcf\""), std::string::npos);
}

TEST(Campaign, BenchSmokeGridMergesToPinnedBytes) {
  // CI's bench-smoke grid manifest: its fingerprint and its merged
  // artifact are pinned byte for byte, so a change to how grid units
  // resolve or run their cells shows up here.
  const Manifest m = Manifest::from_json(R"({
    "campaign": "smoke",
    "version": 1,
    "kind": "grid",
    "shards": 1,
    "grid": {
      "workloads": ["mcf", "exchange2"],
      "policies": ["baseline", "WFC"],
      "presets": ["skylake"],
      "instrs": 20000
    }
  })");
  EXPECT_EQ(m.fingerprint(), "b2b116fe6a5c5727");

  const std::string dir = scratch_dir("bench_smoke");
  RunOptions options;
  options.threads = 2;
  run_shard(m, dir, 0, options);
  merge(m, dir, dir + "/merged.jsonl");
  EXPECT_EQ(read_file(dir + "/merged.jsonl"),
            "{\"unit\":0,\"workload\":\"mcf\",\"policy\":\"baseline\","
            "\"preset\":\"skylake\",\"stop\":\"max-instrs\",\"cycles\":205679,"
            "\"committed\":20004,\"ipc\":0.097258349175171024}\n"
            "{\"unit\":1,\"workload\":\"mcf\",\"policy\":\"WFC\","
            "\"preset\":\"skylake\",\"stop\":\"max-instrs\",\"cycles\":206138,"
            "\"committed\":20004,\"ipc\":0.09704178754038556}\n"
            "{\"unit\":2,\"workload\":\"exchange2\",\"policy\":\"baseline\","
            "\"preset\":\"skylake\",\"stop\":\"max-instrs\",\"cycles\":23189,"
            "\"committed\":20003,\"ipc\":0.86260727068868859}\n"
            "{\"unit\":3,\"workload\":\"exchange2\",\"policy\":\"WFC\","
            "\"preset\":\"skylake\",\"stop\":\"max-instrs\",\"cycles\":23563,"
            "\"committed\":20003,\"ipc\":0.84891567287696812}\n");
}

TEST(Campaign, TornTailIsTruncatedAndRerun) {
  const Manifest m = fuzz_manifest("torn", 4, 1);
  const std::string dir = scratch_dir("torn");
  const std::string reference = scratch_dir("torn_reference");

  RunOptions options;
  RunOptions capped;
  capped.max_units = 2;
  run_shard(m, dir, 0, capped);
  // A SIGKILL mid-fprintf leaves a partial line with no newline.
  append_raw(m.shard_path(dir, 0), "{\"unit\":2,\"seed\":3,\"o");

  const RunStats stats = run_shard(m, dir, 0, options);
  EXPECT_EQ(stats.ran, 2u);      // units 2 and 3 — the torn one reruns
  EXPECT_EQ(stats.skipped, 2u);  // units 0 and 1 survive truncation
  merge(m, dir, dir + "/merged.jsonl");

  run_shard(m, reference, 0, options);
  merge(m, reference, reference + "/merged.jsonl");
  EXPECT_EQ(read_file(dir + "/merged.jsonl"),
            read_file(reference + "/merged.jsonl"));
}

TEST(Campaign, JournalFromOtherManifestIsRefused) {
  const Manifest m = fuzz_manifest("refuse", 4, 1);
  const std::string dir = scratch_dir("refuse");
  run_shard(m, dir, 0, RunOptions{});

  Manifest edited = m;
  edited.version = 2;  // new fingerprint: old journal must be refused
  EXPECT_THROW(run_shard(edited, dir, 0, RunOptions{}), std::runtime_error);
  EXPECT_THROW(merge(edited, dir, dir + "/merged.jsonl"),
               std::runtime_error);

  // A random JSON file in the journal's place is refused too.
  const std::string dir2 = scratch_dir("refuse_alien");
  write_file(m.shard_path(dir2, 0), "{\"hello\": 1}\n");
  EXPECT_THROW(run_shard(m, dir2, 0, RunOptions{}), std::runtime_error);
}

TEST(Campaign, MergeRequiresEveryUnit) {
  const Manifest m = fuzz_manifest("partial", 5, 1);
  const std::string dir = scratch_dir("partial");
  RunOptions capped;
  capped.max_units = 3;
  run_shard(m, dir, 0, capped);
  EXPECT_THROW(merge(m, dir, dir + "/merged.jsonl"), std::runtime_error);

  const auto shard_status = status(m, dir);
  ASSERT_EQ(shard_status.size(), 1u);
  EXPECT_TRUE(shard_status[0].exists);
  EXPECT_EQ(shard_status[0].done, 3u);
  EXPECT_EQ(shard_status[0].expected, 5u);
}

TEST(Triage, NormalizesValueRuns) {
  EXPECT_EQ(normalize_violation(
                "baseline/skylake: committed state diverges from oracle: "
                "r3 = 0x2a vs 0x2b"),
            "baseline/skylake: committed state diverges from oracle: "
            "r# = 0x# vs 0x#");
  EXPECT_EQ(normalize_violation("shadow structures not empty after drain "
                                "(dcache=7 icache=12)"),
            "shadow structures not empty after drain (dcache=# icache=#)");
  EXPECT_EQ(normalize_violation("no digits here"), "no digits here");
}

TEST(Triage, ShardSplitReproducesTheSameReport) {
  // commit-xor corrupts every committed writeback, so every seed fails
  // the oracle-equivalence invariant — grouping has real work to do.
  const Manifest one = fuzz_manifest("triage", 8, 1, "commit-xor");
  const Manifest two = fuzz_manifest("triage", 8, 2, "commit-xor");
  const std::string dir1 = scratch_dir("triage_1shard");
  const std::string dir2 = scratch_dir("triage_2shard");

  RunOptions options;
  options.threads = 2;
  const RunStats stats = run_shard(one, dir1, 0, options);
  EXPECT_GT(stats.failures, 0u);
  run_shard(two, dir2, 0, options);
  run_shard(two, dir2, 1, options);

  const TriageReport report1 = triage(one, dir1);
  const TriageReport report2 = triage(two, dir2);
  EXPECT_EQ(report1.units, 8u);
  EXPECT_GT(report1.failures, 0u);
  EXPECT_EQ(render_triage_text(report1, one),
            render_triage_text(report2, two));
  EXPECT_EQ(render_triage_json(report1), render_triage_json(report2));

  // The merged artifacts agree byte for byte as well, and triaging the
  // merged file reproduces the journal-level report.
  merge(one, dir1, dir1 + "/merged.jsonl");
  merge(two, dir2, dir2 + "/merged.jsonl");
  EXPECT_EQ(read_file(dir1 + "/merged.jsonl"),
            read_file(dir2 + "/merged.jsonl"));
  const TriageReport from_file = triage_merged_file(dir1 + "/merged.jsonl");
  EXPECT_EQ(render_triage_json(from_file), render_triage_json(report1));

  // Groups carry the smallest failing seed and ascending members.
  ASSERT_FALSE(report1.groups.empty());
  for (const TriageGroup& group : report1.groups) {
    EXPECT_EQ(group.first_seed, group.seeds.front());
    EXPECT_TRUE(std::is_sorted(group.seeds.begin(), group.seeds.end()));
  }
  EXPECT_NE(render_triage_text(report1, one).find("repro:"),
            std::string::npos);
}

TEST(Triage, ReproLineKeepsTheCampaignAxes) {
  // A failure seen only at cores=2 must get a repro that runs cores=2.
  Manifest m = fuzz_manifest("triage_cores", 2, 1, "commit-xor");
  m.fuzz.cores = 2;
  const std::string dir = scratch_dir("triage_cores");
  RunOptions options;
  options.threads = 2;
  run_shard(m, dir, 0, options);
  EXPECT_NE(render_triage_text(triage(m, dir), m)
                .find("  repro:       fuzz_driver --seed=1 --count=1 --dump "
                      "--cores=2 --policies=baseline --presets=skylake "
                      "--mutate=commit-xor\n"),
            std::string::npos);
}

/// A repro line names every axis that differs from fuzz_driver's
/// defaults, and nothing else.
TEST(Triage, ReproCommandCarriesNonDefaultAxes) {
  FuzzAxis axis;
  EXPECT_EQ(repro_command(axis, 5), "fuzz_driver --seed=5 --count=1 --dump");
  axis.spec = "f.json";
  axis.cores = 2;
  axis.policies = {"WFB", "WFC"};
  axis.presets = {"embedded"};
  axis.mutate = "skip-squash-release";
  EXPECT_EQ(repro_command(axis, 5),
            "fuzz_driver --seed=5 --count=1 --dump --spec=f.json --cores=2 "
            "--policies=WFB,WFC --presets=embedded "
            "--mutate=skip-squash-release");
}

TEST(Triage, OneSeedReportListsEveryViolation) {
  // A one-seed repro shows everything check_seed found for the seed, in
  // order, not only the first violation the group is fingerprinted by.
  const Manifest m = fuzz_manifest("one_seed", 1, 1, "commit-xor");
  const UnitResult result = UnitRunner(m).run(0);
  EXPECT_TRUE(result.failed);
  const std::string text =
      render_triage_text(triage_records({{0, result.line}}), m);

  fuzz::DifferentialConfig config;
  config.policies = m.fuzz.policies;
  config.presets = m.fuzz.presets;
  config.mutation.commit_xor = 1;
  const fuzz::SeedVerdict verdict = fuzz::check_seed(1, {}, config);
  ASSERT_GE(verdict.violations.size(), 2u);
  std::string expected = "group 1: 1 seeds, first 1\n";
  expected += "  fingerprint: " +
              normalize_violation(verdict.violations.front()) + "\n";
  for (std::size_t i = 0; i < verdict.violations.size(); ++i) {
    expected += (i == 0 ? "  violations:  " : "               ") +
                verdict.violations[i] + "\n";
  }
  expected += "  seeds:       1\n";
  EXPECT_NE(text.find(expected), std::string::npos) << text;
}

TEST(Triage, CleanCampaignHasNoGroups) {
  const Manifest m = fuzz_manifest("clean", 4, 1);
  const std::string dir = scratch_dir("triage_clean");
  run_shard(m, dir, 0, RunOptions{});
  const TriageReport report = triage(m, dir);
  EXPECT_EQ(report.units, 4u);
  EXPECT_EQ(report.failures, 0u);
  EXPECT_TRUE(report.groups.empty());
}

TEST(PerfTrend, LoadsDirectoryAndRendersReport) {
  const std::string dir = scratch_dir("perf_trend");
  const char* cell_fmt =
      "{\"instrs_per_cell\": 1000, \"repeat\": 1,\n"
      " \"cells\": [{\"workload\": \"mcf\", \"policy\": \"WFC\","
      " \"preset\": \"skylake\", \"committed_instrs\": 1000,"
      " \"cycles\": 2000, \"setup_ms\": 0.5, \"wall_ms\": %s,"
      " \"mips\": %s}],\n"
      " \"aggregate\": {\"total_instrs\": 1000, \"total_wall_ms\": %s,"
      " \"mips\": %s}}\n";
  char doc[512];
  std::snprintf(doc, sizeof doc, cell_fmt, "1.0", "1.00", "1.0", "1.00");
  write_file(dir + "/run_a.json", doc);
  std::snprintf(doc, sizeof doc, cell_fmt, "2.0", "0.50", "2.0", "0.50");
  write_file(dir + "/run_b.json", doc);
  write_file(dir + "/notes.json", "{\"not\": \"a perf artifact\"}\n");
  write_file(dir + "/readme.txt", "ignored\n");

  const std::vector<PerfRun> runs = load_perf_dir(dir);
  ASSERT_EQ(runs.size(), 2u);  // filename-sorted, non-artifacts skipped
  EXPECT_EQ(runs[0].label, "run_a");
  EXPECT_EQ(runs[1].label, "run_b");
  EXPECT_DOUBLE_EQ(runs[0].aggregate_mips, 1.0);
  ASSERT_EQ(runs[0].cells.size(), 1u);
  EXPECT_EQ(runs[0].cells[0].key(), "mcf/WFC/skylake");

  const std::string html = render_trend_html(runs);
  EXPECT_NE(html.find("mcf/WFC/skylake"), std::string::npos);
  EXPECT_NE(html.find("<svg"), std::string::npos);
  EXPECT_NE(html.find("run_b"), std::string::npos);
  EXPECT_EQ(html.find("<script"), std::string::npos);  // self-contained

  const std::string json = render_trend_json(runs);
  EXPECT_NE(json.find("\"aggregate_mips\": [1.00, 0.50]"),
            std::string::npos);
  EXPECT_NE(json.find("\"key\": \"mcf/WFC/skylake\""), std::string::npos);

  // A cell's cores must fit in an int: 2^32 + 2 is not 2.
  write_file(dir + "/wide_cores.json",
             "{\"cells\": [{\"workload\": \"mcf\", \"policy\": \"WFC\","
             " \"preset\": \"skylake\", \"cores\": 4294967298,"
             " \"committed_instrs\": 1, \"cycles\": 1, \"wall_ms\": 1,"
             " \"mips\": 1}]}\n");
  EXPECT_THROW(load_perf_cells(dir + "/wide_cores.json"),
               std::invalid_argument);
}

TEST(PerfTrend, CellKeyMatchesPerfCompareGrammar) {
  PerfCell c;
  c.workload = "gcc";
  c.policy = "SHARP";
  c.preset = "skylake";
  EXPECT_EQ(c.key(), "gcc/SHARP/skylake");
  c.mode = "sampled";
  EXPECT_EQ(c.key(), "gcc/SHARP/skylake/sampled");
  c.mode = "detailed";
  c.cores = 2;
  EXPECT_EQ(c.key(), "gcc/SHARP/skylake/cores=2");
}

}  // namespace
}  // namespace safespec::campaign
