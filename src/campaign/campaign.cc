#include "campaign/campaign.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <unordered_map>

#include "common/cli.h"
#include "common/hash.h"
#include "common/json.h"
#include "cpu/core.h"
#include "experiment/cell.h"
#include "experiment/experiment.h"
#include "fuzz/differential.h"
#include "fuzz/fuzz_spec.h"
#include "safespec/policy.h"
#include "sim/machine.h"

namespace safespec::campaign {

namespace {

std::string quoted(const std::string& text) {
  return "\"" + json::escape(text) + "\"";
}

std::string string_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += quoted(items[i]);
  }
  out += "]";
  return out;
}

void read_string_list(const json::Value& obj, const char* key,
                      std::vector<std::string>& out) {
  const json::Value* v = obj.find(key);
  if (v == nullptr) return;
  if (v->kind != json::Value::Kind::kArray) {
    throw std::invalid_argument(std::string(key) +
                                " must be an array of strings");
  }
  out.clear();
  for (const json::Value& item : v->array) {
    if (item.kind != json::Value::Kind::kString) {
      throw std::invalid_argument(std::string(key) +
                                  " must be an array of strings");
    }
    out.push_back(item.text);
  }
}

/// The mutants: each named core defect a fuzz campaign can inject
/// (FuzzAxis::mutate, fuzz_driver --mutate) and the hooks that inject it.
const std::map<std::string, cpu::MutationHooks> kMutants = {
    {"commit-xor", {/*skip_squash_release=*/false, /*commit_xor=*/1}},
    {"skip-squash-release", {/*skip_squash_release=*/true, /*commit_xor=*/0}},
};

/// Grid unit -> its cell, workload-major (see GridAxis). The grid has no
/// cores axis, so the cell keeps the machine's own core count: a cores=N
/// override applies, like every other override.
experiment::Cell grid_cell(const GridAxis& grid, std::uint64_t unit) {
  const std::uint64_t npresets = grid.presets.size();
  const std::uint64_t npolicies = grid.policies.size();
  experiment::Cell cell;
  cell.workload = grid.workloads[unit / (npresets * npolicies)];
  cell.policy = grid.policies[(unit / npresets) % npolicies];
  cell.preset = grid.presets[unit % npresets];
  cell.overrides = grid.overrides;
  cell.cores = 0;
  cell.instrs = grid.instrs;
  return cell;
}

/// One journal file, scanned read-only: header checked against the
/// manifest, unit lines indexed, everything after the first unparseable
/// byte treated as a torn tail (the suffix a killed writer left behind).
struct ScanResult {
  bool exists = false;
  bool have_header = false;
  bool torn = false;
  std::size_t valid_bytes = 0;  ///< prefix of intact, in-protocol lines
  std::vector<UnitRecord> records;
};

std::string header_line(const Manifest& m, int shard) {
  return json::JsonlObject()
      .text("campaign", m.name)
      .u64("version", m.version)
      .text("kind", m.kind)
      .u64("shard", static_cast<std::uint64_t>(shard))
      .u64("shards", static_cast<std::uint64_t>(m.shards))
      .u64("units", m.num_units())
      .text("fingerprint", m.fingerprint())
      .str();
}

/// Throws std::runtime_error when the journal's header identifies a
/// different campaign — resuming into it would interleave incompatible
/// results, so refusal is the only safe answer.
void check_header(const json::Value& header, const Manifest& m, int shard,
                  const std::string& path) {
  const json::Value* name = header.find("campaign");
  const json::Value* fingerprint = header.find("fingerprint");
  const json::Value* shard_v = header.find("shard");
  if (name == nullptr || fingerprint == nullptr || shard_v == nullptr) {
    throw std::runtime_error(path + ": not a campaign shard journal");
  }
  if (name->text != m.name || fingerprint->text != m.fingerprint()) {
    throw std::runtime_error(
        path + ": journal belongs to campaign \"" + name->text +
        "\" fingerprint " + fingerprint->text + ", manifest is \"" + m.name +
        "\" fingerprint " + m.fingerprint() +
        " (edit the manifest version/name or use a fresh --dir)");
  }
  if (json::as_u64(*shard_v, "shard") != static_cast<std::uint64_t>(shard)) {
    throw std::runtime_error(path + ": journal is for shard " +
                             shard_v->text + ", expected " +
                             std::to_string(shard));
  }
}

ScanResult scan_journal(const std::string& path, const Manifest& m,
                        int shard) {
  ScanResult scan;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return scan;
  scan.exists = true;
  std::string data;
  char buf[1 << 16];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) data.append(buf, got);
  std::fclose(f);

  std::size_t pos = 0;
  bool first = true;
  while (pos < data.size()) {
    const std::size_t nl = data.find('\n', pos);
    if (nl == std::string::npos) break;  // partial line: torn tail
    const std::string line = data.substr(pos, nl - pos);
    try {
      const json::Value v = json::parse(line);
      if (first) {
        check_header(v, m, shard, path);  // mismatch propagates
        scan.have_header = true;
      } else {
        const json::Value* unit = v.find("unit");
        if (unit == nullptr) break;  // out-of-protocol line: torn
        UnitRecord rec;
        rec.unit = json::as_u64(*unit, "unit");
        if (rec.unit >= m.num_units()) break;
        rec.line = line;
        scan.records.push_back(std::move(rec));
      }
    } catch (const std::runtime_error&) {
      throw;  // header mismatch — not recoverable by truncation
    } catch (const std::exception&) {
      break;  // malformed JSON: torn tail starts here
    }
    pos = nl + 1;
    scan.valid_bytes = pos;
    first = false;
  }
  scan.torn = scan.valid_bytes != data.size();
  return scan;
}

/// Appends `line` and a newline to `out` and flushes; false when either
/// fails.
bool put_line(std::FILE* out, const std::string& line) {
  return std::fprintf(out, "%s\n", line.c_str()) >= 0 &&
         std::fflush(out) == 0;
}

/// Rewrites `path` to its first `valid_bytes` bytes, atomically.
void truncate_to(const std::string& path, std::size_t valid_bytes) {
  std::string data;
  {
    std::FILE* in = std::fopen(path.c_str(), "rb");
    if (in == nullptr) {
      throw std::runtime_error("cannot reopen " + path + " for recovery");
    }
    data.resize(valid_bytes);
    const std::size_t got = std::fread(data.data(), 1, valid_bytes, in);
    std::fclose(in);
    data.resize(got);
  }
  const std::string tmp = path + ".tmp";
  const auto write = [&data](std::FILE* out) {
    std::fwrite(data.data(), 1, data.size(), out);
  };
  if (!cli::write_file(tmp, write, "wb")) {
    throw std::runtime_error("cannot write " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("cannot replace " + path);
  }
}

}  // namespace

// ---- manifest ---------------------------------------------------------------

Manifest Manifest::from_json(const std::string& text) {
  const json::Value doc = json::parse(text);
  json::check_keys(doc, {"campaign", "version", "kind", "shards", "fuzz",
                         "grid"},
                   "campaign manifest");
  Manifest m;
  json::read_string(doc, "campaign", m.name);
  json::read_u64(doc, "version", m.version);
  json::read_string(doc, "kind", m.kind);
  json::read_int(doc, "shards", m.shards);
  if (const json::Value* f = doc.find("fuzz")) {
    json::check_keys(*f, {"first_seed", "count", "spec", "policies",
                          "presets", "cores", "mutate"},
                     "campaign manifest \"fuzz\"");
    json::read_u64(*f, "first_seed", m.fuzz.first_seed);
    json::read_u64(*f, "count", m.fuzz.count);
    json::read_string(*f, "spec", m.fuzz.spec);
    read_string_list(*f, "policies", m.fuzz.policies);
    read_string_list(*f, "presets", m.fuzz.presets);
    json::read_int(*f, "cores", m.fuzz.cores);
    json::read_string(*f, "mutate", m.fuzz.mutate);
  }
  if (const json::Value* g = doc.find("grid")) {
    json::check_keys(*g, {"workloads", "policies", "presets", "overrides",
                          "instrs"},
                     "campaign manifest \"grid\"");
    read_string_list(*g, "workloads", m.grid.workloads);
    read_string_list(*g, "policies", m.grid.policies);
    read_string_list(*g, "presets", m.grid.presets);
    read_string_list(*g, "overrides", m.grid.overrides);
    json::read_u64(*g, "instrs", m.grid.instrs);
  }
  return m;
}

Manifest Manifest::from_json_file(const std::string& path) {
  return from_json(json::read_file(path, "campaign manifest"));
}

std::string Manifest::to_json() const {
  std::string out = "{\n";
  out += "  \"campaign\": " + quoted(name) + ",\n";
  out += "  \"version\": " + std::to_string(version) + ",\n";
  out += "  \"kind\": " + quoted(kind) + ",\n";
  out += "  \"shards\": " + std::to_string(shards);
  if (kind == "fuzz") {
    out += ",\n  \"fuzz\": {\n";
    out += "    \"first_seed\": " + std::to_string(fuzz.first_seed) + ",\n";
    out += "    \"count\": " + std::to_string(fuzz.count) + ",\n";
    out += "    \"spec\": " + quoted(fuzz.spec) + ",\n";
    out += "    \"policies\": " + string_array(fuzz.policies) + ",\n";
    out += "    \"presets\": " + string_array(fuzz.presets) + ",\n";
    out += "    \"cores\": " + std::to_string(fuzz.cores) + ",\n";
    out += "    \"mutate\": " + quoted(fuzz.mutate) + "\n  }";
  }
  if (kind == "grid") {
    out += ",\n  \"grid\": {\n";
    out += "    \"workloads\": " + string_array(grid.workloads) + ",\n";
    out += "    \"policies\": " + string_array(grid.policies) + ",\n";
    out += "    \"presets\": " + string_array(grid.presets) + ",\n";
    out += "    \"overrides\": " + string_array(grid.overrides) + ",\n";
    out += "    \"instrs\": " + std::to_string(grid.instrs) + "\n  }";
  }
  out += "\n}\n";
  return out;
}

void Manifest::validate() const {
  if (name.empty()) {
    throw std::invalid_argument("campaign name must not be empty");
  }
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '.' &&
        c != '_' && c != '-') {
      throw std::invalid_argument(
          "campaign name \"" + name +
          "\" must use only [A-Za-z0-9._-] (it names journal files)");
    }
  }
  if (version == 0) {
    throw std::invalid_argument("campaign version must be >= 1");
  }
  if (shards < 1 || shards > 4096) {
    throw std::invalid_argument("shards must be in [1, 4096]");
  }
  if (kind == "fuzz") {
    if (fuzz.count < 1 || fuzz.count > 10'000'000) {
      throw std::invalid_argument("fuzz.count must be in [1, 10000000]");
    }
    if (fuzz.cores < 1 || fuzz.cores > 64) {
      throw std::invalid_argument("fuzz.cores must be in [1, 64]");
    }
    if (!fuzz.mutate.empty() && kMutants.count(fuzz.mutate) == 0) {
      std::string known;
      for (const auto& [name, hooks] : kMutants) {
        known += (known.empty() ? "" : ", ") + name;
      }
      throw std::invalid_argument("fuzz.mutate \"" + fuzz.mutate +
                                  "\" is not a mutant (known: " + known +
                                  ")");
    }
    // Resolve every name eagerly so a typo fails before any shard runs.
    for (const std::string& p : fuzz.policies) policy::named_policy(p);
    for (const std::string& p : fuzz.presets) sim::machine_preset(p);
    if (!fuzz.spec.empty()) {
      fuzz::FuzzSpec::from_json_file(fuzz.spec).validate();
    }
  } else if (kind == "grid") {
    if (grid.workloads.empty() || grid.policies.empty() ||
        grid.presets.empty()) {
      throw std::invalid_argument(
          "grid.workloads/policies/presets must all be non-empty");
    }
    if (grid.instrs < 1 || grid.instrs > 1'000'000'000) {
      throw std::invalid_argument("grid.instrs must be in [1, 1000000000]");
    }
    for (std::uint64_t unit = 0; unit < num_units(); ++unit) {
      experiment::resolve(grid_cell(grid, unit)).machine.validate();
    }
  } else {
    throw std::invalid_argument("kind must be \"fuzz\" or \"grid\", not \"" +
                                kind + "\"");
  }
}

std::uint64_t Manifest::num_units() const {
  if (kind == "fuzz") return fuzz.count;
  return static_cast<std::uint64_t>(grid.workloads.size()) *
         grid.policies.size() * grid.presets.size();
}

std::uint64_t Manifest::units_of_shard(int shard) const {
  const std::uint64_t n = num_units();
  const std::uint64_t s = static_cast<std::uint64_t>(shards);
  const std::uint64_t k = static_cast<std::uint64_t>(shard);
  if (k >= s) return 0;
  return n / s + (n % s > k ? 1 : 0);
}

std::string Manifest::fingerprint() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fnv1a64(to_json())));
  return buf;
}

std::string Manifest::shard_path(const std::string& dir, int shard) const {
  return dir + "/" + name + ".shard" + std::to_string(shard) + ".jsonl";
}

std::string Manifest::merged_path(const std::string& dir) const {
  return dir + "/" + name + ".merged.jsonl";
}

// ---- journal ----------------------------------------------------------------

ShardJournal::ShardJournal(const Manifest& manifest, const std::string& dir,
                           int shard)
    : path_(manifest.shard_path(dir, shard)) {
  if (shard < 0 || shard >= manifest.shards) {
    throw std::invalid_argument("shard " + std::to_string(shard) +
                                " out of range (manifest has " +
                                std::to_string(manifest.shards) + ")");
  }
  ScanResult scan = scan_journal(path_, manifest, shard);
  if (scan.torn) {
    // A killed writer left a partial line; rewrite the intact prefix so
    // the journal is clean JSONL again. The unit mid-write simply reruns.
    truncate_to(path_, scan.valid_bytes);
  }
  for (const UnitRecord& rec : scan.records) completed_.insert(rec.unit);

  out_ = std::fopen(path_.c_str(), "a");
  if (out_ == nullptr) {
    throw std::runtime_error("cannot open " + path_ +
                             " (does the campaign directory exist?)");
  }
  if (!scan.have_header && !put_line(out_, header_line(manifest, shard))) {
    std::fclose(out_);
    throw std::runtime_error("cannot write " + path_);
  }
}

ShardJournal::~ShardJournal() {
  if (out_ != nullptr) std::fclose(out_);
}

void ShardJournal::append(std::uint64_t unit, const std::string& line) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!put_line(out_, line)) {
    throw std::runtime_error("cannot append to " + path_);
  }
  completed_.insert(unit);
}

// ---- run --------------------------------------------------------------------

UnitRunner::UnitRunner(const Manifest& manifest) : manifest_(manifest) {
  if (manifest.kind != "fuzz") return;
  if (!manifest.fuzz.spec.empty()) {
    spec_ = fuzz::FuzzSpec::from_json_file(manifest.fuzz.spec);
  }
  spec_.validate();
  config_.policies = manifest.fuzz.policies;
  config_.presets = manifest.fuzz.presets;
  config_.cores = manifest.fuzz.cores;
  if (!manifest.fuzz.mutate.empty()) {
    config_.mutation = kMutants.at(manifest.fuzz.mutate);
  }
}

UnitResult UnitRunner::run(std::uint64_t unit) const {
  if (manifest_.kind == "fuzz") {
    const std::uint64_t seed = manifest_.fuzz.first_seed + unit;
    const fuzz::SeedVerdict v = fuzz::check_seed(seed, spec_, config_);
    return {json::JsonlObject()
                .u64("unit", unit)
                .u64("seed", seed)
                .boolean("ok", v.ok)
                .u64("committed", v.committed)
                .u64("cells", v.cells)
                .strings("violations", v.violations)
                .str(),
            !v.ok};
  }
  const experiment::Cell cell = grid_cell(manifest_.grid, unit);
  const sim::SimResult result = experiment::run_cell(cell).result;
  return {json::JsonlObject()
              .u64("unit", unit)
              .text("workload", cell.workload)
              .text("policy", cell.policy)
              .text("preset", cell.preset)
              .text("stop", cpu::to_string(result.stop))
              .u64("cycles", result.cycles)
              .u64("committed", result.committed_instrs)
              .number("ipc", result.ipc)
              .str(),
          false};
}

RunStats run_shard(const Manifest& manifest, const std::string& dir,
                   int shard, const RunOptions& options) {
  manifest.validate();
  ShardJournal journal(manifest, dir, shard);

  RunStats stats;
  std::vector<std::uint64_t> pending;
  for (std::uint64_t unit = 0; unit < manifest.num_units(); ++unit) {
    if (manifest.shard_of(unit) != shard) continue;
    if (journal.has(unit)) {
      ++stats.skipped;
    } else {
      pending.push_back(unit);
    }
  }
  if (options.max_units > 0 && pending.size() > options.max_units) {
    pending.resize(options.max_units);
  }
  stats.ran = pending.size();

  const UnitRunner runner(manifest);
  std::atomic<std::uint64_t> failures{0};
  experiment::ParallelRunner(options.threads)
      .parallel_for(pending.size(), [&](std::size_t i) {
        const UnitResult result = runner.run(pending[i]);
        journal.append(pending[i], result.line);
        if (result.failed) failures.fetch_add(1);
      });
  stats.failures = failures.load();
  return stats;
}

// ---- merge / status ---------------------------------------------------------

std::vector<UnitRecord> collect_units(const Manifest& manifest,
                                      const std::string& dir,
                                      bool require_complete) {
  std::unordered_map<std::uint64_t, std::string> by_unit;
  for (int shard = 0; shard < manifest.shards; ++shard) {
    const std::string path = manifest.shard_path(dir, shard);
    const ScanResult scan = scan_journal(path, manifest, shard);
    if (!scan.exists) {
      if (require_complete) {
        throw std::runtime_error("shard journal missing: " + path);
      }
      continue;
    }
    for (const UnitRecord& rec : scan.records) {
      const auto [it, inserted] = by_unit.emplace(rec.unit, rec.line);
      if (!inserted && it->second != rec.line) {
        throw std::runtime_error(
            path + ": unit " + std::to_string(rec.unit) +
            " recorded twice with different results — journals are "
            "corrupt or from mismatched runs");
      }
    }
  }

  std::vector<UnitRecord> out;
  out.reserve(by_unit.size());
  std::uint64_t missing = 0;
  std::uint64_t first_missing = 0;
  for (std::uint64_t unit = 0; unit < manifest.num_units(); ++unit) {
    const auto it = by_unit.find(unit);
    if (it == by_unit.end()) {
      if (missing == 0) first_missing = unit;
      ++missing;
      continue;
    }
    out.push_back({unit, it->second});
  }
  if (require_complete && missing > 0) {
    throw std::runtime_error(
        "campaign incomplete: " + std::to_string(missing) + " of " +
        std::to_string(manifest.num_units()) + " units missing (first: " +
        std::to_string(first_missing) + ") — resume with `campaign_driver "
        "run` before merging");
  }
  return out;
}

std::string merged_header(const Manifest& manifest) {
  Manifest work = manifest;
  work.shards = 1;  // how the work was split is not part of it
  return json::JsonlObject()
      .text("campaign", manifest.name)
      .u64("version", manifest.version)
      .text("kind", manifest.kind)
      .u64("units", manifest.num_units())
      .text("work_fingerprint", work.fingerprint())
      .str();
}

MergeStats merge(const Manifest& manifest, const std::string& dir,
                 const std::string& out_path) {
  const std::vector<UnitRecord> records =
      collect_units(manifest, dir, /*require_complete=*/true);
  // The work's header, then unit-sorted verbatim lines: the bytes depend
  // only on the manifest's work, never on sharding or interruption
  // history.
  const std::string tmp = out_path + ".tmp";
  const std::string header = merged_header(manifest);
  const auto write = [&records, &header](std::FILE* out) {
    std::fprintf(out, "%s\n", header.c_str());
    for (const UnitRecord& rec : records) {
      std::fprintf(out, "%s\n", rec.line.c_str());
    }
  };
  if (!cli::write_file(tmp, write, "wb")) {
    throw std::runtime_error("cannot write " + tmp);
  }
  if (std::rename(tmp.c_str(), out_path.c_str()) != 0) {
    throw std::runtime_error("cannot replace " + out_path);
  }
  MergeStats stats;
  stats.units = records.size();
  stats.shards_read = manifest.shards;
  return stats;
}

std::vector<ShardStatus> status(const Manifest& manifest,
                                const std::string& dir) {
  std::vector<ShardStatus> out;
  for (int shard = 0; shard < manifest.shards; ++shard) {
    ShardStatus s;
    s.shard = shard;
    s.expected = manifest.units_of_shard(shard);
    const ScanResult scan =
        scan_journal(manifest.shard_path(dir, shard), manifest, shard);
    s.exists = scan.exists;
    s.done = scan.records.size();
    s.torn_tail = scan.torn;
    out.push_back(s);
  }
  return out;
}

}  // namespace safespec::campaign
