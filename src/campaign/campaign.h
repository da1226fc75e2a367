// Campaigns: named, versioned, resumable sweeps checkpointed to disk.
//
// A campaign is a manifest (JSON) naming a sweep — a fuzz seed range or
// a workload x policy x preset grid — and how it is split into shards.
// The manifest expands deterministically into work units (unit ids dense
// from 0); unit u belongs to shard u % shards, so N processes given the
// same manifest and disjoint --shard values never touch the same unit or
// the same file. Each shard streams one JSONL journal: a header line
// stamping the manifest identity (name, version, fingerprint), then one
// self-contained result line per completed unit, fflushed as written. A
// SIGKILLed shard therefore loses at most the line it was mid-write;
// reopening the journal truncates that torn tail and the resumed run
// skips every completed unit, so kill + resume converges on exactly the
// unit set an uninterrupted run produces.
//
// Unit lines carry only *simulated* data (no wall times, no hostnames),
// and merge() writes them header-less, sorted by unit id, deduplicated.
// Both byte-identity guarantees follow: a killed-and-resumed campaign
// merges identical to an uninterrupted one, and an S-shard split merges
// identical to a 1-shard run — pinned by tests/campaign_test.cc and the
// SIGKILL ctest script.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

namespace safespec::campaign {

/// The fuzz axis: one unit = one differential-fuzzer seed
/// (seed = first_seed + unit), checked across policies x presets.
struct FuzzAxis {
  std::uint64_t first_seed = 1;
  std::uint64_t count = 0;
  std::string spec;  ///< FuzzSpec JSON path ("" = built-in defaults)
  std::vector<std::string> policies;  ///< empty = every registered policy
  std::vector<std::string> presets;   ///< empty = every registered preset
  int cores = 1;
  /// Harness self-test defect injection: "" (off), "commit-xor"
  /// (corrupt committed writebacks) or "skip-squash-release" (leak
  /// shadow refs on squash). The triage tests run mutated campaigns so
  /// failure grouping is exercised without a real simulator bug.
  std::string mutate;
};

/// The grid axis: one unit = one workload/policy/preset cell run for a
/// fixed committed-instruction budget (workload-major expansion:
/// unit = (w * |policies| + p) * |presets| + r).
struct GridAxis {
  std::vector<std::string> workloads;
  std::vector<std::string> policies;
  std::vector<std::string> presets;
  std::vector<std::string> overrides;  ///< MachineSpec::set key=value
  std::uint64_t instrs = 60'000;
};

/// The parsed campaign manifest. Everything that shapes the work — the
/// axis, the shard count, even the name and version — feeds the
/// fingerprint, so a journal written under any other manifest revision
/// is refused rather than silently merged.
struct Manifest {
  std::string name;            ///< filesystem-safe ([A-Za-z0-9._-])
  std::uint64_t version = 1;
  std::string kind;            ///< "fuzz" | "grid"
  int shards = 1;
  FuzzAxis fuzz;
  GridAxis grid;

  static Manifest from_json(const std::string& text);
  static Manifest from_json_file(const std::string& path);
  /// Stable-key-order JSON (the fingerprint input; round-trips).
  std::string to_json() const;

  /// Structural checks plus eager name resolution (policies, presets,
  /// workloads, overrides, the FuzzSpec file) so a typo'd manifest
  /// fails before any shard starts. Throws std::invalid_argument.
  void validate() const;

  std::uint64_t num_units() const;
  int shard_of(std::uint64_t unit) const {
    return static_cast<int>(unit % static_cast<std::uint64_t>(shards));
  }
  /// Units owned by one shard.
  std::uint64_t units_of_shard(int shard) const;

  /// FNV-1a-64 of to_json(), as 16 hex digits.
  std::string fingerprint() const;

  /// DIR/NAME.shard<K>.jsonl — the shard's journal.
  std::string shard_path(const std::string& dir, int shard) const;
  /// DIR/NAME.merged.jsonl — merge()'s default output.
  std::string merged_path(const std::string& dir) const;
};

/// One completed unit as stored in a journal: the id and the verbatim
/// JSONL line (no trailing newline).
struct UnitRecord {
  std::uint64_t unit = 0;
  std::string line;
};

/// An open shard journal. Construction recovers: an existing file has
/// its header validated against the manifest (mismatch throws — never
/// resume into another campaign's journal), a torn tail from a killed
/// writer is truncated away (valid prefix rewritten atomically), and
/// every surviving unit line is indexed so run_shard can skip it. A
/// fresh file gets the header written immediately. append() is
/// thread-safe and fflushes per line (the durability the resume
/// protocol depends on).
class ShardJournal {
 public:
  ShardJournal(const Manifest& manifest, const std::string& dir, int shard);
  ~ShardJournal();
  ShardJournal(const ShardJournal&) = delete;
  ShardJournal& operator=(const ShardJournal&) = delete;

  bool has(std::uint64_t unit) const {
    return completed_.count(unit) != 0;
  }

  /// Appends one unit line (no newline) and flushes. Thread-safe.
  void append(std::uint64_t unit, const std::string& line);

 private:
  std::string path_;
  std::FILE* out_ = nullptr;
  std::mutex mutex_;
  std::unordered_set<std::uint64_t> completed_;
};

struct RunOptions {
  int threads = 0;  ///< 0 = hardware concurrency
  /// Stop after completing this many new units (0 = no limit). The
  /// deterministic stand-in for a kill: tests run a prefix, then resume.
  std::uint64_t max_units = 0;
};

struct RunStats {
  std::uint64_t ran = 0;      ///< units executed by this call
  std::uint64_t skipped = 0;  ///< units already in the journal
  std::uint64_t failures = 0; ///< fuzz units with a failing verdict
};

/// Runs (or resumes) one shard: every unit of the shard not already in
/// its journal, on the experiment engine's thread pool. Unit results are
/// deterministic functions of the manifest alone, so journal content is
/// independent of thread count and of how many times the shard was
/// killed and resumed. Throws on journal/manifest mismatch or bad config.
RunStats run_shard(const Manifest& manifest, const std::string& dir,
                   int shard, const RunOptions& options);

struct MergeStats {
  std::uint64_t units = 0;
  int shards_read = 0;
};

/// Collects every shard journal's unit records (headers validated,
/// unparseable tails skipped, identical duplicates collapsed,
/// conflicting duplicates fatal), sorted by unit id. With
/// `require_complete`, throws unless every unit of the manifest is
/// present — merge()'s precondition.
std::vector<UnitRecord> collect_units(const Manifest& manifest,
                                      const std::string& dir,
                                      bool require_complete);

/// Writes the merged artifact: every unit line, sorted by unit id, no
/// header — byte-identical however the campaign was sharded, killed or
/// resumed. Atomic (tmp + rename). Throws if any unit is missing.
MergeStats merge(const Manifest& manifest, const std::string& dir,
                 const std::string& out_path);

struct ShardStatus {
  int shard = 0;
  bool exists = false;
  std::uint64_t done = 0;
  std::uint64_t expected = 0;
  bool torn_tail = false;  ///< journal currently ends mid-line
};

/// Per-shard progress, read-only (does not repair torn tails).
std::vector<ShardStatus> status(const Manifest& manifest,
                                const std::string& dir);

}  // namespace safespec::campaign
