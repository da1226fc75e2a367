// Deduplicated failure triage for fuzz campaigns.
//
// A 10k-seed overnight campaign that trips one real bug does not produce
// one failure — it produces hundreds of seeds all hitting the same
// invariant with different addresses and register values. Triage
// collapses them: each failing unit's first violation is normalized
// (every decimal and hex run replaced by '#') into a fingerprint, seeds
// grouped by fingerprint, and each group reported once with its
// smallest failing seed, every violation of that seed, and a one-line
// fuzz_driver repro command. The grouping is a pure function of the unit
// lines, so an S-shard campaign triages identically to a 1-shard run —
// pinned by tests — and fuzz_driver, a one-shot campaign, prints the
// same report for its in-memory unit lines.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/campaign.h"

namespace safespec::campaign {

/// One distinct failure mode.
struct TriageGroup {
  std::string fingerprint;  ///< normalized first violation
  /// Every violation of `first_seed`, verbatim, in the harness's order.
  std::vector<std::string> violations;
  std::uint64_t first_seed = 0;  ///< smallest failing seed in the group
  std::vector<std::uint64_t> seeds;  ///< all failing seeds, ascending
};

struct TriageReport {
  std::uint64_t units = 0;     ///< unit lines examined
  std::uint64_t failures = 0;  ///< failing seeds across all groups
  /// Groups ordered by first_seed (stable across shard splits).
  std::vector<TriageGroup> groups;
};

/// "baseline/skylake: ... r3 = 0x2a vs 0x2b" ->
/// "baseline/skylake: ... r# = 0x# vs 0x#": every "0x"-prefixed hex run
/// and every decimal run collapses to '#', so seeds differing only in
/// values land in one group.
std::string normalize_violation(const std::string& violation);

/// Triage from unit records (collect_units or a parsed merged file).
TriageReport triage_records(const std::vector<UnitRecord>& records);

/// Triage a fuzz campaign's shard journals in `dir`. Tolerates an
/// incomplete campaign (triages what is there; `units` says how much).
TriageReport triage(const Manifest& manifest, const std::string& dir);

/// Triage a merged artifact written by merge().
TriageReport triage_merged_file(const std::string& merged_path);

/// The command line that reruns `seed` alone and disassembles it:
/// `fuzz_driver --seed=N --count=1 --dump`, then each of --spec, --cores,
/// --policies, --presets and --mutate that differs from its default, so
/// the repro checks the cells that failed with the defect that was
/// injected.
std::string repro_command(const FuzzAxis& fuzz, std::uint64_t seed);

/// Human-readable report: per group, every violation of its first seed
/// and one repro command naming the manifest's fuzz axes.
std::string render_triage_text(const TriageReport& report,
                               const Manifest& manifest);

/// Machine-readable single-object JSON of the same report ("example" is
/// the first seed's first violation).
std::string render_triage_json(const TriageReport& report);

}  // namespace safespec::campaign
