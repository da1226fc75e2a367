// Protection policies (§III, §IV-B).
//
// The paper evaluates a *family* of protection designs — insecure
// baseline, wait-for-branch and wait-for-commit, crossed with shadow
// sizing and full-table handling. Each member is one ProtectionPolicy
// row: fixed answers to the decision points the core consults —
//
//   * may speculative fills go straight into the primary structures?
//     (shadows_speculation: the baseline answers no-shadowing)
//   * when does an instruction's shadow state become promotable?
//     (promote_at_branch_resolution: WFB promotes once no older branch
//     is unresolved; WFC only at the instruction's own commit)
//   * what happens to shadow state on squash?
//     (annul_on_squash: every SafeSpec policy annuls in place, Fig 3)
//   * what happens when a shadow table fills up?
//     (full_policy_override: §V — drop the update or stall the
//     requester; nullopt keeps the per-structure configuration)
//
// A fifth decision point, cache_protection, lets a policy defend at the
// replacement level instead of shadowing speculation — the SHARP family
// ("SHARP" protects + alarms, "detect-only" only alarms) lives there;
// see docs/mitigations.md for the family comparison.
//
// The rows live in one constant table in policy.cc, selected by name
// from a config file or --set flag. It holds the three paper policies
// plus "WFB-stall" (WFB whose shadows stall on full — the §V closure of
// the TSA channel applied to WFB sizing studies), "SHARP" and
// "detect-only"; a new variant is one more row there.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "memory/set_assoc.h"
#include "safespec/shadow_structures.h"

namespace safespec::policy {

/// One member of the protection-design family.
struct ProtectionPolicy {
  /// Table key ("baseline", "WFB", "WFC", "WFB-stall", ...).
  const char* name;
  const char* description;

  /// False for the insecure baseline: speculative fills go straight
  /// into the primary caches/TLBs and no shadow state exists.
  bool shadows_speculation;

  /// True for wait-for-branch: shadow state is promotable as soon as no
  /// older branch is unresolved. False for wait-for-commit: promotion
  /// happens only when the producing instruction commits.
  bool promote_at_branch_resolution;

  /// Squash handling: true (every shipped policy) annuls shadow state in
  /// place; false would promote it anyway — the insecure strawman a
  /// sizing ablation can use to isolate the cost of annulment.
  bool annul_on_squash = true;

  /// Full-table handling this policy imposes on every shadow structure
  /// (§V); nullopt keeps the per-structure configuration.
  std::optional<shadow::FullPolicy> full_policy_override = std::nullopt;

  /// Cache-level protection applied at replacement victim selection: the
  /// SHARP family defends here instead of (not in addition to) shadowing
  /// speculation. kNone for the baseline and every shadow-based policy.
  memory::CacheProtection cache_protection = memory::CacheProtection::kNone;
};

/// Looks up a policy by name. Throws std::out_of_range with a message
/// listing every policy name when `name` is unknown.
const ProtectionPolicy& named_policy(const std::string& name);

/// Every policy name, sorted (the three paper policies plus the
/// variants).
std::vector<std::string> registered_policy_names();

}  // namespace safespec::policy
