#include "safespec/policy.h"

#include <stdexcept>

namespace safespec::policy {

namespace {

/// The policy family, sorted by name: registered_policy_names() and the
/// unknown-name error list the names in this order.
constexpr ProtectionPolicy kPolicies[] = {
    {.name = "SHARP",
     .description = "SHARP-style protected replacement: victims prefer "
                    "requester-owned ways, forced cross-owner evictions "
                    "raise alarms and feed a threshold/epoch detector (no "
                    "shadow structures; speculative fills are unshadowed)",
     .shadows_speculation = false,
     .promote_at_branch_resolution = false,
     .cache_protection = memory::CacheProtection::kSharp},
    {.name = "WFB",
     .description = "wait-for-branch: shadow state promotes once every "
                    "older branch has resolved",
     .shadows_speculation = true,
     .promote_at_branch_resolution = true},
    {.name = "WFB-stall",
     .description = "wait-for-branch with stall-on-full shadows: undersized "
                    "tables stall the requester instead of dropping (closes "
                    "the TSA drop channel, §V)",
     .shadows_speculation = true,
     .promote_at_branch_resolution = true,
     .full_policy_override = shadow::FullPolicy::kStall},
    {.name = "WFC",
     .description = "wait-for-commit: shadow state promotes only when its "
                    "producing instruction commits",
     .shadows_speculation = true,
     .promote_at_branch_resolution = false},
    {.name = "baseline",
     .description = "insecure out-of-order baseline: speculative fills go "
                    "straight into the primary caches/TLBs",
     .shadows_speculation = false,
     .promote_at_branch_resolution = false},
    {.name = "detect-only",
     .description = "baseline timing plus telemetry: victim selection is "
                    "unchanged, but every cross-owner eviction raises an "
                    "alarm and feeds the threshold/epoch detector",
     .shadows_speculation = false,
     .promote_at_branch_resolution = false,
     .cache_protection = memory::CacheProtection::kDetectOnly},
};

}  // namespace

const ProtectionPolicy& named_policy(const std::string& name) {
  for (const ProtectionPolicy& p : kPolicies) {
    if (name == p.name) return p;
  }
  std::string known;
  for (const ProtectionPolicy& p : kPolicies) {
    known += (known.empty() ? "" : ", ") + std::string(p.name);
  }
  throw std::out_of_range("unknown protection policy \"" + name +
                          "\" (registered: " + known + ")");
}

std::vector<std::string> registered_policy_names() {
  std::vector<std::string> names;
  for (const ProtectionPolicy& p : kPolicies) names.emplace_back(p.name);
  return names;
}

}  // namespace safespec::policy
