#include "campaign/triage.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <stdexcept>

#include "common/json.h"

namespace safespec::campaign {

namespace {

bool is_hex_digit(char c) {
  return std::isxdigit(static_cast<unsigned char>(c)) != 0;
}

}  // namespace

std::string normalize_violation(const std::string& violation) {
  std::string out;
  std::size_t i = 0;
  while (i < violation.size()) {
    const char c = violation[i];
    if (c == '0' && i + 1 < violation.size() && violation[i + 1] == 'x' &&
        i + 2 < violation.size() && is_hex_digit(violation[i + 2])) {
      out += "0x#";
      i += 2;
      while (i < violation.size() && is_hex_digit(violation[i])) ++i;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      out += '#';
      while (i < violation.size() &&
             std::isdigit(static_cast<unsigned char>(violation[i])) != 0) {
        ++i;
      }
      continue;
    }
    out += c;
    ++i;
  }
  return out;
}

TriageReport triage_records(const std::vector<UnitRecord>& records) {
  TriageReport report;
  report.units = records.size();
  // fingerprint -> group, filled in unit order so `example` and
  // `first_seed` come from the smallest failing seed (units ascend with
  // seeds in a fuzz campaign).
  std::map<std::string, TriageGroup> groups;
  for (const UnitRecord& rec : records) {
    const json::Value v = json::parse(rec.line);
    const json::Value* ok = v.find("ok");
    const json::Value* seed = v.find("seed");
    if (ok == nullptr || seed == nullptr) {
      throw std::invalid_argument(
          "unit line is not a fuzz campaign record (triage needs "
          "kind=fuzz journals): " +
          rec.line);
    }
    if (ok->boolean) continue;
    ++report.failures;
    const std::uint64_t seed_value = json::as_u64(*seed, "seed");
    std::string first_violation = "(no violation recorded)";
    if (const json::Value* violations = v.find("violations")) {
      if (!violations->array.empty()) {
        first_violation = violations->array.front().text;
      }
    }
    const std::string fingerprint = normalize_violation(first_violation);
    auto [it, inserted] = groups.emplace(fingerprint, TriageGroup{});
    TriageGroup& group = it->second;
    if (inserted) {
      group.fingerprint = fingerprint;
      group.example = first_violation;
      group.first_seed = seed_value;
    }
    group.seeds.push_back(seed_value);
  }
  for (auto& [fingerprint, group] : groups) {
    std::sort(group.seeds.begin(), group.seeds.end());
    group.first_seed = group.seeds.front();
    report.groups.push_back(std::move(group));
  }
  std::sort(report.groups.begin(), report.groups.end(),
            [](const TriageGroup& a, const TriageGroup& b) {
              return a.first_seed < b.first_seed;
            });
  return report;
}

TriageReport triage(const Manifest& manifest, const std::string& dir) {
  if (manifest.kind != "fuzz") {
    throw std::invalid_argument("triage needs a fuzz campaign, not kind=\"" +
                                manifest.kind + "\"");
  }
  return triage_records(
      collect_units(manifest, dir, /*require_complete=*/false));
}

TriageReport triage_merged_file(const std::string& merged_path) {
  const std::string data = json::read_file(merged_path, "merged campaign");
  std::vector<UnitRecord> records;
  std::size_t pos = 0;
  std::uint64_t index = 0;
  while (pos < data.size()) {
    std::size_t nl = data.find('\n', pos);
    if (nl == std::string::npos) nl = data.size();
    if (nl > pos) records.push_back({index++, data.substr(pos, nl - pos)});
    pos = nl + 1;
  }
  return triage_records(records);
}

std::string render_triage_text(const TriageReport& report,
                               const Manifest* manifest) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line,
                "triage: %llu units, %llu failing seeds, %zu distinct "
                "failure groups\n",
                static_cast<unsigned long long>(report.units),
                static_cast<unsigned long long>(report.failures),
                report.groups.size());
  out += line;
  const std::string spec_suffix =
      manifest != nullptr && !manifest->fuzz.spec.empty()
          ? " --spec=" + manifest->fuzz.spec
          : "";
  for (std::size_t g = 0; g < report.groups.size(); ++g) {
    const TriageGroup& group = report.groups[g];
    std::snprintf(line, sizeof line,
                  "group %zu: %zu seeds, first %llu\n", g + 1,
                  group.seeds.size(),
                  static_cast<unsigned long long>(group.first_seed));
    out += line;
    out += "  fingerprint: " + group.fingerprint + "\n";
    out += "  example:     " + group.example + "\n";
    out += "  seeds:      ";
    const std::size_t shown = std::min<std::size_t>(group.seeds.size(), 16);
    for (std::size_t i = 0; i < shown; ++i) {
      out += " " + std::to_string(group.seeds[i]);
    }
    if (shown < group.seeds.size()) {
      out += " ... (" + std::to_string(group.seeds.size() - shown) + " more)";
    }
    out += "\n";
    out += "  repro:       fuzz_driver --seed=" +
           std::to_string(group.first_seed) + " --count=1 --dump" +
           spec_suffix + "\n";
  }
  return out;
}

std::string render_triage_json(const TriageReport& report) {
  std::string out = "{\n";
  out += "  \"units\": " + std::to_string(report.units) + ",\n";
  out += "  \"failures\": " + std::to_string(report.failures) + ",\n";
  out += "  \"groups\": [";
  for (std::size_t g = 0; g < report.groups.size(); ++g) {
    const TriageGroup& group = report.groups[g];
    out += g == 0 ? "\n" : ",\n";
    out += "    {\"fingerprint\": \"" +
           json::escape(group.fingerprint) + "\",\n";
    out += "     \"example\": \"" + json::escape(group.example) +
           "\",\n";
    out += "     \"first_seed\": " + std::to_string(group.first_seed) +
           ",\n";
    out += "     \"count\": " + std::to_string(group.seeds.size()) + ",\n";
    out += "     \"seeds\": [";
    for (std::size_t i = 0; i < group.seeds.size(); ++i) {
      if (i > 0) out += ", ";
      out += std::to_string(group.seeds[i]);
    }
    out += "]}";
  }
  out += report.groups.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

}  // namespace safespec::campaign
