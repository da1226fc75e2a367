#include "sim/machine.h"

#include <algorithm>
#include <initializer_list>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <variant>

#include "common/json.h"
#include "safespec/policy.h"

namespace safespec::sim {

namespace {

using Json = json::Value;

shadow::FullPolicy parse_full_policy(const std::string& text) {
  if (text == "drop") return shadow::FullPolicy::kDrop;
  if (text == "stall") return shadow::FullPolicy::kStall;
  throw std::invalid_argument("unknown full_policy \"" + text +
                              "\" (expected drop or stall)");
}

predictor::DirectionKind parse_direction_kind(const std::string& text) {
  if (text == "bimodal") return predictor::DirectionKind::kBimodal;
  if (text == "gshare") return predictor::DirectionKind::kGshare;
  if (text == "perceptron") return predictor::DirectionKind::kPerceptron;
  throw std::invalid_argument("unknown predictor direction \"" + text +
                              "\" (expected bimodal, gshare or perceptron)");
}

const char* direction_kind_name(predictor::DirectionKind kind) {
  switch (kind) {
    case predictor::DirectionKind::kBimodal: return "bimodal";
    case predictor::DirectionKind::kGshare: return "gshare";
    case predictor::DirectionKind::kPerceptron: return "perceptron";
  }
  return "?";
}

// ---- the field table --------------------------------------------------------

/// A protection-policy name, checked against the policy table.
struct PolicyName {
  std::string* name;
};

/// One scalar MachineSpec field: its --set key, its dotted path in the
/// JSON document, and where it lives in the spec.
struct Field {
  const char* key;
  const char* path;
  std::variant<int*, std::uint64_t*, bool*, std::string*, PolicyName,
               shadow::FullPolicy*, predictor::DirectionKind*>
      target;
};

/// Every scalar field of `spec`, in to_json order. set() accepts exactly
/// these keys and from_json exactly these paths (plus preset, memory_map
/// and pokes, which MachineSpec handles itself). A new knob is one row
/// here, plus a validate() check if it needs one.
std::vector<Field> fields(MachineSpec& spec) {
  cpu::CoreConfig& c = spec.core;
  memory::HierarchyConfig& h = c.hierarchy;
  predictor::PredictorConfig& p = c.predictor;
  SamplingSpec& s = spec.sampling;
  return {
      {"policy", "policy", PolicyName{&c.policy}},
      {"allow_undersized_shadows", "allow_undersized_shadows",
       &spec.allow_undersized_shadows},
      {"trace", "trace", &spec.trace},
      {"cores", "cores", &c.cores},
      {"fetch_width", "core.fetch_width", &c.fetch_width},
      {"issue_width", "core.issue_width", &c.issue_width},
      {"commit_width", "core.commit_width", &c.commit_width},
      {"iq_entries", "core.iq_entries", &c.iq_entries},
      {"rob_entries", "core.rob_entries", &c.rob_entries},
      {"ldq_entries", "core.ldq_entries", &c.ldq_entries},
      {"stq_entries", "core.stq_entries", &c.stq_entries},
      {"fetch_to_dispatch_delay", "core.fetch_to_dispatch_delay",
       &c.fetch_to_dispatch_delay},
      {"commit_delay", "core.commit_delay", &c.commit_delay},
      {"dib_lines", "core.dib_lines", &c.dib_lines},
      {"alu_latency", "core.alu_latency", &c.alu_latency},
      {"mul_latency", "core.mul_latency", &c.mul_latency},
      {"div_latency", "core.div_latency", &c.div_latency},
      {"shadow_hit_latency", "core.shadow_hit_latency", &c.shadow_hit_latency},
      {"sharp_alarm_threshold", "core.sharp_alarm_threshold",
       &c.sharp_alarm_threshold},
      {"sharp_alarm_epoch", "core.sharp_alarm_epoch", &c.sharp_alarm_epoch},
      {"l1i.size_bytes", "caches.l1i.size_bytes", &h.l1i.size_bytes},
      {"l1i.ways", "caches.l1i.ways", &h.l1i.ways},
      {"l1i.line_bytes", "caches.l1i.line_bytes", &h.l1i.line_bytes},
      {"l1i.hit_latency", "caches.l1i.hit_latency", &h.l1i.hit_latency},
      {"l1d.size_bytes", "caches.l1d.size_bytes", &h.l1d.size_bytes},
      {"l1d.ways", "caches.l1d.ways", &h.l1d.ways},
      {"l1d.line_bytes", "caches.l1d.line_bytes", &h.l1d.line_bytes},
      {"l1d.hit_latency", "caches.l1d.hit_latency", &h.l1d.hit_latency},
      {"l2.size_bytes", "caches.l2.size_bytes", &h.l2.size_bytes},
      {"l2.ways", "caches.l2.ways", &h.l2.ways},
      {"l2.line_bytes", "caches.l2.line_bytes", &h.l2.line_bytes},
      {"l2.hit_latency", "caches.l2.hit_latency", &h.l2.hit_latency},
      {"l3.size_bytes", "caches.l3.size_bytes", &h.l3.size_bytes},
      {"l3.ways", "caches.l3.ways", &h.l3.ways},
      {"l3.line_bytes", "caches.l3.line_bytes", &h.l3.line_bytes},
      {"l3.hit_latency", "caches.l3.hit_latency", &h.l3.hit_latency},
      {"memory_latency", "caches.memory_latency", &h.memory_latency},
      {"itlb.entries", "tlbs.itlb.entries", &c.itlb.entries},
      {"itlb.ways", "tlbs.itlb.ways", &c.itlb.ways},
      {"dtlb.entries", "tlbs.dtlb.entries", &c.dtlb.entries},
      {"dtlb.ways", "tlbs.dtlb.ways", &c.dtlb.ways},
      {"shadow_dcache.entries", "shadows.dcache.entries",
       &c.shadow_dcache.entries},
      {"shadow_dcache.full_policy", "shadows.dcache.full_policy",
       &c.shadow_dcache.full_policy},
      {"shadow_icache.entries", "shadows.icache.entries",
       &c.shadow_icache.entries},
      {"shadow_icache.full_policy", "shadows.icache.full_policy",
       &c.shadow_icache.full_policy},
      {"shadow_dtlb.entries", "shadows.dtlb.entries", &c.shadow_dtlb.entries},
      {"shadow_dtlb.full_policy", "shadows.dtlb.full_policy",
       &c.shadow_dtlb.full_policy},
      {"shadow_itlb.entries", "shadows.itlb.entries", &c.shadow_itlb.entries},
      {"shadow_itlb.full_policy", "shadows.itlb.full_policy",
       &c.shadow_itlb.full_policy},
      {"predictor.direction", "predictor.direction", &p.direction.kind},
      {"predictor.table_bits", "predictor.table_bits",
       &p.direction.table_bits},
      {"predictor.history_bits", "predictor.history_bits",
       &p.direction.history_bits},
      {"predictor.perceptron_weights", "predictor.perceptron_weights",
       &p.direction.perceptron_weights},
      {"predictor.btb_entries", "predictor.btb_entries", &p.btb.entries},
      {"predictor.btb_ways", "predictor.btb_ways", &p.btb.ways},
      {"predictor.rsb_depth", "predictor.rsb_depth", &p.rsb_depth},
      {"sampling.fast_forward_interval", "sampling.fast_forward_interval",
       &s.fast_forward_interval},
      {"sampling.warmup_instrs", "sampling.warmup_instrs", &s.warmup_instrs},
      {"sampling.detail_instrs", "sampling.detail_instrs", &s.detail_instrs},
  };
}

// Text -> field, the --set grammar; `key` names the field in errors.
void from_text(int* out, const std::string& text, const std::string& key) {
  *out = json::parse_int(text, key);
}
void from_text(std::uint64_t* out, const std::string& text,
               const std::string& key) {
  *out = json::parse_u64(text, key);
}
void from_text(bool* out, const std::string& text, const std::string& key) {
  if (text == "true" || text == "1") {
    *out = true;
  } else if (text == "false" || text == "0") {
    *out = false;
  } else {
    throw std::invalid_argument("expected true/false for \"" + key + "\"");
  }
}
void from_text(std::string* out, const std::string& text,
               const std::string&) {
  *out = text;
}
void from_text(PolicyName out, const std::string& text, const std::string&) {
  policy::named_policy(text);  // throws with the registered list
  *out.name = text;
}
void from_text(shadow::FullPolicy* out, const std::string& text,
               const std::string&) {
  *out = parse_full_policy(text);
}
void from_text(predictor::DirectionKind* out, const std::string& text,
               const std::string&) {
  *out = parse_direction_kind(text);
}

void set_field(const Field& field, const std::string& text,
               const std::string& where) {
  std::visit([&](auto target) { from_text(target, text, where); },
             field.target);
}

/// A JSON leaf: integers are numbers or (hex) strings, booleans are
/// true/false, every other field is a string.
void set_field(const Field& field, const Json& value) {
  const bool integer = std::holds_alternative<int*>(field.target) ||
                       std::holds_alternative<std::uint64_t*>(field.target);
  if (std::holds_alternative<bool*>(field.target)) {
    if (value.kind != Json::Kind::kBool) {
      throw std::invalid_argument(std::string("expected true/false for \"") +
                                  field.path + "\"");
    }
    *std::get<bool*>(field.target) = value.boolean;
    return;
  }
  if (value.kind != Json::Kind::kString &&
      !(integer && value.kind == Json::Kind::kNumber)) {
    throw std::invalid_argument(std::string("expected a ") +
                                (integer ? "number" : "string") + " for \"" +
                                field.path + "\"");
  }
  set_field(field, value.text, field.path);
}

// Field -> JSON.
template <class T>
void write(json::Writer& w, const char* key, T* value) {
  w.field(key, *value);
}
void write(json::Writer& w, const char* key, PolicyName value) {
  w.field(key, *value.name);
}
void write(json::Writer& w, const char* key, shadow::FullPolicy* value) {
  w.field(key, shadow::to_string(*value));
}
void write(json::Writer& w, const char* key,
           predictor::DirectionKind* value) {
  w.field(key, direction_kind_name(*value));
}

/// Applies every member of `group` (the object at `prefix`) to the rows
/// of `table`: a member is a row's leaf or an object on some row's path.
void read_group(const Json& group, const std::string& prefix,
                const std::vector<Field>& table) {
  for (const auto& [key, value] : group.object) {
    const std::string path = prefix + key;
    if (prefix.empty() &&
        (key == "preset" || key == "memory_map" || key == "pokes")) {
      continue;  // MachineSpec::from_json reads these itself
    }
    const auto row = std::find_if(
        table.begin(), table.end(),
        [&](const Field& f) { return path == f.path; });
    if (row != table.end()) {
      set_field(*row, value);
      continue;
    }
    const std::string subgroup = path + ".";
    if (std::none_of(table.begin(), table.end(), [&](const Field& f) {
          return std::string(f.path).rfind(subgroup, 0) == 0;
        })) {
      throw std::invalid_argument("unknown machine-spec key \"" + path +
                                  "\"");
    }
    if (value.kind != Json::Kind::kObject) {
      throw std::invalid_argument("machine-spec key \"" + path +
                                  "\" must be a JSON object");
    }
    read_group(value, subgroup, table);
  }
}

/// The optional array `key` of `doc`; every entry must be an object with
/// only the `known` keys.
const std::vector<Json>& entries(const Json& doc, const char* key,
                                 std::initializer_list<const char*> known) {
  static const std::vector<Json> kNone;
  const Json* list = doc.find(key);
  if (list == nullptr) return kNone;
  if (list->kind != Json::Kind::kArray) {
    throw std::invalid_argument(std::string(key) + " must be a JSON array");
  }
  for (const Json& entry : list->array) {
    json::check_keys(entry, known, std::string(key) + " entry");
  }
  return list->array;
}

/// set()'s message for a key the table lacks: a cache, TLB or shadow
/// key prefix names its group, as the grammar's users expect.
std::string unknown_key_message(const std::string& key,
                                const std::vector<Field>& table) {
  const std::size_t dot = key.find('.');
  const std::string prefix = key.substr(0, dot + 1);
  const std::pair<const char*, const char*> groups[] = {
      {"caches.", "cache"}, {"tlbs.", "TLB"}, {"shadows.", "shadow"}};
  for (const Field& f : table) {
    if (dot == std::string::npos || std::string(f.key).rfind(prefix, 0) != 0) {
      continue;
    }
    for (const auto& [group, noun] : groups) {
      if (std::string(f.path).rfind(group, 0) == 0) {
        return std::string("unknown ") + noun + " field in \"" + key + "\"";
      }
    }
  }
  return "unknown machine-spec key \"" + key +
         "\" (see MachineSpec::set in src/sim/machine.h for the grammar)";
}

// ---- presets ---------------------------------------------------------------

/// A little 2-wide embedded-class core: shallow queues, small caches, a
/// bimodal predictor — the second preset the sweep axes can name. Shadow
/// structures keep the §V worst-case bound for *this* machine (d-side =
/// LDQ = 12, i-side = ROB = 32).
MachineSpec embedded_preset() {
  MachineSpec spec;
  spec.preset = "embedded";
  cpu::CoreConfig& c = spec.core;
  c.fetch_width = 2;
  c.issue_width = 2;
  c.commit_width = 2;
  c.iq_entries = 16;
  c.rob_entries = 32;
  c.ldq_entries = 12;
  c.stq_entries = 8;
  c.fetch_to_dispatch_delay = 3;
  c.commit_delay = 2;
  c.itlb = {.name = "iTLB", .entries = 16, .ways = 4};
  c.dtlb = {.name = "dTLB", .entries = 16, .ways = 4};
  c.hierarchy.l1i = {.name = "L1I", .size_bytes = 8 * 1024, .ways = 2,
                     .line_bytes = 32, .hit_latency = 2};
  c.hierarchy.l1d = {.name = "L1D", .size_bytes = 8 * 1024, .ways = 2,
                     .line_bytes = 32, .hit_latency = 2};
  c.hierarchy.l2 = {.name = "L2", .size_bytes = 64 * 1024, .ways = 4,
                    .line_bytes = 32, .hit_latency = 8};
  c.hierarchy.l3 = {.name = "L3", .size_bytes = 512 * 1024, .ways = 8,
                    .line_bytes = 32, .hit_latency = 24};
  c.hierarchy.memory_latency = 100;
  c.predictor.direction = {.kind = predictor::DirectionKind::kBimodal,
                           .table_bits = 10};
  c.predictor.btb = {.entries = 256, .ways = 4};
  c.predictor.rsb_depth = 8;
  c.shadow_dcache = {.name = "shadow-dcache", .entries = c.ldq_entries};
  c.shadow_icache = {.name = "shadow-icache", .entries = c.rob_entries};
  c.shadow_dtlb = {.name = "shadow-dtlb", .entries = c.ldq_entries};
  c.shadow_itlb = {.name = "shadow-itlb", .entries = c.rob_entries};
  return spec;
}

/// Every preset, sorted by name. "skylake" is MachineSpec's defaults:
/// the 6-wide SkyLake-like core of Tables I and II.
constexpr struct {
  const char* name;
  MachineSpec (*make)();
} kPresets[] = {
    {"embedded", embedded_preset},
    {"skylake", [] { return MachineSpec{}; }},
};

void validate_cache(const memory::CacheConfig& c) {
  if (c.size_bytes == 0 || c.ways <= 0 || c.line_bytes <= 0) {
    throw std::invalid_argument(c.name + ": size, ways and line_bytes must "
                                         "be positive");
  }
  if (c.num_sets() <= 0 ||
      c.size_bytes % (static_cast<std::uint64_t>(c.ways) *
                      static_cast<std::uint64_t>(c.line_bytes)) != 0) {
    throw std::invalid_argument(
        c.name + ": size_bytes must be a positive multiple of "
                 "ways * line_bytes");
  }
}

void validate_tlb(const memory::TlbConfig& t) {
  if (t.entries <= 0 || t.ways <= 0 || t.entries % t.ways != 0) {
    throw std::invalid_argument(t.name + ": entries must be a positive "
                                         "multiple of ways");
  }
}

}  // namespace

// ---- MachineSpec -----------------------------------------------------------

void MachineSpec::validate() const {
  const cpu::CoreConfig& c = core;
  const struct {
    const char* name;
    int value;
  } positives[] = {
      {"fetch_width", c.fetch_width},   {"issue_width", c.issue_width},
      {"commit_width", c.commit_width}, {"iq_entries", c.iq_entries},
      {"rob_entries", c.rob_entries},   {"ldq_entries", c.ldq_entries},
      {"stq_entries", c.stq_entries},
  };
  for (const auto& p : positives) {
    if (p.value <= 0) {
      throw std::invalid_argument(std::string(p.name) +
                                  " must be positive, got " +
                                  std::to_string(p.value));
    }
  }
  if (c.fetch_to_dispatch_delay < 0 || c.commit_delay < 0) {
    throw std::invalid_argument("pipeline delays must be non-negative");
  }
  if (c.dib_lines < 0) {
    throw std::invalid_argument("dib_lines must be non-negative (0 "
                                "disables the decoded-instruction buffer)");
  }
  if (c.sharp_alarm_threshold == 0 || c.sharp_alarm_epoch == 0) {
    throw std::invalid_argument(
        "sharp_alarm_threshold and sharp_alarm_epoch must be positive");
  }
  if (c.cores < 1 || c.cores > 64) {
    throw std::invalid_argument("cores must be in [1, 64], got " +
                                std::to_string(c.cores));
  }
  if (c.cores > 1 && sampling.enabled()) {
    throw std::invalid_argument(
        "sampled simulation (sampling.fast_forward_interval > 0) supports "
        "a single core only; set cores=1 or disable sampling");
  }

  validate_cache(c.hierarchy.l1i);
  validate_cache(c.hierarchy.l1d);
  validate_cache(c.hierarchy.l2);
  validate_cache(c.hierarchy.l3);
  validate_tlb(c.itlb);
  validate_tlb(c.dtlb);

  policy::named_policy(c.policy);  // throws with the registered list

  const struct {
    const shadow::ShadowConfig* config;
    int secure_bound;
    const char* bound_name;
  } shadows[] = {
      {&c.shadow_dcache, c.ldq_entries, "LDQ"},
      {&c.shadow_dtlb, c.ldq_entries, "LDQ"},
      {&c.shadow_icache, c.rob_entries, "ROB"},
      {&c.shadow_itlb, c.rob_entries, "ROB"},
  };
  for (const auto& s : shadows) {
    if (s.config->entries <= 0) {
      throw std::invalid_argument(s.config->name +
                                  ": entries must be positive");
    }
    if (s.config->entries < s.secure_bound && !allow_undersized_shadows) {
      throw std::invalid_argument(
          s.config->name + ": " + std::to_string(s.config->entries) +
          " entries is below the secure bound (" + s.bound_name + " = " +
          std::to_string(s.secure_bound) +
          ", §V) — set allow_undersized_shadows to study TSA sizing");
    }
  }

  sampling.validate();

  std::vector<MemRegion> sorted = regions;
  std::sort(sorted.begin(), sorted.end(),
            [](const MemRegion& a, const MemRegion& b) {
              return a.base < b.base;
            });
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (sorted[i].bytes == 0) {
      throw std::invalid_argument("memory-map region at base " +
                                  std::to_string(sorted[i].base) +
                                  " has zero bytes");
    }
    // base + bytes must not wrap, or the overlap comparison below (and
    // map_region's page loop) would silently misbehave.
    if (sorted[i].base + sorted[i].bytes < sorted[i].base) {
      std::ostringstream oss;
      oss << "memory-map region [0x" << std::hex << sorted[i].base
          << ", +0x" << sorted[i].bytes << ") wraps the address space";
      throw std::invalid_argument(oss.str());
    }
    if (i > 0 &&
        sorted[i - 1].base + sorted[i - 1].bytes > sorted[i].base) {
      std::ostringstream oss;
      oss << "memory-map regions overlap: [0x" << std::hex
          << sorted[i - 1].base << ", +0x" << sorted[i - 1].bytes
          << ") and [0x" << sorted[i].base << ", +0x" << sorted[i].bytes
          << ")";
      throw std::invalid_argument(oss.str());
    }
  }
}

std::string MachineSpec::to_json() const {
  json::Writer w;
  w.open();
  w.field("preset", preset);
  // Rows sharing a group sit together: each row closes the groups it
  // leaves and opens the ones it enters. fields() hands out mutable
  // pointers; nothing here writes through them.
  std::vector<std::string> open;
  for (const Field& f : fields(const_cast<MachineSpec&>(*this))) {
    std::vector<std::string> groups;
    std::istringstream parts(f.path);
    for (std::string part; std::getline(parts, part, '.');) {
      groups.push_back(part);
    }
    const std::string leaf = groups.back();
    groups.pop_back();
    while (open.size() > groups.size() ||
           !std::equal(open.begin(), open.end(), groups.begin())) {
      w.close();
      open.pop_back();
    }
    while (open.size() < groups.size()) {
      open.push_back(groups[open.size()]);
      w.open(open.back().c_str());
    }
    std::visit([&](auto target) { write(w, leaf.c_str(), target); },
               f.target);
  }
  for (; !open.empty(); open.pop_back()) w.close();

  w.open_array("memory_map");
  for (const MemRegion& region : regions) {
    w.open();
    w.field("base", region.base);
    w.field("bytes", region.bytes);
    w.field("kernel", region.perm == memory::PagePerm::kKernel);
    w.close();
  }
  w.close_array();

  w.open_array("pokes");
  for (const Poke& poke : pokes) {
    w.open();
    w.field("addr", poke.addr);
    w.field("value", poke.value);
    w.close();
  }
  w.close_array();

  w.close();
  std::string out = w.take();
  out += '\n';
  return out;
}

MachineSpec MachineSpec::from_json(const std::string& text) {
  const Json doc = json::parse(text);
  if (doc.kind != Json::Kind::kObject) {
    throw std::invalid_argument("machine spec must be a JSON object");
  }

  // Unlisted fields keep the preset's values, so a config file only
  // needs the deltas it cares about; a key the table lacks is an error.
  std::string preset_name = "skylake";
  json::read_string(doc, "preset", preset_name);
  MachineSpec spec = machine_preset(preset_name);
  read_group(doc, "", fields(spec));

  for (const Json& entry : entries(doc, "memory_map",
                                   {"base", "bytes", "kernel"})) {
    MemRegion region;
    json::read_u64(entry, "base", region.base);
    json::read_u64(entry, "bytes", region.bytes);
    bool kernel = false;
    json::read_bool(entry, "kernel", kernel);
    region.perm = kernel ? memory::PagePerm::kKernel : memory::PagePerm::kUser;
    spec.regions.push_back(region);
  }
  for (const Json& entry : entries(doc, "pokes", {"addr", "value"})) {
    Poke poke;
    json::read_u64(entry, "addr", poke.addr);
    json::read_u64(entry, "value", poke.value);
    spec.pokes.push_back(poke);
  }
  return spec;
}

MachineSpec MachineSpec::from_json_file(const std::string& path) {
  return from_json(json::read_file(path, "machine config"));
}

void MachineSpec::set(const std::string& key_equals_value) {
  const std::size_t eq = key_equals_value.find('=');
  if (eq == std::string::npos) {
    throw std::invalid_argument("override \"" + key_equals_value +
                                "\" is not of the form key=value");
  }
  set(key_equals_value.substr(0, eq), key_equals_value.substr(eq + 1));
}

void MachineSpec::set(const std::string& key, const std::string& value) {
  if (key == "preset") {
    // Re-seed the whole micro-architecture from the named preset; the
    // machine-level choices (policy, core count) and address-space setup
    // survive. Apply before other overrides so they edit the new preset.
    const std::string keep_policy = core.policy;
    const int keep_cores = core.cores;
    const MachineSpec fresh = machine_preset(value);
    preset = fresh.preset;
    core = fresh.core;
    core.policy = keep_policy;
    core.cores = keep_cores;
    return;
  }
  const std::vector<Field> table = fields(*this);
  for (const Field& f : table) {
    if (key == f.key) {
      set_field(f, value, key);
      return;
    }
  }
  throw std::invalid_argument(unknown_key_message(key, table));
}

// ---- presets ---------------------------------------------------------------

MachineSpec machine_preset(const std::string& name) {
  for (const auto& preset : kPresets) {
    if (name == preset.name) return preset.make();
  }
  std::string known;
  for (const auto& preset : kPresets) {
    known += (known.empty() ? "" : ", ") + std::string(preset.name);
  }
  throw std::out_of_range("unknown machine preset \"" + name +
                          "\" (registered: " + known + ")");
}

std::vector<std::string> machine_preset_names() {
  std::vector<std::string> names;
  for (const auto& preset : kPresets) names.emplace_back(preset.name);
  return names;
}

// ---- builder ----------------------------------------------------------------

MachineBuilder::MachineBuilder() : spec_(machine_preset("skylake")) {}

MachineBuilder::MachineBuilder(MachineSpec spec) : spec_(std::move(spec)) {}

MachineBuilder MachineBuilder::from_preset(const std::string& name) {
  return MachineBuilder(machine_preset(name));
}

MachineBuilder& MachineBuilder::policy(const std::string& name) {
  policy::named_policy(name);  // throws with the registered list
  spec_.core.policy = name;
  return *this;
}

MachineBuilder& MachineBuilder::map_region(Addr base, std::uint64_t bytes,
                                           memory::PagePerm perm) {
  spec_.regions.push_back({base, bytes, perm});
  return *this;
}

MachineBuilder& MachineBuilder::poke(Addr addr, std::uint64_t value) {
  spec_.pokes.push_back({addr, value});
  return *this;
}

MachineBuilder& MachineBuilder::set(const std::string& key_equals_value) {
  spec_.set(key_equals_value);
  return *this;
}

std::unique_ptr<Simulator> MachineBuilder::build(isa::Program program) const {
  spec_.validate();
  auto sim = std::make_unique<Simulator>(spec_.core, std::move(program));
  // Every core runs the same program over the same initial image: set
  // up core 0's once, then copy it to the other cores.
  sim->map_text_on(0);
  memory::map_image(spec_.regions, spec_.pokes, sim->memory(0),
                    sim->page_table(0));
  for (int c = 1; c < sim->num_cores(); ++c) {
    sim->memory(c) = sim->memory(0);
    sim->page_table(c) = sim->page_table(0);
  }
  return sim;
}

}  // namespace safespec::sim
