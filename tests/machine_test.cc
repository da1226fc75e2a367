// MachineSpec / MachineBuilder / registries: JSON round-trip, builder
// validation errors, preset and policy lookup (unknown names must fail
// with a message listing what *is* registered).
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "isa/program.h"
#include "safespec/policy.h"
#include "sim/machine.h"

namespace safespec {
namespace {

using sim::MachineBuilder;
using sim::MachineSpec;

isa::Program tiny_program() {
  isa::ProgramBuilder b(0x1000);
  b.movi(1, 7).halt();
  auto program = b.build();
  program.set_entry(0x1000);
  return program;
}

// ---- presets ---------------------------------------------------------------

TEST(MachinePreset, SkylakeIsTheTablesIAndIIMachine) {
  const auto preset = sim::machine_preset("skylake");
  EXPECT_EQ(preset.core.rob_entries, 224);
  EXPECT_EQ(preset.core.ldq_entries, 72);
  EXPECT_EQ(preset.core.hierarchy.l3.size_bytes, 2u * 1024 * 1024);
  // §V worst-case shadow sizing: the i-side is bounded by the ROB.
  EXPECT_EQ(preset.core.shadow_icache.entries, 224);
  EXPECT_EQ(preset.core.policy, "baseline");
}

TEST(MachinePreset, EmbeddedIsRegisteredAndSecurelySized) {
  const auto spec = sim::machine_preset("embedded");
  EXPECT_EQ(spec.preset, "embedded");
  EXPECT_LT(spec.core.rob_entries, 224);
  // Shadows keep the §V worst-case bound for *this* machine.
  EXPECT_NO_THROW(spec.validate());
}

TEST(MachinePreset, UnknownNameListsRegisteredPresets) {
  EXPECT_EQ(sim::machine_preset_names(),
            (std::vector<std::string>{"embedded", "skylake"}));
  try {
    sim::machine_preset("cray-1");
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_STREQ(e.what(), "unknown machine preset \"cray-1\" (registered: "
                           "embedded, skylake)");
  }
}

// ---- JSON round-trip -------------------------------------------------------

TEST(MachineSpecJson, RoundTripsExactly) {
  MachineSpec spec = sim::machine_preset("skylake");
  spec.core.policy = "WFC";
  spec.core.rob_entries = 128;
  spec.core.shadow_icache.entries = 128;
  spec.core.shadow_itlb.entries = 128;
  spec.core.shadow_dcache.full_policy = shadow::FullPolicy::kStall;
  spec.regions.push_back({0x700000, kPageSize, memory::PagePerm::kUser});
  spec.regions.push_back({0x900000, 2 * kPageSize, memory::PagePerm::kKernel});
  spec.pokes.push_back({0x700008, 42});

  const std::string json = spec.to_json();
  const MachineSpec parsed = MachineSpec::from_json(json);
  EXPECT_EQ(parsed.to_json(), json);
  EXPECT_EQ(parsed.core.policy, "WFC");
  EXPECT_EQ(parsed.core.rob_entries, 128);
  EXPECT_EQ(parsed.core.shadow_dcache.full_policy,
            shadow::FullPolicy::kStall);
  ASSERT_EQ(parsed.regions.size(), 2u);
  EXPECT_EQ(parsed.regions[1].perm, memory::PagePerm::kKernel);
  ASSERT_EQ(parsed.pokes.size(), 1u);
  EXPECT_EQ(parsed.pokes[0].value, 42u);
}

TEST(MachineSpecJson, PartialDocumentKeepsPresetDefaults) {
  const MachineSpec spec = MachineSpec::from_json(
      R"({"preset": "embedded", "policy": "WFB",
          "core": {"rob_entries": 48},
          "shadows": {"icache": {"entries": 48}, "itlb": {"entries": 48}}})");
  EXPECT_EQ(spec.preset, "embedded");
  EXPECT_EQ(spec.core.policy, "WFB");
  EXPECT_EQ(spec.core.rob_entries, 48);
  // Untouched fields come from the embedded preset.
  EXPECT_EQ(spec.core.fetch_width, 2);
  EXPECT_EQ(spec.core.hierarchy.l1d.size_bytes, 8u * 1024u);
}

TEST(MachineSpecJson, HexStringsAcceptedForAddresses) {
  const MachineSpec spec = MachineSpec::from_json(
      R"({"memory_map": [{"base": "0x200000", "bytes": 4096}],
          "pokes": [{"addr": "0x200000", "value": "0xff"}]})");
  ASSERT_EQ(spec.regions.size(), 1u);
  EXPECT_EQ(spec.regions[0].base, 0x200000u);
  EXPECT_EQ(spec.pokes[0].value, 0xffu);
}

TEST(MachineSpecJson, MalformedDocumentThrows) {
  EXPECT_THROW(MachineSpec::from_json("{\"policy\": }"),
               std::invalid_argument);
  EXPECT_THROW(MachineSpec::from_json("[1,2,3]"), std::invalid_argument);
  EXPECT_THROW(MachineSpec::from_json_file("/nonexistent/machine.json"),
               std::invalid_argument);
}

// ---- validation ------------------------------------------------------------

TEST(MachineSpecValidate, RejectsZeroWidths) {
  MachineSpec spec;
  spec.core.issue_width = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(MachineSpecValidate, RejectsDegenerateCacheGeometry) {
  MachineSpec spec;
  spec.core.hierarchy.l1d.size_bytes = 1000;  // not ways*line aligned
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(MachineSpecValidate, RejectsUnknownPolicyListingRegistered) {
  MachineSpec spec;
  spec.core.policy = "no-such-policy";
  try {
    spec.validate();
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-policy"), std::string::npos);
    EXPECT_NE(what.find("baseline"), std::string::npos);
    EXPECT_NE(what.find("WFB"), std::string::npos);
    EXPECT_NE(what.find("WFC"), std::string::npos);
    EXPECT_NE(what.find("WFB-stall"), std::string::npos);
  }
}

TEST(MachineSpecValidate, RejectsOverlappingRegions) {
  MachineSpec spec;
  spec.regions.push_back({0x1000, 0x3000, memory::PagePerm::kUser});
  spec.regions.push_back({0x2000, 0x1000, memory::PagePerm::kUser});
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(MachineSpecValidate, RejectsRegionsWrappingTheAddressSpace) {
  // base + bytes overflowing uint64 must not slip past the overlap check.
  MachineSpec spec;
  spec.regions.push_back({0x1000, ~0ull - 0xfff, memory::PagePerm::kUser});
  spec.regions.push_back({0x2000, 0x1000, memory::PagePerm::kUser});
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(MachineSpecValidate, UndersizedShadowsNeedExplicitOptIn) {
  MachineSpec spec;  // skylake: secure bound is LDQ=72 / ROB=224
  spec.core.shadow_dcache.entries = 8;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.allow_undersized_shadows = true;
  EXPECT_NO_THROW(spec.validate());
}

// ---- --set grammar ---------------------------------------------------------

TEST(MachineSpecSet, OverridesNestedFields) {
  MachineSpec spec;
  spec.set("policy=WFB-stall");
  spec.set("rob_entries=64");
  spec.set("l2.size_bytes=524288");
  spec.set("shadow_dcache.entries", "16");
  spec.set("shadow_dcache.full_policy", "stall");
  spec.set("predictor.direction", "perceptron");
  spec.set("allow_undersized_shadows=true");
  EXPECT_EQ(spec.core.policy, "WFB-stall");
  EXPECT_EQ(spec.core.rob_entries, 64);
  EXPECT_EQ(spec.core.hierarchy.l2.size_bytes, 524288u);
  EXPECT_EQ(spec.core.shadow_dcache.entries, 16);
  EXPECT_EQ(spec.core.shadow_dcache.full_policy, shadow::FullPolicy::kStall);
  EXPECT_EQ(spec.core.predictor.direction.kind,
            predictor::DirectionKind::kPerceptron);
}

TEST(MachineSpecSet, PresetReseedsCoreButKeepsPolicy) {
  MachineSpec spec;
  spec.set("policy=WFC");
  spec.set("preset=embedded");
  EXPECT_EQ(spec.preset, "embedded");
  EXPECT_EQ(spec.core.fetch_width, 2);
  EXPECT_EQ(spec.core.policy, "WFC");
}

TEST(MachineSpecJson, SamplingScheduleRoundTrips) {
  MachineSpec spec = sim::machine_preset("skylake");
  spec.sampling.fast_forward_interval = 500'000;
  spec.sampling.warmup_instrs = 3'000;
  spec.sampling.detail_instrs = 7'000;
  const std::string json = spec.to_json();
  const MachineSpec parsed = MachineSpec::from_json(json);
  EXPECT_EQ(parsed.to_json(), json);
  EXPECT_EQ(parsed.sampling.fast_forward_interval, 500'000u);
  EXPECT_EQ(parsed.sampling.warmup_instrs, 3'000u);
  EXPECT_EQ(parsed.sampling.detail_instrs, 7'000u);
  EXPECT_TRUE(parsed.sampling.enabled());
  // A document without a "sampling" object keeps sampling disabled.
  EXPECT_FALSE(
      MachineSpec::from_json(R"({"preset": "skylake"})").sampling.enabled());
}

TEST(MachineSpecSet, SamplingKeysOverrideSchedule) {
  MachineSpec spec;
  spec.set("sampling.fast_forward_interval=100000");
  spec.set("sampling.warmup_instrs=4000");
  spec.set("sampling.detail_instrs", "8000");
  EXPECT_EQ(spec.sampling.fast_forward_interval, 100'000u);
  EXPECT_EQ(spec.sampling.warmup_instrs, 4'000u);
  EXPECT_EQ(spec.sampling.detail_instrs, 8'000u);
}

TEST(MachineSpecValidate, RejectsEnabledSamplingWithZeroDetailWindow) {
  MachineSpec spec = sim::machine_preset("skylake");
  spec.sampling.fast_forward_interval = 1'000;
  spec.sampling.detail_instrs = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.sampling.fast_forward_interval = 0;  // disabled: anything goes
  EXPECT_NO_THROW(spec.validate());
}

// ---- cores axis ------------------------------------------------------------

TEST(MachineSpecJson, CoresRoundTripsAndDefaultsToOne) {
  MachineSpec spec = sim::machine_preset("skylake");
  spec.core.cores = 4;
  const std::string json = spec.to_json();
  const MachineSpec parsed = MachineSpec::from_json(json);
  EXPECT_EQ(parsed.to_json(), json);
  EXPECT_EQ(parsed.core.cores, 4);
  // A document without the field stays single-core.
  EXPECT_EQ(MachineSpec::from_json(R"({"preset": "skylake"})").core.cores, 1);
}

TEST(MachineSpecSet, CoresOverrideAndPresetReseedKeepsCores) {
  MachineSpec spec;
  spec.set("cores=2");
  EXPECT_EQ(spec.core.cores, 2);
  // preset= re-seeds the micro-architecture but cores is a machine-level
  // choice and must survive, like policy does.
  spec.set("preset=embedded");
  EXPECT_EQ(spec.core.fetch_width, 2);
  EXPECT_EQ(spec.core.cores, 2);
  EXPECT_THROW(spec.set("cores=banana"), std::invalid_argument);
}

TEST(MachineSpecValidate, RejectsOutOfRangeCoresAndSampledMulticore) {
  MachineSpec spec = sim::machine_preset("skylake");
  spec.core.cores = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.core.cores = 65;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.core.cores = 2;
  EXPECT_NO_THROW(spec.validate());
  // Sampling fast-forwards one architectural thread; it is single-core
  // only and the combination must be rejected up front.
  spec.sampling.fast_forward_interval = 10'000;
  spec.sampling.detail_instrs = 1'000;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.core.cores = 1;
  EXPECT_NO_THROW(spec.validate());
}

TEST(MachineSpecJson, SharpDetectorFieldsRoundTrip) {
  MachineSpec spec = sim::machine_preset("skylake");
  spec.core.policy = "SHARP";
  spec.core.sharp_alarm_threshold = 50;
  spec.core.sharp_alarm_epoch = 100'000;
  EXPECT_NO_THROW(spec.validate());
  const std::string json = spec.to_json();
  const MachineSpec parsed = MachineSpec::from_json(json);
  EXPECT_EQ(parsed.to_json(), json);
  EXPECT_EQ(parsed.core.policy, "SHARP");
  EXPECT_EQ(parsed.core.sharp_alarm_threshold, 50u);
  EXPECT_EQ(parsed.core.sharp_alarm_epoch, 100'000u);
  // A document without the fields keeps the exemplar defaults.
  const MachineSpec bare = MachineSpec::from_json(R"({"preset": "skylake"})");
  EXPECT_EQ(bare.core.sharp_alarm_threshold, 2000u);
  EXPECT_EQ(bare.core.sharp_alarm_epoch, 1'000'000'000u);
}

TEST(MachineSpecSet, SharpDetectorKeysAndPolicyNames) {
  MachineSpec spec;
  spec.set("policy=SHARP");
  spec.set("sharp_alarm_threshold=7");
  spec.set("sharp_alarm_epoch=500");
  EXPECT_EQ(spec.core.policy, "SHARP");
  EXPECT_EQ(spec.core.sharp_alarm_threshold, 7u);
  EXPECT_EQ(spec.core.sharp_alarm_epoch, 500u);
  EXPECT_NO_THROW(spec.validate());
  spec.set("policy=detect-only");
  EXPECT_NO_THROW(spec.validate());
  // A zero threshold or epoch would make the detector fire on nothing /
  // divide the run into empty epochs; both are rejected.
  spec.set("sharp_alarm_threshold=0");
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.set("sharp_alarm_threshold=2000");
  spec.set("sharp_alarm_epoch=0");
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(MachineSpecSet, RejectsUnknownKeysAndBadValues) {
  MachineSpec spec;
  EXPECT_THROW(spec.set("no_such_field=1"), std::invalid_argument);
  EXPECT_THROW(spec.set("not-an-override"), std::invalid_argument);
  EXPECT_THROW(spec.set("rob_entries=many"), std::invalid_argument);
  // strtoull would silently wrap negatives to huge values.
  EXPECT_THROW(spec.set("memory_latency=-5"), std::invalid_argument);
  EXPECT_THROW(spec.set("l1d.size_bytes=-1"), std::invalid_argument);
  EXPECT_THROW(spec.set("shadow_dcache.full_policy=explode"),
               std::invalid_argument);
  EXPECT_THROW(spec.set("policy=no-such-policy"), std::out_of_range);
  // An int field rejects what only fits after narrowing: 2^32 + 2 is not
  // 2 cores.
  EXPECT_THROW(spec.set("cores=4294967298"), std::invalid_argument);
  EXPECT_THROW(spec.set("l2.ways=2147483648"), std::invalid_argument);
  EXPECT_THROW(spec.set("itlb.entries=0x100000040"), std::invalid_argument);
  EXPECT_EQ(spec.core.cores, 1);
  spec.set("rob_entries=2147483647");
  EXPECT_EQ(spec.core.rob_entries, 2147483647);
}

std::string set_error(const std::string& key_equals_value) {
  MachineSpec spec;
  try {
    spec.set(key_equals_value);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "no error";
}

TEST(MachineSpecSet, ErrorTextsNameTheGroup) {
  EXPECT_EQ(set_error("l1i.size=1"), "unknown cache field in \"l1i.size\"");
  EXPECT_EQ(set_error("l3.ways.x=1"), "unknown cache field in \"l3.ways.x\"");
  EXPECT_EQ(set_error("dtlb.sets=4"), "unknown TLB field in \"dtlb.sets\"");
  EXPECT_EQ(set_error("shadow_itlb.size=4"),
            "unknown shadow field in \"shadow_itlb.size\"");
  const std::string generic =
      "\" (see MachineSpec::set in src/sim/machine.h for the grammar)";
  EXPECT_EQ(set_error("predictor.kind=x"),
            "unknown machine-spec key \"predictor.kind" + generic);
  EXPECT_EQ(set_error("l4.ways=2"), "unknown machine-spec key \"l4.ways" +
                                        generic);
  EXPECT_EQ(set_error("allow_undersized_shadows=yes"),
            "expected true/false for \"allow_undersized_shadows\"");
  EXPECT_EQ(set_error("ldq_entries=-1"),
            "expected a non-negative integer for \"ldq_entries\", got \"-1\"");
  EXPECT_EQ(set_error("predictor.direction=tage"),
            "unknown predictor direction \"tage\" (expected bimodal, gshare "
            "or perceptron)");
}

// ---- the field table: every key, goldens, strict documents -----------------

/// The --set grammar: one key per scalar MachineSpec field (preset,
/// memory_map and pokes aside), each with a value neither preset uses.
const std::vector<std::pair<std::string, std::string>>& every_key() {
  static const std::vector<std::pair<std::string, std::string>> keys = {
      {"policy", "WFC"},
      {"allow_undersized_shadows", "true"},
      {"trace", "@"},
      {"cores", "3"},
      {"fetch_width", "5"},
      {"issue_width", "4"},
      {"commit_width", "3"},
      {"iq_entries", "40"},
      {"rob_entries", "100"},
      {"ldq_entries", "30"},
      {"stq_entries", "20"},
      {"fetch_to_dispatch_delay", "7"},
      {"commit_delay", "6"},
      {"dib_lines", "256"},
      {"alu_latency", "2"},
      {"mul_latency", "5"},
      {"div_latency", "33"},
      {"shadow_hit_latency", "9"},
      {"sharp_alarm_threshold", "77"},
      {"sharp_alarm_epoch", "5000"},
      {"l1i.size_bytes", "16384"},
      {"l1i.ways", "4"},
      {"l1i.line_bytes", "128"},
      {"l1i.hit_latency", "3"},
      {"l1d.size_bytes", "65536"},
      {"l1d.ways", "16"},
      {"l1d.line_bytes", "16"},
      {"l1d.hit_latency", "5"},
      {"l2.size_bytes", "1048576"},
      {"l2.ways", "2"},
      {"l2.line_bytes", "256"},
      {"l2.hit_latency", "15"},
      {"l3.size_bytes", "8388608"},
      {"l3.ways", "32"},
      {"l3.line_bytes", "512"},
      {"l3.hit_latency", "50"},
      {"memory_latency", "300"},
      {"itlb.entries", "128"},
      {"itlb.ways", "8"},
      {"dtlb.entries", "256"},
      {"dtlb.ways", "2"},
      {"shadow_dcache.entries", "11"},
      {"shadow_dcache.full_policy", "stall"},
      {"shadow_icache.entries", "13"},
      {"shadow_icache.full_policy", "stall"},
      {"shadow_dtlb.entries", "17"},
      {"shadow_dtlb.full_policy", "stall"},
      {"shadow_itlb.entries", "19"},
      {"shadow_itlb.full_policy", "stall"},
      {"predictor.direction", "perceptron"},
      {"predictor.table_bits", "9"},
      {"predictor.history_bits", "21"},
      {"predictor.perceptron_weights", "31"},
      {"predictor.btb_entries", "2048"},
      {"predictor.btb_ways", "8"},
      {"predictor.rsb_depth", "24"},
      {"sampling.fast_forward_interval", "123456"},
      {"sampling.warmup_instrs", "2500"},
      {"sampling.detail_instrs", "7500"},
  };
  return keys;
}

std::string read_golden(const std::string& name) {
  return json::read_file(std::string(SAFESPEC_GOLDEN_DIR) + "/" + name);
}

TEST(MachineSpecJson, PresetsMatchTheirGoldens) {
  EXPECT_EQ(sim::machine_preset("skylake").to_json(),
            read_golden("machine_skylake.json"));
  EXPECT_EQ(sim::machine_preset("embedded").to_json(),
            read_golden("machine_embedded.json"));
}

TEST(MachineSpecJson, EveryFieldChangedMatchesGoldenAndRoundTrips) {
  MachineSpec spec = sim::machine_preset("skylake");
  for (const auto& [key, value] : every_key()) spec.set(key, value);
  spec.regions.push_back({0x700000, kPageSize, memory::PagePerm::kUser});
  spec.regions.push_back({0x900000, 2 * kPageSize, memory::PagePerm::kKernel});
  spec.pokes.push_back({0x700008, 42});
  const std::string json = spec.to_json();
  EXPECT_EQ(json, read_golden("machine_every_field.json"));
  EXPECT_EQ(MachineSpec::from_json(json).to_json(), json);
}

TEST(MachineSpecSet, EveryKeyRoundTripsThroughJson) {
  const std::string preset = sim::machine_preset("skylake").to_json();
  std::set<std::string> seen;
  for (const auto& [key, value] : every_key()) {
    SCOPED_TRACE(key);
    EXPECT_TRUE(seen.insert(key).second) << "listed twice";
    MachineSpec spec = sim::machine_preset("skylake");
    spec.set(key, value);
    const std::string json = spec.to_json();
    EXPECT_NE(json, preset) << "the key changed no serialized field";
    MachineSpec parsed = MachineSpec::from_json(json);
    EXPECT_EQ(parsed.to_json(), json);
    // The parsed spec already holds the value, so setting it again is a
    // no-op: the --set key and the JSON key name the same field.
    parsed.set(key, value);
    EXPECT_EQ(parsed.to_json(), json);
  }
  EXPECT_EQ(seen.size(), 59u);
}

TEST(MachineSpecJson, RejectsWhatTheLayoutDoesNotList) {
  for (const char* doc : {
           // Keys the layout lacks.
           R"({"rob_entries": 64})",  // belongs under "core"
           R"({"core": {"rob_entires": 64}})",
           R"({"caches": {"l1i": {"size": 1}}})",
           R"({"caches": {"l4": {"ways": 2}}})",
           R"({"shadows": {"dcache": {"full": "stall"}}})",
           R"({"memory_map": [{"base": 4096, "bytse": 4096}]})",
           R"({"pokes": [{"adr": 4096, "value": 1}]})",
           R"({"map_text": false})",
           // Groups that are not objects, leaves of the wrong type.
           R"({"core": 5})",
           R"({"caches": {"l1d": 32768}})",
           R"({"allow_undersized_shadows": "true"})",
           R"({"policy": 3})",
           R"({"preset": true})",
           R"({"core": {"rob_entries": true}})",
           R"({"core": {"rob_entries": {"value": 64}}})",
           R"({"shadows": {"dcache": {"full_policy": 1}}})",
           R"({"memory_map": {"base": 4096, "bytes": 4096}})",
           R"({"pokes": [5]})",
           // Integers their field cannot hold: 2^32 + 2 is not 2 cores.
           R"({"cores": 4294967298})",
           R"({"cores": 2147483648})",
           R"({"core": {"rob_entries": 4294967360}})",
           R"({"caches": {"l1d": {"ways": "0x100000008"}}})",
           R"({"sampling": {"warmup_instrs": 18446744073709551616}})",
       }) {
    EXPECT_THROW(MachineSpec::from_json(doc), std::invalid_argument) << doc;
  }
  // 64-bit fields keep their full range; int fields reach INT_MAX.
  const MachineSpec spec = MachineSpec::from_json(
      R"({"core": {"rob_entries": 2147483647},
          "sampling": {"warmup_instrs": 18446744073709551615}})");
  EXPECT_EQ(spec.core.rob_entries, 2147483647);
  EXPECT_EQ(spec.sampling.warmup_instrs, ~0ull);
}

// ---- builder ---------------------------------------------------------------

TEST(MachineBuilderTest, BuildsReadyToRunSimulator) {
  constexpr Addr kData = 0x200000;
  auto sim = MachineBuilder::from_preset("skylake")
                 .policy("WFC")
                 .map_region(kData, kPageSize)
                 .poke(kData, 123)
                 .build(tiny_program());
  EXPECT_EQ(sim->peek(kData), 123u);
  const auto result = sim->run();
  EXPECT_EQ(result.stop, cpu::StopReason::kHalted);
  EXPECT_EQ(sim->core().reg(1), 7u);
  EXPECT_EQ(sim->core().config().policy, "WFC");
}

void expect_same_translation(const memory::Translation& got,
                             const memory::Translation& want, Addr page) {
  EXPECT_EQ(got.present, want.present) << "page " << page;
  EXPECT_EQ(got.ppage, want.ppage) << "page " << page;
  EXPECT_EQ(got.kernel_only, want.kernel_only) << "page " << page;
}

TEST(MachineBuilderTest, EveryCoreGetsAPrivateCopyOfOneImage) {
  constexpr Addr kUser = 0x200000;
  constexpr std::uint64_t kUserBytes = 8 * kPageSize;
  constexpr Addr kKernel = 0x400000;
  MachineBuilder builder = MachineBuilder::from_preset("skylake")
                               .set("cores=4")
                               .map_region(kUser, kUserBytes)
                               .map_region(kKernel, kPageSize,
                                           memory::PagePerm::kKernel);
  for (std::uint64_t i = 0; i < 3000; ++i) {
    builder.poke(kUser + 8 * i, i * 0x9e3779b97f4a7c15ULL + 1);
  }
  builder.poke(kKernel + 64, 0x5ec7e7);
  auto sim = builder.build(tiny_program());
  ASSERT_EQ(sim->num_cores(), 4);

  // Core 0 holds the image: text, both regions and every poke.
  const auto words = sim->memory(0).nonzero_words();
  EXPECT_EQ(words.size(), 3001u);
  const memory::Translation text =
      sim->page_table(0).translate(page_of(0x1000));
  EXPECT_TRUE(text.present);
  EXPECT_FALSE(text.kernel_only);
  EXPECT_TRUE(sim->page_table(0).translate(page_of(kKernel)).kernel_only);

  // Every other core holds an identical copy. The unmapped page just
  // past the kernel region checks that nothing extra was mapped.
  std::vector<Addr> pages = {page_of(0x1000), page_of(kKernel),
                             page_of(kKernel) + 1};
  for (Addr page = page_of(kUser); page <= page_of(kUser + kUserBytes - 1);
       ++page) {
    pages.push_back(page);
  }
  for (int c = 1; c < sim->num_cores(); ++c) {
    SCOPED_TRACE("core " + std::to_string(c));
    EXPECT_EQ(sim->memory(c).nonzero_words(), words);
    EXPECT_EQ(sim->page_table(c).mapped_pages(),
              sim->page_table(0).mapped_pages());
    for (Addr page : pages) {
      expect_same_translation(sim->page_table(c).translate(page),
                              sim->page_table(0).translate(page), page);
    }
  }

  // Copy-on-write: a write after build reaches one core only.
  const std::uint64_t before = sim->peek(kUser);
  sim->poke_on(1, kUser, 0xabc);
  sim->poke_on(1, kUser + kUserBytes - 8, 0xdef);  // a page no poke touched
  for (int c = 0; c < sim->num_cores(); ++c) {
    EXPECT_EQ(sim->peek_on(c, kUser), c == 1 ? 0xabcu : before) << c;
    EXPECT_EQ(sim->peek_on(c, kUser + kUserBytes - 8), c == 1 ? 0xdefu : 0u)
        << c;
  }
  sim->map_region_on(2, 0x800000, kPageSize);
  for (int c = 0; c < sim->num_cores(); ++c) {
    EXPECT_EQ(sim->page_table(c).translate(page_of(0x800000)).present,
              c == 2)
        << c;
  }
}

TEST(MachineBuilderTest, HeterogeneousMachineMapsEachCoresOwnText) {
  constexpr Addr kSecondText = 0x80000;
  isa::ProgramBuilder b(kSecondText);
  b.movi(1, 9).halt();
  isa::Program second = b.build();
  second.set_entry(kSecondText);
  std::vector<isa::Program> programs;
  programs.push_back(tiny_program());
  programs.push_back(std::move(second));
  sim::Simulator sim(sim::machine_preset("skylake").core,
                     std::move(programs));
  sim.map_text();
  EXPECT_TRUE(sim.page_table(0).translate(page_of(0x1000)).present);
  EXPECT_FALSE(sim.page_table(0).translate(page_of(kSecondText)).present);
  EXPECT_TRUE(sim.page_table(1).translate(page_of(kSecondText)).present);
  EXPECT_FALSE(sim.page_table(1).translate(page_of(0x1000)).present);
  sim.run();
  EXPECT_EQ(sim.core(0).reg(1), 7u);
  EXPECT_EQ(sim.core(1).reg(1), 9u);
}

TEST(MachineBuilderTest, ValidationFailuresSurfaceAtBuild) {
  MachineBuilder builder;
  for (const char* shadow :
       {"shadow_dcache", "shadow_dtlb", "shadow_icache", "shadow_itlb"}) {
    builder.set(std::string(shadow) + ".entries=4");
  }
  EXPECT_THROW(builder.build(tiny_program()), std::invalid_argument);
  // Same sizing is fine once explicitly allowed.
  EXPECT_NO_THROW(builder.policy("WFC")
                      .set("allow_undersized_shadows=true")
                      .build(tiny_program()));
}

TEST(MachineBuilderTest, WfbStallSelectableByNameForcesStallShadows) {
  auto sim = MachineBuilder()
                 .policy("WFB-stall")
                 .build(tiny_program());
  // The policy's full-table override reaches the constructed core.
  EXPECT_EQ(sim->core().shadow_dcache().config().full_policy,
            shadow::FullPolicy::kStall);
  EXPECT_EQ(sim->core().shadow_itlb().config().full_policy,
            shadow::FullPolicy::kStall);
  EXPECT_TRUE(sim->core().protection_policy().promote_at_branch_resolution);
}

// ---- policy registry -------------------------------------------------------

TEST(PolicyRegistry, ShipsThePaperFamilyPlusWfbStall) {
  // Sorted by name: fuzz cells, journal lines and every policy sweep
  // follow this order.
  EXPECT_EQ(policy::registered_policy_names(),
            (std::vector<std::string>{"SHARP", "WFB", "WFB-stall", "WFC",
                                      "baseline", "detect-only"}));
  EXPECT_FALSE(policy::named_policy("baseline").shadows_speculation);
  EXPECT_TRUE(policy::named_policy("WFC").shadows_speculation);
  EXPECT_FALSE(policy::named_policy("WFC").promote_at_branch_resolution);
  EXPECT_TRUE(policy::named_policy("WFB").promote_at_branch_resolution);
}

TEST(PolicyRegistry, UnknownNameListsRegisteredPolicies) {
  try {
    policy::named_policy("wfz");
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_STREQ(e.what(),
                 "unknown protection policy \"wfz\" (registered: SHARP, "
                 "WFB, WFB-stall, WFC, baseline, detect-only)");
  }
}

}  // namespace
}  // namespace safespec
