// Description-layer tests: strict-parser corpus (malformed input must
// fail with a located error), canonical-dump round trips, schema
// unknown-key/path reporting, preset equivalence, the builtin-campaign
// registry (embedded text == committed canonical dump), and the
// examples/desc files shipped with the repo.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/builtin.hpp"
#include "campaign/desc.hpp"
#include "desc/json.hpp"
#include "desc/schema.hpp"
#include "fault/desc.hpp"
#include "hw/desc.hpp"
#include "xpic/desc.hpp"

namespace {

using namespace cbsim;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string errorOf(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const desc::Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected a desc::Error";
  return {};
}

// ---- Parser corpus ---------------------------------------------------------

TEST(DescParser, RejectsMalformedInputsWithPosition) {
  // {input, substring the error must contain}
  const std::vector<std::pair<const char*, const char*>> corpus = {
      {"", "1:1"},                                  // empty document
      {"{", "1:2"},                                 // truncated object
      {"{\"a\": 1", "1:8"},                         // unterminated object
      {"[1, 2", "1:6"},                             // unterminated array
      {"\"abc", "unterminated"},                    // unterminated string
      {"{\"a\": }", "1:7"},                         // missing value
      {"{\"a\": 1,}", "1:9"},                       // trailing comma
      {"[1, 2,]", "1:7"},                           // trailing comma (array)
      {"{a: 1}", "1:2"},                            // unquoted key
      {"{\"a\": 01}", "1:8"},                       // leading zero
      {"{\"a\": 1.}", "digit"},                     // bare decimal point
      {"{\"a\": +1}", "1:7"},                       // leading plus
      {"{\"a\": NaN}", "1:7"},                      // NaN is not JSON
      {"{\"a\": Infinity}", "1:7"},                 // neither is Infinity
      {"{\"a\": 'x'}", "1:7"},                      // single quotes
      {"{\"a\": 1} // done", "trailing"},           // no comments
      {"{\"a\": 1} {\"b\": 2}", "trailing"},        // two documents
      {"{\"a\": 1, \"a\": 2}", "duplicate"},        // duplicate keys
      {"{\"a\": \"\\x41\"}", "escape"},             // invalid escape
      {"{\"a\": \"\\ud800\"}", "surrogate"},        // unpaired surrogate
      {"tru", "literal"},                           // truncated literal
  };
  for (const auto& [text, expect] : corpus) {
    const std::string msg =
        errorOf([t = text] { (void)desc::parse(t, "corpus"); });
    EXPECT_NE(msg.find("corpus"), std::string::npos)
        << "origin missing for input: " << text << "\n  got: " << msg;
    EXPECT_NE(msg.find(expect), std::string::npos)
        << "for input: " << text << "\n  got: " << msg;
  }
}

TEST(DescParser, RejectsRunawayNesting) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  const std::string msg = errorOf([&] { (void)desc::parse(deep, "deep"); });
  EXPECT_NE(msg.find("nesting"), std::string::npos) << msg;
}

TEST(DescParser, AcceptsReasonableNesting) {
  std::string doc(64, '[');
  doc += "1";
  doc += std::string(64, ']');
  EXPECT_NO_THROW((void)desc::parse(doc));
}

TEST(DescParser, MultiLineErrorsCarryTheRightLine) {
  const char* text = "{\n  \"a\": 1,\n  \"a\": 2\n}";
  const std::string msg = errorOf([&] { (void)desc::parse(text, "f.json"); });
  EXPECT_NE(msg.find("f.json:3:"), std::string::npos) << msg;
}

TEST(DescParser, RoundTripsGnarlyDocuments) {
  const char* text =
      "{\n"
      "  \"seed\": 11400714819323198485,\n"
      "  \"min\": -9223372036854775808,\n"
      "  \"tiny\": 1e-300,\n"
      "  \"neg\": -0.25,\n"
      "  \"unicode\": \"\\u00e9\\u20ac\\ud83d\\ude00\",\n"
      "  \"escapes\": \"\\\"\\\\\\/\\b\\f\\n\\r\\t\",\n"
      "  \"empty_obj\": {},\n"
      "  \"empty_arr\": [],\n"
      "  \"mixed\": [1, \"two\", null, true, [3.5]]\n"
      "}";
  const desc::Value v = desc::parse(text);
  const std::string d1 = desc::dump(v);
  const std::string d2 = desc::dump(desc::parse(d1));
  EXPECT_EQ(d1, d2);  // canonical: dump o parse is idempotent
  // 64-bit integers survive exactly (they do not fit a double).
  EXPECT_EQ(v.find("seed")->numberLiteral(), "11400714819323198485");
  EXPECT_NE(d1.find("11400714819323198485"), std::string::npos);
  EXPECT_NE(d1.find("-9223372036854775808"), std::string::npos);
}

// ---- Schema layer ----------------------------------------------------------

TEST(DescSchema, UnknownKeysAreRejectedWithPath) {
  const desc::Value v = desc::parse(
      R"({"machine": {"groups": [{"kind": "cn", "cuont": 4}]}})");
  desc::Reader root(v, "");
  desc::Reader machine = root.child("machine");
  const std::string msg = errorOf([&] {
    machine.eachIn("groups", [](desc::Reader& g) {
      (void)g.stringAt("kind");
      g.finish();
    });
  });
  EXPECT_NE(msg.find("machine.groups[0]"), std::string::npos) << msg;
  EXPECT_NE(msg.find("cuont"), std::string::npos) << msg;
}

TEST(DescSchema, TypeMismatchNamesThePath) {
  const desc::Value v = desc::parse(R"({"net": {"nic_latency_ns": "fast"}})");
  desc::Reader root(v, "");
  desc::Reader net = root.child("net");
  const std::string msg =
      errorOf([&] { (void)net.numberAt("nic_latency_ns"); });
  EXPECT_NE(msg.find("net.nic_latency_ns"), std::string::npos) << msg;
  EXPECT_NE(msg.find("number"), std::string::npos) << msg;
  EXPECT_NE(msg.find("string"), std::string::npos) << msg;
}

TEST(DescSchema, MissingRequiredKeyNamesThePath) {
  const desc::Value v = desc::parse(R"({"trunk": {"switch_a": 0}})");
  desc::Reader root(v, "");
  desc::Reader trunk = root.child("trunk");
  const std::string msg = errorOf([&] { (void)trunk.numberAt("switch_b"); });
  EXPECT_NE(msg.find("trunk"), std::string::npos) << msg;
  EXPECT_NE(msg.find("switch_b"), std::string::npos) << msg;
}

TEST(DescSchema, IntegerAccessorsRejectFractionsAndOverflow) {
  const desc::Value v = desc::parse(
      R"({"frac": 1.5, "big": 1e300, "neg": -4, "u64": 18446744073709551615})");
  desc::Reader r(v, "");
  EXPECT_THROW((void)desc::Reader(r).intAt("frac"), desc::SchemaError);
  EXPECT_THROW((void)desc::Reader(r).intAt("big"), desc::SchemaError);
  EXPECT_THROW((void)desc::Reader(r).uintAt("neg"), desc::SchemaError);
  desc::Reader r2(v, "");
  EXPECT_EQ(r2.uintAt("u64"), 18446744073709551615ULL);
}

// ---- hw bindings: presets and validation -----------------------------------

TEST(DescHw, MachinePresetMatchesAccessor) {
  const hw::MachineConfig a = hw::machinePreset("deep-er");
  const hw::MachineConfig b = hw::MachineConfig::deepEr();
  EXPECT_EQ(desc::dump(hw::toDesc(a)), desc::dump(hw::toDesc(b)));
  const hw::MachineConfig c = hw::MachineConfig::deepEr(3, 0);
  const desc::Value d = hw::toDesc(c);
  // Count override propagated; zero-count booster group dropped entirely.
  EXPECT_EQ(desc::dump(d).find("\"bn\""), std::string::npos);
}

TEST(DescHw, MachineConfigRoundTripsThroughDescription) {
  for (const std::string& name : hw::machinePresetNames()) {
    const hw::MachineConfig cfg = hw::machinePreset(name);
    const std::string d1 = desc::dump(hw::toDesc(cfg));
    const desc::Value v = desc::parse(d1, "roundtrip:" + name);
    desc::Reader r(v, "");
    const hw::MachineConfig back = hw::machineConfigFromDesc(r);
    EXPECT_EQ(desc::dump(hw::toDesc(back)), d1) << name;
  }
}

TEST(DescHw, CpuPresetOverridesApply) {
  const desc::Value v = desc::parse(
      R"({"preset": "xeon-haswell", "cores": 4, "mem_bw_gbs": 100})");
  desc::Reader r(v, "cpu");
  const hw::CpuSpec s = hw::cpuSpecFromDesc(r);
  EXPECT_EQ(s.cores, 4);
  EXPECT_DOUBLE_EQ(s.memBwGBs, 100.0);
  // Untouched fields keep the preset's values.
  EXPECT_EQ(s.model, hw::cpuPreset("xeon-haswell").model);
}

TEST(DescHw, UnknownPresetNamesListKnownOnes) {
  const desc::Value v = desc::parse(R"("deep-err")");
  desc::Reader r(v, "machine");
  const std::string msg = errorOf([&] { (void)hw::machineConfigFromDesc(r); });
  EXPECT_NE(msg.find("deep-err"), std::string::npos) << msg;
  EXPECT_NE(msg.find("deep-er"), std::string::npos) << msg;
}

TEST(DescHw, ValidationNamesTheOffendingField) {
  // Trunk referencing a nonexistent switch.
  hw::MachineConfig cfg = hw::MachineConfig::deepEr(2, 1);
  cfg.trunks.push_back({0, 5, 12.5, sim::SimTime::ns(150)});
  std::string msg;
  try {
    cfg.validate();
  } catch (const std::invalid_argument& e) {
    msg = e.what();
  }
  EXPECT_NE(msg.find("trunks[0].switch_b"), std::string::npos) << msg;
  EXPECT_NE(msg.find("nonexistent switch"), std::string::npos) << msg;

  // Empty node group.
  cfg = hw::MachineConfig::deepEr(2, 1);
  cfg.groups[0].count = 0;
  try {
    cfg.validate();
    msg.clear();
  } catch (const std::invalid_argument& e) {
    msg = e.what();
  }
  EXPECT_NE(msg.find("groups[0]"), std::string::npos) << msg;
  EXPECT_NE(msg.find("count"), std::string::npos) << msg;

  // Negative bandwidth.
  cfg = hw::MachineConfig::deepEr(2, 1);
  cfg.switches[0].net.linkBandwidthGBs = -1.0;
  try {
    cfg.validate();
    msg.clear();
  } catch (const std::invalid_argument& e) {
    msg = e.what();
  }
  EXPECT_NE(msg.find("link_bandwidth_gbs"), std::string::npos) << msg;
}

TEST(DescHw, FromDescRunsValidation) {
  // A structurally well-formed description whose group points at a
  // nonexistent switch must be rejected at construction, not at use.
  const desc::Value v = desc::parse(R"({
    "name": "bad",
    "switches": [{"name": "s0", "net": "extoll-tourmalet"}],
    "groups": [
      {"kind": "cluster", "count": 2, "name_prefix": "cn",
       "cpu": "xeon-haswell", "switch_id": 5}
    ]
  })");
  desc::Reader r(v, "machine");
  std::string msg;
  try {
    (void)hw::machineConfigFromDesc(r);
    ADD_FAILURE() << "expected validation to reject the config";
  } catch (const std::invalid_argument& e) {
    msg = e.what();
  }
  EXPECT_NE(msg.find("switch_id 5"), std::string::npos) << msg;
}

// ---- xpic / fault bindings -------------------------------------------------

TEST(DescXpic, PresetStringAndOverridesWork) {
  const desc::Value v = desc::parse(R"({"preset": "tiny", "steps": 9})");
  desc::Reader r(v, "xpic");
  const xpic::XpicConfig c = xpic::xpicConfigFromDesc(r);
  EXPECT_EQ(c.steps, 9);
  EXPECT_EQ(c.nx, xpic::xpicPreset("tiny").nx);
  const std::string d1 = desc::dump(xpic::toDesc(c));
  desc::Reader r2(desc::parse(d1), "");
  const desc::Value v2 = desc::parse(d1);
  desc::Reader rr(v2, "");
  EXPECT_EQ(desc::dump(xpic::toDesc(xpic::xpicConfigFromDesc(rr))), d1);
}

// Values that would crash the run (a zero species count divides by zero,
// a huge time step throws particles out of the ghost ring) are rejected
// at the description, naming the path and the key.
TEST(DescXpic, RejectsOutOfRangeValues) {
  const std::pair<const char*, const char*> cases[] = {
      {R"({"nspec": 0})", "desc: xpic: nspec must be >= 1"},
      {R"({"mover_iterations": 0})", "desc: xpic: mover_iterations must be >= 1"},
      {R"({"dt": 0})", "desc: xpic: dt must be finite and > 0"},
      {R"({"dt": -0.1})", "desc: xpic: dt must be finite and > 0"},
      {R"({"lx": 0})", "desc: xpic: lx must be finite and > 0"},
      {R"({"ly": -25.6})", "desc: xpic: ly must be finite and > 0"},
      {R"({"mass_ratio": 0})", "desc: xpic: mass_ratio must be finite and > 0"},
  };
  for (const auto& [text, expected] : cases) {
    const desc::Value v = desc::parse(text);
    desc::Reader r(v, "xpic");
    EXPECT_EQ(errorOf([&] { (void)xpic::xpicConfigFromDesc(r); }), expected)
        << text;
  }
}

TEST(DescFault, PlanRoundTripsWindows) {
  const char* text = R"({
    "drop_prob": 0.01,
    "endpoint_windows": [
      {"endpoint": 1, "from_sec": 0.05, "until_sec": 0.2, "bw_factor": 0.35},
      {"endpoint": 1, "from_sec": 0.08, "until_sec": 0.082, "bw_factor": 0}
    ],
    "trunk_windows": [
      {"trunk": 0, "from_sec": 0.1, "until_sec": 0.3, "bw_factor": 0.5}
    ]
  })";
  const desc::Value v = desc::parse(text);
  desc::Reader r(v, "fault_plan");
  const fault::FaultPlan p = fault::faultPlanFromDesc(r);
  const std::string d1 = desc::dump(fault::toDesc(p));
  const desc::Value v2 = desc::parse(d1);
  desc::Reader r2(v2, "fault_plan");
  EXPECT_EQ(desc::dump(fault::toDesc(fault::faultPlanFromDesc(r2))), d1);
}

TEST(DescFault, RejectsInvalidWindows) {
  const desc::Value v = desc::parse(
      R"({"endpoint_windows": [
            {"endpoint": 1, "from_sec": 0.2, "until_sec": 0.1, "bw_factor": 0.5}
          ]})");
  desc::Reader r(v, "fault_plan");
  EXPECT_THROW((void)fault::faultPlanFromDesc(r), desc::SchemaError);
}

// ---- Campaign layer --------------------------------------------------------

TEST(DescCampaign, BuiltinTextsMatchTheRuntimeCampaigns) {
  for (const std::string& name : campaign::builtinCampaignNames()) {
    const campaign::Campaign c = campaign::builtinCampaign(name);
    EXPECT_EQ(c.name, name);
    EXPECT_FALSE(c.scenarios.empty()) << name;
  }
  // fig8 grid shape: 4 node counts x 3 modes.
  EXPECT_EQ(campaign::builtinCampaign("fig8").scenarios.size(), 12u);
  // resilience grid: 3 schemes x 4 MTBFs (tiny: 3 x 2).
  EXPECT_EQ(campaign::builtinCampaign("resilience").scenarios.size(), 12u);
  EXPECT_EQ(campaign::builtinCampaign("resilience-tiny").scenarios.size(), 6u);
}

TEST(DescCampaign, SpecRoundTripsByteIdentically) {
  for (const std::string& name : campaign::builtinCampaignNames()) {
    const campaign::CampaignSpec spec = campaign::campaignSpecFromDescText(
        campaign::builtinCampaignText(name), "builtin:" + name);
    const std::string d1 = desc::dump(campaign::toDesc(spec));
    const campaign::CampaignSpec spec2 =
        campaign::campaignSpecFromDescText(d1, "dump:" + name);
    const std::string d2 = desc::dump(campaign::toDesc(spec2));
    EXPECT_EQ(d1, d2) << name;
    // The expanded dump builds the same campaign as the original text.
    const campaign::Campaign a = campaign::buildCampaign(spec);
    const campaign::Campaign b = campaign::buildCampaign(spec2);
    ASSERT_EQ(a.scenarios.size(), b.scenarios.size()) << name;
    for (std::size_t i = 0; i < a.scenarios.size(); ++i) {
      EXPECT_EQ(a.scenarios[i].name, b.scenarios[i].name);
    }
    EXPECT_EQ(a.baseSeed, b.baseSeed);
  }
}

TEST(DescCampaign, CommittedDumpsAreCurrent) {
  // tests/desc/dumps/<name>.json are the canonical expansions the CLI's
  // --dump prints; CI diffs them, this test regenerates and compares.
  for (const std::string& name : campaign::builtinCampaignNames()) {
    const campaign::CampaignSpec spec = campaign::campaignSpecFromDescText(
        campaign::builtinCampaignText(name), "builtin:" + name);
    const std::string expect = desc::dump(campaign::toDesc(spec));
    const std::string committed =
        slurp(std::string(CBSIM_DESC_DUMPS_DIR) + "/" + name + ".json");
    EXPECT_EQ(committed, expect)
        << "stale committed dump for " << name
        << "; regenerate with: cbsim campaign --campaign " << name
        << " --dump";
  }
}

TEST(DescCampaign, UnknownKindAndKeysAreRejected) {
  EXPECT_THROW((void)campaign::campaignSpecFromDescText(
                   R"({"campaign": "fig9"})", "t"),
               desc::SchemaError);
  const std::string msg = errorOf([] {
    (void)campaign::campaignSpecFromDescText(
        R"({"campaign": "fig8", "fig8": {"node_count": [1]}})", "t");
  });
  EXPECT_NE(msg.find("node_count"), std::string::npos) << msg;
  // Params for the wrong family are unknown keys, not silently ignored.
  EXPECT_THROW((void)campaign::campaignSpecFromDescText(
                   R"({"campaign": "fig8", "resilience": {}})", "t"),
               desc::SchemaError);
}

TEST(DescCampaign, ExamplesParseValidateAndBuild) {
  const std::vector<std::string> files = {
      "table1-fig8.json", "scaled-64x64.json", "degraded-fabric-sweep.json",
      "fat-tree-16k.json"};
  for (const std::string& f : files) {
    const std::string path = std::string(CBSIM_EXAMPLES_DESC_DIR) + "/" + f;
    const campaign::CampaignSpec spec =
        campaign::campaignSpecFromDescText(slurp(path), path);
    const campaign::Campaign c = campaign::buildCampaign(spec);
    EXPECT_FALSE(c.scenarios.empty()) << f;
    // Example files round-trip through the canonical form too.
    const std::string d1 = desc::dump(campaign::toDesc(spec));
    const campaign::CampaignSpec spec2 =
        campaign::campaignSpecFromDescText(d1, "dump:" + f);
    EXPECT_EQ(desc::dump(campaign::toDesc(spec2)), d1) << f;
  }
}

}  // namespace
