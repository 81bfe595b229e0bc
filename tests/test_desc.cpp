// Description-layer tests: strict-parser corpus (malformed input must
// fail with a located error), canonical-dump round trips, schema
// unknown-key/path reporting, preset equivalence, the builtin-campaign
// registry (embedded text == committed canonical dump), and the
// examples/desc files shipped with the repo.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "campaign/builtin.hpp"
#include "campaign/desc.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "chaos/fuzz.hpp"
#include "chaos/profile.hpp"
#include "desc/json.hpp"
#include "desc/schema.hpp"
#include "extoll/desc.hpp"
#include "fault/desc.hpp"
#include "hw/desc.hpp"
#include "mc/desc.hpp"
#include "mc/trace.hpp"
#include "pmpi/desc.hpp"
#include "scr/desc.hpp"
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

/// Binds `text` at the root with `FromDesc`.
template <auto FromDesc>
void bindText(const std::string& text) {
  const desc::Value v = desc::parse(text);
  desc::Reader r(v, "");
  (void)FromDesc(r);
}

// An integer key of an int field used to wrap silently: "ranks": 4294967298
// (2^32 + 2) validated as 2 ranks.  Every binder now fails naming the key.
TEST(DescSchema, IntKeysBeyondIntRangeFailByName) {
  const std::tuple<void (*)(const std::string&), const char*, const char*>
      cases[] = {
          {bindText<hw::machineConfigFromDesc>,
           R"({"preset": "deep-er", "cluster_nodes": 4294967298})",
           "cluster_nodes"},
          {bindText<campaign::campaignSpecFromDesc>,
           R"({"campaign": "fig8", "fig8": {"node_counts": [4294967298]}})",
           "fig8.node_counts[0]"},
          {bindText<xpic::xpicConfigFromDesc>, R"({"steps": 4294967298})",
           "steps"},
          {bindText<scr::scrConfigFromDesc>, R"({"local_every": 4294967298})",
           "local_every"},
          {bindText<pmpi::protocolParamsFromDesc>,
           R"({"retransmit_budget": 4294967298})", "retransmit_budget"},
          {[](const std::string& t) {
             const desc::Value v = desc::parse(t);
             desc::Reader r(v, "");
             (void)fault::faultPlanFromDesc(r);
           },
           R"({"node_crashes": [{"node": 4294967298}]})",
           "node_crashes[0].node"},
          {bindText<mc::scenarioFromDesc>,
           R"({"family": "message-race", "senders": 4294967298})", "senders"},
          {[](const std::string& t) { (void)mc::parseTrace(t, "trace"); },
           R"({"version": 1, "scenario": "s", "choices": [4294967298]})",
           "trace.choices[0]"},
          {bindText<chaos::profileFromDesc>,
           R"({"storm_min_size": 4294967298})", "storm_min_size"},
          {[](const std::string& t) { (void)chaos::chaosSpecFromDescText(t, "c"); },
           R"({"chaos": {"trials": 4294967298}})", "c.chaos.trials"},
      };
  for (const auto& [bind, text, path] : cases) {
    const std::string msg = errorOf([&] { bind(text); });
    EXPECT_NE(msg.find(std::string("desc: ") + path +
                       ": integer 4294967298 out of int range"),
              std::string::npos)
        << msg;
  }
}

/// Binds `text` as a fault plan without a machine context.
void bindFaultPlan(const std::string& text) {
  const desc::Value v = desc::parse(text);
  desc::Reader r(v, "");
  (void)fault::faultPlanFromDesc(r);
}

/// Binds each case's text, with `%` replaced by every value of `bad`, and
/// expects the error to name the case's key path and the rejected value.
void expectTimeKeysFailByName(
    void (*bind)(const std::string&),
    const std::vector<std::pair<std::string, std::string>>& cases,
    const std::vector<std::string>& bad) {
  for (const auto& [text, path] : cases) {
    for (const std::string& v : bad) {
      std::string t = text;
      t.replace(t.find('%'), 1, v);
      const std::string msg = errorOf([&] { bind(t); });
      EXPECT_NE(msg.find("desc: " + path + ": time " +
                         desc::formatNumber(std::stod(v)) + " out of range"),
                std::string::npos)
          << t << ": " << msg;
    }
  }
}

// A time key used to wrap silently: 1e300 ns rounded to INT64_MIN ps and
// validated, and a negative latency validated, then failed every scenario
// with an engine error.  Each of hw's ten time keys now fails naming the
// key, past 2^63 ps (9.2e15 ns) as below zero.
TEST(DescHw, TimeKeysOutOfRangeFailByName) {
  expectTimeKeysFailByName(
      [](const std::string& t) {
        const desc::Value v = desc::parse(t);
        desc::Reader r(v, "");
        (void)hw::machineConfigFromDesc(r);
      },
      {
          {R"({"switches": [{"net": {"nic_latency_ns": %}}], "groups": []})",
           "switches[0].net.nic_latency_ns"},
          {R"({"switches": [{"net": {"switch_latency_ns": %}}], "groups": []})",
           "switches[0].net.switch_latency_ns"},
          {R"({"switches": [{"net": {"wire_latency_ns": %}}], "groups": []})",
           "switches[0].net.wire_latency_ns"},
          {R"({"switches": [], "groups": [{"kind": "cluster", "count": 1,
               "name_prefix": "n", "cpu": "xeon-haswell",
               "nvme": {"latency_ns": %}}]})",
           "groups[0].nvme.latency_ns"},
          {R"({"switches": [], "groups": [{"kind": "cluster", "count": 1,
               "name_prefix": "n", "cpu": "xeon-haswell",
               "disk": {"latency_ns": %}}]})",
           "groups[0].disk.latency_ns"},
          {R"({"switches": [], "groups": [{"kind": "cluster", "count": 1,
               "name_prefix": "n", "cpu": "xeon-haswell",
               "mpi_sw_overhead_ns": %}]})",
           "groups[0].mpi_sw_overhead_ns"},
          {R"({"switches": [], "groups": [],
               "trunks": [{"switch_a": 0, "switch_b": 1, "latency_ns": %}]})",
           "trunks[0].latency_ns"},
          {R"({"switches": [], "groups": [], "nams": [{"access_latency_ns": %}]})",
           "nams[0].access_latency_ns"},
          {R"({"topology": {"kind": "dragonfly", "trunk_latency_ns": %}})",
           "topology.trunk_latency_ns"},
          {R"({"topology": {"kind": "dragonfly", "mpi_sw_overhead_ns": %}})",
           "topology.mpi_sw_overhead_ns"},
      },
      {"1e300", "-1000", "-1e-9", "9.3e15"});

  // Just below 2^63 ps still reads exactly.
  const desc::Value v = desc::parse(R"({"nic_latency_ns": 9.2e15})");
  desc::Reader r(v, "");
  EXPECT_EQ(hw::netClassSpecFromDesc(r).nicLatency.picos(),
            std::int64_t{9'200'000'000'000'000'000});
}

// The pmpi binder's four `_us` keys: `"retransmit_timeout_us": 1e300`
// failed every resilience scenario at run time, and `"retransmit_cap_us":
// -1` ran silently.
TEST(DescPmpi, TimeKeysOutOfRangeFailByName) {
  expectTimeKeysFailByName(bindText<pmpi::protocolParamsFromDesc>,
                           {
                               {R"({"spawn_base_us": %})", "spawn_base_us"},
                               {R"({"spawn_per_proc_us": %})",
                                "spawn_per_proc_us"},
                               {R"({"retransmit_timeout_us": %})",
                                "retransmit_timeout_us"},
                               {R"({"retransmit_cap_us": %})",
                                "retransmit_cap_us"},
                           },
                           {"1e300", "-1", "-1e-9", "9.3e12"});
}

// header_bytes, ctrl_msg_bytes and ack_bytes are wire sizes: -1e9 used to
// validate, then fail scenarios with "Engine: callback at t=... is before
// now", and 1e300 wrapped arrival times.  Each must be finite, >= 0 and
// within pmpi's 4 GiB message limit.
TEST(DescPmpi, WireSizeKeysOutOfRangeFailByName) {
  for (const std::string key : {"header_bytes", "ctrl_msg_bytes", "ack_bytes"}) {
    for (const std::string v : {"-1e9", "-1e12", "-1", "1e300", "4294967296"}) {
      const std::string text = "{\"" + key + "\": " + v + "}";
      const std::string msg = errorOf(
          [&] { bindText<pmpi::protocolParamsFromDesc>(text); });
      EXPECT_NE(msg.find(key + " must be finite, >= 0 and at most 4294967295"),
                std::string::npos)
          << text << ": " << msg;
    }
    for (const std::string v : {"0", "4294967295"}) {
      EXPECT_NO_THROW(bindText<pmpi::protocolParamsFromDesc>(
          "{\"" + key + "\": " + v + "}"))
          << key << " " << v;
    }
  }
}

// The `_sec` keys of campaigns and mc scenarios stay doubles, but were
// unchecked above: `"step_sec": 1e300` validated, then failed every
// scenario at run time with an engine error naming neither key nor value.
// Each now fails naming its path once its picosecond count reaches 2^63
// (9.3e6 s).  Just below that every key still reads as written, and each
// keeps its own lower bound (`repair_sec` <= 0 still disables repair).
// `mtbf_sec` is left out: an MTBF is the mean of a failure draw, not a
// time the run schedules, and the A4 ablations' 1e9 s means "no failure".
TEST(DescSchema, SecondsKeysOutOfRangeFailByName) {
  using Cases = std::vector<std::pair<std::string, std::string>>;
  const std::pair<void (*)(const std::string&), Cases> groups[] = {
      {bindText<campaign::haloParamsFromDesc>,
       {{R"({"compute_sec": %})", "compute_sec"}}},
      {bindText<campaign::resilienceParamsFromDesc>,
       {{R"({"step_sec": %})", "step_sec"},
        {R"({"degrade_from_sec": %})", "degrade_from_sec"},
        {R"({"degrade_until_sec": %})", "degrade_until_sec"},
        {R"({"flap_from_sec": %})", "flap_from_sec"},
        {R"({"flap_until_sec": %})", "flap_until_sec"},
        {R"({"repair_sec": %})", "repair_sec"},
        {R"({"first_failure_at_sec": %})", "first_failure_at_sec"},
        {R"({"restart_delay_sec": %})", "restart_delay_sec"}}},
      {bindText<mc::scenarioFromDesc>,
       {{R"({"family": "checkpoint-restart", "drain_sec": %})", "drain_sec"},
        {R"({"family": "checkpoint-restart", "step_sec": %})", "step_sec"},
        {R"({"family": "checkpoint-restart", "repair_sec": %})", "repair_sec"},
        {R"({"family": "checkpoint-restart", "fail_at_sec": %})",
         "fail_at_sec"},
        {R"({"family": "checkpoint-restart", "fault_quantum_sec": %})",
         "fault_quantum_sec"},
        {R"({"family": "checkpoint-restart", "restart_delay_sec": %})",
         "restart_delay_sec"}}},
      // A crash at 1e300 s ran clean, never injected; windows that far out
      // failed as "window must end after it starts".
      {bindFaultPlan,
       {{R"({"endpoint_windows": [{"endpoint": 0, "from_sec": %,
             "until_sec": 9.21e6}]})",
         "endpoint_windows[0].from_sec"},
        {R"({"trunk_windows": [{"trunk": 0, "from_sec": 0, "until_sec": %}]})",
         "trunk_windows[0].until_sec"},
        {R"({"node_crashes": [{"node": 0, "at_sec": %,
             "restart_after_sec": 1}]})",
         "node_crashes[0].at_sec"},
        {R"({"node_crashes": [{"node": 0, "at_sec": 0,
             "restart_after_sec": %}]})",
         "node_crashes[0].restart_after_sec"}}},
      // A 1e7 s horizon exhausted memory drawing faults under --validate.
      {bindText<chaos::profileFromDesc>,
       {{R"({"horizon_sec": %})", "horizon_sec"},
        {R"({"window_min_sec": %, "window_max_sec": 9.21e6})",
         "window_min_sec"},
        {R"({"window_max_sec": %})", "window_max_sec"},
        {R"({"crash_restart_min_sec": %, "crash_restart_max_sec": 9.21e6})",
         "crash_restart_min_sec"},
        {R"({"crash_restart_max_sec": %})", "crash_restart_max_sec"},
        {R"({"storm_span_sec": %})", "storm_span_sec"}}},
  };
  for (const auto& [bind, cases] : groups) {
    expectTimeKeysFailByName(bind, cases, {"1e300", "9.3e6"});
    for (const auto& [text, path] : cases) {
      std::string t = text;
      t.replace(t.find('%'), 1, "9.2e6");
      EXPECT_NO_THROW(bind(t)) << path;
    }
  }

  // A crash in the simulated past is rejected at parse time too.
  EXPECT_NE(errorOf([] {
              bindFaultPlan(R"({"node_crashes": [{"node": 0, "at_sec": -1,
                                "restart_after_sec": 1}]})");
            }).find("desc: node_crashes[0]: at_sec must be >= 0"),
            std::string::npos);

  const desc::Value v = desc::parse(R"({"step_sec": 9.2e6, "repair_sec": -1})");
  desc::Reader r(v, "");
  const campaign::ResilienceParams p = campaign::resilienceParamsFromDesc(r);
  EXPECT_EQ(p.stepSec, 9.2e6);
  EXPECT_EQ(p.repairSec, -1.0);
  EXPECT_NE(errorOf([] {
              bindText<campaign::resilienceParamsFromDesc>(R"({"step_sec": 0})");
            }).find("step_sec must be > 0"),
            std::string::npos);
}

// mc's message-race delays are microseconds kept as doubles, and were read
// unchecked: `"recv_warmup_us": 1e300` validated, then the run failed with
// a negative delay naming neither key nor value.  Both keys now fail by
// path once their picosecond count reaches 2^63 (about 9.22e12 us); just
// below that they read as written.
TEST(DescSchema, McMicrosKeysOutOfRangeFailByName) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {R"({"family": "message-race", "recv_warmup_us": %})", "recv_warmup_us"},
      {R"({"family": "message-race", "recv_work_us": %})", "recv_work_us"},
  };
  expectTimeKeysFailByName(bindText<mc::scenarioFromDesc>, cases,
                           {"1e300", "9.3e12"});
  for (const auto& [text, path] : cases) {
    std::string t = text;
    t.replace(t.find('%'), 1, "9.2e12");
    EXPECT_NO_THROW(bindText<mc::scenarioFromDesc>(t)) << path;
  }
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
  // Structurally well-formed descriptions of an invalid machine must be
  // rejected at construction, not at use: a group on a nonexistent switch,
  // and a negative count override (setGroupCount would delete the group).
  const std::pair<const char*, const char*> cases[] = {
      {R"({
        "name": "bad",
        "switches": [{"name": "s0", "net": "extoll-tourmalet"}],
        "groups": [
          {"kind": "cluster", "count": 2, "name_prefix": "cn",
           "cpu": "xeon-haswell", "switch_id": 5}
        ]
      })",
       "switch_id 5"},
      {R"({"preset": "deep-er", "cluster_nodes": -5})",
       "desc: machine: cluster_nodes must be >= 0"},
  };
  for (const auto& [text, expected] : cases) {
    const desc::Value v = desc::parse(text);
    desc::Reader r(v, "machine");
    try {
      (void)hw::machineConfigFromDesc(r);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const std::exception& e) {
      EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
          << e.what();
    }
  }
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
      // theta = 0 would otherwise fail the run as a NaN particle position.
      {R"({"theta": 0})", "desc: xpic: theta must be finite and > 0"},
      {R"({"theta": -0.5})", "desc: xpic: theta must be finite and > 0"},
      // A negative interface size would otherwise wrap the simulated clock.
      {R"({"interface_doubles_per_cell": -1})",
       "desc: xpic: interface_doubles_per_cell must be finite and >= 0"},
      // A staging delay used to fail every scenario at run time instead.
      {R"({"output_staging_us": -1})",
       "desc: xpic: output_staging_us must be >= 0"},
      {R"({"output_staging_us": 1e300})",
       "desc: xpic.output_staging_us: time 1e+300 out of range (must be "
       "below 2^63 picoseconds)"},
      {R"({"output_staging_us": 9.3e12})",
       "desc: xpic.output_staging_us: time 9300000000000 out of range (must "
       "be below 2^63 picoseconds)"},
  };
  for (const auto& [text, expected] : cases) {
    const desc::Value v = desc::parse(text);
    desc::Reader r(v, "xpic");
    EXPECT_EQ(errorOf([&] { (void)xpic::xpicConfigFromDesc(r); }), expected)
        << text;
  }
  // No padding is a valid interface: the packed arrays alone.
  const desc::Value zero = desc::parse(R"({"interface_doubles_per_cell": 0})");
  desc::Reader r(zero, "xpic");
  EXPECT_EQ(xpic::xpicConfigFromDesc(r).interfaceDoublesPerCell, 0.0);
}

// An interface size the description accepts can still ask for a wire size
// past std::size_t once multiplied by a block's cells: each C+B world
// must fail with that error by name, not convert the size to size_t
// (undefined behaviour) and run on.
TEST(DescXpic, InterfaceWireSizeBeyondSizeTFailsByName) {
  campaign::CampaignSpec spec = campaign::campaignSpecFromDescText(
      campaign::builtinCampaignText("fig8-tiny"), "fig8-tiny");
  spec.fig8.xpic.interfaceDoublesPerCell = 1e300;
  const campaign::CampaignReport rep = campaign::runCampaign(
      campaign::buildCampaign(spec), campaign::withJobs(2));
  int failed = 0;
  for (const auto& s : rep.scenarios) {
    if (s.name.find("/C+B/") == std::string::npos) {
      EXPECT_TRUE(s.error.empty()) << s.name << ": " << s.error;
      continue;
    }
    EXPECT_NE(s.error.find("xpic: interface wire size of "), std::string::npos)
        << s.name << ": " << s.error;
    EXPECT_NE(s.error.find("(interface_doubles_per_cell 1e+300 x "),
              std::string::npos)
        << s.name << ": " << s.error;
    EXPECT_NE(s.error.find(" cells) does not fit std::size_t"),
              std::string::npos)
        << s.name << ": " << s.error;
    ++failed;
  }
  EXPECT_EQ(failed, 4);
  EXPECT_EQ(rep.failedCount(), 4);
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
  // The message names the file the key is in, and the path inside it.
  const std::string msg = errorOf([] {
    (void)campaign::campaignSpecFromDescText(
        R"({"campaign": "fig8", "fig8": {"node_cuont": [1]}})", "bad.json");
  });
  EXPECT_NE(msg.find("desc: bad.json.fig8: unknown key \"node_cuont\""),
            std::string::npos)
      << msg;
  // The route memo's cap is a constant, not a key.
  const std::string cap = errorOf([] {
    (void)campaign::campaignSpecFromDescText(
        R"({"campaign": "halo", "halo": {"fabric": {"route_cache_cap": 1}}})",
        "t");
  });
  EXPECT_NE(cap.find("desc: t.halo.fabric: unknown key \"route_cache_cap\""),
            std::string::npos)
      << cap;
  // Params for the wrong family are unknown keys, not silently ignored.
  EXPECT_THROW((void)campaign::campaignSpecFromDescText(
                   R"({"campaign": "fig8", "resilience": {}})", "t"),
               desc::SchemaError);
}

// The resilience app evolves state[0] every step, and the supervisor
// schedules each relaunch restart_delay_sec ahead: both must be rejected
// at parse time, by key, instead of crashing or failing every scenario.
TEST(DescCampaign, ResilienceRejectsEmptyState) {
  const std::string msg = errorOf([] {
    (void)campaign::campaignSpecFromDescText(
        R"({"campaign": "resilience", "resilience": {"state_bytes": 0}})", "t");
  });
  EXPECT_NE(msg.find("resilience: state_bytes must be >= 1"), std::string::npos)
      << msg;
}

TEST(DescCampaign, ResilienceRejectsNegativeRestartDelay) {
  const std::string msg = errorOf([] {
    (void)campaign::campaignSpecFromDescText(
        R"({"campaign": "resilience",
            "resilience": {"restart_delay_sec": -1}})",
        "t");
  });
  EXPECT_NE(msg.find("resilience: restart_delay_sec must be >= 0"),
            std::string::npos)
      << msg;
}

// A halo travels as one pmpi message, whose length is 32-bit: a longer
// halo_bytes fails at parse time by key path, not at every rank's first
// send; the limit itself is accepted.
TEST(DescCampaign, HaloBytesPastTheMessageLimitFailByName) {
  const auto halo = [](const std::string& bytes) {
    return campaign::campaignSpecFromDescText(
        R"({"campaign": "halo", "halo": {"halo_bytes": )" + bytes + "}}", "t");
  };
  const std::string msg = errorOf([&] { (void)halo("4294967296"); });
  EXPECT_NE(msg.find("t.halo.halo_bytes: 4294967296 bytes exceeds pmpi's "
                     "4 GiB message limit (at most 4294967295)"),
            std::string::npos)
      << msg;
  EXPECT_NO_THROW((void)halo("4294967295"));
}

// A resilience fault_plan is read against the params' machine, as mc's
// fault is: names resolve, unknown ones are rejected by path, and the
// dump keeps the index form.
TEST(DescCampaign, ResilienceFaultPlanResolvesNamedTargets) {
  const auto withEndpoint = [](const std::string& endpoint) {
    return R"({"campaign": "resilience", "resilience": {"machine": "deep-er",
        "fault_plan": {"endpoint_windows": [{"endpoint": )" +
           endpoint +
           R"(, "from_sec": 0.001, "until_sec": 0.002, "bw_factor": 0.5}]}}})";
  };
  const campaign::CampaignSpec named =
      campaign::campaignSpecFromDescText(withEndpoint("\"cn01\""), "t");
  const campaign::CampaignSpec indexed =
      campaign::campaignSpecFromDescText(withEndpoint("1"), "t");
  const std::string dump = desc::dump(campaign::toDesc(named));
  EXPECT_EQ(dump, desc::dump(campaign::toDesc(indexed)));
  EXPECT_NE(dump.find("\"endpoint\": 1,"), std::string::npos) << dump;
  EXPECT_EQ(campaign::buildCampaign(named).scenarios.size(), 12u);

  const std::string msg = errorOf([&] {
    (void)campaign::campaignSpecFromDescText(withEndpoint("\"cn99\""), "t");
  });
  EXPECT_NE(msg.find("t.resilience.fault_plan.endpoint_windows[0].endpoint: "
                     "\"cn99\" does not name anything in machine"),
            std::string::npos)
      << msg;
}

// Without a machine the plan resolves against the DEEP-ER default the grid
// runs on (ranks + spare_nodes Cluster nodes), as if that machine had been
// named; a name past the default's Cluster nodes is rejected by path.
TEST(DescCampaign, ResilienceFaultPlanNamesResolveOnTheDefaultMachine) {
  const auto withEndpoint = [](const std::string& machine,
                               const std::string& endpoint) {
    return R"({"campaign": "resilience", "resilience": {"ranks": 3,
        "spare_nodes": 2, )" +
           machine + R"("fault_plan": {"endpoint_windows": [{"endpoint": )" +
           endpoint +
           R"(, "from_sec": 0.001, "until_sec": 0.002, "bw_factor": 0.5}]}}})";
  };
  const campaign::CampaignSpec named =
      campaign::campaignSpecFromDescText(withEndpoint("", "\"cn04\""), "t");
  const campaign::CampaignSpec indexed =
      campaign::campaignSpecFromDescText(withEndpoint("", "4"), "t");
  const std::string dump = desc::dump(campaign::toDesc(named));
  EXPECT_EQ(dump, desc::dump(campaign::toDesc(indexed)));
  EXPECT_NE(dump.find("\"endpoint\": 4,"), std::string::npos) << dump;
  EXPECT_EQ(dump.find("\"machine\""), std::string::npos) << dump;
  EXPECT_EQ(campaign::buildCampaign(named).scenarios.size(), 12u);

  const std::string msg = errorOf([&] {
    (void)campaign::campaignSpecFromDescText(withEndpoint("", "\"cn05\""),
                                             "t");
  });
  EXPECT_NE(msg.find("t.resilience.fault_plan.endpoint_windows[0].endpoint: "
                     "\"cn05\" does not name anything in machine"),
            std::string::npos)
      << msg;
  // The full preset has a cn05.
  EXPECT_NO_THROW((void)campaign::campaignSpecFromDescText(
      withEndpoint(R"("machine": "deep-er", )", "\"cn05\""), "t"));
}

// What a run would reject fails when the campaign is built, which
// --validate does too: a grid that repeats a scenario name, or a machine
// without the nodes the grid places ranks on.
TEST(DescCampaign, BuildRejectsWhatARunWould) {
  const std::pair<const char*, const char*> cases[] = {
      {R"({"campaign": "fig8", "fig8": {"xpic": "tiny", "node_counts": [1, 2, 2]}})",
       "duplicate scenario name 'fig8/Cluster/n2'"},
      {R"({"campaign": "resilience", "resilience": {"mtbf_sec": [1, 1.0]}})",
       "duplicate scenario name 'resilience/L1/mtbf1s'"},
      {R"({"campaign": "pingpong", "pingpong": {"machine": {"preset": "deep-er", "booster_nodes": 1}}})",
       "at least 2 Cluster and 2 Booster nodes"},
      {R"({"campaign": "fig8", "fig8": {"xpic": "tiny", "node_counts": [16]}})",
       "fig8: node count 16 needs 16 Cluster and 16 Booster nodes, the "
       "machine has 16 and 8"},
      {R"({"campaign": "resilience", "resilience": {"machine": "deep-er", "ranks": 20}})",
       "resilience: 20 ranks need as many Cluster nodes, the machine has 16"},
      {R"({"campaign": "halo", "halo": {"rank_counts": [16, 65]}})",
       "halo: 65 ranks need as many Cluster nodes, the machine has 64"},
  };
  for (const auto& [text, expected] : cases) {
    const campaign::CampaignSpec spec =
        campaign::campaignSpecFromDescText(text, "t");
    try {
      (void)campaign::buildCampaign(spec);
      ADD_FAILURE() << "built: " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
          << e.what();
    }
  }
}

TEST(DescCampaign, ExamplesParseValidateAndBuild) {
  std::vector<std::string> files;
  for (const auto& e :
       std::filesystem::directory_iterator(CBSIM_EXAMPLES_DESC_DIR)) {
    if (e.path().extension() == ".json") files.push_back(e.path().filename());
  }
  // The paper-platform, scale, fault-sweep and ablation descriptions.
  EXPECT_GE(files.size(), 17u);
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
