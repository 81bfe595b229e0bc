// Builtin campaign registry.  Each builtin is nothing but an embedded
// description string, parsed through the exact same campaign desc
// bindings that handle --scenario-file — there is no second construction
// path, so a builtin can never do something a description file cannot.
// The grid builders the descriptions resolve to live in grids.cpp.

#include "campaign/builtin.hpp"

#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/desc.hpp"

namespace cbsim::campaign {

namespace {

struct BuiltinEntry {
  const char* name;
  const char* text;
};

constexpr const char* kFig3Text = R"json({
  "campaign": "pingpong",
  "name": "fig3"
})json";

constexpr const char* kFig8Text = R"json({
  "campaign": "fig8",
  "fig8": {
    "xpic": "table-ii",
    "machine": "deep-er",
    "node_counts": [1, 2, 4, 8]
  }
})json";

constexpr const char* kFig8TinyText = R"json({
  "campaign": "fig8",
  "name": "fig8-tiny",
  "description": "xPic strong scaling (paper Fig. 8): execution mode x nodes per solver, one isolated world per cell (tiny test workload)",
  "fig8": {
    "xpic": "tiny",
    "machine": "deep-er",
    "node_counts": [1, 2, 4, 8]
  }
})json";

constexpr const char* kResilienceText = R"json({
  "campaign": "resilience",
  "resilience": {
    "mtbf_sec": [0.25, 0.5, 1, 2]
  }
})json";

constexpr const char* kResilienceTinyText = R"json({
  "campaign": "resilience",
  "name": "resilience-tiny",
  "description": "DEEP-ER-style resiliency matrix: node MTBF x SCR checkpoint-level scheme under exponential failure injection (tiny smoke grid)",
  "resilience": {
    "mtbf_sec": [0.3, 1],
    "ranks": 3,
    "steps": 12,
    "drop_prob": 0.01
  }
})json";

constexpr const char* kHaloText = R"json({
  "campaign": "halo"
})json";

constexpr const char* kHaloTinyText = R"json({
  "campaign": "halo",
  "name": "halo-tiny",
  "description": "2D halo-exchange stencil swept over rank counts on a generated fabric; routing mode and congestion model are parameters (tiny smoke grid)",
  "halo": {
    "machine": {
      "name": "halo-tiny-fat-tree",
      "topology": {
        "kind": "fat-tree",
        "pods": 4,
        "spines": 2,
        "nodes_per_pod": 4,
        "cpu": "xeon-haswell"
      }
    },
    "rank_counts": [4, 8],
    "steps": 4,
    "allreduce_every": 2
  }
})json";

constexpr BuiltinEntry kBuiltins[] = {
    {"fig3", kFig3Text},
    {"fig8", kFig8Text},
    {"fig8-tiny", kFig8TinyText},
    {"resilience", kResilienceText},
    {"resilience-tiny", kResilienceTinyText},
    {"halo", kHaloText},
    {"halo-tiny", kHaloTinyText},
};

}  // namespace

const char* builtinCampaignText(const std::string& name) {
  for (const BuiltinEntry& e : kBuiltins) {
    if (name == e.name) return e.text;
  }
  std::string known;
  for (const BuiltinEntry& e : kBuiltins) {
    if (!known.empty()) known += ", ";
    known += e.name;
  }
  throw std::invalid_argument("unknown campaign '" + name +
                              "'; known: " + known);
}

Campaign builtinCampaign(const std::string& name) {
  const char* text = builtinCampaignText(name);
  return buildCampaign(campaignSpecFromDescText(text, "builtin:" + name));
}

std::vector<std::string> builtinCampaignNames() {
  std::vector<std::string> names;
  for (const BuiltinEntry& e : kBuiltins) names.emplace_back(e.name);
  return names;
}

}  // namespace cbsim::campaign
