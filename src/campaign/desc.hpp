#pragma once

// Description bindings for whole campaigns.  A CampaignSpec is the fully
// resolved, declarative form of one experiment: which grid family to
// build (fig8, resilience, halo or pingpong), the campaign's
// name/description/seed, and every parameter of the chosen family —
// platform, workload, fault plan, protocol and checkpoint schemes included.
//
// This is the single construction path: the builtin campaigns are
// embedded description strings parsed through campaignSpecFromDescText,
// and --scenario-file feeds user files through the very same functions.
//
// Top-level schema:
//   {
//     "campaign": "fig8" | "resilience" | "halo" | "pingpong",
//     "name": "fig8",                // optional; defaults per family
//     "description": "...",         // optional; defaults per family
//     "base_seed": 11400714819323198485,   // optional
//     "fig8": { ... }               // params object matching "campaign"
//     // or "resilience", "halo" or "pingpong": { ... }
//   }
//
// toDesc(spec) emits everything fully expanded (presets resolved, all
// defaults materialised), so dump(toDesc(parse(text))) is a canonical
// form that round-trips byte-identically.

#include <cstdint>
#include <string>

#include "campaign/builtin.hpp"
#include "campaign/scenario.hpp"
#include "desc/schema.hpp"

namespace cbsim::campaign {

struct CampaignSpec {
  std::string kind;  ///< "fig8", "resilience", "halo" or "pingpong"
  std::string name;         ///< resolved campaign name
  std::string description;  ///< resolved one-line description
  std::uint64_t baseSeed = 0x9e3779b97f4a7c15ULL;
  Fig8Params fig8;               ///< used when kind == "fig8"
  ResilienceParams resilience;   ///< used when kind == "resilience"
  HaloParams halo;               ///< used when kind == "halo"
  PingPongParams pingpong;       ///< used when kind == "pingpong"
};

[[nodiscard]] CampaignSpec campaignSpecFromDesc(desc::Reader& r);
[[nodiscard]] desc::Value toDesc(const CampaignSpec& spec);

/// Parses `text` (with `origin` as the error-message label) and binds the
/// result to a CampaignSpec.
[[nodiscard]] CampaignSpec campaignSpecFromDescText(const std::string& text,
                                                    const std::string& origin);

/// Instantiates the runnable Campaign a spec describes.  Throws
/// std::invalid_argument when the kind cannot build it (duplicate scenario
/// names, a machine without the nodes the kind places ranks on), so that
/// validating a description rejects everything a run would.
[[nodiscard]] Campaign buildCampaign(const CampaignSpec& spec);

// Per-family parameter bindings (exposed for tests).
[[nodiscard]] Fig8Params fig8ParamsFromDesc(desc::Reader& r);
[[nodiscard]] desc::Value toDesc(const Fig8Params& p);
[[nodiscard]] ResilienceParams resilienceParamsFromDesc(desc::Reader& r);
[[nodiscard]] desc::Value toDesc(const ResilienceParams& p);
[[nodiscard]] HaloParams haloParamsFromDesc(desc::Reader& r);
[[nodiscard]] desc::Value toDesc(const HaloParams& p);
[[nodiscard]] PingPongParams pingpongParamsFromDesc(desc::Reader& r);
[[nodiscard]] desc::Value toDesc(const PingPongParams& p);

}  // namespace cbsim::campaign
