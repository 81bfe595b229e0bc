#pragma once

// Description bindings for extoll::FabricOptions.
//
// Schema (all keys optional; an empty object is the default fabric):
//   {
//     "routing": "auto" | "enumerated" | "structural",
//     "model": "packet" | "flow"
//   }
// "auto" resolves to structural routing on generated fat-trees and to
// the enumerated reference otherwise.  toDesc()
// emits every field, so dumps are canonical.

#include "desc/schema.hpp"
#include "extoll/fabric.hpp"

namespace cbsim::extoll {

[[nodiscard]] FabricOptions fabricOptionsFromDesc(desc::Reader& r);
[[nodiscard]] desc::Value toDesc(const FabricOptions& o);

}  // namespace cbsim::extoll
