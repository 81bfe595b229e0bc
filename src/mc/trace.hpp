#pragma once

// Replayable schedule traces.
//
// A trace file is the repro artifact the explorer dumps when a schedule
// violates an invariant: the scenario name plus the sequence of choice
// indices, annotated with each decision's site/locus/key so replay can
// detect when the trace no longer matches the binary.  Format (JSON,
// canonical desc dump):
//
//   {
//     "version": 1,
//     "scenario": "drop-retransmit-race",
//     "message": "in-order violation: ...",
//     "choices": [0, 1, 0],
//     "decisions": [
//       { "site": "pmpi-match", "locus": 0, "chosen": 1,
//         "alternatives": 2, "key": 2 },
//       ...
//     ]
//   }
//
// Only "choices" drives replay; "decisions" is for humans and validation.

#include <string>
#include <vector>

#include "mc/explorer.hpp"

namespace cbsim::mc {

struct Trace {
  std::string scenario;
  std::string message;          ///< the violation that produced this trace
  std::vector<int> choices;
  std::vector<Decision> decisions;  ///< may be empty in hand-written traces
};

/// Canonical JSON rendering of a trace.
[[nodiscard]] std::string dumpTrace(const Trace& t);

/// Parses a trace document; throws desc::Error on malformed input.
[[nodiscard]] Trace parseTrace(const std::string& text,
                               const std::string& origin);

/// Reads and parses a trace file.
[[nodiscard]] Trace readTraceFile(const std::string& path);

}  // namespace cbsim::mc
