/// \file scaling.hpp
/// \brief Deterministic scaling series for optimizer-throughput experiments.
///
/// The ISCAS85-class proxies top out near 4k cells — big enough to pin
/// behaviour, too small to expose layout effects (an AoS gate graph
/// still fits its working set in cache there). This series extends the
/// proxy idea to 10^4..2x10^5 gates: seeded random mapped logic with the
/// proxy glue's locality profile, sized so the largest member's AoS gate
/// array firmly exceeds last-level cache while the flat-SoA engine's hot
/// arrays stay streamable. Members are generated, never stored; the same
/// (name -> spec) mapping on every machine makes benchmark results
/// comparable across hosts.

#pragma once

#include <string>
#include <vector>

#include "netlist/circuit.hpp"

namespace statleak {

/// One member of the scaling series.
struct ScalingSpec {
  std::string name;  ///< "s10k", "s30k", "s100k", "s200k"
  int num_inputs = 0;
  int num_gates = 0;
  int num_outputs = 0;
  double locality = 0.0;
  std::uint64_t seed = 0;
};

/// The fixed four-member series: s10k (10^4 gates), s30k (3x10^4),
/// s100k (10^5), s200k (2x10^5).
std::vector<ScalingSpec> scaling_series();

/// Builds one member by name ("s10k" | "s30k" | "s100k" | "s200k").
/// Throws statleak::Error for unknown names.
Circuit scaling_circuit(const std::string& name);

}  // namespace statleak
