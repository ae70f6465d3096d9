#include "ssta/ssta.hpp"

#include <span>

#include "ssta/delay_model.hpp"
#include "sta/loads.hpp"
#include "util/error.hpp"

namespace statleak {

SstaEngine::SstaEngine(const Circuit& circuit, const CellLibrary& lib,
                       const VariationModel& var)
    : circuit_(circuit), lib_(lib), var_(var) {
  STATLEAK_CHECK(circuit.finalized(), "SstaEngine requires finalized circuit");
  var_.validate();
}

Canonical SstaEngine::gate_delay(GateId id) const {
  const Gate& g = circuit_.gate(id);
  return canonical_gate_delay(lib_, var_, g.kind, g.vth, g.size,
                              output_load_ff(circuit_, lib_, id));
}

namespace {

/// Iterated Clark max over a set of canonicals, recording per-operand win
/// probabilities (shared chain: ssta/delay_model.hpp).
Canonical max_with_weights(std::span<const Canonical> operands,
                           std::vector<double>& weights) {
  STATLEAK_CHECK(!operands.empty(), "max of nothing");
  weights.assign(operands.size(), 0.0);
  return clark_max_chain(operands, weights.data());
}

}  // namespace

void SstaEngine::forward(SstaResult& out,
                         std::vector<std::vector<double>>& win,
                         std::vector<double>& sink_weights) const {
  const std::size_t n = circuit_.num_gates();
  out.arrival.assign(n, Canonical{});
  win.assign(n, {});
  std::vector<Canonical> operands;
  for (GateId id : circuit_.topo_order()) {
    const Gate& g = circuit_.gate(id);
    if (g.kind == CellKind::kInput) continue;  // arrival stays zero
    operands.clear();
    for (GateId f : g.fanins) operands.push_back(out.arrival[f]);
    const Canonical in_max = max_with_weights(operands, win[id]);
    out.arrival[id] = Canonical::sum(in_max, gate_delay(id));
  }
  operands.clear();
  for (GateId o : circuit_.outputs()) operands.push_back(out.arrival[o]);
  out.circuit_delay = max_with_weights(operands, sink_weights);
}

SstaResult SstaEngine::analyze() const {
  SstaResult out;
  std::vector<std::vector<double>> win;
  std::vector<double> sink_weights;
  forward(out, win, sink_weights);

  out.criticality.assign(circuit_.num_gates(), 0.0);
  for (std::size_t i = 0; i < circuit_.outputs().size(); ++i) {
    out.criticality[circuit_.outputs()[i]] += sink_weights[i];
  }
  const auto topo = circuit_.topo_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const GateId id = *it;
    const Gate& g = circuit_.gate(id);
    if (g.kind == CellKind::kInput || out.criticality[id] == 0.0) continue;
    for (std::size_t pin = 0; pin < g.fanins.size(); ++pin) {
      out.criticality[g.fanins[pin]] += out.criticality[id] * win[id][pin];
    }
  }
  return out;
}

Canonical SstaEngine::circuit_delay() const {
  SstaResult out;
  std::vector<std::vector<double>> win;
  std::vector<double> sink_weights;
  forward(out, win, sink_weights);
  return out.circuit_delay;
}

}  // namespace statleak
