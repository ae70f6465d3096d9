#include "sta/corner_timer.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <string>

#include "util/error.hpp"
#include "util/health.hpp"

namespace statleak {

namespace {
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}
}  // namespace

CornerTimer::CornerTimer(const Circuit& circuit, const CellLibrary& lib,
                         const VariationModel& var, double k_sigma,
                         double t_max_ps)
    : circuit_(circuit),
      lib_(lib),
      loads_(circuit, lib),
      dl_nm_(k_sigma * var.sigma_l_total_nm()),
      dvth_v_(k_sigma * var.sigma_vth_total_v()),
      target_ps_(t_max_ps) {
  const std::size_t n = circuit.num_gates();
  delay_.assign(n, 0.0);
  arrival_.assign(n, 0.0);
  required_.assign(n, kInf);
  topo_pos_.resize(n);
  const auto topo = circuit.topo_order();
  for (std::size_t pos = 0; pos < topo.size(); ++pos) {
    topo_pos_[topo[pos]] = static_cast<std::uint32_t>(pos);
  }
  stale_.reserve(n);
  forward_.reserve(n);
  backward_.reserve(n);
  is_stale_.assign(n, 0);
  in_forward_.assign(n, 0);
  in_backward_.assign(n, 0);
}

void CornerTimer::on_resize(GateId id) {
  loads_.on_resize(id);
  mark_stale(id);
  for (GateId f : circuit_.gate(id).fanins) mark_stale(f);
}

void CornerTimer::on_vth_change(GateId id) { mark_stale(id); }

void CornerTimer::rebuild() {
  loads_.rebuild();
  full_forward_ = true;
  arrivals_current_ = false;
  required_current_ = false;
}

void CornerTimer::set_target(double t_max_ps) {
  if (same_bits(t_max_ps, target_ps_)) return;
  target_ps_ = t_max_ps;
  full_backward_ = true;
  required_current_ = false;
}

double CornerTimer::corner_delay(GateId id) const {
  const Gate& g = circuit_.gate(id);
  if (g.kind == CellKind::kInput) return 0.0;
  return delay_with(id, g.vth, g.size, loads_.load_ff(id));
}

double CornerTimer::required_from_fanouts(GateId id) const {
  double req = circuit_.is_output(id) ? target_ps_ : kInf;
  for (GateId fo : circuit_.fanouts(id)) {
    req = std::min(req, required_[fo] - delay_[fo]);
  }
  return req;
}

// +inf is the one legitimate non-finite required time (a gate that reaches
// no output). NaN or -inf means a poisoned delay or target flowed through
// the backward pass; clamping it would launder a numerical fault into a
// plausible slack.
void CornerTimer::check_required(GateId id, double req) {
  if (std::isfinite(req) || req == kInf) return;
  // The pass stopped half-way: start the next read from scratch.
  full_forward_ = true;
  full_backward_ = true;
  arrivals_current_ = false;
  required_current_ = false;
  throw NumericalError(
      "STA backward pass produced a non-finite required time at gate " +
      std::to_string(id) + " — a gate delay or the t_max target is NaN/-inf");
}

void CornerTimer::mark_stale(GateId id) {
  arrivals_current_ = false;
  required_current_ = false;
  if (is_stale_[id] != 0) return;
  is_stale_[id] = 1;
  stale_.push_back(id);
}

void CornerTimer::push_forward(GateId id) {
  if (in_forward_[id] != 0) return;
  in_forward_[id] = 1;
  forward_.push_back(topo_pos_[id]);
  std::push_heap(forward_.begin(), forward_.end(), std::greater<>());
}

void CornerTimer::push_backward(GateId id) {
  if (in_backward_[id] != 0) return;
  in_backward_[id] = 1;
  backward_.push_back(topo_pos_[id]);
  std::push_heap(backward_.begin(), backward_.end());
}

void CornerTimer::update_arrivals() {
  if (full_forward_) {
    full_forward();
    return;
  }
  // Stale delays: a changed delay moves the gate's own arrival and the
  // required times of its fanin drivers.
  for (GateId id : stale_) {
    is_stale_[id] = 0;
    const double d = corner_delay(id);
    if (same_bits(d, delay_[id])) continue;
    delay_[id] = d;
    push_forward(id);
    for (GateId f : circuit_.gate(id).fanins) push_backward(f);
  }
  stale_.clear();

  bool changed = false;
  const auto topo = circuit_.topo_order();
  while (!forward_.empty()) {
    std::pop_heap(forward_.begin(), forward_.end(), std::greater<>());
    const GateId id = topo[forward_.back()];
    forward_.pop_back();
    in_forward_[id] = 0;
    double in_arr = 0.0;
    for (GateId f : circuit_.gate(id).fanins) {
      in_arr = std::max(in_arr, arrival_[f]);
    }
    const double arr = in_arr + delay_[id];
    if (same_bits(arr, arrival_[id])) continue;
    arrival_[id] = arr;
    changed = true;
    for (GateId fo : circuit_.fanouts(id)) push_forward(fo);
  }
  if (changed) refresh_critical();
  arrivals_current_ = true;
}

void CornerTimer::update_required() {
  if (!arrivals_current_) update_arrivals();
  if (full_backward_) {
    full_backward();
    return;
  }
  const auto topo = circuit_.topo_order();
  while (!backward_.empty()) {
    std::pop_heap(backward_.begin(), backward_.end());
    const GateId id = topo[backward_.back()];
    backward_.pop_back();
    in_backward_[id] = 0;
    const double req = required_from_fanouts(id);
    check_required(id, req);
    if (same_bits(req, required_[id])) continue;
    required_[id] = req;
    for (GateId f : circuit_.gate(id).fanins) push_backward(f);
  }
  required_current_ = true;
}

void CornerTimer::full_forward() {
  const auto topo = circuit_.topo_order();
  for (GateId id : stale_) is_stale_[id] = 0;
  stale_.clear();
  for (std::uint32_t pos : forward_) in_forward_[topo[pos]] = 0;
  forward_.clear();
  for (GateId id : topo) {
    delay_[id] = corner_delay(id);
    double in_arr = 0.0;
    for (GateId f : circuit_.gate(id).fanins) {
      in_arr = std::max(in_arr, arrival_[f]);
    }
    arrival_[id] = in_arr + delay_[id];
  }
  refresh_critical();
  full_forward_ = false;
  full_backward_ = true;  // every delay may have moved
  arrivals_current_ = true;
  required_current_ = false;
}

void CornerTimer::full_backward() {
  const auto topo = circuit_.topo_order();
  for (std::uint32_t pos : backward_) in_backward_[topo[pos]] = 0;
  backward_.clear();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const double req = required_from_fanouts(*it);
    check_required(*it, req);
    required_[*it] = req;
  }
  full_backward_ = false;
  required_current_ = true;
}

void CornerTimer::refresh_critical() {
  critical_ps_ = 0.0;
  for (GateId out : circuit_.outputs()) {
    critical_ps_ = std::max(critical_ps_, arrival_[out]);
  }
}

}  // namespace statleak
