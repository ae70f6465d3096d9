#include "mc/lane_draw.hpp"

#include <array>
#include <string>

#include "mc/lane_kernel.hpp"
#include "util/error.hpp"

namespace statleak {

namespace detail {

/// The kernel's view of Rng: the four state words, and the out-of-line
/// ziggurat slow path with one lane's state passed in and out by value.
struct RngLanes {
  static Rng::State& state(Rng& rng) { return rng.state_; }

  static double slow_normal(std::uint64_t u, std::uint64_t* s) {
    const Rng::SlowNormal r = Rng::normal_slow_(u, {s[0], s[1], s[2], s[3]});
    for (int k = 0; k < 4; ++k) s[k] = r.state[static_cast<std::size_t>(k)];
    return r.x;
  }
};

}  // namespace detail

namespace {

using LaneKernel = void (*)(const lane::Job&);

/// The kernel for `width` lanes if this build and host have its ISA (probed
/// once), else nullptr (also for widths other than 4 and 8).
LaneKernel kernel_for(int width) {
#if defined(__x86_64__) && defined(STATLEAK_LANE_KERNELS)
  static const bool avx2 = __builtin_cpu_supports("avx2");
  static const bool avx512 = __builtin_cpu_supports("avx512f") &&
                             __builtin_cpu_supports("avx512dq");
  if (width == 4 && avx2) return lane::draw_avx2;
  if (width == 8 && avx512) return lane::draw_avx512;
#else
  (void)width;
#endif
  return nullptr;
}

}  // namespace

int lane_draw_width() {
  static const int width = kernel_for(8) != nullptr   ? 8
                           : kernel_for(4) != nullptr ? 4
                                                      : 1;
  return width;
}

bool lane_draw_supported(int width) {
  return width == 1 || kernel_for(width) != nullptr;
}

void draw_lanes(const VariationModel& model,
                std::span<const GlobalSample> dies, std::span<Rng> rngs,
                std::span<const double> widths, double* dl, double* dv,
                std::size_t stride, int width) {
  const std::size_t lanes = rngs.size();
  STATLEAK_CHECK(dies.size() == lanes && lanes <= stride,
                 "draw_lanes needs one die per generator and lanes <= stride");
  const LaneKernel kernel = width == 1 ? nullptr : kernel_for(width);
  STATLEAK_CHECK(width == 1 || kernel != nullptr,
                 "lane width " + std::to_string(width) +
                     " is not supported on this host");

  std::size_t lane = 0;
  if (kernel != nullptr) {
    const auto w = static_cast<std::size_t>(width);
    std::array<std::uint64_t, 4 * 8> state{};
    std::array<double, 8> g_dl{};
    std::array<double, 8> g_dv{};
    lane::Job job{};
    job.state = state.data();
    job.g_dl = g_dl.data();
    job.g_dv = g_dv.data();
    job.widths = widths.data();
    job.num_gates = widths.size();
    job.sigma_l = model.sigma_l_intra_nm;
    job.sigma_v = model.sigma_vth_intra_v;
    job.ref_width = model.pelgrom_ref_width_um;
    job.pelgrom = model.pelgrom_vth_scaling;
    job.layers = detail::kZiggurat.layer;
    job.slow = &detail::RngLanes::slow_normal;
    job.stride = stride;
    for (; lane + w <= lanes; lane += w) {
      for (std::size_t l = 0; l < w; ++l) {
        const auto& s = detail::RngLanes::state(rngs[lane + l]);
        for (std::size_t k = 0; k < 4; ++k) state[k * w + l] = s[k];
        g_dl[l] = dies[lane + l].dl_nm;
        g_dv[l] = dies[lane + l].dvth_v;
      }
      job.dl = dl + lane;
      job.dv = dv + lane;
      kernel(job);
      for (std::size_t l = 0; l < w; ++l) {
        auto& s = detail::RngLanes::state(rngs[lane + l]);
        for (std::size_t k = 0; k < 4; ++k) s[k] = state[k * w + l];
      }
    }
  }
  for (; lane < lanes; ++lane) {
    sample_gates(model, dies[lane], rngs[lane], widths, dl + lane, dv + lane,
                 stride);
  }
}

}  // namespace statleak
