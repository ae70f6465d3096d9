// The AVX-512F+DQ instantiation of the lane-parallel deviate kernel
// (W = 8). Compiled with -mavx512f -mavx512dq -ffp-contract=off
// (src/mc/CMakeLists.txt); see lane_kernel.hpp for why it is a translation
// unit of its own.

#include "mc/lane_kernel.hpp"

namespace statleak::lane {
namespace {

struct Avx512 {
  using U = __m512i;
  using D = __m512d;
  static constexpr int kLanes = 8;
  static constexpr unsigned kAll = 0xFFu;

  static U load(const std::uint64_t* p) { return _mm512_loadu_si512(p); }
  static void store(std::uint64_t* p, U v) { _mm512_storeu_si512(p, v); }
  static D loadd(const double* p) { return _mm512_loadu_pd(p); }
  static void stored(double* p, D v) { _mm512_storeu_pd(p, v); }
  static U splat(std::uint64_t v) {
    return _mm512_set1_epi64(static_cast<long long>(v));
  }
  static D splatd(double v) { return _mm512_set1_pd(v); }

  static U add(U a, U b) { return _mm512_add_epi64(a, b); }
  static U bxor(U a, U b) { return _mm512_xor_si512(a, b); }
  static U band(U a, U b) { return _mm512_and_si512(a, b); }
  template <int K>
  static U shl(U a) { return _mm512_slli_epi64(a, K); }
  template <int K>
  static U shr(U a) { return _mm512_srli_epi64(a, K); }
  template <int K>
  static U rotl(U a) { return _mm512_rol_epi64(a, K); }

  static U gather(const std::uint64_t* base, U index) {
    return _mm512_i64gather_epi64(index, base, 8);
  }
  static D gatherd(const double* base, U index) {
    return _mm512_i64gather_pd(index, base, 8);
  }
  static unsigned less(U a, U b) { return _mm512_cmplt_epu64_mask(a, b); }
  static D to_double53(U m) { return _mm512_cvtepu64_pd(m); }
  static D mul(D a, D b) { return _mm512_mul_pd(a, b); }
  static D addd(D a, D b) { return _mm512_add_pd(a, b); }
  static D flip_sign(D x, U sign_bits) {
    return _mm512_castsi512_pd(_mm512_xor_si512(_mm512_castpd_si512(x),
                                                sign_bits));
  }
};

}  // namespace

void draw_avx512(const Job& job) { draw_group<Avx512>(job); }

}  // namespace statleak::lane
