// The AVX2 instantiation of the lane-parallel deviate kernel (W = 4).
// Compiled with -mavx2 -ffp-contract=off (src/mc/CMakeLists.txt); see
// lane_kernel.hpp for why it is a translation unit of its own.

#include "mc/lane_kernel.hpp"

namespace statleak::lane {
namespace {

struct Avx2 {
  using U = __m256i;
  using D = __m256d;
  static constexpr int kLanes = 4;
  static constexpr unsigned kAll = 0xFu;

  static U load(const std::uint64_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const U*>(p));
  }
  static void store(std::uint64_t* p, U v) {
    _mm256_storeu_si256(reinterpret_cast<U*>(p), v);
  }
  static D loadd(const double* p) { return _mm256_loadu_pd(p); }
  static void stored(double* p, D v) { _mm256_storeu_pd(p, v); }
  static U splat(std::uint64_t v) {
    return _mm256_set1_epi64x(static_cast<long long>(v));
  }
  static D splatd(double v) { return _mm256_set1_pd(v); }

  static U add(U a, U b) { return _mm256_add_epi64(a, b); }
  static U bxor(U a, U b) { return _mm256_xor_si256(a, b); }
  static U band(U a, U b) { return _mm256_and_si256(a, b); }
  template <int K>
  static U shl(U a) { return _mm256_slli_epi64(a, K); }
  template <int K>
  static U shr(U a) { return _mm256_srli_epi64(a, K); }
  template <int K>
  static U rotl(U a) { return _mm256_or_si256(shl<K>(a), shr<64 - K>(a)); }

  static U gather(const std::uint64_t* base, U index) {
    return _mm256_i64gather_epi64(reinterpret_cast<const long long*>(base),
                                  index, 8);
  }
  static D gatherd(const double* base, U index) {
    return _mm256_i64gather_pd(base, index, 8);
  }
  // AVX2 has only a signed 64-bit compare; both operands are below 2^53,
  // where it agrees with the unsigned one.
  static unsigned less(U a, U b) {
    return static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(b, a))));
  }
  // m < 2^53 as m = hi * 2^32 + lo: (2^84 + hi * 2^32) - (2^84 + 2^52) is
  // hi * 2^32 - 2^52 and (2^52 + lo) adds back to m; every operand and
  // every result is representable, so each step is exact.
  static D to_double53(U m) {
    const U lo = _mm256_blend_epi32(m, splat(0x4330000000000000ull), 0xAA);
    const U hi =
        _mm256_or_si256(shr<32>(m), splat(0x4530000000000000ull));
    const D hi_d = _mm256_sub_pd(_mm256_castsi256_pd(hi),
                                 _mm256_set1_pd(0x1.00000001p84));
    return _mm256_add_pd(hi_d, _mm256_castsi256_pd(lo));
  }
  static D mul(D a, D b) { return _mm256_mul_pd(a, b); }
  static D addd(D a, D b) { return _mm256_add_pd(a, b); }
  static D flip_sign(D x, U sign_bits) {
    return _mm256_castsi256_pd(_mm256_xor_si256(_mm256_castpd_si256(x),
                                                sign_bits));
  }
};

}  // namespace

void draw_avx2(const Job& job) { draw_group<Avx2>(job); }

}  // namespace statleak::lane
