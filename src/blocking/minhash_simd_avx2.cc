// The single translation unit compiled with -mavx2 (see CMakeLists.txt).
// Nothing here may be called unless SimdLevelSupported(kAvx2) — the
// dispatcher in minhash_simd.cc checks cpuid first, so plain AVX2
// intrinsics (no target attributes) are safe.
//
// Every kernel emulates the exact scalar 64-bit arithmetic — low-64
// multiply from 32-bit cross products, unsigned min via sign-flipped
// signed compare — so results are bit-identical to the scalar path; the
// equivalence suite (tests/simd_equivalence_test.cc) pins it.

#include "blocking/minhash_simd.h"

#include "util/hash.h"
#include "util/logging.h"

#if CEM_SIMD_HAS_AVX2_KERNELS

#include <immintrin.h>

namespace cem::blocking::simd {
namespace {

/// Low 64 bits of a*b per lane: a_lo*b_lo + ((a_lo*b_hi + a_hi*b_lo)<<32).
inline __m256i MulLo64(__m256i a, __m256i b) {
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i lo = _mm256_mul_epu32(a, b);
  const __m256i cross = _mm256_add_epi64(_mm256_mul_epu32(a, b_hi),
                                         _mm256_mul_epu32(a_hi, b));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

/// SplitMix64 finalizer on four lanes — bit-identical to cem::Mix64.
inline __m256i Mix4(__m256i x) {
  x = _mm256_add_epi64(
      x, _mm256_set1_epi64x(static_cast<long long>(0x9e3779b97f4a7c15ULL)));
  x = MulLo64(
      _mm256_xor_si256(x, _mm256_srli_epi64(x, 30)),
      _mm256_set1_epi64x(static_cast<long long>(0xbf58476d1ce4e5b9ULL)));
  x = MulLo64(
      _mm256_xor_si256(x, _mm256_srli_epi64(x, 27)),
      _mm256_set1_epi64x(static_cast<long long>(0x94d049bb133111ebULL)));
  return _mm256_xor_si256(x, _mm256_srli_epi64(x, 31));
}

/// Unsigned 64-bit min per lane (AVX2 has only the signed compare).
inline __m256i MinU64(__m256i a, __m256i b) {
  const __m256i sign =
      _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ULL));
  const __m256i a_gt_b = _mm256_cmpgt_epi64(_mm256_xor_si256(a, sign),
                                            _mm256_xor_si256(b, sign));
  return _mm256_blendv_epi8(a, b, a_gt_b);
}

}  // namespace

void MinHashSignatureRefsAvx2(const text::TokenRef* tokens, size_t num_tokens,
                              const uint64_t* salts, size_t num_salts,
                              uint64_t* out) {
  size_t i = 0;
  // Sixteen permutations (four registers) per pass: each token hash is
  // broadcast once and feeds four independent Mix4 dependency chains, so
  // the long multiply latency of one chain hides behind the others.
  for (; i + 16 <= num_salts; i += 16) {
    __m256i best0 = _mm256_set1_epi64x(-1);
    __m256i best1 = _mm256_set1_epi64x(-1);
    __m256i best2 = _mm256_set1_epi64x(-1);
    __m256i best3 = _mm256_set1_epi64x(-1);
    const __m256i salt0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(salts + i));
    const __m256i salt1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(salts + i + 4));
    const __m256i salt2 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(salts + i + 8));
    const __m256i salt3 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(salts + i + 12));
    for (size_t t = 0; t < num_tokens; ++t) {
      const __m256i base =
          _mm256_set1_epi64x(static_cast<long long>(tokens[t].hash));
      best0 = MinU64(best0, Mix4(_mm256_xor_si256(base, salt0)));
      best1 = MinU64(best1, Mix4(_mm256_xor_si256(base, salt1)));
      best2 = MinU64(best2, Mix4(_mm256_xor_si256(base, salt2)));
      best3 = MinU64(best3, Mix4(_mm256_xor_si256(base, salt3)));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), best0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i + 4), best1);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i + 8), best2);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i + 12), best3);
  }
  // Remaining group of four.
  for (; i + 4 <= num_salts; i += 4) {
    __m256i best = _mm256_set1_epi64x(-1);
    const __m256i salt4 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(salts + i));
    for (size_t t = 0; t < num_tokens; ++t) {
      const __m256i base =
          _mm256_set1_epi64x(static_cast<long long>(tokens[t].hash));
      best = MinU64(best, Mix4(_mm256_xor_si256(base, salt4)));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), best);
  }
  // Salt-count tail (num_hashes not divisible by 4): scalar arithmetic,
  // identical formula.
  for (; i < num_salts; ++i) {
    uint64_t best = ~0ULL;
    for (size_t t = 0; t < num_tokens; ++t) {
      const uint64_t h = Mix64(tokens[t].hash ^ salts[i]);
      if (h < best) best = h;
    }
    out[i] = best;
  }
}

size_t CountEqualAvx2(const uint64_t* a, const uint64_t* b, size_t n) {
  size_t agree = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i eq = _mm256_cmpeq_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i)));
    agree += static_cast<size_t>(__builtin_popcount(
        static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(eq)))));
  }
  for (; i < n; ++i) agree += a[i] == b[i];
  return agree;
}

}  // namespace cem::blocking::simd

#else  // !CEM_SIMD_HAS_AVX2_KERNELS

namespace cem::blocking::simd {

// Non-x86 builds: SimdLevelSupported(kAvx2) is false, so these stubs are
// unreachable; they exist to keep the link closed.
void MinHashSignatureRefsAvx2(const text::TokenRef*, size_t, const uint64_t*,
                              size_t, uint64_t*) {
  CEM_CHECK(false) << "AVX2 kernels are not built on this architecture";
}

size_t CountEqualAvx2(const uint64_t*, const uint64_t*, size_t) {
  CEM_CHECK(false) << "AVX2 kernels are not built on this architecture";
  return 0;
}

}  // namespace cem::blocking::simd

#endif  // CEM_SIMD_HAS_AVX2_KERNELS
