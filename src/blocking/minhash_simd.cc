#include "blocking/minhash_simd.h"

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <string>

#include "blocking/minhash.h"
#include "obs/metrics.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace cem::blocking {
namespace {

/// Documents per ComputeSignatures batch. Fixed so the batch counter is a
/// pure function of the corpus size (the CI counter gate requires it).
constexpr size_t kSignatureBatchDocs = 512;

std::optional<SimdLevel>& ActiveLevelOverride() {
  static std::optional<SimdLevel> override;
  return override;
}

SimdLevel ResolveActiveSimdLevel() {
  const char* raw = std::getenv("CEM_SIMD");
  const std::string value = ToLower(raw == nullptr ? "auto" : raw);
  if (value == "scalar") return SimdLevel::kScalar;
  if (value == "avx2") {
    if (SimdLevelSupported(SimdLevel::kAvx2)) return SimdLevel::kAvx2;
    CEM_LOG(Warning) << "CEM_SIMD=avx2 requested but AVX2 is unavailable on "
                        "this build/CPU; falling back to scalar";
    return SimdLevel::kScalar;
  }
  if (value != "auto" && !value.empty()) {
    CEM_LOG(Warning) << "unknown CEM_SIMD value '" << value
                     << "' (expected auto|avx2|scalar); using auto";
  }
  return SimdLevelSupported(SimdLevel::kAvx2) ? SimdLevel::kAvx2
                                              : SimdLevel::kScalar;
}

}  // namespace

namespace simd {

namespace {

/// Salt-major with a register accumulator and branchless min: the
/// historical token-major loop re-read and re-wrote out[i] through memory
/// on every (token, salt) step and its `if (h < out[i])` branch was
/// near-random, which is what made it slow. Min is order-independent, so
/// this computes bit-identical signatures. Two salts per pass gives the
/// out-of-order core two independent Mix64 dependency chains.
void MinHashSignatureRefsScalar(const text::TokenRef* tokens,
                                size_t num_tokens, const uint64_t* salts,
                                size_t num_salts, uint64_t* out) {
  size_t i = 0;
  for (; i + 2 <= num_salts; i += 2) {
    const uint64_t salt0 = salts[i];
    const uint64_t salt1 = salts[i + 1];
    uint64_t best0 = ~0ULL;
    uint64_t best1 = ~0ULL;
    for (size_t t = 0; t < num_tokens; ++t) {
      const uint64_t base = tokens[t].hash;
      const uint64_t h0 = Mix64(base ^ salt0);
      const uint64_t h1 = Mix64(base ^ salt1);
      best0 = h0 < best0 ? h0 : best0;
      best1 = h1 < best1 ? h1 : best1;
    }
    out[i] = best0;
    out[i + 1] = best1;
  }
  for (; i < num_salts; ++i) {
    const uint64_t salt = salts[i];
    uint64_t best = ~0ULL;
    for (size_t t = 0; t < num_tokens; ++t) {
      const uint64_t h = Mix64(tokens[t].hash ^ salt);
      best = h < best ? h : best;
    }
    out[i] = best;
  }
}

size_t CountEqualScalar(const uint64_t* a, const uint64_t* b, size_t n) {
  size_t agree = 0;
  for (size_t i = 0; i < n; ++i) agree += a[i] == b[i];
  return agree;
}

}  // namespace

// Defined in minhash_simd_avx2.cc (the only -mavx2 translation unit).
void MinHashSignatureRefsAvx2(const text::TokenRef* tokens, size_t num_tokens,
                              const uint64_t* salts, size_t num_salts,
                              uint64_t* out);
size_t CountEqualAvx2(const uint64_t* a, const uint64_t* b, size_t n);

void MinHashSignatureRefs(std::span<const text::TokenRef> tokens,
                          std::span<const uint64_t> salts, uint64_t* out,
                          SimdLevel level) {
  if (level == SimdLevel::kAvx2) {
    MinHashSignatureRefsAvx2(tokens.data(), tokens.size(), salts.data(),
                             salts.size(), out);
    return;
  }
  MinHashSignatureRefsScalar(tokens.data(), tokens.size(), salts.data(),
                             salts.size(), out);
}

size_t CountEqual(const uint64_t* a, const uint64_t* b, size_t n,
                  SimdLevel level) {
  if (level == SimdLevel::kAvx2) return CountEqualAvx2(a, b, n);
  return CountEqualScalar(a, b, n);
}

}  // namespace simd

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool SimdLevelSupported(SimdLevel level) {
  if (level == SimdLevel::kScalar) return true;
#if CEM_SIMD_HAS_AVX2_KERNELS && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

SimdLevel ActiveSimdLevel() {
  if (ActiveLevelOverride().has_value()) return *ActiveLevelOverride();
  static const SimdLevel level = ResolveActiveSimdLevel();
  return level;
}

namespace internal_simd {

void SetActiveSimdLevelForTesting(SimdLevel level) {
  CEM_CHECK(SimdLevelSupported(level))
      << "cannot force unsupported SIMD level " << SimdLevelName(level);
  ActiveLevelOverride() = level;
}

void ResetActiveSimdLevelForTesting() { ActiveLevelOverride().reset(); }

}  // namespace internal_simd

SignatureMatrix ComputeSignatures(const MinHasher& hasher,
                                  const text::TokenCorpus& corpus,
                                  const ExecutionContext& ctx) {
  return ComputeSignatures(hasher, corpus, ctx, ActiveSimdLevel());
}

SignatureMatrix ComputeSignatures(const MinHasher& hasher,
                                  const text::TokenCorpus& corpus,
                                  const ExecutionContext& ctx,
                                  SimdLevel level) {
  const size_t n = corpus.num_docs();
  SignatureMatrix matrix(n, hasher.num_hashes());
  const size_t num_batches =
      (n + kSignatureBatchDocs - 1) / kSignatureBatchDocs;
  static obs::Counter& batches_counter =
      obs::MetricsRegistry::Global().counter("blocking_simd_batches");
  static obs::Histogram& batch_hist =
      obs::MetricsRegistry::Global().histogram("minhash_batch_us");
  ParallelFor(ctx.pool(), num_batches, [&](size_t batch) {
    Timer timer;
    const size_t begin = batch * kSignatureBatchDocs;
    const size_t end = std::min(n, begin + kSignatureBatchDocs);
    for (size_t doc = begin; doc < end; ++doc) {
      simd::MinHashSignatureRefs(corpus.doc(doc), hasher.salts(),
                                 matrix.row(doc), level);
    }
    batches_counter.Add(1);
    batch_hist.Record(timer.ElapsedMillis() * 1e3);
  });
  return matrix;
}

}  // namespace cem::blocking
