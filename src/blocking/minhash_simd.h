#ifndef CEM_BLOCKING_MINHASH_SIMD_H_
#define CEM_BLOCKING_MINHASH_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "text/token_arena.h"
#include "util/execution_context.h"

namespace cem::blocking {

class MinHasher;

/// Whether this build carries the AVX2 kernel translation unit
/// (minhash_simd_avx2.cc, compiled with -mavx2 on x86-64). On other
/// architectures the scalar kernels are the only implementation.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define CEM_SIMD_HAS_AVX2_KERNELS 1
#else
#define CEM_SIMD_HAS_AVX2_KERNELS 0
#endif

/// Instruction-set level of the batched hot-path kernels. Every level
/// computes bit-identical results — SIMD is an execution strategy here,
/// never a semantic: the AVX2 paths emulate the exact 64-bit scalar
/// arithmetic (low-64 multiply, unsigned min), so the determinism and
/// equivalence suites pin one answer for all levels.
enum class SimdLevel {
  kScalar,
  kAvx2,
};

const char* SimdLevelName(SimdLevel level);

/// True when `level`'s kernels can run on this build + CPU.
bool SimdLevelSupported(SimdLevel level);

/// The process-wide dispatch decision, resolved once: CEM_SIMD=scalar or
/// CEM_SIMD=avx2 forces a level (an unsupported force warns and falls back
/// to scalar); unset or CEM_SIMD=auto picks the best supported level via
/// cpuid.
SimdLevel ActiveSimdLevel();

namespace internal_simd {
/// Test-only override of ActiveSimdLevel() — lets one process compare
/// end-to-end pipeline runs across levels. Pass kScalar/kAvx2 to force,
/// or call Reset to return to the CEM_SIMD/cpuid decision.
void SetActiveSimdLevelForTesting(SimdLevel level);
void ResetActiveSimdLevelForTesting();
}  // namespace internal_simd

namespace simd {

/// The MinHash kernel — the one signature entry point every consumer
/// (batch ComputeSignatures, streaming ingest, cold serving queries,
/// MinHasher::Signature) runs: out[i] = min over tokens of
/// Mix64(tokens[t].hash ^ salts[i]), or ~0ULL (MinHasher::kEmptySlot) when
/// there are no tokens. `out` holds salts.size() components. Reads the
/// precomputed hashes straight out of the TokenRef slice, so no per-document
/// hash copy is needed. Bit-identical across levels and to the historical
/// per-token scalar loop (min is order-independent).
void MinHashSignatureRefs(std::span<const text::TokenRef> tokens,
                          std::span<const uint64_t> salts, uint64_t* out,
                          SimdLevel level);

/// Number of equal components between two length-`n` signatures — the
/// EstimateJaccard inner loop.
size_t CountEqual(const uint64_t* a, const uint64_t* b, size_t n,
                  SimdLevel level);

}  // namespace simd

/// Flat row-major signature storage: `num_docs` rows of `num_hashes`
/// contiguous components — the SoA batch layout (one allocation for the
/// whole corpus instead of one heap vector per signature). Storage is
/// deliberately left uninitialised (make_unique_for_overwrite): every row
/// is fully written before it is read, zero-filling megabytes first shows
/// up in the batch wall time, and a large matrix whose rows are never
/// written (the streaming store sized for every reference) costs address
/// space, not resident memory. Move-only.
class SignatureMatrix {
 public:
  SignatureMatrix() = default;
  SignatureMatrix(size_t num_docs, uint32_t num_hashes)
      : num_docs_(num_docs),
        num_hashes_(num_hashes),
        data_(std::make_unique_for_overwrite<uint64_t[]>(num_docs *
                                                         num_hashes)) {}

  size_t num_docs() const { return num_docs_; }
  uint32_t num_hashes() const { return num_hashes_; }

  uint64_t* row(size_t doc) { return data_.get() + doc * num_hashes_; }
  const uint64_t* row(size_t doc) const {
    return data_.get() + doc * num_hashes_;
  }
  std::span<const uint64_t> row_span(size_t doc) const {
    return {row(doc), num_hashes_};
  }

 private:
  size_t num_docs_ = 0;
  uint32_t num_hashes_ = 0;
  std::unique_ptr<uint64_t[]> data_;
};

/// Batched signature computation over a flat token corpus: tokens are
/// hashed once (at corpus build), then each document runs the k salted
/// min-reductions at `level`. Parallel over fixed-size document batches on
/// `ctx`; bumps the `blocking_simd_batches` counter (deterministic: a
/// function of the document count alone) and records per-batch wall time
/// in `hist_minhash_batch_us`. Row i equals
/// `hasher.Signature(tokens of document i)` bit-for-bit.
SignatureMatrix ComputeSignatures(const MinHasher& hasher,
                                  const text::TokenCorpus& corpus,
                                  const ExecutionContext& ctx);
SignatureMatrix ComputeSignatures(const MinHasher& hasher,
                                  const text::TokenCorpus& corpus,
                                  const ExecutionContext& ctx,
                                  SimdLevel level);

}  // namespace cem::blocking

#endif  // CEM_BLOCKING_MINHASH_SIMD_H_
