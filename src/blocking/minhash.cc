#include "blocking/minhash.h"

#include "blocking/minhash_simd.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/random.h"

namespace cem::blocking {

MinHasher::MinHasher(const MinHashOptions& options) {
  CEM_CHECK(options.num_hashes > 0);
  Rng rng(options.seed);
  salts_.reserve(options.num_hashes);
  for (uint32_t i = 0; i < options.num_hashes; ++i) {
    salts_.push_back(rng.Next());
  }
}

std::vector<uint64_t> MinHasher::Signature(
    const std::vector<std::string>& tokens) const {
  // Hash each token once, then run the salted min-reductions on the
  // dispatched kernel — the same work the historical per-token loop did,
  // minus the k-fold re-hash of every token's bytes.
  thread_local std::vector<uint64_t> hashes;
  hashes.clear();
  hashes.reserve(tokens.size());
  for (const std::string& token : tokens) hashes.push_back(Fnv1a64(token));
  std::vector<uint64_t> signature(salts_.size());
  SignatureFromHashes(hashes.data(), hashes.size(), signature.data());
  return signature;
}

void MinHasher::SignatureFromHashes(const uint64_t* token_hashes,
                                    size_t num_tokens, uint64_t* out) const {
  simd::MinHashSignature(token_hashes, num_tokens, salts_.data(),
                         salts_.size(), out, ActiveSimdLevel());
}

double MinHasher::EstimateJaccard(const std::vector<uint64_t>& a,
                                  const std::vector<uint64_t>& b) {
  CEM_CHECK(a.size() == b.size() && !a.empty())
      << "signatures must share one MinHasher configuration";
  return EstimateJaccard(a.data(), b.data(), a.size());
}

double MinHasher::EstimateJaccard(const uint64_t* a, const uint64_t* b,
                                  size_t num_hashes) {
  CEM_CHECK(num_hashes > 0)
      << "signatures must share one MinHasher configuration";
  const size_t agree = simd::CountEqual(a, b, num_hashes, ActiveSimdLevel());
  return static_cast<double>(agree) / static_cast<double>(num_hashes);
}

}  // namespace cem::blocking
