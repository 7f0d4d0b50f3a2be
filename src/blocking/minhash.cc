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
  // Hash each token once into a TokenRef slice, then run the salted
  // min-reductions on the dispatched kernel — the same work the historical
  // per-token loop did, minus the k-fold re-hash of every token's bytes.
  thread_local std::vector<text::TokenRef> refs;
  refs.clear();
  refs.reserve(tokens.size());
  for (const std::string& token : tokens) {
    refs.push_back({token.data(), static_cast<uint32_t>(token.size()),
                    Fnv1a64(token)});
  }
  std::vector<uint64_t> signature(salts_.size());
  simd::MinHashSignatureRefs(refs, salts_, signature.data(),
                             ActiveSimdLevel());
  return signature;
}

double MinHasher::EstimateJaccard(std::span<const uint64_t> a,
                                  std::span<const uint64_t> b) {
  CEM_CHECK(a.size() == b.size() && !a.empty())
      << "signatures must share one MinHasher configuration";
  const size_t agree =
      simd::CountEqual(a.data(), b.data(), a.size(), ActiveSimdLevel());
  return static_cast<double>(agree) / static_cast<double>(a.size());
}

}  // namespace cem::blocking
