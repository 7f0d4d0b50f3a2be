#include "blocking/lsh_index.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/hash.h"
#include "util/logging.h"

namespace cem::blocking {

LshIndex::LshIndex(const LshParams& params, uint32_t num_hashes,
                   uint32_t num_shards)
    : params_(params),
      num_hashes_(num_hashes),
      shards_(std::max(num_shards, 1u)) {
  CEM_CHECK(params.bands > 0 && params.rows > 0);
  CEM_CHECK(params.bands * params.rows <= num_hashes)
      << "bands*rows must fit in the signature length";
  band_seeds_.reserve(params_.bands);
  for (uint32_t band = 0; band < params_.bands; ++band) {
    band_seeds_.push_back(Mix64(band + 1));
  }
}

void LshIndex::BandKeysInto(const uint64_t* signature, uint64_t* out) const {
  // Pointer walk over the band slices: the signature components of band b
  // are the `rows` entries after b*rows, consumed in order — no per-row
  // index arithmetic, and the per-band seed comes from the hoisted table.
  // The resulting key values are pinned by the snapshot format (saved
  // bucket maps key on them); see BandKeys() in the header.
  const uint64_t* component = signature;
  for (uint32_t band = 0; band < params_.bands; ++band) {
    uint64_t key = band_seeds_[band];
    for (uint32_t row = 0; row < params_.rows; ++row) {
      key = Mix64(key ^ *component++);
    }
    out[band] = key;
  }
}

std::vector<uint64_t> LshIndex::BandKeys(
    std::span<const uint64_t> signature) const {
  CEM_CHECK(signature.size() >= params_.bands * params_.rows);
  std::vector<uint64_t> keys(params_.bands);
  BandKeysInto(signature.data(), keys.data());
  return keys;
}

void LshIndex::ReserveDoc(uint32_t doc_id) {
  if (doc_id >= doc_added_.size()) {
    const size_t entries = static_cast<size_t>(doc_id + 1) * params_.bands;
    CEM_CHECK(entries < kNoEntry) << "too many (document, band) entries";
    doc_added_.resize(doc_id + 1, 0);
    doc_band_keys_.resize(entries, 0);
    next_.resize(entries, kNoEntry);
  }
  CEM_CHECK(doc_added_[doc_id] == 0) << "document added twice";
  doc_added_[doc_id] = 1;
}

size_t LshIndex::Probe(const std::vector<uint32_t>& heads,
                       uint64_t key) const {
  // Fibonacci hashing: the top bits of key * 2^64/phi pick the home slot.
  // The low key bits pick the shard (ShardOf), so the slot index must come
  // from the rest of the key.
  const size_t mask = heads.size() - 1;
  size_t i = static_cast<size_t>((key * 0x9e3779b97f4a7c15ULL) >>
                                 (64 - std::countr_zero(heads.size())));
  while (heads[i] != kNoEntry && doc_band_keys_[heads[i]] != key) {
    i = (i + 1) & mask;
  }
  return i;
}

void LshIndex::Link(Shard& shard, uint32_t entry) {
  // Keep the table at most 3/4 full, counting this entry as a new bucket.
  if (4 * (shard.num_buckets + 1) > 3 * shard.heads.size()) {
    std::vector<uint32_t> grown(std::max<size_t>(16, 2 * shard.heads.size()),
                                kNoEntry);
    for (uint32_t head : shard.heads) {
      if (head != kNoEntry) grown[Probe(grown, doc_band_keys_[head])] = head;
    }
    shard.heads = std::move(grown);
  }
  uint32_t& head = shard.heads[Probe(shard.heads, doc_band_keys_[entry])];
  if (head == kNoEntry) ++shard.num_buckets;
  next_[entry] = head;
  head = entry;
}

uint32_t LshIndex::BucketHead(uint64_t key) const {
  const Shard& shard = shards_[ShardOf(key)];
  if (shard.heads.empty()) return kNoEntry;
  return shard.heads[Probe(shard.heads, key)];
}

void LshIndex::AppendChain(uint32_t head, std::vector<uint32_t>& out) const {
  for (uint32_t entry = head; entry != kNoEntry; entry = next_[entry]) {
    out.push_back(entry / params_.bands);
  }
}

void LshIndex::AddDocument(uint32_t doc_id,
                           std::span<const uint64_t> signature) {
  CEM_CHECK(signature.size() == num_hashes_)
      << "signature length mismatch with the index configuration";
  ReserveDoc(doc_id);
  const uint32_t first = doc_id * params_.bands;
  BandKeysInto(signature.data(), doc_band_keys_.data() + first);
  for (uint32_t entry = first; entry < first + params_.bands; ++entry) {
    Link(shards_[ShardOf(doc_band_keys_[entry])], entry);
  }
}

void LshIndex::AddDocuments(const SignatureMatrix& signatures,
                            const ExecutionContext& ctx) {
  CEM_CHECK(doc_added_.empty()) << "AddDocuments on a non-empty index";
  CEM_CHECK(signatures.num_hashes() == num_hashes_ ||
            signatures.num_docs() == 0)
      << "signature length mismatch with the index configuration";
  const size_t n = signatures.num_docs();
  if (n == 0) return;
  ReserveDoc(static_cast<uint32_t>(n - 1));
  doc_added_.assign(n, 1);
  ParallelFor(ctx.pool(), n, [&](size_t doc) {
    BandKeysInto(signatures.row(doc),
                 doc_band_keys_.data() + doc * params_.bands);
  });
  // Partition the entries by owning shard — one cheap linear pass in entry
  // order, so each shard links its entries exactly as serial AddDocument
  // calls would, and the tables come out identical.
  const uint32_t num_entries = static_cast<uint32_t>(doc_band_keys_.size());
  std::vector<std::vector<uint32_t>> per_shard(shards_.size());
  for (auto& list : per_shard) {
    list.reserve(num_entries / shards_.size() + 1);
  }
  for (uint32_t entry = 0; entry < num_entries; ++entry) {
    per_shard[ShardOf(doc_band_keys_[entry])].push_back(entry);
  }
  // Parallel linking: each worker owns whole shards, and the chain links
  // it writes belong to its own shard's entries, so no synchronisation.
  ParallelFor(ctx.pool(), shards_.size(), [&](size_t s) {
    for (uint32_t entry : per_shard[s]) Link(shards_[s], entry);
  });
}

std::vector<uint32_t> LshIndex::Candidates(uint32_t doc_id) const {
  CEM_CHECK(doc_id < doc_added_.size());
  std::vector<uint32_t> out;
  if (doc_added_[doc_id] == 0) return out;  // Id gap: never added.
  for (uint64_t key : doc_keys(doc_id)) {
    const uint32_t head = BucketHead(key);
    CEM_CHECK(head != kNoEntry);
    AppendChain(head, out);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  // The document sits in every one of its own buckets.
  out.erase(std::lower_bound(out.begin(), out.end(), doc_id));
  return out;
}

std::vector<uint32_t> LshIndex::CandidatesOfSignature(
    std::span<const uint64_t> signature) const {
  CEM_CHECK(signature.size() >= num_hashes_)
      << "signature too short for this index";
  std::vector<uint64_t> keys(params_.bands);
  BandKeysInto(signature.data(), keys.data());
  std::vector<uint32_t> out;
  for (uint64_t key : keys) {
    AppendChain(BucketHead(key), out);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

size_t LshIndex::num_buckets() const {
  size_t total = 0;
  for (const Shard& shard : shards_) total += shard.num_buckets;
  return total;
}

size_t LshIndex::TotalBucketPairs() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    for (uint32_t head : shard.heads) {
      size_t size = 0;
      for (uint32_t e = head; e != kNoEntry; e = next_[e]) ++size;
      if (size > 1) total += size * (size - 1) / 2;
    }
  }
  return total;
}

size_t LshIndex::memory_bytes() const {
  size_t slots = 0;
  for (const Shard& shard : shards_) slots += shard.heads.size();
  return slots * sizeof(uint32_t) +
         doc_band_keys_.size() * (sizeof(uint64_t) + sizeof(uint32_t)) +
         doc_added_.size() * sizeof(uint8_t);
}

void LshIndex::ForEachBucket(
    size_t shard,
    const std::function<void(uint64_t, std::span<const uint32_t>)>& fn)
    const {
  std::vector<uint32_t> heads;
  heads.reserve(shards_[shard].num_buckets);
  for (uint32_t head : shards_[shard].heads) {
    if (head != kNoEntry) heads.push_back(head);
  }
  std::sort(heads.begin(), heads.end(), [this](uint32_t a, uint32_t b) {
    return doc_band_keys_[a] < doc_band_keys_[b];
  });
  std::vector<uint32_t> docs;
  for (uint32_t head : heads) {
    docs.clear();
    AppendChain(head, docs);
    std::reverse(docs.begin(), docs.end());
    fn(doc_band_keys_[head], docs);
  }
}

Status LshIndex::CheckSavedBuckets(
    const std::vector<SavedBuckets>& saved) const {
  size_t total = 0;
  std::vector<uint32_t> docs;
  for (size_t s = 0; s < saved.size(); ++s) {
    const SavedBuckets& file = saved[s];
    if (file.offsets.size() != file.keys.size() + 1 ||
        file.offsets.back() != file.docs.size()) {
      return InvalidArgumentError("saved LSH buckets are malformed");
    }
    total += file.keys.size();
    for (size_t b = 0; b < file.keys.size(); ++b) {
      const uint64_t key = file.keys[b];
      if ((b > 0 && key <= file.keys[b - 1]) ||
          file.offsets[b] > file.offsets[b + 1]) {
        return InvalidArgumentError("saved LSH buckets are malformed");
      }
      const uint32_t head = BucketHead(key);
      if (key % saved.size() != s || head == kNoEntry) {
        return InvalidArgumentError(
            "saved LSH bucket disagrees with the signatures");
      }
      docs.clear();
      AppendChain(head, docs);
      if (!std::equal(docs.rbegin(), docs.rend(),
                      file.docs.begin() + file.offsets[b],
                      file.docs.begin() + file.offsets[b + 1])) {
        return InvalidArgumentError(
            "saved LSH bucket disagrees with the signatures");
      }
    }
  }
  // Keys are unique within a file and each key lives in exactly one file,
  // so equal counts mean every bucket was saved.
  if (total != num_buckets()) {
    return InvalidArgumentError("saved LSH buckets miss buckets");
  }
  return OkStatus();
}

double LshIndex::CollisionProbability(double jaccard, uint32_t bands,
                                      uint32_t rows) {
  const double band_match = std::pow(jaccard, static_cast<double>(rows));
  return 1.0 - std::pow(1.0 - band_match, static_cast<double>(bands));
}

}  // namespace cem::blocking
