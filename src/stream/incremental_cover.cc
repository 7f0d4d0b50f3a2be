#include "stream/incremental_cover.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "blocking/minhash_simd.h"
#include "util/logging.h"

namespace cem::stream {
namespace {

/// True if `v` is strictly ascending (sorted and duplicate-free).
template <typename T>
bool StrictlyAscending(const std::vector<T>& v) {
  return std::adjacent_find(v.begin(), v.end(), std::greater_equal<T>()) ==
         v.end();
}

/// Structural check of one restored membership image: rows strictly
/// ascending by entity, entities inside the dataset, homes non-empty,
/// strictly ascending, inside the cover and holding first_home.
Status CheckMembershipRows(const std::vector<core::MembershipEntry>& rows,
                           size_t num_entities, size_t num_neighborhoods) {
  for (size_t i = 0; i < rows.size(); ++i) {
    const core::MembershipEntry& e = rows[i];
    if (e.entity >= num_entities ||
        (i > 0 && rows[i - 1].entity >= e.entity)) {
      return InvalidArgumentError(
          "membership rows must name ascending dataset entities");
    }
    if (e.homes.empty() || !StrictlyAscending(e.homes) ||
        e.homes.back() >= num_neighborhoods ||
        !std::binary_search(e.homes.begin(), e.homes.end(), e.first_home)) {
      return InvalidArgumentError("malformed membership row");
    }
  }
  return OkStatus();
}

}  // namespace

IncrementalCover::IncrementalCover(const data::Dataset& dataset,
                                   const IncrementalCoverOptions& options,
                                   const ExecutionContext& ctx)
    : dataset_(dataset),
      options_(options),
      hasher_(options.minhash),
      index_(options.lsh, hasher_.num_hashes(), ctx.num_shards()),
      signatures_(dataset.author_refs().size(), hasher_.num_hashes()) {
  CEM_CHECK(options.tight >= options.loose)
      << "tight threshold must be at least the loose threshold";
}

void IncrementalCover::ComputeSignature(data::EntityId ref,
                                        uint64_t* out) const {
  // Signs the reference's span of the dataset's blocking substrate: its
  // tokens were hashed once at Finalize, so only the salted
  // min-reductions run here, on the dispatched kernel.
  blocking::simd::MinHashSignatureRefs(dataset_.BlockingTokens(ref),
                                       hasher_.salts(), out,
                                       blocking::ActiveSimdLevel());
}

void IncrementalCover::AddMember(uint32_t n, data::EntityId e, bool core,
                                 std::vector<uint32_t>& dirty) {
  // Core status upgrades are tracked even when the entity is already a
  // (boundary) member: pair-coverage decisions must see it, and its live
  // coauthors must be pulled in — but the cover itself does not change, so
  // the neighborhood is not dirtied by the upgrade alone.
  const bool newly_core = core && core_.Add(e, n);
  if (full_.Add(e, n)) {
    cover_.AddEntityTo(n, e);
    dirty.push_back(n);
    ++stats_.memberships_added;
    if (!core) ++stats_.boundary_additions;
  }
  if (newly_core) {
    // Incremental ExpandCoauthorBoundary, one round: coauthors join as
    // boundary members and do not recurse — mirroring the batch pass,
    // which expands the patched membership snapshot exactly once.
    for (data::EntityId c : dataset_.Coauthors(e)) {
      if (is_live(c)) AddMember(n, c, /*core=*/false, dirty);
    }
  }
}

Status IncrementalCover::RestoreState(IncrementalCoverState state,
                                      const ExecutionContext& ctx) {
  if (num_live() != 0 || !cover_.empty()) {
    return FailedPreconditionError(
        "RestoreState needs a freshly constructed IncrementalCover");
  }
  // Structural validation up front: a snapshot passes file checksums before
  // it gets here, so failures mean a format/logic bug (or hand-built
  // state), and the error must surface as a skippable status — recovery
  // falls back to an older snapshot — never a crash.
  const size_t n = state.slots.size();
  if (state.signatures.num_docs() != n ||
      state.seed_neighborhoods.size() != n || state.stats.inserts != n) {
    return InvalidArgumentError("inconsistent slot-indexed state sizes");
  }
  if (n > signatures_.num_docs()) {
    return InvalidArgumentError("more slots than author references");
  }
  if (n > 0 && state.signatures.num_hashes() != hasher_.num_hashes()) {
    return InvalidArgumentError("signature length mismatch");
  }
  for (size_t slot = 0; slot < n; ++slot) {
    const data::EntityId ref = state.slots[slot];
    if (ref >= dataset_.num_entities() ||
        dataset_.entity(ref).type != data::EntityType::kAuthorRef) {
      return InvalidArgumentError("slot holds a non-author-ref entity");
    }
    const uint32_t seed = state.seed_neighborhoods[slot];
    if (seed != kNoSeed && seed >= state.neighborhoods.size()) {
      return InvalidArgumentError("seed neighborhood out of range");
    }
  }
  const size_t num_entities = dataset_.num_entities();
  const size_t num_neighborhoods = state.neighborhoods.size();
  size_t cover_memberships = 0;
  for (const std::vector<data::EntityId>& members : state.neighborhoods) {
    if (!StrictlyAscending(members) ||
        (!members.empty() && members.back() >= num_entities)) {
      return InvalidArgumentError(
          "neighborhood members must be ascending dataset entities");
    }
    cover_memberships += members.size();
  }
  CEM_RETURN_IF_ERROR(CheckMembershipRows(state.core_entries, num_entities,
                                          num_neighborhoods));
  CEM_RETURN_IF_ERROR(CheckMembershipRows(state.full_entries, num_entities,
                                          num_neighborhoods));
  // The full membership mirrors the cover: each (entity, home) row names a
  // member of that neighborhood, and there are as many as memberships.
  size_t full_memberships = 0;
  for (const core::MembershipEntry& e : state.full_entries) {
    for (uint32_t home : e.homes) {
      const std::vector<data::EntityId>& members = state.neighborhoods[home];
      if (!std::binary_search(members.begin(), members.end(), e.entity)) {
        return InvalidArgumentError(
            "full membership names a non-member of its neighborhood");
      }
    }
    full_memberships += e.homes.size();
  }
  if (full_memberships != cover_memberships) {
    return InvalidArgumentError("full membership disagrees with the cover");
  }
  // Core homes are full homes (both row lists ascend by entity).
  auto full = state.full_entries.begin();
  for (const core::MembershipEntry& e : state.core_entries) {
    while (full != state.full_entries.end() && full->entity < e.entity) {
      ++full;
    }
    if (full == state.full_entries.end() || full->entity != e.entity ||
        !std::includes(full->homes.begin(), full->homes.end(),
                       e.homes.begin(), e.homes.end())) {
      return InvalidArgumentError("core home outside the full membership");
    }
  }

  slots_ = std::move(state.slots);
  seed_neighborhood_ = std::move(state.seed_neighborhoods);
  slot_of_.reserve(n);
  for (uint32_t slot = 0; slot < n; ++slot) {
    if (!slot_of_.emplace(slots_[slot], slot).second) {
      return InvalidArgumentError("reference appears in two slots");
    }
  }
  index_.AddDocuments(state.signatures, ctx);
  std::copy_n(state.signatures.row(0), n * hasher_.num_hashes(),
              signatures_.row(0));
  if (!state.lsh_buckets.empty()) {
    CEM_RETURN_IF_ERROR(index_.CheckSavedBuckets(state.lsh_buckets));
  }
  for (std::vector<data::EntityId>& members : state.neighborhoods) {
    cover_.Add(std::move(members));
  }
  core_ = core::CoverMembership::FromEntries(std::move(state.core_entries));
  full_ = core::CoverMembership::FromEntries(std::move(state.full_entries));
  stats_ = state.stats;
  return OkStatus();
}

std::vector<uint32_t> IncrementalCover::Insert(
    data::EntityId ref, std::span<const uint64_t> signature) {
  CEM_CHECK(dataset_.entity(ref).type == data::EntityType::kAuthorRef)
      << "streaming ingest takes author references";
  CEM_CHECK(!is_live(ref)) << "reference " << ref << " inserted twice";
  CEM_CHECK(signature.size() == hasher_.num_hashes())
      << "signature length mismatch";

  std::vector<uint32_t> dirty;
  // Live slots are distinct author references, so the slot always has a
  // row in the store.
  const uint32_t slot = static_cast<uint32_t>(index_.size());
  slots_.push_back(ref);
  slot_of_.emplace(ref, slot);
  seed_neighborhood_.push_back(kNoSeed);
  std::copy(signature.begin(), signature.end(), signatures_.row(slot));
  index_.AddDocument(slot, signatures_.row_span(slot));

  // Candidate generation: live references sharing a band bucket, scored by
  // estimated Jaccard (sorted by slot — deterministic for any shard count).
  const std::vector<uint32_t> collisions = index_.Candidates(slot);
  stats_.lsh_candidates_scanned += collisions.size();
  struct LooseCandidate {
    uint32_t slot;
    double estimate;
  };
  std::vector<LooseCandidate> loose;
  for (uint32_t other : collisions) {
    const double estimate = blocking::MinHasher::EstimateJaccard(
        signatures_.row_span(slot), signatures_.row_span(other));
    if (estimate >= options_.loose) loose.push_back({other, estimate});
  }

  // Canopy step: join the canopy of every seed within `loose`; a seed
  // within `tight` also absorbs the newcomer (it never becomes a seed).
  bool seeded_out = false;
  for (const LooseCandidate& cand : loose) {
    const uint32_t n = seed_neighborhood_[cand.slot];
    if (n == kNoSeed) continue;
    AddMember(n, ref, /*core=*/true, dirty);
    if (cand.estimate >= options_.tight) seeded_out = true;
  }
  if (!seeded_out) {
    // The newcomer seeds a neighborhood holding everything loose-near it.
    // Unlike the batch greedy pass, existing seeds are never demoted —
    // the streamed cover may hold more (overlapping) neighborhoods than a
    // batch build, which affects work, never totality.
    const uint32_t n = static_cast<uint32_t>(cover_.Add({}));
    seed_neighborhood_[slot] = n;
    ++stats_.seeds_created;
    AddMember(n, ref, /*core=*/true, dirty);
    for (const LooseCandidate& cand : loose) {
      AddMember(n, slots_[cand.slot], /*core=*/true, dirty);
    }
  }

  // Pair-coverage step: repair the newly-live candidate pairs the canopy
  // step split, in canonical pair order — the incremental
  // core::PatchPairCoverage, sharing its membership machinery and repair
  // rule (add p.b to the first core home of p.a).
  for (data::PairId id : dataset_.PairsOfEntity(ref)) {
    const data::EntityPair& p = dataset_.candidate_pair(id).pair;
    const data::EntityId other = p.a == ref ? p.b : p.a;
    if (!is_live(other)) continue;
    if (core_.Together(p.a, p.b)) continue;
    CEM_CHECK(core_.Contains(p.a)) << "live refs must be core-covered";
    AddMember(core_.FirstHome(p.a), p.b, /*core=*/true, dirty);
    ++stats_.pairs_patched;
  }

  // Boundary step, mirror direction: the newcomer is a coauthor of
  // already-live core members, so it joins their neighborhoods.
  for (data::EntityId c : dataset_.Coauthors(ref)) {
    if (!is_live(c)) continue;
    // AddMember only ever adds `ref` as a boundary member here, which
    // cannot grow c's *core* homes mid-loop, so the reference is stable.
    const std::vector<uint32_t>& homes = core_.HomesOf(c);
    for (uint32_t n : homes) {
      AddMember(n, ref, /*core=*/false, dirty);
    }
  }

  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  ++stats_.inserts;
  stats_.canopies_touched += dirty.size();
  return dirty;
}

}  // namespace cem::stream
