#ifndef CEM_STREAM_INCREMENTAL_COVER_H_
#define CEM_STREAM_INCREMENTAL_COVER_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "blocking/lsh_index.h"
#include "blocking/minhash.h"
#include "core/cover.h"
#include "data/dataset.h"
#include "util/execution_context.h"
#include "util/status.h"

namespace cem::stream {

/// Options of the incremental cover maintenance: the same MinHash/banding
/// knobs as the batch LSH cover builder (blocking::LshCoverOptions), so the
/// streamed cover searches the same "nearby" space the batch pipeline does.
struct IncrementalCoverOptions {
  /// MinHash signature scheme. num_hashes must hold lsh.bands * lsh.rows.
  blocking::MinHashOptions minhash;
  /// Banding parameters of the candidate lookup.
  blocking::LshParams lsh;
  /// A colliding reference joins a seed's neighborhood at estimated
  /// Jaccard >= loose.
  double loose = 0.20;
  /// A reference covered by a seed at estimated Jaccard >= tight does not
  /// become a seed itself.
  double tight = 0.55;
};

/// Work counters of the ingest path. All counters are deterministic for a
/// fixed arrival order — independent of thread and shard count — so the
/// bench-regression gate can track them.
struct IngestStats {
  /// References inserted.
  size_t inserts = 0;
  /// Neighborhoods created (the live seed count).
  size_t seeds_created = 0;
  /// Neighborhoods whose membership an insert changed (the "dirty" set
  /// handed to re-matching), summed over inserts — the headline amortized
  /// work measure: mean touched per insert must stay far below the total
  /// neighborhood count.
  size_t canopies_touched = 0;
  /// LSH bucket collisions scanned (candidate generation work).
  size_t lsh_candidates_scanned = 0;
  /// Split candidate pairs repaired into a shared neighborhood (the
  /// streaming counterpart of PatchStats::pairs_patched).
  size_t pairs_patched = 0;
  /// Members added by Coauthor boundary maintenance.
  size_t boundary_additions = 0;
  /// Total (entity, neighborhood) memberships added.
  size_t memberships_added = 0;

  friend bool operator==(const IngestStats&, const IngestStats&) = default;
};

/// Flat, serializable image of an IncrementalCover — what persist/ writes
/// into a snapshot and feeds back through RestoreState(). Everything here
/// is genuine state: none of it is derivable from the dataset alone (the
/// arrival order alone determines it, but replaying the arrival order is
/// exactly the cost a snapshot exists to avoid). The LSH index is the one
/// exception: its buckets are a pure function of the signatures in slot
/// order, so `lsh_buckets` is an optional fast path (loaded per-shard
/// files) and an empty vector means "rebuild from the signatures".
struct IncrementalCoverState {
  /// slot -> reference id, in arrival order.
  std::vector<data::EntityId> slots;
  /// slot -> MinHash signature.
  std::vector<std::vector<uint64_t>> signatures;
  /// slot -> seeded neighborhood id, or IncrementalCover::kNoSeed.
  std::vector<uint32_t> seed_neighborhoods;
  /// Neighborhood id -> sorted member entities.
  std::vector<std::vector<data::EntityId>> neighborhoods;
  /// Core membership rows (canopy/pair-repair members), sorted by entity.
  std::vector<core::MembershipEntry> core_entries;
  /// Full membership rows (core + boundary), sorted by entity.
  std::vector<core::MembershipEntry> full_entries;
  /// Ingest work counters as of the snapshot.
  IngestStats stats;
  /// Per-shard LSH buckets (fast path; see above). Either empty or exactly
  /// one map per shard of the restoring index.
  std::vector<blocking::LshIndex::BucketMap> lsh_buckets;
};

/// Incrementally maintained total cover over the *live* subset of a
/// dataset's author references — the cover half of the streaming ingest
/// subsystem. References arrive one at a time through Insert(); signatures
/// and the sharded banded LSH index grow in place, and only the affected
/// neighborhoods are patched, never rebuilt.
///
/// The maintained cover satisfies, at every point, the two totality
/// properties the batch builders establish with their post-passes
/// (Definition 7):
///  * total w.r.t. Similar — every candidate pair between live references
///    shares a neighborhood in which both endpoints are *core* members
///    (canopy membership or pair repair, mirroring core::PatchPairCoverage);
///  * boundary-expanded w.r.t. Coauthor — every live coauthor of a core
///    member belongs to that member's neighborhoods (mirroring
///    core::ExpandCoauthorBoundary, one round: boundary members do not
///    recurse).
/// Those two properties are what make the message-passing fixpoint agree
/// with a batch rebuild (see streaming_matcher.h); the streamed cover is
/// NOT bit-identical to the batch cover — it does not have to be.
///
/// Not thread-safe: Insert() calls must be serialised by the caller (the
/// StreamingMatcher ingests serially; batch ingest parallelises signature
/// computation, not the index/cover mutation).
class IncrementalCover {
 public:
  /// Sentinel of the seed-neighborhood map: this slot seeds no
  /// neighborhood. Part of the snapshot format (persist/).
  static constexpr uint32_t kNoSeed = 0xffffffffu;

  /// `dataset` must be finalized with candidate pairs built and must
  /// outlive this object. The LSH shard count comes from `ctx`.
  IncrementalCover(const data::Dataset& dataset,
                   const IncrementalCoverOptions& options,
                   const ExecutionContext& ctx);

  /// True if `ref` has been inserted.
  bool is_live(data::EntityId ref) const { return slot_of_.count(ref) > 0; }

  /// Number of live references (== the LSH index's document count).
  size_t num_live() const { return index_.size(); }

  /// Arrival slot of a live reference, or IncrementalCover::kNoSeed if
  /// `ref` has not been inserted. The serving layer maps LSH candidate
  /// slots back to entity ids with slots(); this is the inverse direction
  /// (live query ref -> its own slot, so its self-collision can be
  /// filtered from the probe result).
  uint32_t SlotOf(data::EntityId ref) const {
    const auto it = slot_of_.find(ref);
    return it == slot_of_.end() ? kNoSeed : it->second;
  }

  /// The maintained cover. Neighborhood ids are stable: neighborhoods only
  /// ever grow, none is ever removed.
  const core::Cover& cover() const { return cover_; }

  /// Largest neighborhood size (the paper's k), maintained O(1) so the
  /// per-insert drain never rescans the whole cover for its safety cap.
  size_t max_neighborhood_size() const { return max_neighborhood_size_; }

  /// Sorted ids of the neighborhoods containing `e` (boundary members
  /// included) — the streaming counterpart of core::NeighborIndex, used by
  /// the matcher to re-activate neighborhoods affected by a new match.
  const std::vector<uint32_t>& HomesOf(data::EntityId e) const {
    return full_.HomesOf(e);
  }

  const IngestStats& stats() const { return stats_; }
  const IncrementalCoverOptions& options() const { return options_; }

  /// MinHash signature of `ref`'s blocking tokens, read from the dataset's
  /// blocking substrate (data::Dataset::BlockingTokens). Pure (no state
  /// change): batch ingest computes signatures for a whole chunk in
  /// parallel before the serial inserts.
  std::vector<uint64_t> ComputeSignature(data::EntityId ref) const;

  /// Inserts a live reference with a precomputed signature and patches the
  /// affected neighborhoods. `ref` must be an author reference of the
  /// dataset, not yet live. Returns the ids of the neighborhoods whose
  /// membership changed (sorted, unique; includes a newly created
  /// neighborhood, if any) — the dirty set re-matching must re-enqueue.
  std::vector<uint32_t> Insert(data::EntityId ref,
                               std::vector<uint64_t> signature);

  /// Convenience: computes the signature inline.
  std::vector<uint32_t> Insert(data::EntityId ref) {
    return Insert(ref, ComputeSignature(ref));
  }

  // --- serialization support (persist/) ------------------------------------
  // Const views of the complete mutable state, in declaration order of the
  // members they expose; together with options() and stats() they let a
  // snapshot writer enumerate everything RestoreState() needs. Pinned
  // against observable behavior by the persist tests.

  /// Arrival order: slot -> reference id. slots()[i] was the (i+1)-th live
  /// reference.
  const std::vector<data::EntityId>& slots() const { return slots_; }

  /// slot -> MinHash signature (what ComputeSignature returned at insert).
  const std::vector<std::vector<uint64_t>>& signatures() const {
    return signatures_;
  }

  /// slot -> id of the neighborhood it seeds, or kNoSeed.
  const std::vector<uint32_t>& seed_neighborhoods() const {
    return seed_neighborhood_;
  }

  /// The sharded banded LSH index over the live signatures.
  const blocking::LshIndex& lsh_index() const { return index_; }

  /// Core membership (canopy members and pair repairs) — the pair-patch
  /// bookkeeping: pair-coverage decisions test this, never boundary
  /// membership.
  const core::CoverMembership& core_membership() const { return core_; }

  /// Full membership (core + boundary): mirrors cover() exactly.
  const core::CoverMembership& full_membership() const { return full_; }

  /// Restores a snapshot into a freshly constructed cover (num_live() must
  /// be 0) built over the same dataset and options. The LSH index is
  /// installed from state.lsh_buckets when they match this cover's shard
  /// count, else rebuilt from the signatures in parallel on `ctx` — either
  /// way every subsequent Insert() behaves bit-identically to the original
  /// uninterrupted run. Returns InvalidArgument (state untouched aside
  /// from moves) when the image is structurally inconsistent.
  Status RestoreState(IncrementalCoverState state,
                      const ExecutionContext& ctx);

 private:
  /// Adds `e` to neighborhood `n`. Core members (canopy/pair-repair) pull
  /// their live coauthors in as boundary members — the incremental
  /// ExpandCoauthorBoundary. Records changed neighborhoods in `dirty`.
  void AddMember(uint32_t n, data::EntityId e, bool core,
                 std::vector<uint32_t>& dirty);

  const data::Dataset& dataset_;
  IncrementalCoverOptions options_;
  blocking::MinHasher hasher_;
  blocking::LshIndex index_;
  core::Cover cover_;
  /// Core membership: canopy members and pair repairs — what the batch
  /// patch pass sees. Pair-coverage decisions test this, never boundary
  /// membership, mirroring the batch order (patch, then expand).
  core::CoverMembership core_;
  /// Full membership (core + boundary): what the cover actually contains.
  core::CoverMembership full_;
  /// slot -> reference id, in arrival order.
  std::vector<data::EntityId> slots_;
  std::unordered_map<data::EntityId, uint32_t> slot_of_;
  /// slot -> MinHash signature.
  std::vector<std::vector<uint64_t>> signatures_;
  /// slot -> id of the neighborhood it seeds, or kNoSeed.
  std::vector<uint32_t> seed_neighborhood_;
  size_t max_neighborhood_size_ = 0;
  IngestStats stats_;
};

}  // namespace cem::stream

#endif  // CEM_STREAM_INCREMENTAL_COVER_H_
