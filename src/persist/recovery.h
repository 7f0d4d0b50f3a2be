#ifndef CEM_PERSIST_RECOVERY_H_
#define CEM_PERSIST_RECOVERY_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/matcher.h"
#include "data/entity.h"
#include "persist/format.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "stream/streaming_matcher.h"
#include "util/io.h"
#include "util/status.h"

namespace cem::persist {

/// Durability knobs of a persisted streaming run.
struct PersistOptions {
  /// State directory: holds wal.log and snap_<inserts>/ subdirectories.
  std::string dir;
  /// Auto-checkpoint after at least this many inserts since the last
  /// snapshot (taken at the enclosing Add/AddBatch boundary — the matcher
  /// is quiescent there). 0 disables auto-checkpointing; explicit
  /// Checkpoint() calls still work.
  size_t snapshot_every_inserts = 4096;
  /// Optional write-path fault injection, shared by the WAL and every
  /// snapshot file (crash-recovery tests). Must outlive the matcher.
  io::FaultPlan* faults = nullptr;
  /// fsync every WAL append and snapshot file (plus the snapshot
  /// directory entries). Off, acknowledged chunks survive a process
  /// crash but an OS crash or power loss can lose bytes still in the
  /// page cache; on, the durability point extends to power loss at a
  /// large per-append cost.
  bool fsync = false;
};

/// The arrival sidecar (arrival.meta): the replay parameters of the tool
/// that fed a persisted stream. The StateFingerprint binds a state
/// directory to the dataset and cover options but not to the feeder's
/// arrival shuffle — recovering with a different seed would pass the
/// fingerprint check and then silently feed references from a different
/// permutation. The seed (and the chunk size, which fixes the replayed
/// drain boundaries) therefore persist next to the WAL and are reconciled
/// on recovery.
struct ArrivalMeta {
  /// Seed of the seeded random arrival order.
  uint64_t arrival_seed = 0;
  /// References per AddBatch chunk.
  uint32_t stream_chunk = 0;

  friend bool operator==(const ArrivalMeta&, const ArrivalMeta&) = default;
};

/// Writes `meta` as `dir`/arrival.meta (overwriting).
Status WriteArrivalMeta(const std::string& dir, const ArrivalMeta& meta);

/// Reads `dir`/arrival.meta. NotFound when the sidecar does not exist;
/// InvalidArgument when it exists but does not parse.
Result<ArrivalMeta> ReadArrivalMeta(const std::string& dir);

/// What Recover() found and did.
struct RecoveryInfo {
  /// Live references after recovery (snapshot + replayed WAL tail).
  size_t inserts_recovered = 0;
  /// Insert count of the snapshot used (0 with used_snapshot false when
  /// recovery rebuilt purely from the WAL).
  size_t snapshot_inserts = 0;
  bool used_snapshot = false;
  /// Snapshot candidates skipped as incomplete or corrupt (missing shard
  /// file, bad checksum, torn MANIFEST...); recovery falls back newest to
  /// oldest, then to a pure WAL replay.
  size_t snapshots_skipped = 0;
  /// WAL chunks re-ingested past the snapshot point.
  size_t chunks_replayed = 0;
  /// True when a torn or corrupt WAL tail was dropped (and the file
  /// truncated back to its valid prefix).
  bool wal_tail_truncated = false;
};

/// A StreamingMatcher wrapped in snapshot + WAL durability. Usage:
///
///   PersistentStreamingMatcher psm(matcher, stream_options, {dir});
///   CEM_RETURN_IF_ERROR(psm.Start());      // fresh run, or
///   CEM_RETURN_IF_ERROR(psm.Recover(&i));  // resume after a crash
///   psm.AddBatch(chunk);                    // WAL append, then apply
///
/// Every ingest call appends its chunk to the WAL and flushes BEFORE
/// applying it, so the recoverable insert count is always a chunk
/// boundary; Recover() loads the newest complete snapshot (skipping
/// damaged ones), replays the WAL chunks past it through AddBatch, and
/// truncates any torn tail. The WAL header records the insert count its
/// chunks continue from (0 for a fresh run; the recovered state's count
/// when Recover() rebuilds a missing WAL next to a surviving snapshot),
/// so replay accounting stays correct across repeated crash/recover
/// cycles. Because replay repeats the original chunk boundaries, the
/// recovered matches, cover AND work counters are bit-identical to the
/// uninterrupted run at the same point — the caller only re-feeds
/// references from num_live() onward (anything the WAL lost in the torn
/// tail was, by the write-ahead discipline, never acknowledged as
/// applied). Acknowledged means durable against process crashes; set
/// PersistOptions::fsync to extend that to OS crashes and power loss.
class PersistentStreamingMatcher {
 public:
  /// `matcher` must outlive this object; `stream_options.context`, when
  /// set, likewise. The state directory is bound to the fingerprint of
  /// (dataset shape, cover options): Recover() refuses state written
  /// under any other configuration.
  PersistentStreamingMatcher(const core::Matcher& matcher,
                             const stream::StreamingOptions& stream_options,
                             const PersistOptions& persist_options);

  /// Begins a fresh persisted run: creates the directory and an empty
  /// WAL. Fails with FailedPrecondition if the directory already holds
  /// streaming state (recover or wipe it explicitly instead).
  Status Start();

  /// Resumes from the directory's state as described above. Fails with
  /// NotFound when the directory holds no state at all, and with
  /// InvalidArgument on a fingerprint mismatch.
  Status Recover(RecoveryInfo* info = nullptr);

  /// Ingest one chunk: WAL append + flush, apply, auto-checkpoint. A
  /// non-OK status (real IO failure or simulated crash) means the chunk
  /// may not have been applied; the matcher must be abandoned and
  /// recovered. Add(ref) is AddBatch({ref}).
  Status Add(data::EntityId ref);
  Status AddBatch(const std::vector<data::EntityId>& refs);

  /// Writes a snapshot of the current (quiescent) state now.
  Status Checkpoint();

  /// The wrapped matcher. Valid after a successful Start()/Recover().
  const stream::StreamingMatcher& matcher() const { return *inner_; }
  size_t num_live() const { return inner_->num_live(); }
  bool started() const { return started_; }

  const StateFingerprint& fingerprint() const { return fingerprint_; }

 private:
  Status MaybeAutoCheckpoint();

  const core::Matcher& core_matcher_;
  stream::StreamingOptions stream_options_;
  PersistOptions options_;
  StateFingerprint fingerprint_;
  std::unique_ptr<stream::StreamingMatcher> inner_;
  WalWriter wal_;
  size_t last_checkpoint_inserts_ = 0;
  bool started_ = false;
};

}  // namespace cem::persist

#endif  // CEM_PERSIST_RECOVERY_H_
