#include "persist/recovery.h"

#include <filesystem>
#include <fstream>
#include <utility>

#include "util/logging.h"

namespace cem::persist {
namespace {

namespace fs = std::filesystem;

std::string WalPath(const std::string& dir) {
  return (fs::path(dir) / "wal.log").string();
}

std::string ArrivalMetaPath(const std::string& dir) {
  return (fs::path(dir) / "arrival.meta").string();
}

}  // namespace

Status WriteArrivalMeta(const std::string& dir, const ArrivalMeta& meta) {
  std::ofstream out(ArrivalMetaPath(dir), std::ios::trunc);
  out << "arrival_seed\t" << meta.arrival_seed << "\nstream_chunk\t"
      << meta.stream_chunk << "\n";
  if (!out) {
    return InternalError("cannot write " + ArrivalMetaPath(dir));
  }
  return OkStatus();
}

Result<ArrivalMeta> ReadArrivalMeta(const std::string& dir) {
  const std::string path = ArrivalMetaPath(dir);
  std::ifstream in(path);
  if (!in) return NotFoundError(path + " does not exist");
  ArrivalMeta meta;
  std::string key;
  unsigned long long value = 0;
  if (!(in >> key >> value) || key != "arrival_seed") {
    return InvalidArgumentError(path + " is malformed (arrival_seed)");
  }
  meta.arrival_seed = value;
  if (!(in >> key >> value) || key != "stream_chunk") {
    return InvalidArgumentError(path + " is malformed (stream_chunk)");
  }
  meta.stream_chunk = static_cast<uint32_t>(value);
  return meta;
}

PersistentStreamingMatcher::PersistentStreamingMatcher(
    const core::Matcher& matcher, const stream::StreamingOptions& stream_options,
    const PersistOptions& persist_options)
    : core_matcher_(matcher),
      stream_options_(stream_options),
      options_(persist_options),
      fingerprint_(
          StateFingerprint::Of(matcher.dataset(), stream_options.cover)),
      wal_(WalPath(persist_options.dir), persist_options.faults,
           persist_options.fsync) {}

Status PersistentStreamingMatcher::Start() {
  if (started_) return FailedPreconditionError("already started");
  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  if (ec) {
    return InternalError("cannot create " + options_.dir + ": " + ec.message());
  }
  if (fs::exists(wal_.path()) || !ListSnapshots(options_.dir).empty()) {
    return FailedPreconditionError(
        options_.dir + " already holds streaming state; Recover() it or "
                       "wipe it explicitly");
  }
  inner_ = std::make_unique<stream::StreamingMatcher>(core_matcher_,
                                                      stream_options_);
  CEM_RETURN_IF_ERROR(wal_.Create(fingerprint_));
  started_ = true;
  return OkStatus();
}

Status PersistentStreamingMatcher::Recover(RecoveryInfo* info) {
  if (started_) return FailedPreconditionError("already started");
  RecoveryInfo local;
  RecoveryInfo& out = info != nullptr ? *info : local;
  out = RecoveryInfo{};

  const std::string wal_path = WalPath(options_.dir);
  const bool wal_exists = fs::exists(wal_path);
  const std::vector<SnapshotRef> snapshots = ListSnapshots(options_.dir);
  if (!wal_exists && snapshots.empty()) {
    return NotFoundError("nothing to recover in " + options_.dir);
  }

  Result<WalContents> wal_result = ReadWal(wal_path, fingerprint_);
  if (!wal_result.ok()) return wal_result.status();
  WalContents wal = std::move(wal_result.value());

  // Newest complete snapshot wins; damaged candidates are skipped with a
  // warning. Each attempt gets a fresh matcher — a partial restore must
  // never leak into the next attempt or the final state.
  inner_.reset();
  for (const SnapshotRef& ref : snapshots) {
    auto attempt = std::make_unique<stream::StreamingMatcher>(core_matcher_,
                                                              stream_options_);
    const Status status = LoadSnapshot(ref.path, *attempt);
    if (status.ok()) {
      inner_ = std::move(attempt);
      out.used_snapshot = true;
      out.snapshot_inserts = ref.inserts;
      break;
    }
    ++out.snapshots_skipped;
    CEM_LOG(Warning) << "skipping snapshot " << ref.path << ": "
                     << status.ToString();
  }
  if (inner_ == nullptr) {
    inner_ = std::make_unique<stream::StreamingMatcher>(core_matcher_,
                                                        stream_options_);
  }
  const size_t snapshot_inserts = inner_->num_live();

  // Replay the WAL chunks past the snapshot point, counting from the
  // WAL's base (a WAL rebuilt by an earlier recovery starts at that
  // recovery's insert count, not 0). A base ahead of the best loadable
  // snapshot means the snapshot the base came from was since damaged —
  // the inserts in the gap were acknowledged but are on neither surviving
  // medium, which must surface as data loss, not as a silently older
  // state.
  if (wal.header_valid && wal.base_inserts > snapshot_inserts) {
    return InternalError(
        options_.dir + ": WAL continues from insert " +
        std::to_string(wal.base_inserts) + " but the best loadable state " +
        "holds " + std::to_string(snapshot_inserts) +
        " — acknowledged inserts were lost with a damaged snapshot");
  }
  // Snapshots are taken at chunk boundaries, so the skip either lands
  // exactly on the snapshot's insert count or runs out of surviving
  // chunks (a snapshot newer than the readable WAL prefix — e.g. a
  // mid-WAL flip — needs no replay).
  size_t skipped_inserts =
      wal.header_valid ? static_cast<size_t>(wal.base_inserts) : 0;
  size_t chunk = 0;
  while (chunk < wal.chunks.size() && skipped_inserts < snapshot_inserts) {
    if (skipped_inserts + wal.chunks[chunk].size() > snapshot_inserts) {
      return InternalError(options_.dir +
                           ": WAL chunks misaligned with the snapshot");
    }
    skipped_inserts += wal.chunks[chunk].size();
    ++chunk;
  }
  for (; chunk < wal.chunks.size(); ++chunk) {
    for (data::EntityId ref : wal.chunks[chunk]) {
      if (inner_->is_live(ref)) {
        return InternalError(options_.dir +
                             ": WAL replays an already-live reference");
      }
    }
    inner_->AddBatch(wal.chunks[chunk]);
    ++out.chunks_replayed;
  }

  // Repair the WAL for continued appends: recreate it when the header
  // never made it to disk — based at the recovered insert count, so the
  // next recovery knows its chunks continue from here — truncate away any
  // torn tail otherwise.
  if (!wal.header_valid) {
    CEM_RETURN_IF_ERROR(wal_.Create(fingerprint_, inner_->num_live()));
  } else {
    std::error_code ec;
    const uintmax_t size = fs::file_size(wal_path, ec);
    if (!ec && size > wal.valid_bytes) {
      fs::resize_file(wal_path, wal.valid_bytes, ec);
      if (ec) {
        return InternalError("cannot truncate " + wal_path + ": " +
                             ec.message());
      }
      out.wal_tail_truncated = true;
    }
    CEM_RETURN_IF_ERROR(wal_.OpenForAppend());
  }

  out.inserts_recovered = inner_->num_live();
  last_checkpoint_inserts_ = out.snapshot_inserts;
  started_ = true;
  return OkStatus();
}

Status PersistentStreamingMatcher::Add(data::EntityId ref) {
  return AddBatch({ref});
}

Status PersistentStreamingMatcher::AddBatch(
    const std::vector<data::EntityId>& refs) {
  if (!started_) return FailedPreconditionError("Start() or Recover() first");
  if (refs.empty()) return OkStatus();
  CEM_RETURN_IF_ERROR(wal_.AppendChunk(refs));
  inner_->AddBatch(refs);
  return MaybeAutoCheckpoint();
}

Status PersistentStreamingMatcher::Checkpoint() {
  if (!started_) return FailedPreconditionError("Start() or Recover() first");
  CEM_RETURN_IF_ERROR(
      SaveSnapshot(options_.dir, *inner_, options_.faults, options_.fsync));
  last_checkpoint_inserts_ = inner_->num_live();
  return OkStatus();
}

Status PersistentStreamingMatcher::MaybeAutoCheckpoint() {
  if (options_.snapshot_every_inserts == 0) return OkStatus();
  if (inner_->num_live() - last_checkpoint_inserts_ <
      options_.snapshot_every_inserts) {
    return OkStatus();
  }
  return Checkpoint();
}

}  // namespace cem::persist
