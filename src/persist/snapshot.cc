#include "persist/snapshot.h"

#include <algorithm>
#include <filesystem>
#include <span>
#include <string_view>
#include <utility>

#include "data/entity.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace cem::persist {
namespace {

namespace fs = std::filesystem;

/// Upper bound on a shard count read from a file: per-shard bookkeeping
/// vectors are sized by it before any shard file is opened, so an absurd
/// value must be rejected, not allocated.
constexpr uint32_t kMaxShards = 1u << 16;

const ExecutionContext& Resolve(const stream::StreamingMatcher& matcher) {
  return matcher.options().context != nullptr ? *matcher.options().context
                                              : ExecutionContext::Default();
}

std::string ShardFileName(std::string_view stem, size_t shard) {
  return std::string(stem) + "_" + std::to_string(shard) + ".bin";
}

/// First non-OK status of a parallel fan-out (deterministic pick: lowest
/// shard index wins, independent of completion order).
Status FirstError(const std::vector<Status>& statuses) {
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  return OkStatus();
}

// --- encode helpers ---------------------------------------------------------

void PutMembershipEntries(io::Buffer& out,
                          const std::vector<core::MembershipEntry>& entries) {
  out.PutU64(entries.size());
  for (const core::MembershipEntry& e : entries) {
    out.PutU32(e.entity);
    out.PutU32(e.first_home);
    out.PutU32(static_cast<uint32_t>(e.homes.size()));
    for (uint32_t h : e.homes) out.PutU32(h);
  }
}

Status GetMembershipEntries(io::Cursor& in, const std::string& what,
                            std::vector<core::MembershipEntry>* out) {
  const uint64_t count = in.GetU64();
  out->clear();
  // Counts come from the file; clamp every reserve to what the payload
  // could actually hold so a corrupt-yet-CRC-valid count is a parse
  // failure, not a bad_alloc (each entry is >= 12 encoded bytes, each
  // home 4).
  out->reserve(io::ClampCount(count, in.remaining(), 12));
  for (uint64_t i = 0; i < count && in.ok(); ++i) {
    core::MembershipEntry e;
    e.entity = in.GetU32();
    e.first_home = in.GetU32();
    const uint32_t homes = in.GetU32();
    e.homes.reserve(io::ClampCount(homes, in.remaining(), 4));
    for (uint32_t h = 0; h < homes && in.ok(); ++h) {
      e.homes.push_back(in.GetU32());
    }
    // Validate here, not in CoverMembership::FromEntries: its CEM_CHECKs
    // guard programmer errors and abort, while a decoder must turn any
    // structural damage into a skippable status.
    if (!in.ok()) break;
    if (e.homes.empty() ||
        !std::is_sorted(e.homes.begin(), e.homes.end()) ||
        std::adjacent_find(e.homes.begin(), e.homes.end()) != e.homes.end() ||
        !std::binary_search(e.homes.begin(), e.homes.end(), e.first_home)) {
      return InvalidArgumentError(what + ": malformed membership entry");
    }
    if (!out->empty() && out->back().entity >= e.entity) {
      return InvalidArgumentError(what + ": membership entries out of order");
    }
    out->push_back(std::move(e));
  }
  if (!in.ok()) return InvalidArgumentError(what + ": truncated memberships");
  return OkStatus();
}

void PutIngestStats(io::Buffer& out, const stream::IngestStats& s) {
  out.PutU64(s.inserts);
  out.PutU64(s.seeds_created);
  out.PutU64(s.canopies_touched);
  out.PutU64(s.lsh_candidates_scanned);
  out.PutU64(s.pairs_patched);
  out.PutU64(s.boundary_additions);
  out.PutU64(s.memberships_added);
}

stream::IngestStats GetIngestStats(io::Cursor& in) {
  stream::IngestStats s;
  s.inserts = in.GetU64();
  s.seeds_created = in.GetU64();
  s.canopies_touched = in.GetU64();
  s.lsh_candidates_scanned = in.GetU64();
  s.pairs_patched = in.GetU64();
  s.boundary_additions = in.GetU64();
  s.memberships_added = in.GetU64();
  return s;
}

/// Reads one snapshot section file and validates its section tag; returns
/// the payload bytes positioned after the tag via `cursor_out`.
Status ReadSection(const std::string& path, Section expected,
                   std::string* payload) {
  Result<std::string> bytes =
      io::ReadFramedFile(path, kSnapshotMagic, kSnapshotVersion);
  if (!bytes.ok()) return bytes.status();
  *payload = std::move(bytes.value());
  if (payload->empty() ||
      static_cast<uint8_t>((*payload)[0]) != static_cast<uint8_t>(expected)) {
    return InvalidArgumentError(path + ": wrong section tag");
  }
  return OkStatus();
}

struct Manifest {
  StateFingerprint fingerprint;
  uint64_t inserts = 0;
  uint32_t num_shards = 0;
  uint64_t num_neighborhoods = 0;
  uint64_t num_matches = 0;
  uint64_t num_core_entries = 0;
  uint64_t num_full_entries = 0;
};

}  // namespace

Status SaveSnapshot(const std::string& dir,
                    const stream::StreamingMatcher& matcher,
                    io::FaultPlan* faults, bool sync) {
  if (!matcher.quiescent()) {
    return FailedPreconditionError(
        "snapshots are only taken at quiescent points");
  }
  static obs::Histogram& save_hist =
      obs::MetricsRegistry::Global().histogram("persist_snapshot_save_us");
  static obs::Counter& saves_counter =
      obs::MetricsRegistry::Global().counter("persist_snapshots_saved");
  CEM_TRACE_TIMED("persist/snapshot_save", &save_hist);
  saves_counter.Add(1);
  const stream::IncrementalCover& cover = matcher.incremental_cover();
  const blocking::LshIndex& index = cover.lsh_index();
  const size_t n = cover.slots().size();
  const size_t num_shards = index.num_shards();
  const ExecutionContext& ctx = Resolve(matcher);
  const StateFingerprint fingerprint =
      StateFingerprint::Of(matcher.dataset(), cover.options());

  const fs::path snap_dir = fs::path(dir) / SnapshotDirName(n);
  std::error_code ec;
  fs::create_directories(snap_dir, ec);
  if (ec) {
    return InternalError("cannot create " + snap_dir.string() + ": " +
                         ec.message());
  }
  // Drop any stale completeness marker first: a crash while overwriting an
  // existing snapshot at the same insert count must leave it *incomplete*.
  fs::remove(snap_dir / "MANIFEST", ec);

  {
    io::Buffer out;
    out.PutU8(static_cast<uint8_t>(Section::kStream));
    out.PutU64(n);
    for (data::EntityId ref : cover.slots()) out.PutU32(ref);
    for (uint32_t seed : cover.seed_neighborhoods()) out.PutU32(seed);
    PutIngestStats(out, cover.stats());
    CEM_RETURN_IF_ERROR(io::WriteFramedFile((snap_dir / "stream.bin").string(),
                                            kSnapshotMagic, kSnapshotVersion,
                                            out.bytes(), faults, sync));
  }
  {
    std::vector<uint64_t> keys(matcher.matches().keys().begin(),
                               matcher.matches().keys().end());
    std::sort(keys.begin(), keys.end());
    io::Buffer out;
    out.PutU8(static_cast<uint8_t>(Section::kMatches));
    out.PutU64(keys.size());
    for (uint64_t key : keys) out.PutU64(key);
    const stream::MatchingStats& m = matcher.stats().matching;
    out.PutU64(m.neighborhood_evaluations);
    out.PutU64(m.matcher_calls);
    out.PutU64(m.pairs_rescored);
    CEM_RETURN_IF_ERROR(io::WriteFramedFile((snap_dir / "matches.bin").string(),
                                            kSnapshotMagic, kSnapshotVersion,
                                            out.bytes(), faults, sync));
  }
  {
    io::Buffer out;
    out.PutU8(static_cast<uint8_t>(Section::kCover));
    out.PutU64(cover.cover().size());
    for (size_t i = 0; i < cover.cover().size(); ++i) {
      const std::vector<data::EntityId>& members =
          cover.cover().neighborhood(i).entities;
      out.PutU32(static_cast<uint32_t>(members.size()));
      for (data::EntityId e : members) out.PutU32(e);
    }
    PutMembershipEntries(out, cover.core_membership().SortedEntries());
    PutMembershipEntries(out, cover.full_membership().SortedEntries());
    CEM_RETURN_IF_ERROR(io::WriteFramedFile((snap_dir / "cover.bin").string(),
                                            kSnapshotMagic, kSnapshotVersion,
                                            out.bytes(), faults, sync));
  }

  // Shard files: one parallel-for job per shard writes that shard's
  // signature slice and its LSH buckets.
  std::vector<Status> shard_status(num_shards);
  ParallelFor(ctx.pool(), num_shards, [&](size_t s) {
    io::Buffer sig;
    sig.PutU8(static_cast<uint8_t>(Section::kSignatures));
    sig.PutU32(static_cast<uint32_t>(s));
    sig.PutU32(static_cast<uint32_t>(num_shards));
    sig.PutU32(index.num_hashes());
    uint64_t count = 0;
    for (size_t slot = s; slot < n; slot += num_shards) ++count;
    sig.PutU64(count);
    for (size_t slot = s; slot < n; slot += num_shards) {
      sig.PutU32(static_cast<uint32_t>(slot));
      for (uint64_t component : cover.signatures()[slot]) {
        sig.PutU64(component);
      }
    }
    Status status = io::WriteFramedFile(
        (snap_dir / ShardFileName("sig", s)).string(), kSnapshotMagic,
        kSnapshotVersion, sig.bytes(), faults, sync);
    if (status.ok()) {
      const blocking::LshIndex::BucketMap& buckets = index.shard_buckets(s);
      std::vector<uint64_t> bucket_keys;
      bucket_keys.reserve(buckets.size());
      for (const auto& [key, docs] : buckets) bucket_keys.push_back(key);
      std::sort(bucket_keys.begin(), bucket_keys.end());
      io::Buffer lsh;
      lsh.PutU8(static_cast<uint8_t>(Section::kLshShard));
      lsh.PutU32(static_cast<uint32_t>(s));
      lsh.PutU32(static_cast<uint32_t>(num_shards));
      lsh.PutU64(bucket_keys.size());
      for (uint64_t key : bucket_keys) {
        const std::vector<uint32_t>& docs = buckets.at(key);
        lsh.PutU64(key);
        lsh.PutU32(static_cast<uint32_t>(docs.size()));
        for (uint32_t doc : docs) lsh.PutU32(doc);
      }
      status = io::WriteFramedFile((snap_dir / ShardFileName("lsh", s)).string(),
                                   kSnapshotMagic, kSnapshotVersion,
                                   lsh.bytes(), faults, sync);
    }
    shard_status[s] = status;
  });
  CEM_RETURN_IF_ERROR(FirstError(shard_status));

  // MANIFEST last: its presence marks the snapshot complete.
  io::Buffer out;
  out.PutU8(static_cast<uint8_t>(Section::kManifest));
  fingerprint.AppendTo(out);
  out.PutU64(n);
  out.PutU32(static_cast<uint32_t>(num_shards));
  out.PutU64(cover.cover().size());
  out.PutU64(matcher.matches().size());
  out.PutU64(cover.core_membership().num_entities());
  out.PutU64(cover.full_membership().num_entities());
  CEM_RETURN_IF_ERROR(io::WriteFramedFile((snap_dir / "MANIFEST").string(),
                                          kSnapshotMagic, kSnapshotVersion,
                                          out.bytes(), faults, sync));
  if (sync) {
    // The files are durable; now make their directory entries durable too
    // (the snapshot's own entries, then the snap_ entry in the parent).
    CEM_RETURN_IF_ERROR(io::SyncDir(snap_dir.string()));
    CEM_RETURN_IF_ERROR(io::SyncDir(dir));
  }
  return OkStatus();
}

std::vector<SnapshotRef> ListSnapshots(const std::string& dir) {
  std::vector<SnapshotRef> refs;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_directory()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("snap_", 0) != 0 || name.size() <= 5) continue;
    size_t inserts = 0;
    bool numeric = true;
    for (size_t i = 5; i < name.size(); ++i) {
      if (name[i] < '0' || name[i] > '9') {
        numeric = false;
        break;
      }
      inserts = inserts * 10 + static_cast<size_t>(name[i] - '0');
    }
    if (!numeric) continue;
    refs.push_back({inserts, entry.path().string()});
  }
  std::sort(refs.begin(), refs.end(),
            [](const SnapshotRef& a, const SnapshotRef& b) {
              return a.inserts > b.inserts;
            });
  return refs;
}

Status LoadSnapshot(const std::string& snap_dir,
                    stream::StreamingMatcher& matcher) {
  static obs::Histogram& load_hist =
      obs::MetricsRegistry::Global().histogram("persist_snapshot_load_us");
  static obs::Counter& loads_counter =
      obs::MetricsRegistry::Global().counter("persist_snapshots_loaded");
  CEM_TRACE_TIMED("persist/snapshot_load", &load_hist);
  loads_counter.Add(1);
  const stream::IncrementalCover& cover = matcher.incremental_cover();
  const ExecutionContext& ctx = Resolve(matcher);
  const fs::path base(snap_dir);

  Manifest manifest;
  {
    std::string payload;
    CEM_RETURN_IF_ERROR(
        ReadSection((base / "MANIFEST").string(), Section::kManifest,
                    &payload));
    io::Cursor in(std::string_view(payload).substr(1));
    manifest.fingerprint = StateFingerprint::ReadFrom(in);
    manifest.inserts = in.GetU64();
    manifest.num_shards = in.GetU32();
    manifest.num_neighborhoods = in.GetU64();
    manifest.num_matches = in.GetU64();
    manifest.num_core_entries = in.GetU64();
    manifest.num_full_entries = in.GetU64();
    if (!in.AtEnd()) {
      return InvalidArgumentError(snap_dir + ": malformed MANIFEST");
    }
    const StateFingerprint expected =
        StateFingerprint::Of(matcher.dataset(), cover.options());
    if (manifest.fingerprint != expected) {
      return InvalidArgumentError(
          snap_dir + ": fingerprint mismatch (snapshot belongs to a "
                     "different dataset or option set)");
    }
    if (manifest.num_shards == 0) {
      return InvalidArgumentError(snap_dir + ": zero shards in MANIFEST");
    }
    if (manifest.num_shards > kMaxShards) {
      return InvalidArgumentError(snap_dir +
                                  ": implausible shard count in MANIFEST");
    }
  }
  const size_t n = manifest.inserts;
  const size_t file_shards = manifest.num_shards;

  stream::StreamingMatcherState state;
  {
    std::string payload;
    CEM_RETURN_IF_ERROR(
        ReadSection((base / "stream.bin").string(), Section::kStream,
                    &payload));
    io::Cursor in(std::string_view(payload).substr(1));
    if (in.GetU64() != n) {
      return InvalidArgumentError(snap_dir +
                                  ": stream.bin disagrees with MANIFEST");
    }
    // n slots + n seeds at 4 bytes each must fit in the payload; checked
    // before the first n-sized allocation so a corrupt insert count can
    // never trigger bad_alloc here or in the signature table below.
    if (n > in.remaining() / 8) {
      return InvalidArgumentError(snap_dir +
                                  ": implausible insert count in stream.bin");
    }
    state.cover.slots.reserve(n);
    for (size_t i = 0; i < n; ++i) state.cover.slots.push_back(in.GetU32());
    state.cover.seed_neighborhoods.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      state.cover.seed_neighborhoods.push_back(in.GetU32());
    }
    state.cover.stats = GetIngestStats(in);
    if (!in.AtEnd()) {
      return InvalidArgumentError(snap_dir + ": malformed stream.bin");
    }
  }
  {
    std::string payload;
    CEM_RETURN_IF_ERROR(
        ReadSection((base / "matches.bin").string(), Section::kMatches,
                    &payload));
    io::Cursor in(std::string_view(payload).substr(1));
    const uint64_t count = in.GetU64();
    if (count != manifest.num_matches) {
      return InvalidArgumentError(snap_dir +
                                  ": matches.bin disagrees with MANIFEST");
    }
    state.match_keys.reserve(io::ClampCount(count, in.remaining(), 8));
    for (uint64_t i = 0; i < count && in.ok(); ++i) {
      const uint64_t key = in.GetU64();
      if (!state.match_keys.empty() && state.match_keys.back() >= key) {
        return InvalidArgumentError(snap_dir + ": match keys out of order");
      }
      state.match_keys.push_back(key);
    }
    state.matching.neighborhood_evaluations = in.GetU64();
    state.matching.matcher_calls = in.GetU64();
    state.matching.pairs_rescored = in.GetU64();
    if (!in.AtEnd()) {
      return InvalidArgumentError(snap_dir + ": malformed matches.bin");
    }
  }
  {
    std::string payload;
    CEM_RETURN_IF_ERROR(
        ReadSection((base / "cover.bin").string(), Section::kCover, &payload));
    io::Cursor in(std::string_view(payload).substr(1));
    const uint64_t neighborhoods = in.GetU64();
    if (neighborhoods != manifest.num_neighborhoods) {
      return InvalidArgumentError(snap_dir +
                                  ": cover.bin disagrees with MANIFEST");
    }
    state.cover.neighborhoods.reserve(
        io::ClampCount(neighborhoods, in.remaining(), 4));
    for (uint64_t i = 0; i < neighborhoods && in.ok(); ++i) {
      const uint32_t size = in.GetU32();
      std::vector<data::EntityId> members;
      members.reserve(io::ClampCount(size, in.remaining(), 4));
      for (uint32_t m = 0; m < size && in.ok(); ++m) {
        members.push_back(in.GetU32());
      }
      if (!std::is_sorted(members.begin(), members.end()) ||
          std::adjacent_find(members.begin(), members.end()) !=
              members.end()) {
        return InvalidArgumentError(snap_dir +
                                    ": neighborhood members not sorted");
      }
      state.cover.neighborhoods.push_back(std::move(members));
    }
    CEM_RETURN_IF_ERROR(GetMembershipEntries(in, snap_dir + "/cover.bin",
                                             &state.cover.core_entries));
    CEM_RETURN_IF_ERROR(GetMembershipEntries(in, snap_dir + "/cover.bin",
                                             &state.cover.full_entries));
    if (state.cover.core_entries.size() != manifest.num_core_entries ||
        state.cover.full_entries.size() != manifest.num_full_entries) {
      return InvalidArgumentError(snap_dir +
                                  ": membership counts disagree with MANIFEST");
    }
    if (!in.AtEnd()) {
      return InvalidArgumentError(snap_dir + ": malformed cover.bin");
    }
  }

  // Signature shard files, read and decoded in parallel. Slot residues make
  // the per-shard writes into `signatures` disjoint, and each file must
  // cover its residue class in strictly ascending slot order, so a total
  // count of n proves every slot was filled exactly once.
  state.cover.signatures.assign(n, {});
  std::vector<Status> shard_status(file_shards);
  std::vector<uint64_t> shard_counts(file_shards, 0);
  ParallelFor(ctx.pool(), file_shards, [&](size_t s) {
    std::string payload;
    Status status = ReadSection((base / ShardFileName("sig", s)).string(),
                                Section::kSignatures, &payload);
    if (!status.ok()) {
      shard_status[s] = status;
      return;
    }
    io::Cursor in(std::string_view(payload).substr(1));
    const uint32_t shard = in.GetU32();
    const uint32_t total = in.GetU32();
    const uint32_t num_hashes = in.GetU32();
    const uint64_t count = in.GetU64();
    if (shard != s || total != file_shards) {
      shard_status[s] = InvalidArgumentError(
          snap_dir + ": signature shard header mismatch");
      return;
    }
    uint64_t previous_slot = 0;
    bool first = true;
    for (uint64_t i = 0; i < count && in.ok(); ++i) {
      const uint32_t slot = in.GetU32();
      if (slot >= n || slot % file_shards != s ||
          (!first && slot <= previous_slot)) {
        shard_status[s] =
            InvalidArgumentError(snap_dir + ": bad signature slot");
        return;
      }
      first = false;
      previous_slot = slot;
      std::vector<uint64_t>& sig = state.cover.signatures[slot];
      sig.reserve(io::ClampCount(num_hashes, in.remaining(), 8));
      for (uint32_t h = 0; h < num_hashes && in.ok(); ++h) {
        sig.push_back(in.GetU64());
      }
    }
    if (!in.AtEnd()) {
      shard_status[s] =
          InvalidArgumentError(snap_dir + ": malformed signature shard");
      return;
    }
    shard_counts[s] = count;
  });
  CEM_RETURN_IF_ERROR(FirstError(shard_status));
  uint64_t total_slots = 0;
  for (uint64_t c : shard_counts) total_slots += c;
  if (total_slots != n) {
    return InvalidArgumentError(snap_dir + ": signature shards miss slots");
  }

  // LSH shard files: the fast path only applies when the live index has
  // the snapshot's shard count; otherwise the restore rebuilds the buckets
  // from the signatures (identical queries — the shard-count contract).
  if (cover.lsh_index().num_shards() == file_shards) {
    state.cover.lsh_buckets.resize(file_shards);
    std::vector<Status> lsh_status(file_shards);
    ParallelFor(ctx.pool(), file_shards, [&](size_t s) {
      std::string payload;
      Status status = ReadSection((base / ShardFileName("lsh", s)).string(),
                                  Section::kLshShard, &payload);
      if (!status.ok()) {
        lsh_status[s] = status;
        return;
      }
      io::Cursor in(std::string_view(payload).substr(1));
      const uint32_t shard = in.GetU32();
      const uint32_t total = in.GetU32();
      const uint64_t buckets = in.GetU64();
      if (shard != s || total != file_shards) {
        lsh_status[s] =
            InvalidArgumentError(snap_dir + ": LSH shard header mismatch");
        return;
      }
      blocking::LshIndex::BucketMap map;
      map.reserve(io::ClampCount(buckets, in.remaining(), 12));
      uint64_t previous_key = 0;
      bool first = true;
      for (uint64_t b = 0; b < buckets && in.ok(); ++b) {
        const uint64_t key = in.GetU64();
        const uint32_t size = in.GetU32();
        if ((!first && key <= previous_key) || size == 0) {
          lsh_status[s] =
              InvalidArgumentError(snap_dir + ": malformed LSH bucket");
          return;
        }
        first = false;
        previous_key = key;
        std::vector<uint32_t> docs;
        docs.reserve(io::ClampCount(size, in.remaining(), 4));
        for (uint32_t d = 0; d < size && in.ok(); ++d) {
          const uint32_t doc = in.GetU32();
          if (doc >= n || (!docs.empty() && docs.back() >= doc)) {
            lsh_status[s] =
                InvalidArgumentError(snap_dir + ": malformed LSH bucket");
            return;
          }
          docs.push_back(doc);
        }
        map.emplace(key, std::move(docs));
      }
      if (!in.AtEnd()) {
        lsh_status[s] =
            InvalidArgumentError(snap_dir + ": malformed LSH shard");
        return;
      }
      state.cover.lsh_buckets[s] = std::move(map);
    });
    CEM_RETURN_IF_ERROR(FirstError(lsh_status));
  }

  return matcher.RestoreState(std::move(state));
}

}  // namespace cem::persist
