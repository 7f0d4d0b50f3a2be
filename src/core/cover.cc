#include "core/cover.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <unordered_set>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/epoch_set.h"
#include "util/logging.h"

namespace cem::core {
namespace {

void Normalize(std::vector<data::EntityId>& entities) {
  std::sort(entities.begin(), entities.end());
  entities.erase(std::unique(entities.begin(), entities.end()),
                 entities.end());
}

bool ContainsSorted(const std::vector<data::EntityId>& sorted,
                    data::EntityId e) {
  return std::binary_search(sorted.begin(), sorted.end(), e);
}

/// Calls `fn(id)` for every candidate pair with both endpoints in `n`,
/// once each; `members` is scratch for the membership test.
template <typename Fn>
void ForEachContainedPair(const data::Dataset& dataset, const Neighborhood& n,
                          EpochSet& members, Fn&& fn) {
  members.Reset(dataset.num_entities());
  for (data::EntityId e : n.entities) members.Insert(e);
  for (data::EntityId e : n.entities) {
    for (data::PairId id : dataset.PairsOfEntity(e)) {
      const data::EntityPair p = dataset.candidate_pair(id).pair;
      if (p.a == e && members.Contains(p.b)) fn(id);
    }
  }
}

}  // namespace

Cover::Cover(std::vector<Neighborhood> neighborhoods)
    : neighborhoods_(std::move(neighborhoods)) {
  for (Neighborhood& n : neighborhoods_) Normalize(n.entities);
}

size_t Cover::Add(std::vector<data::EntityId> entities) {
  Normalize(entities);
  neighborhoods_.push_back(Neighborhood{std::move(entities)});
  return neighborhoods_.size() - 1;
}

void Cover::AddEntityTo(size_t i, data::EntityId entity) {
  CEM_CHECK(i < neighborhoods_.size());
  std::vector<data::EntityId>& v = neighborhoods_[i].entities;
  auto it = std::lower_bound(v.begin(), v.end(), entity);
  if (it == v.end() || *it != entity) v.insert(it, entity);
}

size_t Cover::MaxNeighborhoodSize() const {
  size_t max_size = 0;
  for (const Neighborhood& n : neighborhoods_) {
    max_size = std::max(max_size, n.entities.size());
  }
  return max_size;
}

double Cover::MeanNeighborhoodSize() const {
  if (neighborhoods_.empty()) return 0.0;
  size_t total = 0;
  for (const Neighborhood& n : neighborhoods_) total += n.entities.size();
  return static_cast<double>(total) / neighborhoods_.size();
}

size_t Cover::TotalContainedPairs(const data::Dataset& dataset) const {
  EpochSet members;
  size_t total = 0;
  for (const Neighborhood& n : neighborhoods_) {
    ForEachContainedPair(dataset, n, members, [&](data::PairId) { ++total; });
  }
  return total;
}

bool Cover::CoversAllAuthorRefs(const data::Dataset& dataset) const {
  std::unordered_set<data::EntityId> covered;
  for (const Neighborhood& n : neighborhoods_) {
    covered.insert(n.entities.begin(), n.entities.end());
  }
  for (data::EntityId ref : dataset.author_refs()) {
    if (!covered.count(ref)) return false;
  }
  return true;
}

bool Cover::IsTotalForCoauthor(const data::Dataset& dataset) const {
  // Every Coauthor tuple (u, v) must lie inside some neighborhood.
  for (data::EntityId u : dataset.author_refs()) {
    for (data::EntityId v : dataset.Coauthors(u)) {
      if (v < u) continue;  // Each symmetric tuple once.
      bool found = false;
      for (const Neighborhood& n : neighborhoods_) {
        if (ContainsSorted(n.entities, u) && ContainsSorted(n.entities, v)) {
          found = true;
          break;
        }
      }
      if (!found) return false;
    }
  }
  return true;
}

double Cover::CandidatePairCoverage(const data::Dataset& dataset) const {
  if (dataset.num_candidate_pairs() == 0) return 1.0;
  EpochSet members;
  std::vector<uint8_t> covered(dataset.num_candidate_pairs(), 0);
  size_t num_covered = 0;
  for (const Neighborhood& n : neighborhoods_) {
    ForEachContainedPair(dataset, n, members, [&](data::PairId id) {
      if (!covered[id]) {
        covered[id] = 1;
        ++num_covered;
      }
    });
  }
  return static_cast<double>(num_covered) /
         static_cast<double>(dataset.num_candidate_pairs());
}

const std::vector<uint32_t> CoverMembership::kEmptyHomes;

CoverMembership::CoverMembership(const Cover& cover) {
  for (size_t i = 0; i < cover.size(); ++i) {
    for (data::EntityId e : cover.neighborhood(i).entities) {
      Add(e, static_cast<uint32_t>(i));
    }
  }
}

bool CoverMembership::Together(data::EntityId a, data::EntityId b) const {
  const std::vector<uint32_t>& ha = HomesOf(a);
  const std::vector<uint32_t>& hb = HomesOf(b);
  // Linear merge over two sorted lists (the historical representation
  // scanned hb once per element of ha).
  size_t i = 0;
  size_t j = 0;
  while (i < ha.size() && j < hb.size()) {
    if (ha[i] == hb[j]) return true;
    if (ha[i] < hb[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

uint32_t CoverMembership::FirstHome(data::EntityId e) const {
  CEM_CHECK(Contains(e)) << "FirstHome of an uncovered entity";
  return rows_[e].first_home;
}

bool CoverMembership::Add(data::EntityId e, uint32_t n) {
  if (e >= rows_.size()) rows_.resize(e + 1);
  Row& row = rows_[e];
  if (row.homes.empty()) {
    row.first_home = n;
    ++num_entities_;
  }
  // Fast path: building from a cover (and the streaming cover's newest
  // neighborhood) records homes in ascending order.
  if (row.homes.empty() || row.homes.back() < n) {
    row.homes.push_back(n);
    return true;
  }
  const auto pos = std::lower_bound(row.homes.begin(), row.homes.end(), n);
  if (*pos == n) return false;
  row.homes.insert(pos, n);
  return true;
}

std::vector<MembershipEntry> CoverMembership::SortedEntries() const {
  std::vector<MembershipEntry> out;
  out.reserve(num_entities_);
  for (data::EntityId e = 0; e < rows_.size(); ++e) {
    if (!rows_[e].homes.empty()) {
      out.push_back({e, rows_[e].first_home, rows_[e].homes});
    }
  }
  return out;
}

CoverMembership CoverMembership::FromEntries(
    std::vector<MembershipEntry> entries) {
  CoverMembership membership;
  if (!entries.empty()) membership.rows_.resize(entries.back().entity + 1);
  for (size_t i = 0; i < entries.size(); ++i) {
    MembershipEntry& e = entries[i];
    CEM_CHECK(i == 0 || entries[i - 1].entity < e.entity)
        << "membership entries must be in strictly ascending entity order";
    CEM_CHECK(!e.homes.empty() &&
              std::is_sorted(e.homes.begin(), e.homes.end()) &&
              std::adjacent_find(e.homes.begin(), e.homes.end()) ==
                  e.homes.end())
        << "membership homes must be non-empty, sorted and unique";
    CEM_CHECK(std::binary_search(e.homes.begin(), e.homes.end(),
                                 e.first_home))
        << "first_home must be one of the homes";
    Row& row = membership.rows_[e.entity];
    row.first_home = e.first_home;
    row.homes = std::move(e.homes);
  }
  membership.num_entities_ = entries.size();
  return membership;
}

namespace {

/// Candidate pairs speculatively checked per round. Constant (not derived
/// from the thread count) so the recheck pattern — and the PatchStats
/// counters — are identical for any ExecutionContext.
constexpr size_t kPatchBatch = 4096;
/// Pairs per parallel task inside a batch: one split check is far cheaper
/// than a task dispatch, so workers pull chunks, not single pairs.
constexpr size_t kPatchChunk = 64;

}  // namespace

void PatchPairCoverage(const data::Dataset& dataset, Cover& cover,
                       const ExecutionContext& ctx, PatchStats* stats) {
  CEM_TRACE("core/patch_pair_coverage");
  CoverMembership homes(cover);
  const auto together = [&homes](data::EntityId a, data::EntityId b) {
    return homes.Together(a, b);
  };

  const std::vector<data::CandidatePair>& pairs = dataset.candidate_pairs();
  const size_t num_pairs = pairs.size();
  size_t patched = 0;
  size_t rechecked = 0;
  std::vector<uint8_t> split(std::min(kPatchBatch, num_pairs), 0);
  for (size_t start = 0; start < num_pairs; start += kPatchBatch) {
    const size_t len = std::min(kPatchBatch, num_pairs - start);
    // Parallel phase: split detection against the map as of the previous
    // batch's replay — strictly read-only (find, never operator[]).
    const size_t num_chunks = (len + kPatchChunk - 1) / kPatchChunk;
    ParallelFor(ctx.pool(), num_chunks, [&](size_t c) {
      const size_t chunk_end = std::min(len, (c + 1) * kPatchChunk);
      for (size_t i = c * kPatchChunk; i < chunk_end; ++i) {
        const data::EntityPair& p = pairs[start + i].pair;
        split[i] = together(p.a, p.b) ? 0 : 1;
      }
    });
    // Serial phase: replay the repairs in pair order. Membership only
    // grows (and repairs target FirstHome(p.a), which later additions
    // never change), so this is exactly the serial algorithm's outcome
    // for every pair.
    bool dirty = false;
    for (size_t i = 0; i < len; ++i) {
      if (!split[i]) continue;
      const data::EntityPair& p = pairs[start + i].pair;
      if (dirty) {
        ++rechecked;
        if (together(p.a, p.b)) continue;
      }
      CEM_CHECK(homes.Contains(p.a)) << "cover must contain every ref";
      const uint32_t home = homes.FirstHome(p.a);
      cover.AddEntityTo(home, p.b);
      homes.Add(p.b, home);
      ++patched;
      dirty = true;
    }
  }
  if (stats != nullptr) {
    stats->pairs_patched = patched;
    stats->pairs_rechecked = rechecked;
  }
  // Registry counters bump once per pass, at the serial tail, with the
  // already-deterministic totals — never inside the speculative batches —
  // so the exported counter_* values hold the thread/shard-invariance
  // contract (pinned by the obs determinism suite).
  static obs::Counter& patched_counter =
      obs::MetricsRegistry::Global().counter("core_pairs_patched");
  static obs::Counter& rechecked_counter =
      obs::MetricsRegistry::Global().counter("core_pairs_rechecked");
  patched_counter.Add(patched);
  rechecked_counter.Add(rechecked);
}

void ExpandCoauthorBoundary(const data::Dataset& dataset, Cover& cover,
                            const ExecutionContext& ctx) {
  CEM_TRACE("core/expand_coauthor_boundary");
  // Each iteration mutates only neighborhood i (AddEntityTo never resizes
  // the neighborhood vector itself), so neighborhoods expand in parallel
  // without synchronisation; AddEntityTo keeps members sorted/unique, so
  // the boundary's collection order does not affect the result.
  ParallelFor(ctx.pool(), cover.size(), [&](size_t i) {
    thread_local EpochSet seen;
    thread_local std::vector<data::EntityId> boundary;
    seen.Reset(dataset.num_entities());
    boundary.clear();
    for (data::EntityId e : cover.neighborhood(i).entities) seen.Insert(e);
    for (data::EntityId e : cover.neighborhood(i).entities) {
      for (data::EntityId c : dataset.Coauthors(e)) {
        if (seen.Insert(c)) boundary.push_back(c);
      }
    }
    for (data::EntityId c : boundary) cover.AddEntityTo(i, c);
  });
}

std::string Cover::Summary(const data::Dataset& dataset) const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%zu neighborhoods, max size %zu, mean size %.1f, "
                "%zu contained pairs, pair coverage %.3f",
                size(), MaxNeighborhoodSize(), MeanNeighborhoodSize(),
                TotalContainedPairs(dataset),
                CandidatePairCoverage(dataset));
  return buf;
}

}  // namespace cem::core
