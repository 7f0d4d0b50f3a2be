#ifndef CEM_UTIL_EPOCH_SET_H_
#define CEM_UTIL_EPOCH_SET_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace cem {

/// Dense membership over ids 0..universe-1 with O(1) clearing: each id
/// carries the epoch that last inserted it, and Reset() starts a new epoch
/// instead of touching every slot. Built for per-neighborhood scratch that
/// is cleared once per call and probed many times (matcher solves, cover
/// statistics, streaming re-scoring), where a fresh hash set per call
/// would dominate the work.
///
/// Not thread-safe; concurrent callers keep one set per thread.
class EpochSet {
 public:
  /// Empties the set and makes ids below `universe` addressable. Storage
  /// grows lazily and never shrinks, so one set serves inputs of any size.
  /// When the epoch counter wraps around, every stamp is cleared so stale
  /// stamps from 2^32 resets ago cannot read as members.
  void Reset(size_t universe) {
    if (stamps_.size() < universe) stamps_.resize(universe, 0);
    if (epoch_ == std::numeric_limits<uint32_t>::max()) {
      std::fill(stamps_.begin(), stamps_.end(), 0);
      epoch_ = 0;
    }
    ++epoch_;
  }

  /// Adds `id`; returns false if it was already a member this epoch.
  bool Insert(uint32_t id) {
    uint32_t& stamp = stamps_[id];
    if (stamp == epoch_) return false;
    stamp = epoch_;
    return true;
  }

  bool Contains(uint32_t id) const { return stamps_[id] == epoch_; }

  /// Ids addressable since the last Reset().
  size_t universe() const { return stamps_.size(); }

  /// Jumps the epoch counter (tests exercise the wraparound with it).
  void SetEpochForTesting(uint32_t epoch) { epoch_ = epoch; }

 private:
  std::vector<uint32_t> stamps_;
  uint32_t epoch_ = 1;  // Stamps start at 0, which is never a live epoch.
};

}  // namespace cem

#endif  // CEM_UTIL_EPOCH_SET_H_
