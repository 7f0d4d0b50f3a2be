#ifndef CEM_UTIL_EXECUTION_CONTEXT_H_
#define CEM_UTIL_EXECUTION_CONTEXT_H_

#include <cstdint>
#include <memory>

#include "util/thread_pool.h"

namespace cem {

/// Execution parameters of the parallel pipeline stages (MinHash signature
/// computation, sharded LSH insertion, cover assembly, candidate-pair
/// generation, grid rounds): a thread-pool handle, a shard count for
/// bucket-partitioned structures, and a seed — the default for the cover
/// builders' seed-selection order when their options leave it unset. One
/// context flows from the drivers (eval harness, examples, benches) down
/// into data/, blocking/ and core/, so every stage agrees on the same
/// worker budget.
///
/// Determinism contract: every algorithm taking an ExecutionContext must
/// produce bit-identical results for any thread count and any shard count —
/// parallelism may only change *when* work happens, never *what* is
/// computed. The cover-determinism tests enforce this.
class ExecutionContext {
 public:
  /// Default seed of context-scoped randomized choices (equals the cover
  /// builders' historical default, so covers are stable across contexts).
  static constexpr uint64_t kDefaultSeed = 7;

  /// Shared-pool context: runs on SharedThreadPool() (worker count from
  /// CEM_THREADS, see thread_pool.h) with the LSH bucket shard count from
  /// CEM_LSH_SHARDS (unset/0 = 4x the worker count, clamped to [1, 256]).
  ExecutionContext();

  /// Dedicated-pool context with `num_threads` workers (0 = hardware
  /// concurrency) and `num_shards` LSH bucket shards (0 = CEM_LSH_SHARDS,
  /// else 4x the worker count).
  explicit ExecutionContext(uint32_t num_threads, uint32_t num_shards = 0,
                            uint64_t seed = kDefaultSeed);

  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;
  ExecutionContext(ExecutionContext&&) = default;
  ExecutionContext& operator=(ExecutionContext&&) = default;

  /// Process-wide default context (shared pool, env-derived knobs), used by
  /// every API whose caller does not pass an explicit context.
  static const ExecutionContext& Default();

  ThreadPool& pool() const { return *pool_; }
  uint32_t num_threads() const {
    return static_cast<uint32_t>(pool_->num_threads());
  }
  /// Bucket shard count of blocking::LshIndex (batch and incremental).
  uint32_t num_shards() const { return num_shards_; }
  uint64_t seed() const { return seed_; }

 private:
  std::unique_ptr<ThreadPool> owned_pool_;  // Null for shared-pool contexts.
  ThreadPool* pool_;
  uint32_t num_shards_;
  uint64_t seed_;
};

}  // namespace cem

#endif  // CEM_UTIL_EXECUTION_CONTEXT_H_
