#include "util/execution_context.h"

#include <algorithm>
#include <cstdlib>
#include <thread>

namespace cem {
namespace {

uint32_t EnvCount(const char* name) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return 0;
  const int parsed = std::atoi(raw);
  return parsed > 0 ? static_cast<uint32_t>(parsed) : 0;
}

uint32_t ResolveThreads(uint32_t num_threads) {
  if (num_threads > 0) return num_threads;
  return std::max(1u, std::thread::hardware_concurrency());
}

/// More shards than workers so skewed shards (hot buckets cluster by key)
/// still balance; capped so tiny indexes do not pay per-shard overhead.
uint32_t ResolveShards(uint32_t num_shards, uint32_t num_threads) {
  if (num_shards > 0) return std::min(num_shards, 256u);
  return std::clamp(4 * num_threads, 1u, 256u);
}

}  // namespace

ExecutionContext::ExecutionContext()
    : pool_(&SharedThreadPool()),
      num_shards_(ResolveShards(EnvCount("CEM_LSH_SHARDS"),
                                static_cast<uint32_t>(pool_->num_threads()))),
      seed_(kDefaultSeed) {}

ExecutionContext::ExecutionContext(uint32_t num_threads, uint32_t num_shards,
                                   uint64_t seed)
    : owned_pool_(std::make_unique<ThreadPool>(ResolveThreads(num_threads))),
      pool_(owned_pool_.get()),
      num_shards_(ResolveShards(
          num_shards > 0 ? num_shards : EnvCount("CEM_LSH_SHARDS"),
          static_cast<uint32_t>(pool_->num_threads()))),
      seed_(seed) {}

const ExecutionContext& ExecutionContext::Default() {
  static const ExecutionContext context;
  return context;
}

}  // namespace cem
