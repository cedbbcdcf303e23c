//===- core/detect/GrainTable.cpp - Address-to-grain metadata -------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The non-template pieces of the shard registry: a process-wide id
/// generator (one id per table instance and epoch, never reused) and a small
/// per-thread cache mapping table ids to this thread's shard. The cache is
/// a fixed ring — a thread juggling more tables than slots just re-registers
/// a fresh shard after eviction, which the merge handles naturally.
///
//===----------------------------------------------------------------------===//

#include "core/detect/GrainTable.h"

using namespace cheetah;
using namespace cheetah::core;

namespace {

struct ShardCacheEntry {
  uint64_t RegistryId = 0; // 0 = empty (ids start at 1)
  void *Shard = nullptr;
};

constexpr size_t ShardCacheSlots = 8;
thread_local ShardCacheEntry ShardCache[ShardCacheSlots];
thread_local size_t ShardCacheCursor = 0;

} // namespace

uint64_t cheetah::core::detail::nextGrainRegistryId() {
  static std::atomic<uint64_t> Next{1};
  return Next.fetch_add(1, std::memory_order_relaxed);
}

void *cheetah::core::detail::cachedShardFor(uint64_t RegistryId) {
  for (const ShardCacheEntry &Entry : ShardCache)
    if (Entry.RegistryId == RegistryId)
      return Entry.Shard;
  return nullptr;
}

void cheetah::core::detail::cacheShard(uint64_t RegistryId, void *Shard) {
  ShardCache[ShardCacheCursor] = {RegistryId, Shard};
  ShardCacheCursor = (ShardCacheCursor + 1) % ShardCacheSlots;
}
