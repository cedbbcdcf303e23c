//===- core/detect/CacheLineInfo.h - Per-line detailed tracking -*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Detailed per-cache-line state, allocated lazily for "susceptible" lines
/// only (those with more than a threshold of sampled writes — the paper's
/// filter that avoids tracking write-once memory). A thin instantiation of
/// the granularity-generic GrainInfo: the actors are threads, the buckets
/// are the line's 4-byte words, and there are no per-grain extras. See
/// GrainInfo.h for the machinery (two-entry invalidation table, per-bucket
/// histogram, per-thread EQ.2 accumulators, shard records).
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_CORE_DETECT_CACHELINEINFO_H
#define CHEETAH_CORE_DETECT_CACHELINEINFO_H

#include "core/detect/GrainInfo.h"

namespace cheetah {
namespace core {

/// Everything Cheetah tracks about one susceptible cache line.
class CacheLineInfo : public GrainInfo<LineGrainTraits> {
public:
  explicit CacheLineInfo(uint64_t WordsPerLine)
      : GrainInfo(WordsPerLine) {}

  /// Records one sampled access landing on this line straight into its
  /// totals (GrainInfo::recordMerged). Single-threaded callers only (unit
  /// tests); detection records through ShadowMemory. \returns true if it
  /// incurred a cache invalidation.
  bool recordAccess(ThreadId Tid, AccessKind Kind, uint64_t WordIndex,
                    uint64_t WordSpan, uint64_t LatencyCycles) {
    return recordMerged(Tid, Tid, Kind, WordIndex, WordSpan, LatencyCycles);
  }

  /// The per-word statistics, one entry per word of the line.
  const std::vector<WordStats> &words() const { return buckets(); }
};

// The empty line extras must overlay completely ([[no_unique_address]]):
// a line record is its four counters and two vectors, nothing more.
static_assert(sizeof(GrainRecord<LineGrainTraits>) ==
                  4 * sizeof(uint64_t) + sizeof(std::vector<WordStats>) +
                      sizeof(std::vector<ThreadLineStats>),
              "empty line extras must not widen the grain record");

} // namespace core
} // namespace cheetah

#endif // CHEETAH_CORE_DETECT_CACHELINEINFO_H
