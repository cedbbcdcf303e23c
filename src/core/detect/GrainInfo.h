//===- core/detect/GrainInfo.h - Granularity-generic grain record -*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The granularity-parameterized heart of the detector: one detailed
/// tracking record (`GrainInfo<Traits>`) instantiated per *grain* — a cache
/// line at line granularity, a page at page granularity. The paper's
/// machinery is identical at every level of the memory hierarchy; only the
/// parameters change, and a `GrainTraits` policy carries exactly those:
///
///  - the **actor** whose interleaving drives the two-entry invalidation
///    table (threads for cache false sharing, NUMA nodes for remote-DRAM
///    page sharing),
///  - the **bucket** histogram subdividing the grain (4-byte words of a
///    line, cache lines of a page) that lets SharingClassifier split true
///    from false sharing,
///  - per-grain **extras** beyond the generic counters (the page grain adds
///    remote-traffic totals, per-node accumulators, and remoteByDistance
///    buckets; the line grain adds nothing).
///
/// Every additive statistic lives in one plain accumulation record
/// (`GrainRecord<Traits>`). A sample is recorded in two steps:
/// `recordShard` accumulates it into the ingesting thread's shard record,
/// and `mergeShard` adds that record into the grain's own record at epoch
/// quiesce, single-threaded behind the ingestion fence. Only the two-entry
/// table is shared between ingesting threads (a single-word CAS), because
/// the invalidation decision depends on the global interleaving of actors.
/// That split is also what makes the merge *provable* — merged totals must
/// conserve against the detector's own counters. Readers run after
/// ingestion quiesces (report generation, tests).
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_CORE_DETECT_GRAININFO_H
#define CHEETAH_CORE_DETECT_GRAININFO_H

#include "core/detect/CacheLineTable.h"
#include "mem/CacheGeometry.h"
#include "mem/MemoryAccess.h"
#include "mem/NumaTopology.h"
#include "support/Assert.h"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace cheetah {
namespace core {

/// Sentinel for "no actor recorded yet" in a histogram bucket. ThreadId and
/// NodeId are both uint32_t, so one sentinel serves every grain (it equals
/// NoNode bit-for-bit).
inline constexpr ThreadId NoThread = ~static_cast<ThreadId>(0);

/// One histogram bucket (paper Section 2.4: "the amount of reads or writes
/// issued by a particular thread on each word"). At line granularity a
/// bucket is a 4-byte word and the actor fields hold thread ids; at page
/// granularity a bucket is a cache line and they hold node ids —
/// SharingClassifier consumes both unchanged.
struct WordStats {
  uint64_t Reads = 0;
  uint64_t Writes = 0;
  uint64_t Cycles = 0;
  /// First actor (thread/node) seen touching this bucket.
  ThreadId FirstThread = NoThread;
  /// Set once a second distinct actor touches the bucket: the bucket is
  /// truly shared (true sharing indicator).
  bool MultiThread = false;

  uint64_t accesses() const { return Reads + Writes; }

  void record(uint32_t Actor, AccessKind Kind, uint64_t LatencyCycles) {
    if (Kind == AccessKind::Read)
      ++Reads;
    else
      ++Writes;
    Cycles += LatencyCycles;
    if (FirstThread == NoThread)
      FirstThread = Actor;
    else if (FirstThread != Actor)
      MultiThread = true;
  }

  /// Adds another accumulation of the same bucket: the first one added
  /// sets the first actor, and a disagreeing first actor marks the bucket
  /// multi-actor.
  void add(const WordStats &Other) {
    if (Other.accesses() == 0)
      return;
    Reads += Other.Reads;
    Writes += Other.Writes;
    Cycles += Other.Cycles;
    if (FirstThread == NoThread)
      FirstThread = Other.FirstThread;
    if (FirstThread != Other.FirstThread || Other.MultiThread)
      MultiThread = true;
  }
};

/// Per-thread access/cycle accumulator on one grain (and, aggregated, on
/// one object) — the Accesses_O and Cycles_O of the assessment equations,
/// broken down per thread for EQ.2.
struct ThreadLineStats {
  ThreadId Tid = 0;
  uint64_t Accesses = 0;
  uint64_t Cycles = 0;
};

/// Per-node access/cycle accumulator on one page.
struct NodePageStats {
  NodeId Node = 0;
  uint64_t Accesses = 0;
  uint64_t Writes = 0;
  uint64_t Cycles = 0;
};

/// Adds \p Stats into \p Threads, kept sorted by tid (thread populations
/// per grain or object are tiny).
inline void addThreadStats(std::vector<ThreadLineStats> &Threads,
                           const ThreadLineStats &Stats) {
  auto It = std::lower_bound(
      Threads.begin(), Threads.end(), Stats.Tid,
      [](const ThreadLineStats &Slot, ThreadId T) { return Slot.Tid < T; });
  if (It == Threads.end() || It->Tid != Stats.Tid)
    It = Threads.insert(It, ThreadLineStats{Stats.Tid, 0, 0});
  It->Accesses += Stats.Accesses;
  It->Cycles += Stats.Cycles;
}

/// Adds \p Stats into \p Remote, kept sorted by distance (at most
/// NumaTopology::MaxNodes - 1 distinct distances exist under a settled
/// home).
inline void addRemoteDistance(std::vector<RemoteDistanceStats> &Remote,
                              const RemoteDistanceStats &Stats) {
  auto It = std::lower_bound(Remote.begin(), Remote.end(), Stats.Distance,
                             [](const RemoteDistanceStats &Slot, uint32_t D) {
                               return Slot.Distance < D;
                             });
  if (It == Remote.end() || It->Distance != Stats.Distance)
    It = Remote.insert(It, RemoteDistanceStats{Stats.Distance, 0, 0});
  It->Accesses += Stats.Accesses;
  It->Cycles += Stats.Cycles;
}

/// Granularity-neutral value snapshot of one materialized grain — the
/// common finding source both report builders consume (line findings read
/// per-word buckets, page findings per-line buckets; neither needs to know
/// which grain produced it).
struct GrainSnapshot {
  uint64_t Base = 0;
  uint64_t Accesses = 0;
  uint64_t Writes = 0;
  uint64_t Cycles = 0;
  uint64_t Invalidations = 0;
  std::vector<WordStats> Buckets;
  std::vector<ThreadLineStats> Threads;
};

/// Per-sample context beyond the generic fields: the line grain needs none.
struct LineAccessContext {};

/// Per-sample context the page grain carries: whether the access crossed
/// nodes, and which node-pair distance it crossed (0 for local).
struct PageAccessContext {
  bool Remote = false;
  uint32_t Distance = 0;
};

/// Line-grain extras: nothing beyond the generic fields.
struct LineGrainExtras {
  void record(uint32_t, AccessKind, uint64_t, const LineAccessContext &) {}
  void add(const LineGrainExtras &) {}
  uint64_t remoteAccesses() const { return 0; }
  size_t heapBytes() const { return 0; }
};

/// Page-grain extras: everything the NUMA story needs beyond the generic
/// counters. Node populations are tiny (NumaTopology::MaxNodes), so the
/// per-node accumulators are fixed arrays indexed by node id.
struct PageGrainExtras {
  uint64_t RemoteAccesses = 0;
  uint64_t RemoteCycles = 0;
  uint64_t NodeAccesses[NumaTopology::MaxNodes] = {};
  uint64_t NodeWrites[NumaTopology::MaxNodes] = {};
  uint64_t NodeCycles[NumaTopology::MaxNodes] = {};
  /// Remote traffic per crossed distance, sorted by distance. Its
  /// accesses sum to RemoteAccesses and its cycles to RemoteCycles.
  std::vector<RemoteDistanceStats> Remote;

  void record(NodeId Node, AccessKind Kind, uint64_t LatencyCycles,
              const PageAccessContext &Ctx);
  void add(const PageGrainExtras &Other);
  uint64_t remoteAccesses() const { return RemoteAccesses; }
  size_t heapBytes() const {
    return Remote.capacity() * sizeof(RemoteDistanceStats);
  }
  /// The nodes that accessed the page, ordered by node id.
  std::vector<NodePageStats> nodes() const;
  size_t nodeCount() const;
};

/// The line grain: threads invalidate each other's cache lines; buckets
/// are the line's 4-byte words.
struct LineGrainTraits {
  using ActorId = ThreadId;
  using Context = LineAccessContext;
  using Extras = LineGrainExtras;
  static constexpr const char *Name = "line";
  static constexpr const char *BucketRangeMsg = "word index outside line";
  static constexpr const char *SpanMsg = "access must cover at least one word";
};

/// The page grain: NUMA nodes invalidate each other's pages; buckets are
/// the page's cache lines.
struct PageGrainTraits {
  using ActorId = NodeId;
  using Context = PageAccessContext;
  using Extras = PageGrainExtras;
  static constexpr const char *Name = "page";
  static constexpr const char *BucketRangeMsg = "line index outside page";
  static constexpr const char *SpanMsg = "access must cover at least one line";
};

/// The additive statistics of one grain, plain fields only. A per-thread
/// shard keeps one per touched grain (keyed by grain base address, buckets
/// sized lazily on first touch so untouched grains cost one map node), and
/// every GrainInfo keeps one as its merged totals.
template <typename Traits> struct GrainRecord {
  uint64_t Accesses = 0;
  uint64_t Writes = 0;
  uint64_t Cycles = 0;
  uint64_t Invalidations = 0;
  std::vector<WordStats> Buckets;
  /// Sorted by tid.
  std::vector<ThreadLineStats> Threads;
  [[no_unique_address]] typename Traits::Extras Extras;

  /// Adds \p Other into this record. Every field is an integer sum, so the
  /// order records are added in cannot change a total.
  void add(const GrainRecord &Other) {
    CHEETAH_ASSERT(Other.Buckets.empty() ||
                       Other.Buckets.size() == Buckets.size(),
                   "added record's bucket count does not match");
    Accesses += Other.Accesses;
    Writes += Other.Writes;
    Cycles += Other.Cycles;
    Invalidations += Other.Invalidations;
    for (size_t B = 0; B < Other.Buckets.size(); ++B)
      Buckets[B].add(Other.Buckets[B]);
    for (const ThreadLineStats &Thread : Other.Threads)
      addThreadStats(Threads, Thread);
    Extras.add(Other.Extras);
  }

  /// Heap bytes behind the record's vectors (capacity, not size).
  size_t heapBytes() const {
    return Buckets.capacity() * sizeof(WordStats) +
           Threads.capacity() * sizeof(ThreadLineStats) + Extras.heapBytes();
  }
};

/// Everything Cheetah tracks about one susceptible grain, parameterized by
/// the grain policy. CacheLineInfo and PageInfo are thin instantiations.
template <typename Traits> class GrainInfo {
public:
  using ActorId = typename Traits::ActorId;
  using Context = typename Traits::Context;
  using ShardRecord = GrainRecord<Traits>;

  explicit GrainInfo(uint64_t BucketsPerGrain) {
    Stats.Buckets.resize(BucketsPerGrain);
  }

  /// Records one sampled access landing on this grain: the invalidation
  /// decision goes through the shared two-entry table (it depends on the
  /// global actor interleaving, which no per-thread shard can see alone),
  /// but every additive statistic lands in \p Record — plain fields only
  /// this thread writes, with no cross-thread CAS traffic. Fold back with
  /// mergeShard at epoch quiesce. \returns true if it incurred an
  /// invalidation.
  bool recordShard(ShardRecord &Record, ThreadId Tid, ActorId Actor,
                   AccessKind Kind, uint64_t BucketIndex, uint64_t BucketSpan,
                   uint64_t LatencyCycles, const Context &Ctx = {}) {
    uint64_t BucketCount = Stats.Buckets.size();
    CHEETAH_ASSERT(BucketIndex < BucketCount, Traits::BucketRangeMsg);
    CHEETAH_ASSERT(BucketSpan >= 1, Traits::SpanMsg);

    bool Invalidation = Table.recordAccess(Actor, Kind);
    if (Invalidation)
      ++Record.Invalidations;

    ++Record.Accesses;
    if (Kind == AccessKind::Write)
      ++Record.Writes;
    Record.Cycles += LatencyCycles;
    Record.Extras.record(Actor, Kind, LatencyCycles, Ctx);

    // An access wider than a bucket (e.g. a 64-bit store over 4-byte
    // words) marks every covered bucket; latency attributes to the first
    // bucket to avoid double counting.
    if (Record.Buckets.empty())
      Record.Buckets.resize(BucketCount);
    uint64_t End = std::min<uint64_t>(BucketIndex + BucketSpan, BucketCount);
    for (uint64_t B = BucketIndex; B < End; ++B)
      Record.Buckets[B].record(Actor, Kind, B == BucketIndex ? LatencyCycles : 0);

    addThreadStats(Record.Threads, {Tid, 1, LatencyCycles});
    return Invalidation;
  }

  /// Adds one shard's accumulation into the grain's totals. Callers
  /// serialize merges against ingestion and against each other (epoch
  /// quiesce).
  void mergeShard(const ShardRecord &Record) { Stats.add(Record); }

  /// Records one access straight into the grain's totals by merging a
  /// one-sample shard record — the same accumulate-and-merge code a
  /// table's per-thread shards run, for single-threaded callers holding a
  /// bare grain (unit tests, reference checks). Detection records through
  /// GrainTable.
  bool recordMerged(ThreadId Tid, ActorId Actor, AccessKind Kind,
                    uint64_t BucketIndex, uint64_t BucketSpan,
                    uint64_t LatencyCycles, const Context &Ctx = {}) {
    ShardRecord Record;
    bool Invalidation = recordShard(Record, Tid, Actor, Kind, BucketIndex,
                                    BucketSpan, LatencyCycles, Ctx);
    mergeShard(Record);
    return Invalidation;
  }

  /// Invalidation count (the significance signal).
  uint64_t invalidations() const { return Stats.Invalidations; }

  /// Total sampled accesses / writes / cycles on the grain.
  uint64_t accesses() const { return Stats.Accesses; }
  uint64_t writes() const { return Stats.Writes; }
  uint64_t cycles() const { return Stats.Cycles; }

  /// The per-bucket statistics, one entry per bucket of the grain.
  const std::vector<WordStats> &buckets() const { return Stats.Buckets; }

  /// The per-thread accumulators, ordered by thread id.
  const std::vector<ThreadLineStats> &threads() const {
    return Stats.Threads;
  }

  /// Number of distinct threads that accessed the grain.
  size_t threadCount() const { return Stats.Threads.size(); }

  /// The whole grain as the granularity-neutral finding source the report
  /// builders consume.
  GrainSnapshot snapshot(uint64_t Base) const {
    return {Base,         Stats.Accesses,      Stats.Writes,
            Stats.Cycles, Stats.Invalidations, Stats.Buckets,
            Stats.Threads};
  }

  /// Access to the invalidation table (tests). This is the packed
  /// single-word CAS state machine from CacheLineTable.h, storing actor
  /// ids.
  const CacheLineTable &table() const { return Table; }

  /// Exact bytes of heap memory behind this grain's detailed tracking (the
  /// object plus the capacity of every vector in its record) — feeds the
  /// memory ablation's honest accounting.
  size_t footprintBytes() const {
    return sizeof(GrainInfo) + Stats.heapBytes();
  }

  /// Remote-actor accesses recorded by the extras (0 for grains whose
  /// extras track none) — folded into the eviction residue so the
  /// conservation proof covers HasRemote stages too.
  uint64_t remoteAccesses() const { return Stats.Extras.remoteAccesses(); }

protected:
  const typename Traits::Extras &extras() const { return Stats.Extras; }

private:
  CacheLineTable Table;
  GrainRecord<Traits> Stats;
};

} // namespace core
} // namespace cheetah

#endif // CHEETAH_CORE_DETECT_GRAININFO_H
