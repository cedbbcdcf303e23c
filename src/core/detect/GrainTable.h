//===- core/detect/GrainTable.h - Address-to-grain metadata -----*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The granularity-generic shadow table (paper Section 2.2 at any level of
/// the hierarchy): constant-time mapping from an address to its grain's
/// metadata via bit shifting, possible because the heap arena and global
/// segment ranges are known up front. Per grain it keeps
///
///  - a stage-1 write counter (the susceptibility filter),
///  - optionally (TrackHomes) the first-touch *home node* — CAS-published
///    once by whichever access touches the grain first, mirroring the OS
///    first-touch placement policy,
///  - a lazily materialized `InfoT` pointer for susceptible grains.
///
/// Write counters are relaxed atomics, homes and details are CAS-published
/// (losing allocators delete their copy), and a materialized GrainInfo's
/// two-entry table is a single-word CAS state machine. A GrainInfo's
/// additive statistics are plain data: only quiesce() writes them.
///
/// ## Per-thread shard ingestion
///
/// The table also owns the **per-thread shard registry**, the one way a
/// sample is recorded: each ingesting OS thread lazily registers a shard (a
/// map from grain base to a plain-field GrainRecord) and `record()`
/// accumulates into it with zero cross-thread CAS traffic beyond the shared
/// two-entry table. `quiesce()` adds every shard record into its grain's
/// record in deterministic order (shards by registration order, grains by
/// address), single-threaded under the ingestion fence. It reports merge
/// totals so callers can prove conservation against their own counters,
/// and then releases every shard: the next epoch starts from an empty
/// registry, so threads that have exited leave nothing behind. Shards key
/// on the *ingesting OS thread*, not the sample's tid — several OS threads
/// may legitimately deliver samples carrying the same simulated tid, and
/// single-writer shard ownership must hold regardless.
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_CORE_DETECT_GRAINTABLE_H
#define CHEETAH_CORE_DETECT_GRAINTABLE_H

#include "mem/MemoryAccess.h"
#include "mem/NumaTopology.h"
#include "support/Assert.h"
#include "support/CpuFeatures.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace cheetah {
namespace core {

/// One contiguous monitored address range (heap arena or global segment).
struct ShadowRegion {
  uint64_t Base = 0;
  uint64_t Size = 0;
};

/// What one quiesce() folded back into the grains — the evidence the
/// conservation proof checks against the detector's own counters.
struct GrainMergeStats {
  uint64_t Shards = 0;  ///< shards visited (including empty ones)
  uint64_t Records = 0; ///< per-grain shard records merged
  uint64_t Accesses = 0;
  uint64_t Writes = 0;
  uint64_t Cycles = 0;
  uint64_t Invalidations = 0;
  uint64_t RemoteAccesses = 0;

  GrainMergeStats &operator+=(const GrainMergeStats &Other) {
    Shards += Other.Shards;
    Records += Other.Records;
    Accesses += Other.Accesses;
    Writes += Other.Writes;
    Cycles += Other.Cycles;
    Invalidations += Other.Invalidations;
    RemoteAccesses += Other.RemoteAccesses;
    return *this;
  }
};

/// Counters folded out of evicted grains — the per-stage residue a
/// budgeted table keeps so conservation still proves out: residue plus the
/// live grain counters equals everything ever recorded, no matter how many
/// eviction epochs have passed.
struct GrainEvictionStats {
  uint64_t Grains = 0; ///< eviction events (a re-materialized grain counts again)
  uint64_t Accesses = 0;
  uint64_t Writes = 0;
  uint64_t Cycles = 0;
  uint64_t Invalidations = 0;
  uint64_t RemoteAccesses = 0;
};

namespace detail {
/// Globally unique id per GrainTable instance and epoch, never reused —
/// what makes the per-thread shard cache safe against table destruction
/// and against quiesce() releasing the shards (a stale cache entry can
/// never match a new table or a later epoch).
uint64_t nextGrainRegistryId();
/// Thread-local lookup of this thread's shard for the table \p RegistryId;
/// nullptr on miss (including after eviction, which just re-registers).
void *cachedShardFor(uint64_t RegistryId);
/// Stores \p Shard as this thread's entry for \p RegistryId.
void cacheShard(uint64_t RegistryId, void *Shard);
} // namespace detail

/// Flat-array grain metadata over a set of monitored regions,
/// parameterized by the detailed record type and whether first-touch homes
/// are tracked. ShadowMemory and PageTable are thin instantiations.
template <typename InfoT, bool TrackHomes> class GrainTable {
public:
  using Info = InfoT;
  using ActorId = typename InfoT::ActorId;
  using Context = typename InfoT::Context;
  using ShardRecord = typename InfoT::ShardRecord;

  /// \p EmptyRegionMsg / \p AlignmentMsg are the assertion texts for the
  /// two region-validation failures, so each instantiation keeps its
  /// historical diagnostics.
  GrainTable(unsigned GrainShift, uint64_t BucketsPerGrain,
             std::vector<ShadowRegion> Regions, const char *EmptyRegionMsg,
             const char *AlignmentMsg)
      : GrainShift(GrainShift), GrainSize(uint64_t(1) << GrainShift),
        BucketsPerGrain(BucketsPerGrain),
        RegistryId(detail::nextGrainRegistryId()) {
    for (const ShadowRegion &Region : Regions) {
      CHEETAH_ASSERT(Region.Size > 0, EmptyRegionMsg);
      CHEETAH_ASSERT((Region.Base & (GrainSize - 1)) == 0, AlignmentMsg);
      Slab NewSlab;
      NewSlab.Base = Region.Base;
      NewSlab.Size = Region.Size;
      NewSlab.Grains = static_cast<size_t>(
          (Region.Size + GrainSize - 1) >> GrainShift);
      NewSlab.WriteCounts =
          std::make_unique<std::atomic<uint32_t>[]>(NewSlab.Grains);
      NewSlab.Details =
          std::make_unique<std::atomic<InfoT *>[]>(NewSlab.Grains);
      if constexpr (TrackHomes)
        NewSlab.Homes = std::make_unique<std::atomic<NodeId>[]>(NewSlab.Grains);
      for (size_t I = 0; I < NewSlab.Grains; ++I) {
        NewSlab.WriteCounts[I].store(0, std::memory_order_relaxed);
        NewSlab.Details[I].store(nullptr, std::memory_order_relaxed);
        if constexpr (TrackHomes)
          NewSlab.Homes[I].store(NoNode, std::memory_order_relaxed);
      }
      Slabs.push_back(std::move(NewSlab));
    }
  }

  ~GrainTable() {
    reclaimRetired();
    for (Slab &Region : Slabs)
      for (size_t I = 0; I < Region.Grains; ++I) {
        InfoT *Info = Region.Details[I].load(std::memory_order_relaxed);
        if (Info != evictedMark())
          delete Info;
      }
  }

  GrainTable(const GrainTable &) = delete;
  GrainTable &operator=(const GrainTable &) = delete;

  /// \returns true if \p Address falls inside a monitored region. Accesses
  /// elsewhere (stack, kernel, libraries) are filtered out (Section 4.1).
  bool covers(uint64_t Address) const { return slabFor(Address) != nullptr; }

  /// The monitored regions, in registration order — what a BatchDecoder
  /// needs to evaluate this table's coverage data-parallel.
  std::vector<ShadowRegion> regions() const {
    std::vector<ShadowRegion> Result;
    Result.reserve(Slabs.size());
    for (const Slab &Region : Slabs)
      Result.push_back({Region.Base, Region.Size});
    return Result;
  }

  /// Software-prefetches the grain's stage-1 write counter (write intent:
  /// the counter is about to take an atomic RMW). The batched ingestion
  /// loop issues these a fixed distance ahead so the random-address
  /// counter walk overlaps cache misses instead of serializing them.
  /// Safe on any address; a no-op outside the monitored regions.
  void prefetchWriteCounter(uint64_t Address) const {
    if (const Slab *Region = slabFor(Address))
      support::prefetchForWrite(
          &Region->WriteCounts[grainIndexIn(*Region, Address)]);
  }

  /// Software-prefetches the grain's detail-pointer slot (read intent).
  void prefetchDetail(uint64_t Address) const {
    if (const Slab *Region = slabFor(Address))
      support::prefetchForRead(
          &Region->Details[grainIndexIn(*Region, Address)]);
  }

  /// Software-prefetches the grain's first-touch home slot (write intent:
  /// an untouched grain is about to CAS-publish its home).
  void prefetchHome(uint64_t Address) const
    requires TrackHomes
  {
    if (const Slab *Region = slabFor(Address))
      support::prefetchForWrite(
          &Region->Homes[grainIndexIn(*Region, Address)]);
  }

  /// Atomically increments the write counter of \p Address's grain.
  /// \returns the new count. \p Address must be covered.
  uint32_t noteWrite(uint64_t Address) {
    Slab *Region = slabFor(Address);
    CHEETAH_ASSERT(Region != nullptr, "noteWrite outside monitored regions");
    return Region->WriteCounts[grainIndexIn(*Region, Address)].fetch_add(
               1, std::memory_order_relaxed) +
           1;
  }

  /// Current write count of \p Address's grain (0 if never written).
  uint32_t writeCount(uint64_t Address) const {
    const Slab *Region = slabFor(Address);
    CHEETAH_ASSERT(Region != nullptr, "writeCount outside monitored regions");
    return Region->WriteCounts[grainIndexIn(*Region, Address)].load(
        std::memory_order_relaxed);
  }

  /// Records a touch by \p Node: publishes it as the grain's first-touch
  /// home if the grain was untouched, and returns the (now settled) home.
  /// Called on every covered sample regardless of phase — homes are a
  /// placement property, not a sharing observation.
  NodeId noteTouch(uint64_t Address, NodeId Node)
    requires TrackHomes
  {
    Slab *Region = slabFor(Address);
    CHEETAH_ASSERT(Region != nullptr, "noteTouch outside monitored regions");
    std::atomic<NodeId> &Home = Region->Homes[grainIndexIn(*Region, Address)];
    NodeId Current = Home.load(std::memory_order_relaxed);
    if (Current != NoNode)
      return Current;
    if (Home.compare_exchange_strong(Current, Node,
                                     std::memory_order_relaxed))
      return Node;
    // Another touch won first-touch publication; its node is the home.
    return Current;
  }

  /// The grain's first-touch home node, or NoNode if never touched.
  NodeId homeNode(uint64_t Address) const
    requires TrackHomes
  {
    const Slab *Region = slabFor(Address);
    CHEETAH_ASSERT(Region != nullptr, "homeNode outside monitored regions");
    return Region->Homes[grainIndexIn(*Region, Address)].load(
        std::memory_order_relaxed);
  }

  /// \returns the detailed info for \p Address's grain, or nullptr if it
  /// was never materialized (or was evicted — an evicted grain reads as
  /// unmaterialized and must re-earn tracking through the stage-1 filter).
  /// \p Address must be covered.
  InfoT *detail(uint64_t Address) {
    Slab *Region = slabFor(Address);
    CHEETAH_ASSERT(Region != nullptr, "detail outside monitored regions");
    InfoT *Info = Region->Details[grainIndexIn(*Region, Address)].load(
        std::memory_order_acquire);
    return Info == evictedMark() ? nullptr : Info;
  }
  const InfoT *detail(uint64_t Address) const {
    const Slab *Region = slabFor(Address);
    CHEETAH_ASSERT(Region != nullptr, "detail outside monitored regions");
    const InfoT *Info = Region->Details[grainIndexIn(*Region, Address)].load(
        std::memory_order_acquire);
    return Info == evictedMark() ? nullptr : Info;
  }

  /// Materializes (if needed) and returns the detailed info for the grain.
  /// Safe to race: exactly one allocation wins publication. A slot in the
  /// Evicted state re-materializes the same way a never-tracked one does —
  /// the grain starts a fresh record (decay), its history living on in the
  /// eviction residue.
  InfoT &materializeDetail(uint64_t Address) {
    Slab *Region = slabFor(Address);
    CHEETAH_ASSERT(Region != nullptr, "materialize outside monitored regions");
    std::atomic<InfoT *> &Slot =
        Region->Details[grainIndexIn(*Region, Address)];
    InfoT *Existing = Slot.load(std::memory_order_acquire);
    if (Existing && Existing != evictedMark())
      return *Existing;
    auto *Fresh = new InfoT(BucketsPerGrain);
    while (true) {
      if (Slot.compare_exchange_weak(Existing, Fresh,
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
        MaterializedCount.fetch_add(1, std::memory_order_relaxed);
        return *Fresh;
      }
      if (Existing && Existing != evictedMark()) {
        // Another ingesting thread won the race; use its published info.
        delete Fresh;
        return *Existing;
      }
      // Lost to a null<->Evicted transition; retry with the fresh copy.
    }
  }

  /// First byte address of the grain containing \p Address.
  uint64_t grainBase(uint64_t Address) const {
    return Address & ~(GrainSize - 1);
  }

  /// Records one decoded sample on \p Info, the materialized detail for
  /// \p Address's grain: the invalidation decision goes through the grain's
  /// shared two-entry table (it depends on the global actor interleaving,
  /// which no shard sees alone), every additive statistic into this OS
  /// thread's shard until quiesce() folds it back.
  /// \returns true if the sample incurred an invalidation.
  bool record(uint64_t Address, InfoT &Info, ThreadId Tid, ActorId Actor,
              AccessKind Kind, uint64_t Bucket, uint64_t Span,
              uint64_t LatencyCycles, const Context &Ctx = {}) {
    ShardRecord &Record = localShard().Records[grainBase(Address)];
    return Info.recordShard(Record, Tid, Actor, Kind, Bucket, Span,
                            LatencyCycles, Ctx);
  }

  /// Epoch quiesce: adds every shard record into its grain's record, then
  /// releases all shard storage and retires the registry id, so successive
  /// epochs merge only their deltas and every thread's cached shard goes
  /// stale (its next record registers a fresh one). Deterministic — shards
  /// merge in registration order, grains in address order. Must not run
  /// concurrently with record(); the caller provides the happens-before
  /// edge (thread join / phase barrier).
  GrainMergeStats quiesce() {
    GrainMergeStats Stats;
    std::lock_guard<std::mutex> Lock(ShardMutex);
    for (auto &ShardPtr : Shards) {
      ++Stats.Shards;
      std::vector<uint64_t> Bases;
      Bases.reserve(ShardPtr->Records.size());
      for (const auto &Entry : ShardPtr->Records)
        Bases.push_back(Entry.first);
      std::sort(Bases.begin(), Bases.end());
      for (uint64_t Base : Bases) {
        const ShardRecord &Record = ShardPtr->Records[Base];
        InfoT *Info = detail(Base);
        CHEETAH_ASSERT(Info != nullptr,
                       "shard record for an unmaterialized grain");
        Info->mergeShard(Record);
        ++Stats.Records;
        Stats.Accesses += Record.Accesses;
        Stats.Writes += Record.Writes;
        Stats.Cycles += Record.Cycles;
        Stats.Invalidations += Record.Invalidations;
        Stats.RemoteAccesses += Record.Extras.remoteAccesses();
      }
    }
    Shards.clear();
    RegistryId = detail::nextGrainRegistryId();
    return Stats;
  }

  /// Number of per-thread shards registered since the last quiesce()
  /// (tests).
  size_t shardCount() const {
    std::lock_guard<std::mutex> Lock(ShardMutex);
    return Shards.size();
  }

  /// Invokes \p Fn(grainBaseAddress, homeNode, info) for every
  /// materialized grain; home is NoNode when homes are untracked. Evicted
  /// grains are skipped (their counters live in the residue).
  template <typename Function> void forEachGrain(Function Fn) const {
    for (const Slab &Region : Slabs)
      for (size_t I = 0; I < Region.Grains; ++I) {
        const InfoT *Info = Region.Details[I].load(std::memory_order_acquire);
        if (Info && Info != evictedMark())
          Fn(Region.Base + (static_cast<uint64_t>(I) << GrainShift),
             Region.Homes ? Region.Homes[I].load(std::memory_order_relaxed)
                          : NoNode,
             *Info);
      }
  }

  /// Number of grains with materialized detail (O(1): maintained as a
  /// counter on publication, not by scanning the slabs).
  size_t materializedGrains() const {
    return MaterializedCount.load(std::memory_order_relaxed);
  }

  /// Bytes of shadow metadata currently allocated: the flat per-grain slab
  /// arrays (write counters, detail pointers, homes when tracked) plus the
  /// exact footprint of every materialized info record, so the memory
  /// ablation reports honest numbers.
  size_t metadataBytes() const {
    size_t Bytes = 0;
    for (const Slab &Region : Slabs) {
      Bytes += Region.Grains * sizeof(std::atomic<uint32_t>);
      if (Region.Homes)
        Bytes += Region.Grains * sizeof(std::atomic<NodeId>);
      Bytes += Region.Grains * sizeof(std::atomic<InfoT *>);
      for (size_t I = 0; I < Region.Grains; ++I) {
        const InfoT *Info = Region.Details[I].load(std::memory_order_acquire);
        if (Info && Info != evictedMark())
          Bytes += Info->footprintBytes();
      }
    }
    return Bytes;
  }

  //===--------------------------------------------------------------------===//
  // Bounded-memory continuous operation: byte budget, cold-grain eviction,
  // epoch-quiesce-fenced reclamation.
  //===--------------------------------------------------------------------===//

  /// Installs the byte budget enforceBudget() trims to (0 = unbounded,
  /// the default — budget-less tables behave exactly as before). Also
  /// allocates the per-grain epoch-write baselines the coldness ranking
  /// reads, so only budgeted tables pay for them. Call before ingestion
  /// starts or under the same fence as enforceBudget().
  void setByteBudget(size_t Bytes) {
    ByteBudget = Bytes;
    if (Bytes == 0)
      return;
    for (Slab &Region : Slabs)
      if (!Region.EpochWrites)
        Region.EpochWrites = std::make_unique<uint32_t[]>(Region.Grains);
  }

  /// The installed byte budget (0 = unbounded).
  size_t byteBudget() const { return ByteBudget; }

  /// Counters folded out of evicted grains so far. Stable between epoch
  /// boundaries; read it after quiesce()/enforceBudget() for a consistent
  /// conservation check (residue + live counters == totals ever recorded).
  const GrainEvictionStats &evictedResidue() const { return Residue; }

  /// Total heap bytes behind this table — the denominator the eviction
  /// budget is enforced against. Unlike metadataBytes() (the
  /// report-visible shadow-bytes number, which intentionally keeps its
  /// historical meaning), this also counts the live shard records, the
  /// budgeted-mode epoch baselines, and any not-yet-reclaimed retired
  /// infos. Must not race record() (same fence as quiesce()).
  size_t footprintBytes() const {
    size_t Bytes = metadataBytes() + shardBytes();
    for (const Slab &Region : Slabs)
      if (Region.EpochWrites)
        Bytes += Region.Grains * sizeof(uint32_t);
    for (const InfoT *Info : Retired)
      Bytes += Info->footprintBytes();
    return Bytes;
  }

  /// Heap bytes behind the per-thread shard registry, by allocation-size
  /// arithmetic: each shard's map (hash-bucket array plus one node —
  /// key/value pair and chain pointer — per record) and each record's
  /// vector capacities. 0 right after quiesce(), which releases them all.
  /// Same fence contract as quiesce().
  size_t shardBytes() const {
    std::lock_guard<std::mutex> Lock(ShardMutex);
    size_t Bytes = 0;
    for (const auto &ShardPtr : Shards) {
      Bytes += sizeof(Shard);
      Bytes += ShardPtr->Records.bucket_count() * sizeof(void *);
      for (const auto &Entry : ShardPtr->Records)
        Bytes += shardRecordBytes(Entry.second);
    }
    return Bytes;
  }

  /// Allocation-size arithmetic for one shard record: the map node (pair
  /// plus the chain pointer every node-based unordered_map carries) and
  /// the capacities of its lazily sized vectors.
  static size_t shardRecordBytes(const ShardRecord &Record) {
    return sizeof(std::pair<const uint64_t, ShardRecord>) + sizeof(void *) +
           Record.heapBytes();
  }

  /// Best-effort trim to the byte budget; a no-op when unbudgeted or
  /// already under budget. Must run under the same fence as quiesce() —
  /// no ingestion in flight — typically right after it at an epoch
  /// boundary.
  ///
  /// Grains are ranked coldest-first by writes since the previous epoch
  /// boundary (ties: fewer lifetime accesses, then lower address, so the
  /// sweep is fully deterministic). Each victim's Details slot is
  /// CAS-claimed from its info pointer into the Evicted state, its
  /// counters fold into the residue, its stage-1 write counter resets to
  /// zero (decay: the grain must re-earn materialization), and the info
  /// retires onto the free list — reclaimed before returning, still
  /// inside the fenced window, so no ingesting thread can hold a stale
  /// pointer. The flat slab arrays are a fixed floor the budget cannot
  /// trim below; eviction stops when the evictable portion is exhausted.
  /// \returns the number of grains evicted.
  size_t enforceBudget() {
    if (ByteBudget == 0)
      return 0;
    size_t Footprint = footprintBytes();
    size_t Evicted = 0;
    if (Footprint > ByteBudget) {
      struct Candidate {
        uint64_t EpochWrites; // writes since the last epoch boundary
        uint64_t Accesses;    // lifetime accesses (tiebreak)
        uint64_t Base;        // grain base address (final tiebreak)
        Slab *Region;
        size_t Index;
      };
      std::vector<Candidate> Candidates;
      for (Slab &Region : Slabs)
        for (size_t I = 0; I < Region.Grains; ++I) {
          InfoT *Info = Region.Details[I].load(std::memory_order_acquire);
          if (!Info || Info == evictedMark())
            continue;
          uint32_t Writes =
              Region.WriteCounts[I].load(std::memory_order_relaxed);
          uint32_t Baseline =
              Region.EpochWrites ? Region.EpochWrites[I] : 0;
          Candidates.push_back(
              {Writes >= Baseline ? Writes - Baseline : 0, Info->accesses(),
               Region.Base + (static_cast<uint64_t>(I) << GrainShift),
               &Region, I});
        }
      std::sort(Candidates.begin(), Candidates.end(),
                [](const Candidate &A, const Candidate &B) {
                  if (A.EpochWrites != B.EpochWrites)
                    return A.EpochWrites < B.EpochWrites;
                  if (A.Accesses != B.Accesses)
                    return A.Accesses < B.Accesses;
                  return A.Base < B.Base;
                });
      for (const Candidate &Victim : Candidates) {
        if (Footprint <= ByteBudget)
          break;
        std::atomic<InfoT *> &Slot = Victim.Region->Details[Victim.Index];
        InfoT *Info = Slot.load(std::memory_order_acquire);
        if (!Info || Info == evictedMark())
          continue;
        // CAS-claim the packed word into the Evicted state. Under the
        // fence this cannot fail; the CAS keeps the transition an atomic
        // publication for any later re-materialization to synchronize on.
        if (!Slot.compare_exchange_strong(Info, evictedMark(),
                                          std::memory_order_acq_rel))
          continue;
        Residue.Grains += 1;
        Residue.Accesses += Info->accesses();
        Residue.Writes += Info->writes();
        Residue.Cycles += Info->cycles();
        Residue.Invalidations += Info->invalidations();
        Residue.RemoteAccesses += Info->remoteAccesses();
        Victim.Region->WriteCounts[Victim.Index].store(
            0, std::memory_order_relaxed);
        MaterializedCount.fetch_sub(1, std::memory_order_relaxed);
        Footprint -= Info->footprintBytes();
        Retired.push_back(Info);
        ++Evicted;
      }
    }
    // Roll the coldness window: next epoch's ranking measures write
    // traffic from this boundary on (evicted grains restart at zero).
    for (Slab &Region : Slabs)
      if (Region.EpochWrites)
        for (size_t I = 0; I < Region.Grains; ++I)
          Region.EpochWrites[I] =
              Region.WriteCounts[I].load(std::memory_order_relaxed);
    reclaimRetired();
    return Evicted;
  }

  /// Deletes every retired info. Only call inside the quiesce-fenced
  /// window (enforceBudget does; the destructor too). \returns how many
  /// records were reclaimed.
  size_t reclaimRetired() {
    size_t Count = Retired.size();
    for (InfoT *Info : Retired)
      delete Info;
    Retired.clear();
    return Count;
  }

private:
  struct Slab {
    uint64_t Base = 0;
    uint64_t Size = 0;
    size_t Grains = 0;
    std::unique_ptr<std::atomic<uint32_t>[]> WriteCounts; // one per grain
    std::unique_ptr<std::atomic<NodeId>[]> Homes; // first-touch (TrackHomes)
    std::unique_ptr<std::atomic<InfoT *>[]> Details; // one per grain
    /// Per-grain write-count baseline at the previous epoch boundary — the
    /// coldness ranking's reference point. Allocated only when a byte
    /// budget is installed; written solely under the enforceBudget fence.
    std::unique_ptr<uint32_t[]> EpochWrites;
  };

  /// The Evicted state of a Details slot: a sentinel distinct from null
  /// and from any allocation, never dereferenced. detail() maps it to
  /// nullptr so evicted grains read as unmaterialized; materializeDetail
  /// CASes it back out when a grain re-earns tracking.
  static InfoT *evictedMark() {
    return reinterpret_cast<InfoT *>(static_cast<uintptr_t>(1));
  }

  /// One OS thread's accumulation epoch: only its owner writes Records
  /// during ingestion; quiesce() reads after the owner synchronized.
  struct Shard {
    std::unordered_map<uint64_t, ShardRecord> Records;
  };

  const Slab *slabFor(uint64_t Address) const {
    for (const Slab &Region : Slabs)
      if (Address >= Region.Base && Address < Region.Base + Region.Size)
        return &Region;
    return nullptr;
  }
  Slab *slabFor(uint64_t Address) {
    return const_cast<Slab *>(
        static_cast<const GrainTable *>(this)->slabFor(Address));
  }
  size_t grainIndexIn(const Slab &Region, uint64_t Address) const {
    return static_cast<size_t>((Address - Region.Base) >> GrainShift);
  }

  /// This OS thread's shard for this table's current epoch, registering one
  /// on first use (or after cache eviction — a thread may own several
  /// shards of one epoch; single-writer ownership holds either way).
  Shard &localShard() {
    if (void *Cached = detail::cachedShardFor(RegistryId))
      return *static_cast<Shard *>(Cached);
    auto Fresh = std::make_unique<Shard>();
    Shard *Raw = Fresh.get();
    {
      std::lock_guard<std::mutex> Lock(ShardMutex);
      Shards.push_back(std::move(Fresh));
    }
    detail::cacheShard(RegistryId, Raw);
    return *Raw;
  }

  unsigned GrainShift;
  uint64_t GrainSize;
  uint64_t BucketsPerGrain;
  /// Keys this thread's cached shard: globally unique per table and
  /// epoch, never reused, so quiesce() invalidates every thread's cache
  /// by drawing a fresh one. Written only under the quiesce() fence.
  uint64_t RegistryId;
  std::vector<Slab> Slabs;
  std::atomic<size_t> MaterializedCount{0};
  /// Guards shard registration and merge; never taken on the per-sample
  /// ingestion path (the thread-local cache short-circuits it).
  mutable std::mutex ShardMutex;
  std::vector<std::unique_ptr<Shard>> Shards;
  /// Byte budget for enforceBudget (0 = unbounded). Plain: installed
  /// before ingestion, read only at fenced epoch boundaries.
  size_t ByteBudget = 0;
  /// Counters folded out of evicted grains; mutated only under the
  /// enforceBudget fence.
  GrainEvictionStats Residue;
  /// Evicted infos awaiting reclamation — the epoch-quiesce-fenced free
  /// list. Normally drained before enforceBudget returns; never touched
  /// while ingestion threads are in flight.
  std::vector<InfoT *> Retired;
};

} // namespace core
} // namespace cheetah

#endif // CHEETAH_CORE_DETECT_GRAINTABLE_H
