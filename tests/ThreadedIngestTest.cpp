//===- tests/ThreadedIngestTest.cpp - concurrent ingestion tests ----------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Concurrency tests for the sample-ingestion hot path: many threads feed
/// the detector / profiler / interpose buffers at once, and the results are
/// checked against a serial reference run over the same sample streams.
/// Designed to be run under ThreadSanitizer (-DCHEETAH_SANITIZE=thread) —
/// the assertions catch lost updates, TSan catches the races themselves.
///
//===----------------------------------------------------------------------===//

#include "core/Profiler.h"
#include "core/detect/Detector.h"
#include "core/detect/PageTable.h"
#include "core/detect/ShadowMemory.h"
#include "interpose/Preload.h"
#include "mem/NumaTopology.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

using namespace cheetah;
using namespace cheetah::core;

namespace {

constexpr uint64_t RegionBase = 0x4000'0000;
constexpr uint32_t LineSize = 64;
constexpr unsigned IngestThreads = 8;

/// Builds a deterministic per-line sample stream: \p SamplesPerLine accesses
/// on line \p Line, issued by a few simulated threads with mixed kinds and
/// word offsets, seeded by the line index so every run (serial or parallel)
/// sees identical per-line histories.
std::vector<pmu::Sample> lineStream(uint64_t Line, unsigned SamplesPerLine) {
  SplitMix64 Rng(0xC0FFEE ^ Line);
  std::vector<pmu::Sample> Stream;
  Stream.reserve(SamplesPerLine);
  for (unsigned I = 0; I < SamplesPerLine; ++I) {
    pmu::Sample Sample;
    Sample.Address = RegionBase + Line * LineSize + Rng.nextBelow(16) * 4;
    Sample.Tid = static_cast<ThreadId>(Rng.nextBelow(4));
    Sample.IsWrite = Rng.nextBool(0.6);
    Sample.LatencyCycles = 20 + static_cast<uint32_t>(Rng.nextBelow(50));
    Stream.push_back(Sample);
  }
  return Stream;
}

//===----------------------------------------------------------------------===//
// Detector: parallel ingestion over disjoint line partitions must be
// indistinguishable from a serial run of the same per-line streams.
//===----------------------------------------------------------------------===//

TEST(ThreadedIngestTest, DisjointLinePartitionsMatchSerialReference) {
  constexpr uint64_t NumLines = 512;
  constexpr unsigned SamplesPerLine = 48;
  CacheGeometry Geometry(LineSize);
  DetectorConfig Config;

  // Serial reference: every line's stream, one line after another.
  ShadowMemory SerialShadow(Geometry, {{RegionBase, NumLines * LineSize}});
  Detector SerialDetect(Geometry, SerialShadow, Config);
  for (uint64_t Line = 0; Line < NumLines; ++Line)
    for (const pmu::Sample &Sample : lineStream(Line, SamplesPerLine))
      SerialDetect.handleSample(Sample, /*InParallelPhase=*/true);
  SerialDetect.quiesce();

  // Parallel run: lines are partitioned over 8 ingest threads, so each
  // line's stream keeps its order while the threads race on the shared
  // shadow arrays, two-entry tables, and detector counters.
  ShadowMemory Shadow(Geometry, {{RegionBase, NumLines * LineSize}});
  Detector Detect(Geometry, Shadow, Config);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < IngestThreads; ++T)
    Threads.emplace_back([&, T] {
      for (uint64_t Line = T; Line < NumLines; Line += IngestThreads)
        for (const pmu::Sample &Sample : lineStream(Line, SamplesPerLine))
          Detect.handleSample(Sample, /*InParallelPhase=*/true);
    });
  for (std::thread &Thread : Threads)
    Thread.join();
  // Epoch boundary: folds the per-thread shards back (and proves merge
  // conservation).
  Detect.quiesce();

  DetectorStats Serial = SerialDetect.stats();
  DetectorStats Parallel = Detect.stats();
  EXPECT_EQ(Parallel.SamplesSeen, Serial.SamplesSeen);
  EXPECT_EQ(Parallel.SamplesFiltered, Serial.SamplesFiltered);
  EXPECT_EQ(Parallel.SamplesRecorded, Serial.SamplesRecorded);
  EXPECT_EQ(Parallel.Invalidations, Serial.Invalidations);
  EXPECT_EQ(Shadow.materializedLines(), SerialShadow.materializedLines());

  // Per-line state must match exactly, not just in aggregate.
  std::map<uint64_t, const CacheLineInfo *> SerialLines;
  SerialShadow.forEachDetail(
      [&](uint64_t LineBase, const CacheLineInfo &Info) {
        SerialLines[LineBase] = &Info;
      });
  Shadow.forEachDetail([&](uint64_t LineBase, const CacheLineInfo &Info) {
    auto It = SerialLines.find(LineBase);
    ASSERT_NE(It, SerialLines.end()) << "line only materialized in parallel";
    EXPECT_EQ(Info.invalidations(), It->second->invalidations());
    EXPECT_EQ(Info.accesses(), It->second->accesses());
    EXPECT_EQ(Info.writes(), It->second->writes());
    EXPECT_EQ(Info.cycles(), It->second->cycles());
    EXPECT_EQ(Info.threadCount(), It->second->threadCount());
  });
}

TEST(ThreadedIngestTest, BatchedDisjointLinePartitionsMatchSerialReference) {
  // The handleBatch mirror of the test above: the same per-line streams,
  // but each ingest thread delivers its lines in whole batches through the
  // staged pipeline (SIMD decode, branchless stage-1 sweep, prefetched
  // lookups). Eight threads race on the shared write counters and
  // two-entry tables, each with its own decode scratch and shard; the
  // result must still equal a serial one-sample-at-a-time reference, line
  // for line.
  constexpr uint64_t NumLines = 512;
  constexpr unsigned SamplesPerLine = 48;
  CacheGeometry Geometry(LineSize);
  DetectorConfig Config;

  ShadowMemory SerialShadow(Geometry, {{RegionBase, NumLines * LineSize}});
  Detector SerialDetect(Geometry, SerialShadow, Config);
  for (uint64_t Line = 0; Line < NumLines; ++Line)
    for (const pmu::Sample &Sample : lineStream(Line, SamplesPerLine))
      SerialDetect.handleSample(Sample, /*InParallelPhase=*/true);
  SerialDetect.quiesce();

  ShadowMemory Shadow(Geometry, {{RegionBase, NumLines * LineSize}});
  Detector Detect(Geometry, Shadow, Config);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < IngestThreads; ++T)
    Threads.emplace_back([&, T] {
      for (uint64_t Line = T; Line < NumLines; Line += IngestThreads) {
        std::vector<pmu::Sample> Batch = lineStream(Line, SamplesPerLine);
        Detect.handleBatch(Batch.data(), Batch.size(),
                           /*InParallelPhase=*/true);
      }
    });
  for (std::thread &Thread : Threads)
    Thread.join();
  Detect.quiesce();

  DetectorStats Serial = SerialDetect.stats();
  DetectorStats Parallel = Detect.stats();
  EXPECT_EQ(Parallel.SamplesSeen, Serial.SamplesSeen);
  EXPECT_EQ(Parallel.SamplesFiltered, Serial.SamplesFiltered);
  EXPECT_EQ(Parallel.SamplesRecorded, Serial.SamplesRecorded);
  EXPECT_EQ(Parallel.Invalidations, Serial.Invalidations);
  EXPECT_EQ(Shadow.materializedLines(), SerialShadow.materializedLines());

  std::map<uint64_t, const CacheLineInfo *> SerialLines;
  SerialShadow.forEachDetail(
      [&](uint64_t LineBase, const CacheLineInfo &Info) {
        SerialLines[LineBase] = &Info;
      });
  Shadow.forEachDetail([&](uint64_t LineBase, const CacheLineInfo &Info) {
    auto It = SerialLines.find(LineBase);
    ASSERT_NE(It, SerialLines.end()) << "line only materialized in batch run";
    EXPECT_EQ(Info.invalidations(), It->second->invalidations());
    EXPECT_EQ(Info.accesses(), It->second->accesses());
    EXPECT_EQ(Info.writes(), It->second->writes());
    EXPECT_EQ(Info.cycles(), It->second->cycles());
    EXPECT_EQ(Info.threadCount(), It->second->threadCount());
  });
}

//===----------------------------------------------------------------------===//
// Detector: fully contended lines must never lose an update.
//===----------------------------------------------------------------------===//

TEST(ThreadedIngestTest, ContendedLinesLoseNoSamples) {
  constexpr uint64_t NumLines = 16;
  constexpr unsigned SamplesPerThread = 20000;
  CacheGeometry Geometry(LineSize);
  ShadowMemory Shadow(Geometry, {{RegionBase, NumLines * LineSize}});
  DetectorConfig Config;
  Config.WriteThreshold = 0; // every written line is susceptible immediately
  Detector Detect(Geometry, Shadow, Config);

  std::atomic<uint64_t> WritesIssued{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < IngestThreads; ++T)
    Threads.emplace_back([&, T] {
      SplitMix64 Rng(T + 1);
      uint64_t LocalWrites = 0;
      for (unsigned I = 0; I < SamplesPerThread; ++I) {
        pmu::Sample Sample;
        Sample.Address = RegionBase + Rng.nextBelow(NumLines) * LineSize +
                         Rng.nextBelow(16) * 4;
        Sample.Tid = static_cast<ThreadId>(T);
        Sample.IsWrite = Rng.nextBool(0.5);
        Sample.LatencyCycles = 30;
        LocalWrites += Sample.IsWrite ? 1 : 0;
        Detect.handleSample(Sample, /*InParallelPhase=*/true);
      }
      WritesIssued.fetch_add(LocalWrites);
    });
  for (std::thread &Thread : Threads)
    Thread.join();
  Detect.quiesce();

  constexpr uint64_t Total = uint64_t(IngestThreads) * SamplesPerThread;
  DetectorStats Stats = Detect.stats();
  EXPECT_EQ(Stats.SamplesSeen, Total);
  EXPECT_EQ(Stats.SamplesFiltered, 0u);

  uint64_t LineAccesses = 0, LineWrites = 0, LineInvalidations = 0;
  uint64_t PerThreadAccesses = 0, CountedWrites = 0;
  Shadow.forEachDetail([&](uint64_t LineBase, const CacheLineInfo &Info) {
    LineAccesses += Info.accesses();
    LineWrites += Info.writes();
    LineInvalidations += Info.invalidations();
    for (const ThreadLineStats &PerThread : Info.threads())
      PerThreadAccesses += PerThread.Accesses;
    CountedWrites += Shadow.writeCount(LineBase);
  });
  EXPECT_EQ(LineAccesses, Stats.SamplesRecorded);
  EXPECT_EQ(PerThreadAccesses, Stats.SamplesRecorded);
  // Reads that arrive before a line's first write are filtered by the
  // susceptibility gate, but every write materializes its line, so all
  // issued writes must be recorded and counted.
  EXPECT_EQ(LineWrites, WritesIssued.load());
  EXPECT_EQ(CountedWrites, WritesIssued.load());
  EXPECT_EQ(LineInvalidations, Stats.Invalidations);
  EXPECT_GT(LineInvalidations, 0u);
}

//===----------------------------------------------------------------------===//
// 8 threads hammering ONE shared line through ShadowMemory::record, then
// quiesce(). The worst case for the packed CAS table — every update
// contends — and for the shard merge, which folds 8 records into one
// grain. Run under TSan to prove the contended production path clean.
//===----------------------------------------------------------------------===//

TEST(ThreadedIngestTest, SingleSharedLineHammerLosesNoUpdates) {
  constexpr unsigned SamplesPerThread = 30000;
  constexpr uint64_t WordsPerLine = 16;
  CacheGeometry Geometry(LineSize);
  ShadowMemory Shadow(Geometry, {{RegionBase, LineSize}});
  CacheLineInfo &Info = Shadow.materializeDetail(RegionBase);

  std::atomic<uint64_t> WritesIssued{0}, Invalidations{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < IngestThreads; ++T)
    Threads.emplace_back([&, T] {
      SplitMix64 Rng(0x51E ^ T);
      uint64_t LocalWrites = 0, LocalInvalidations = 0;
      for (unsigned I = 0; I < SamplesPerThread; ++I) {
        AccessKind Kind =
            Rng.nextBool(0.5) ? AccessKind::Write : AccessKind::Read;
        LocalWrites += Kind == AccessKind::Write ? 1 : 0;
        LocalInvalidations += Shadow.record(
            RegionBase, Info, static_cast<ThreadId>(T),
            /*Actor=*/static_cast<ThreadId>(T), Kind,
            Rng.nextBelow(WordsPerLine), /*Span=*/1, /*LatencyCycles=*/10);
      }
      WritesIssued.fetch_add(LocalWrites);
      Invalidations.fetch_add(LocalInvalidations);
    });
  for (std::thread &Thread : Threads)
    Thread.join();
  Shadow.quiesce();

  constexpr uint64_t Total = uint64_t(IngestThreads) * SamplesPerThread;
  EXPECT_EQ(Info.accesses(), Total);
  EXPECT_EQ(Info.writes(), WritesIssued.load());
  EXPECT_EQ(Info.cycles(), Total * 10);
  // Every caller's observed invalidation was counted exactly once.
  EXPECT_EQ(Info.invalidations(), Invalidations.load());
  EXPECT_GT(Info.invalidations(), 0u);
  EXPECT_LE(Info.invalidations(), Info.writes());

  // Word totals conserve the access population.
  uint64_t WordAccesses = 0, WordCycles = 0;
  for (const WordStats &Word : Info.words()) {
    WordAccesses += Word.accesses();
    WordCycles += Word.Cycles;
    EXPECT_TRUE(Word.MultiThread || Word.accesses() == 0 ||
                Word.FirstThread != NoThread);
  }
  EXPECT_EQ(WordAccesses, Total);
  EXPECT_EQ(WordCycles, Total * 10);

  // Exactly one per-thread slot per hammering thread, each conserved.
  const std::vector<ThreadLineStats> &PerThread = Info.threads();
  ASSERT_EQ(PerThread.size(), size_t(IngestThreads));
  for (unsigned T = 0; T < IngestThreads; ++T) {
    EXPECT_EQ(PerThread[T].Tid, T);
    EXPECT_EQ(PerThread[T].Accesses, SamplesPerThread);
    EXPECT_EQ(PerThread[T].Cycles, uint64_t(SamplesPerThread) * 10);
  }

  // The table's packed invariants survived the hammering.
  EXPECT_LE(Info.table().size(), 2u);
  if (Info.table().size() == 2) {
    EXPECT_NE(Info.table().entry(0).Tid, Info.table().entry(1).Tid);
  }
}

TEST(ThreadedIngestTest, SingleSharedLineDetectorHammer) {
  // Same single-line contention shape through the full detector stage-1 +
  // stage-2 path (threshold 0 so the line materializes on first write).
  constexpr unsigned SamplesPerThread = 20000;
  CacheGeometry Geometry(LineSize);
  ShadowMemory Shadow(Geometry, {{RegionBase, LineSize}});
  DetectorConfig Config;
  Config.WriteThreshold = 0;
  Detector Detect(Geometry, Shadow, Config);

  std::atomic<uint64_t> WritesIssued{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < IngestThreads; ++T)
    Threads.emplace_back([&, T] {
      SplitMix64 Rng(0xBEEF ^ T);
      uint64_t LocalWrites = 0;
      for (unsigned I = 0; I < SamplesPerThread; ++I) {
        pmu::Sample Sample;
        Sample.Address = RegionBase + Rng.nextBelow(16) * 4;
        Sample.Tid = static_cast<ThreadId>(T);
        Sample.IsWrite = Rng.nextBool(0.6);
        Sample.LatencyCycles = 25;
        LocalWrites += Sample.IsWrite ? 1 : 0;
        Detect.handleSample(Sample, /*InParallelPhase=*/true);
      }
      WritesIssued.fetch_add(LocalWrites);
    });
  for (std::thread &Thread : Threads)
    Thread.join();
  Detect.quiesce();

  constexpr uint64_t Total = uint64_t(IngestThreads) * SamplesPerThread;
  DetectorStats Stats = Detect.stats();
  EXPECT_EQ(Stats.SamplesSeen, Total);
  EXPECT_EQ(Stats.SamplesFiltered, 0u);
  EXPECT_EQ(Shadow.materializedLines(), 1u);
  EXPECT_EQ(Shadow.writeCount(RegionBase), WritesIssued.load());

  const CacheLineInfo *Info = Shadow.detail(RegionBase);
  ASSERT_NE(Info, nullptr);
  EXPECT_EQ(Info->accesses(), Stats.SamplesRecorded);
  EXPECT_EQ(Info->writes(), WritesIssued.load());
  EXPECT_EQ(Info->invalidations(), Stats.Invalidations);
  EXPECT_GT(Info->invalidations(), 0u);
  EXPECT_EQ(Info->threadCount(), size_t(IngestThreads));
}

//===----------------------------------------------------------------------===//
// Page layer: 8 threads hammering ONE shared 4 KiB page, pinned across
// two simulated NUMA nodes (tid % 2). The page-granularity mirror of the
// single-shared-line hammer above: every update contends on the packed
// node table, and the merge folds every shard's per-line histogram and
// per-node accumulators into one page. Run under TSan to prove the
// contended page path clean.
//===----------------------------------------------------------------------===//

TEST(ThreadedIngestTest, SingleSharedPageHammerAcrossNodesLosesNoUpdates) {
  constexpr unsigned SamplesPerThread = 20000;
  constexpr uint64_t PageSize = 4096;
  NumaTopology Topology(2, PageSize);
  CacheGeometry Geometry(LineSize);
  ShadowMemory Shadow(Geometry, {{RegionBase, PageSize}});
  PageTable Pages(Topology, Geometry, {{RegionBase, PageSize}});
  DetectorConfig Config;
  Config.WriteThreshold = 0;
  Config.TrackPages = true;
  Config.PageWriteThreshold = 0;
  Detector Detect(Geometry, Shadow, Config);
  Detect.attachPageTable(Pages, Topology);

  std::atomic<uint64_t> WritesIssued{0};
  std::atomic<uint64_t> AccessesPerNode[2] = {{0}, {0}};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < IngestThreads; ++T)
    Threads.emplace_back([&, T] {
      SplitMix64 Rng(0x9A6E ^ T);
      uint64_t LocalWrites = 0;
      for (unsigned I = 0; I < SamplesPerThread; ++I) {
        pmu::Sample Sample;
        Sample.Address = RegionBase + Rng.nextBelow(PageSize / 4) * 4;
        Sample.Tid = static_cast<ThreadId>(T);
        // Lead with a write: a read racing ahead of the page's first
        // sampled write is (correctly) dropped by the stage-1 gate, which
        // would make the conservation totals below nondeterministic.
        Sample.IsWrite = I == 0 || Rng.nextBool(0.6);
        Sample.LatencyCycles = 25;
        LocalWrites += Sample.IsWrite ? 1 : 0;
        Detect.handleSample(Sample, /*InParallelPhase=*/true);
      }
      WritesIssued.fetch_add(LocalWrites);
      AccessesPerNode[T % 2].fetch_add(SamplesPerThread);
    });
  for (std::thread &Thread : Threads)
    Thread.join();
  Detect.quiesce();

  constexpr uint64_t Total = uint64_t(IngestThreads) * SamplesPerThread;
  DetectorStats Stats = Detect.stats();
  EXPECT_EQ(Stats.SamplesSeen, Total);
  EXPECT_EQ(Stats.PageSamplesRecorded, Total);
  EXPECT_EQ(Pages.materializedPages(), 1u);
  EXPECT_EQ(Pages.writeCount(RegionBase), WritesIssued.load());

  const PageInfo *Info = Pages.detail(RegionBase);
  ASSERT_NE(Info, nullptr);
  EXPECT_EQ(Info->accesses(), Total);
  EXPECT_EQ(Info->writes(), WritesIssued.load());
  EXPECT_EQ(Info->cycles(), Total * 25);
  EXPECT_EQ(Info->invalidations(), Stats.PageInvalidations);
  EXPECT_GT(Info->invalidations(), 0u);
  EXPECT_LE(Info->invalidations(), Info->writes());

  // The home was CAS-published exactly once; every access from the other
  // node was counted remote, with no lost updates.
  NodeId Home = Pages.homeNode(RegionBase);
  ASSERT_LT(Home, 2u);
  EXPECT_EQ(Info->remoteAccesses(), AccessesPerNode[1 - Home].load());
  EXPECT_EQ(Info->remoteAccesses(), Stats.RemoteSamples);
  EXPECT_EQ(Info->remoteCycles(), Info->remoteAccesses() * 25);

  // Per-node accumulators conserve the population: both nodes present,
  // each with its threads' exact totals.
  std::vector<NodePageStats> Nodes = Info->nodes();
  ASSERT_EQ(Nodes.size(), 2u);
  for (const NodePageStats &Node : Nodes)
    EXPECT_EQ(Node.Accesses, AccessesPerNode[Node.Node].load());
  EXPECT_EQ(Info->nodeCount(), 2u);

  // Per-line histogram conserves accesses and cycles.
  uint64_t LineAccesses = 0, LineCycles = 0;
  for (const core::WordStats &Line : Info->lines()) {
    LineAccesses += Line.accesses();
    LineCycles += Line.Cycles;
  }
  EXPECT_EQ(LineAccesses, Total);
  EXPECT_EQ(LineCycles, Total * 25);

  // The packed node table kept its invariants under the hammering.
  EXPECT_LE(Info->table().size(), 2u);
  if (Info->table().size() == 2) {
    EXPECT_NE(Info->table().entry(0).Tid, Info->table().entry(1).Tid);
  }
}

//===----------------------------------------------------------------------===//
// Per-thread shard ingestion: record() accumulates into the ingesting OS
// thread's shard, quiesce() merges and releases every shard.
//===----------------------------------------------------------------------===//

TEST(ShardedIngestTest, MergeConservesEveryCounterAcrossEpochs) {
  // 8 OS threads hammer ONE line through their per-thread shards; the
  // merge totals reported by quiesce() must conserve exactly what the
  // threads issued, and a second epoch must fold only its delta.
  constexpr unsigned SamplesPerThread = 20000;
  constexpr uint64_t WordsPerLine = 16;
  CacheGeometry Geometry(LineSize);
  ShadowMemory Shadow(Geometry, {{RegionBase, LineSize}});

  std::atomic<uint64_t> WritesIssued{0}, Invalidations{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < IngestThreads; ++T)
    Threads.emplace_back([&, T] {
      SplitMix64 Rng(0x5A4D ^ T);
      uint64_t LocalWrites = 0, LocalInvalidations = 0;
      for (unsigned I = 0; I < SamplesPerThread; ++I) {
        AccessKind Kind =
            Rng.nextBool(0.5) ? AccessKind::Write : AccessKind::Read;
        LocalWrites += Kind == AccessKind::Write ? 1 : 0;
        CacheLineInfo &Info = Shadow.materializeDetail(RegionBase);
        LocalInvalidations += Shadow.record(
            RegionBase, Info, static_cast<ThreadId>(T),
            /*Actor=*/static_cast<ThreadId>(T), Kind,
            Rng.nextBelow(WordsPerLine), /*Span=*/1, /*LatencyCycles=*/10);
      }
      WritesIssued.fetch_add(LocalWrites);
      Invalidations.fetch_add(LocalInvalidations);
    });
  for (std::thread &Thread : Threads)
    Thread.join();

  // Before the merge, only the shared two-entry table has moved: the
  // additive counters still read zero.
  const CacheLineInfo *Info = Shadow.detail(RegionBase);
  ASSERT_NE(Info, nullptr);
  EXPECT_EQ(Info->accesses(), 0u);
  EXPECT_EQ(Shadow.shardCount(), size_t(IngestThreads));

  constexpr uint64_t Total = uint64_t(IngestThreads) * SamplesPerThread;
  GrainMergeStats Merge = Shadow.quiesce();
  EXPECT_EQ(Merge.Shards, uint64_t(IngestThreads));
  EXPECT_EQ(Merge.Records, uint64_t(IngestThreads)); // one grain per shard
  EXPECT_EQ(Merge.Accesses, Total);
  EXPECT_EQ(Merge.Writes, WritesIssued.load());
  EXPECT_EQ(Merge.Cycles, Total * 10);
  EXPECT_EQ(Merge.Invalidations, Invalidations.load());
  EXPECT_EQ(Merge.RemoteAccesses, 0u); // lines have no remote dimension

  // The folded-back shared state conserves the population too.
  EXPECT_EQ(Info->accesses(), Total);
  EXPECT_EQ(Info->writes(), WritesIssued.load());
  EXPECT_EQ(Info->cycles(), Total * 10);
  EXPECT_EQ(Info->invalidations(), Invalidations.load());
  uint64_t WordAccesses = 0;
  for (const WordStats &Word : Info->words())
    WordAccesses += Word.accesses();
  EXPECT_EQ(WordAccesses, Total);
  std::vector<ThreadLineStats> PerThread = Info->threads();
  ASSERT_EQ(PerThread.size(), size_t(IngestThreads));
  for (const ThreadLineStats &Stats : PerThread)
    EXPECT_EQ(Stats.Accesses, SamplesPerThread) << "tid " << Stats.Tid;

  // Shards were released: an immediate re-quiesce merges nothing.
  EXPECT_EQ(Shadow.shardCount(), 0u);
  EXPECT_EQ(Shadow.shardBytes(), 0u);
  GrainMergeStats Empty = Shadow.quiesce();
  EXPECT_EQ(Empty.Shards, 0u);
  EXPECT_EQ(Empty.Records, 0u);
  EXPECT_EQ(Empty.Accesses, 0u);

  // Epoch two, from a ninth ingesting thread (main): the merge reports
  // only the delta from the one shard this epoch registered, and the
  // shared totals advance by exactly that much.
  constexpr uint64_t ExtraSamples = 100;
  CacheLineInfo &Detail = Shadow.materializeDetail(RegionBase);
  for (uint64_t I = 0; I < ExtraSamples; ++I)
    Shadow.record(RegionBase, Detail, /*Tid=*/0, /*Actor=*/0,
                  AccessKind::Write, /*Bucket=*/I % WordsPerLine,
                  /*Span=*/1, /*LatencyCycles=*/10);
  GrainMergeStats Second = Shadow.quiesce();
  EXPECT_EQ(Second.Shards, 1u);
  EXPECT_EQ(Second.Records, 1u);
  EXPECT_EQ(Second.Accesses, ExtraSamples);
  EXPECT_EQ(Info->accesses(), Total + ExtraSamples);
}

TEST(ShardedIngestTest, ThreadedMergeMatchesSerialIngestSampleForSample) {
  // Disjoint line partitions make every per-line history deterministic, so
  // 8 ingest threads' merged shards must equal one thread's serial run
  // through the same engine field for field — counters, invalidations,
  // word histograms (including first-thread/multi-thread bits), and
  // per-thread totals.
  constexpr uint64_t NumLines = 64;
  constexpr unsigned SamplesPerLine = 64;
  CacheGeometry Geometry(LineSize);
  DetectorConfig Config;

  ShadowMemory SerialShadow(Geometry, {{RegionBase, NumLines * LineSize}});
  Detector SerialDetect(Geometry, SerialShadow, Config);
  for (uint64_t Line = 0; Line < NumLines; ++Line) {
    std::vector<pmu::Sample> Stream = lineStream(Line, SamplesPerLine);
    SerialDetect.handleBatch(Stream.data(), Stream.size(),
                             /*InParallelPhase=*/true);
  }
  SerialDetect.quiesce();

  ShadowMemory Shadow(Geometry, {{RegionBase, NumLines * LineSize}});
  Detector Detect(Geometry, Shadow, Config);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < IngestThreads; ++T)
    Threads.emplace_back([&, T] {
      for (uint64_t Line = T; Line < NumLines; Line += IngestThreads) {
        std::vector<pmu::Sample> Stream = lineStream(Line, SamplesPerLine);
        Detect.handleBatch(Stream.data(), Stream.size(),
                           /*InParallelPhase=*/true);
      }
    });
  for (std::thread &Thread : Threads)
    Thread.join();
  Detect.quiesce();
  EXPECT_EQ(Detect.lineMergeStats().Shards, uint64_t(IngestThreads));

  ASSERT_EQ(Shadow.materializedLines(), SerialShadow.materializedLines());
  for (uint64_t Line = 0; Line < NumLines; ++Line) {
    uint64_t Base = RegionBase + Line * LineSize;
    const CacheLineInfo *Want = SerialShadow.detail(Base);
    const CacheLineInfo *Got = Shadow.detail(Base);
    ASSERT_EQ(Got != nullptr, Want != nullptr) << "line " << Line;
    if (!Want)
      continue;
    GrainSnapshot WantSnap = Want->snapshot(Base);
    GrainSnapshot GotSnap = Got->snapshot(Base);
    EXPECT_EQ(GotSnap.Accesses, WantSnap.Accesses) << "line " << Line;
    EXPECT_EQ(GotSnap.Writes, WantSnap.Writes) << "line " << Line;
    EXPECT_EQ(GotSnap.Cycles, WantSnap.Cycles) << "line " << Line;
    EXPECT_EQ(GotSnap.Invalidations, WantSnap.Invalidations)
        << "line " << Line;
    ASSERT_EQ(GotSnap.Buckets.size(), WantSnap.Buckets.size());
    for (size_t W = 0; W < WantSnap.Buckets.size(); ++W) {
      EXPECT_EQ(GotSnap.Buckets[W].Reads, WantSnap.Buckets[W].Reads)
          << "line " << Line << " word " << W;
      EXPECT_EQ(GotSnap.Buckets[W].Writes, WantSnap.Buckets[W].Writes)
          << "line " << Line << " word " << W;
      EXPECT_EQ(GotSnap.Buckets[W].Cycles, WantSnap.Buckets[W].Cycles)
          << "line " << Line << " word " << W;
      EXPECT_EQ(GotSnap.Buckets[W].FirstThread, WantSnap.Buckets[W].FirstThread)
          << "line " << Line << " word " << W;
      EXPECT_EQ(GotSnap.Buckets[W].MultiThread, WantSnap.Buckets[W].MultiThread)
          << "line " << Line << " word " << W;
    }
    // Both snapshots come out tid-sorted.
    ASSERT_EQ(GotSnap.Threads.size(), WantSnap.Threads.size());
    for (size_t S = 0; S < WantSnap.Threads.size(); ++S) {
      EXPECT_EQ(GotSnap.Threads[S].Tid, WantSnap.Threads[S].Tid);
      EXPECT_EQ(GotSnap.Threads[S].Accesses, WantSnap.Threads[S].Accesses);
      EXPECT_EQ(GotSnap.Threads[S].Cycles, WantSnap.Threads[S].Cycles);
    }
  }
}

TEST(ShardedIngestTest, ThreadChurnReleasesShardsEveryEpoch) {
  // The daemon's shape: every epoch ingests from freshly spawned OS
  // threads, then quiesces. Each exited thread's shard must be released
  // with the merge, so after every epoch no shard bytes remain and the
  // footprint — the eviction budget's denominator — stays flat instead of
  // growing by one registry entry per dead thread.
  constexpr int Epochs = 24;
  constexpr unsigned EpochThreads = 3;
  constexpr uint64_t NumLines = 64;
  constexpr uint64_t PageSize = 4096;
  constexpr uint64_t Size = NumLines * LineSize;
  NumaTopology Topology(2, PageSize);
  CacheGeometry Geometry(LineSize);
  ShadowMemory Shadow(Geometry, {{RegionBase, PageSize}});
  PageTable Pages(Topology, Geometry, {{RegionBase, PageSize}});
  DetectorConfig Config;
  // Threshold 0: every grain materializes on its first epoch's first
  // write, so the materialized set — and with it the footprint — is
  // settled after epoch 0.
  Config.WriteThreshold = 0;
  Config.TrackPages = true;
  Config.PageWriteThreshold = 0;
  Detector Detect(Geometry, Shadow, Config);
  Detect.attachPageTable(Pages, Topology);
  static_assert(Size == PageSize, "the streams must cover the one page");

  size_t LineFootprint = 0, PageFootprint = 0;
  for (int Epoch = 0; Epoch < Epochs; ++Epoch) {
    std::vector<std::thread> Threads;
    for (unsigned T = 0; T < EpochThreads; ++T)
      Threads.emplace_back([&, T] {
        for (uint64_t Line = T; Line < NumLines; Line += EpochThreads) {
          std::vector<pmu::Sample> Stream = lineStream(Line, 16);
          Detect.handleBatch(Stream.data(), Stream.size(),
                             /*InParallelPhase=*/true);
        }
      });
    for (std::thread &Thread : Threads)
      Thread.join();
    Detect.quiesce();

    EXPECT_EQ(Shadow.shardBytes(), 0u) << "epoch " << Epoch;
    EXPECT_EQ(Pages.shardBytes(), 0u) << "epoch " << Epoch;
    EXPECT_EQ(Shadow.shardCount(), 0u) << "epoch " << Epoch;
    if (Epoch == 0) {
      LineFootprint = Shadow.footprintBytes();
      PageFootprint = Pages.footprintBytes();
    }
    EXPECT_EQ(Shadow.footprintBytes(), LineFootprint) << "epoch " << Epoch;
    EXPECT_EQ(Pages.footprintBytes(), PageFootprint) << "epoch " << Epoch;
  }
  EXPECT_GT(Shadow.materializedLines(), 0u);
  EXPECT_EQ(Pages.materializedPages(), 1u);
  // Every epoch's threads registered and were merged.
  EXPECT_EQ(Detect.lineMergeStats().Shards, uint64_t(Epochs) * EpochThreads);
}

TEST(ShardedIngestTest, PageMergeConservesRemoteEvidence) {
  // Page-grain shards carry NUMA extras; the merge must conserve remote
  // accesses/cycles and per-node populations across an 8-thread hammer on
  // one page split over two nodes.
  constexpr unsigned SamplesPerThread = 10000;
  constexpr uint64_t PageSize = 4096;
  NumaTopology Topology(2, PageSize);
  CacheGeometry Geometry(LineSize);
  PageTable Pages(Topology, Geometry, {{RegionBase, PageSize}});

  // Settle the home deterministically before the threads race.
  ASSERT_EQ(Pages.noteTouch(RegionBase, /*Node=*/0), 0u);

  std::atomic<uint64_t> RemoteIssued{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < IngestThreads; ++T)
    Threads.emplace_back([&, T] {
      SplitMix64 Rng(0x9A6E5A4D ^ T);
      NodeId Node = T % 2;
      bool Remote = Node != 0;
      for (unsigned I = 0; I < SamplesPerThread; ++I) {
        PageInfo &Info = Pages.materializeDetail(RegionBase);
        Pages.record(RegionBase, Info, static_cast<ThreadId>(T), Node,
                     Rng.nextBool(0.5) ? AccessKind::Write : AccessKind::Read,
                     /*Bucket=*/Rng.nextBelow(PageSize / LineSize),
                     /*Span=*/1, /*LatencyCycles=*/25,
                     {Remote, Remote ? 1u : 0u});
      }
      if (Remote)
        RemoteIssued.fetch_add(SamplesPerThread);
    });
  for (std::thread &Thread : Threads)
    Thread.join();

  constexpr uint64_t Total = uint64_t(IngestThreads) * SamplesPerThread;
  GrainMergeStats Merge = Pages.quiesce();
  EXPECT_EQ(Merge.Accesses, Total);
  EXPECT_EQ(Merge.RemoteAccesses, RemoteIssued.load());

  const PageInfo *Info = Pages.detail(RegionBase);
  ASSERT_NE(Info, nullptr);
  EXPECT_EQ(Info->accesses(), Total);
  EXPECT_EQ(Info->remoteAccesses(), RemoteIssued.load());
  EXPECT_EQ(Info->remoteCycles(), RemoteIssued.load() * 25);
  EXPECT_EQ(Info->nodeCount(), 2u);
  std::vector<NodePageStats> Nodes = Info->nodes();
  ASSERT_EQ(Nodes.size(), 2u);
  for (const NodePageStats &Node : Nodes)
    EXPECT_EQ(Node.Accesses, Total / 2) << "node " << Node.Node;
  std::vector<RemoteDistanceStats> ByDistance = Info->remoteByDistance();
  ASSERT_EQ(ByDistance.size(), 1u); // all remote traffic crossed distance 1
  EXPECT_EQ(ByDistance[0].Distance, 1u);
  EXPECT_EQ(ByDistance[0].Accesses, RemoteIssued.load());
  EXPECT_EQ(ByDistance[0].Cycles, RemoteIssued.load() * 25);
}

//===----------------------------------------------------------------------===//
// Profiler: the batched ingest API from many application threads.
//===----------------------------------------------------------------------===//

TEST(ThreadedIngestTest, ProfilerBatchedIngestKeepsPerThreadTotals) {
  constexpr unsigned BatchSize = 64;
  constexpr unsigned BatchesPerThread = 100;
  ProfilerConfig Config;
  Profiler Prof(Config);

  // Enter a parallel phase: main plus one simulated child per ingest
  // thread, so detailed tracking is live while the threads race.
  Prof.threadStarted(0, /*IsMain=*/true, 0);
  for (unsigned T = 1; T <= IngestThreads; ++T)
    Prof.threadStarted(static_cast<ThreadId>(T), /*IsMain=*/false, 10);

  std::vector<std::thread> Threads;
  for (unsigned T = 1; T <= IngestThreads; ++T)
    Threads.emplace_back([&, T] {
      SplitMix64 Rng(0xAB + T);
      std::vector<pmu::Sample> Batch(BatchSize);
      for (unsigned B = 0; B < BatchesPerThread; ++B) {
        for (pmu::Sample &Sample : Batch) {
          Sample.Address =
              Config.HeapArenaBase + Rng.nextBelow(1024) * LineSize;
          Sample.Tid = static_cast<ThreadId>(T);
          Sample.IsWrite = Rng.nextBool(0.7);
          Sample.LatencyCycles = 25;
        }
        Prof.ingestBatch(Batch.data(), Batch.size());
      }
    });
  for (std::thread &Thread : Threads)
    Thread.join();

  constexpr uint64_t PerThread = uint64_t(BatchSize) * BatchesPerThread;
  for (unsigned T = 1; T <= IngestThreads; ++T) {
    const runtime::ThreadProfile &Profile =
        Prof.threadRegistry().profile(static_cast<ThreadId>(T));
    EXPECT_EQ(Profile.SampledAccesses, PerThread) << "thread " << T;
    EXPECT_EQ(Profile.SampledCycles, PerThread * 25) << "thread " << T;
  }
  EXPECT_EQ(Prof.threadRegistry().totalSampledAccesses(),
            PerThread * IngestThreads);
}

//===----------------------------------------------------------------------===//
// Interpose: per-thread buffers drain every sample into the sink exactly
// once, no matter which thread recorded it.
//===----------------------------------------------------------------------===//

TEST(ThreadedIngestTest, InterposeBuffersDeliverEverySampleToSink) {
  constexpr unsigned SamplesPerThread = 10000;
  interpose::resetForTesting();

  std::mutex SinkMutex;
  uint64_t SinkSamples = 0;
  std::map<ThreadId, uint64_t> SinkPerTid;
  interpose::setSampleSink([&](const pmu::Sample *Samples, size_t Count) {
    std::lock_guard<std::mutex> Lock(SinkMutex);
    SinkSamples += Count;
    for (size_t I = 0; I < Count; ++I)
      ++SinkPerTid[Samples[I].Tid];
  });

  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < IngestThreads; ++T)
    Threads.emplace_back([&, T] {
      interpose::threadAttach();
      for (unsigned I = 0; I < SamplesPerThread; ++I) {
        pmu::Sample Sample;
        Sample.Address = RegionBase + I * 4;
        Sample.Tid = static_cast<ThreadId>(T);
        Sample.IsWrite = (I & 1) != 0;
        Sample.LatencyCycles = 10;
        interpose::recordSample(Sample);
      }
      interpose::flushThreadSamples();
    });
  for (std::thread &Thread : Threads)
    Thread.join();

  interpose::InterposeSummary Summary = interpose::summary();
  constexpr uint64_t Total = uint64_t(IngestThreads) * SamplesPerThread;
  EXPECT_EQ(Summary.SamplesBuffered, Total);
  EXPECT_EQ(Summary.SamplesIngested, Total);
  {
    std::lock_guard<std::mutex> Lock(SinkMutex);
    EXPECT_EQ(SinkSamples, Total);
    ASSERT_EQ(SinkPerTid.size(), size_t(IngestThreads));
    for (const auto &[Tid, Count] : SinkPerTid)
      EXPECT_EQ(Count, SamplesPerThread) << "tid " << Tid;
  }
  interpose::resetForTesting();
}

} // namespace
