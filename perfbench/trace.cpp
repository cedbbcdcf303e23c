//===- perfbench/trace.cpp - In-process benchmark tracer ------------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced half of the end-to-end benchmark (perfbench/run.py). Each
/// benchmark workload is rebuilt in this one process from the repo's
/// library targets, following the same calls cheetah-profile and
/// cheetah-daemon make, and every call into a module's public functions is
/// timed from here (no span lives inside the program). The untraced
/// numbers come from the shipped tools; comparing the two op medians gives
/// this tracer's own overhead.
///
/// Usage (paths relative to the checkout root):
///   perfbench-trace describe
///   perfbench-trace live SECONDS OUTDIR OP...
///   perfbench-trace replay SECONDS OUTDIR TRACE LIVE_REPORT OP
///   perfbench-trace daemon SECONDS OUTDIR EPOCHS_PER_LAUNCH OP
///
/// An OP is one string of cheetah session flags ("--workload=kmeans
/// --sampling-period=64"), parsed by the same driver:: code the tools use.
/// Every mode prints one JSON object on stdout: the traced op times and
/// the per-layer metrics (0 for a layer the workload does not reach).
///
//===----------------------------------------------------------------------===//

#include "core/Profiler.h"
#include "core/detect/BatchDecode.h"
#include "core/report/ReportHistory.h"
#include "core/report/ReportSink.h"
#include "driver/PreloadBridge.h"
#include "driver/ProfileSession.h"
#include "driver/SessionOptions.h"
#include "interpose/Preload.h"
#include "pmu/SimPmu.h"
#include "pmu/TraceSource.h"
#include "support/CommandLine.h"
#include "workloads/Workload.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <shared_mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace cheetah;

namespace {

using Clock = std::chrono::steady_clock;

double msBetween(Clock::time_point Begin, Clock::time_point End) {
  return std::chrono::duration<double, std::milli>(End - Begin).count();
}

/// Adds the lifetime of the scope to \p Acc, in milliseconds.
class Span {
public:
  explicit Span(double &Acc) : Acc(Acc), Begin(Clock::now()) {}
  ~Span() { Acc += msBetween(Begin, Clock::now()); }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  double &Acc;
  Clock::time_point Begin;
};

uint64_t threadCpuNs() {
  timespec Ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &Ts);
  return static_cast<uint64_t>(Ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(Ts.tv_nsec);
}

/// Sums over every traced op of a run; turned into the per-layer metrics
/// at the end.
struct Totals {
  uint64_t Ops = 0;
  std::vector<double> OpMs;

  double BuildMs = 0;
  uint64_t Builds = 0;

  // Simulated runs (live ops; the recording or capture in set-up).
  double SimProfiledMs = 0; // whole Simulator::run with the PMU attached
  double SimSinkMs = 0;     // the part of it spent in profiler sink calls
  double SimNativeMs = 0;   // Simulator::run with no observer
  uint64_t SimRuns = 0, NativeRuns = 0;
  uint64_t NativeAccesses = 0;

  double TraceReadMs = 0, TraceParseMs = 0;
  uint64_t TraceLoads = 0, TraceBytes = 0;

  double LifecycleMs = 0;
  double IngestMs = 0;
  uint64_t IngestCalls = 0, IngestSamples = 0;

  uint64_t SamplesSeen = 0, SamplesRecorded = 0, Invalidations = 0;
  uint64_t LineFootprint = 0, PageFootprint = 0, EvictedGrains = 0;

  double EpochIngestMs = 0;
  uint64_t ReplayCpuNs = 0, ReplaySamples = 0, ReplayThreads = 0;

  double FinishMs = 0, EmitMs = 0;
  uint64_t ReportBytes = 0, Findings = 0;

  double HistoryParseMs = 0, HistoryAppendMs = 0, HistorySerializeMs = 0;
  uint64_t StoreBytes = 0;
};

/// Forwards the sampling stream to the profiler, timing each call.
class TimedSampleSink : public pmu::SampleSink {
public:
  TimedSampleSink(pmu::SampleSink &Inner, Totals &T) : Inner(Inner), T(T) {}

  void threadStarted(ThreadId Tid, bool IsMain, uint64_t Now) override {
    Span S(T.LifecycleMs);
    Inner.threadStarted(Tid, IsMain, Now);
  }
  void threadFinished(ThreadId Tid, bool IsMain, uint64_t EndCycle) override {
    Span S(T.LifecycleMs);
    Inner.threadFinished(Tid, IsMain, EndCycle);
  }
  void ingestBatch(const pmu::Sample *Samples, size_t Count) override {
    ++T.IngestCalls;
    T.IngestSamples += Count;
    Span S(T.IngestMs);
    Inner.ingestBatch(Samples, Count);
  }

private:
  pmu::SampleSink &Inner;
  Totals &T;
};

/// Forwards the report stream, timing each call and counting findings.
class TimedReportSink : public core::ReportSink {
public:
  TimedReportSink(core::ReportSink &Inner, Totals &T) : Inner(Inner), T(T) {}

  void beginRun(const core::ReportRunInfo &Info) override {
    Span S(EmitMs);
    Inner.beginRun(Info);
  }
  void finding(const core::FalseSharingReport &Report,
               bool Significant) override {
    ++T.Findings;
    Span S(EmitMs);
    Inner.finding(Report, Significant);
  }
  void pageFinding(const core::PageSharingReport &Report,
                   bool Significant) override {
    ++T.Findings;
    Span S(EmitMs);
    Inner.pageFinding(Report, Significant);
  }
  void endRun(const core::ReportRunStats &Stats) override {
    Span S(EmitMs);
    Inner.endRun(Stats);
  }

  /// Time spent inside the wrapped sink since construction.
  double EmitMs = 0;

private:
  core::ReportSink &Inner;
  Totals &T;
};

bool parseOp(const std::string &Op, std::unique_ptr<workloads::Workload> &W,
             driver::SessionOptions &Options, FlagSet &Flags,
             std::string &Error) {
  driver::addSessionFlags(Flags);
  std::vector<std::string> Words{"perfbench-trace"};
  std::istringstream In(Op);
  for (std::string Word; In >> Word;)
    Words.push_back(Word);
  std::vector<const char *> Argv;
  for (const std::string &Word : Words)
    Argv.push_back(Word.c_str());
  if (!Flags.parse(static_cast<int>(Argv.size()), Argv.data(), Error))
    return false;
  W = workloads::createWorkload(Flags.getString("workload"));
  if (!W) {
    Error = "unknown workload '" + Flags.getString("workload") + "'";
    return false;
  }
  return driver::buildSessionOptions(Flags, Options, Error);
}

bool writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary);
  Out << Text;
  return static_cast<bool>(Out.flush());
}

bool readFile(const std::string &Path, std::string &Text) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  Text = Buffer.str();
  return true;
}

void addDetectorState(const core::Profiler &Profiler, Totals &T) {
  T.LineFootprint = std::max<uint64_t>(T.LineFootprint,
                                       Profiler.shadow().footprintBytes());
  uint64_t Evicted = Profiler.shadow().evictedResidue().Grains;
  if (const core::PageTable *Pages = Profiler.pages()) {
    T.PageFootprint =
        std::max<uint64_t>(T.PageFootprint, Pages->footprintBytes());
    Evicted += Pages->evictedResidue().Grains;
  }
  T.EvictedGrains = std::max(T.EvictedGrains, Evicted);
}

void addDetectorStats(const core::DetectorStats &Before,
                      const core::DetectorStats &After, Totals &T) {
  T.SamplesSeen += After.SamplesSeen - Before.SamplesSeen;
  T.SamplesRecorded += After.SamplesRecorded - Before.SamplesRecorded;
  T.Invalidations += (After.Invalidations - Before.Invalidations) +
                     (After.PageInvalidations - Before.PageInvalidations);
}

/// Native (unobserved) Simulator::run of \p Program, as --native times it.
void timeNativeRun(const workloads::Workload &W,
                   const driver::SessionConfig &Config, Totals &T) {
  core::Profiler Layout(Config.Profiler);
  sim::ForkJoinProgram Program = driver::buildProgram(W, Layout, Config);
  sim::Simulator Sim(Config.Profiler.Geometry, Config.Latency);
  if (Config.Profiler.Topology.multiNode())
    Sim.setTopology(&Config.Profiler.Topology);
  auto Begin = Clock::now();
  sim::SimulationResult Run = Sim.run(Program);
  T.SimNativeMs += msBetween(Begin, Clock::now());
  ++T.NativeRuns;
  T.NativeAccesses += Run.Coherence.Accesses;
}

/// Builds the program against \p Profiler, timed as the workloads layer.
sim::ForkJoinProgram timedBuild(const workloads::Workload &W,
                                core::Profiler &Profiler,
                                const driver::SessionConfig &Config,
                                Totals &T) {
  ++T.Builds;
  Span S(T.BuildMs);
  return driver::buildProgram(W, Profiler, Config);
}

/// Profiler::finish or snapshotEpoch through a timed JSON sink: finish
/// time excludes the sink, emit time is the sink.
template <typename Fn>
std::string timedReport(const core::ReportRunInfo &Info, Totals &T,
                        Fn &&Finish) {
  std::string Text;
  core::JsonReportSink Json(Text);
  TimedReportSink Sink(Json, T);
  Sink.beginRun(Info);
  double WholeMs = 0;
  {
    Span S(WholeMs);
    Finish(&Sink);
  }
  T.EmitMs += Sink.EmitMs;
  T.FinishMs += WholeMs - Sink.EmitMs;
  T.ReportBytes += Text.size();
  return Text;
}

/// One cheetah-profile run on the simulator backend (runSession's
/// simulator path), writing the JSON report to \p OutPath.
bool liveOp(const workloads::Workload &W, const driver::SessionConfig &Config,
            const std::string &OutPath, Totals &T,
            const std::string &RecordPath = "") {
  core::Profiler Profiler(Config.Profiler);
  sim::ForkJoinProgram Program = timedBuild(W, Profiler, Config, T);

  TimedSampleSink Timed(Profiler, T);
  std::unique_ptr<pmu::SampleSource> Source =
      std::make_unique<pmu::SimPmu>(Config.Profiler.Pmu);
  pmu::TraceSource *Recorder = nullptr;
  if (!RecordPath.empty()) {
    auto Tee = std::make_unique<pmu::TraceSource>(
        std::move(Source), RecordPath, Config.Profiler.Pmu.SamplingPeriod);
    Recorder = Tee.get();
    Source = std::move(Tee);
  }
  Source->setSink(&Timed);
  if (!Source->start().Available)
    return false;

  sim::Simulator Sim(Config.Profiler.Geometry, Config.Latency);
  if (Config.Profiler.Topology.multiNode())
    Sim.setTopology(&Config.Profiler.Topology);
  Sim.addObserver(Source->simObserver());
  double SinkBefore = T.IngestMs + T.LifecycleMs;
  auto Begin = Clock::now();
  sim::SimulationResult Run = Sim.run(Program);
  T.SimProfiledMs += msBetween(Begin, Clock::now());
  T.SimSinkMs += T.IngestMs + T.LifecycleMs - SinkBefore;
  ++T.SimRuns;
  if (Recorder)
    Recorder->setRunCycles(Run.TotalCycles);
  if (!Source->stop().Available)
    return false;

  core::DetectorStats Before;
  std::string Text =
      timedReport(driver::makeRunInfo(W, Config), T, [&](auto *Sink) {
        Profiler.finish(Run, Sink);
      });
  addDetectorStats(Before, Profiler.detector().stats(), T);
  addDetectorState(Profiler, T);
  return writeFile(OutPath, Text);
}

/// One `cheetah-profile --backend=trace:FILE` run (runSession's replay
/// path).
bool replayOp(const workloads::Workload &W, const driver::SessionConfig &Config,
              const std::string &OutPath, Totals &T, std::string &Error) {
  core::Profiler Profiler(Config.Profiler);
  sim::ForkJoinProgram Program = timedBuild(W, Profiler, Config, T);
  (void)Program;
  TimedSampleSink Timed(Profiler, T);
  pmu::TraceSource Replay(Config.ReplayTracePath);
  Replay.setSink(&Timed);
  pmu::SourceStatus Status = Replay.start();
  if (!Status.Available) {
    Error = Status.Reason;
    return false;
  }
  Replay.drain();
  sim::SimulationResult Run;
  Run.TotalCycles = Replay.runCycles();
  driver::SessionConfig InfoConfig = Config;
  InfoConfig.Profiler.Pmu.SamplingPeriod = Replay.samplingPeriod();
  core::DetectorStats Before;
  std::string Text =
      timedReport(driver::makeRunInfo(W, InfoConfig), T, [&](auto *Sink) {
        Profiler.finish(Run, Sink);
      });
  addDetectorStats(Before, Profiler.detector().stats(), T);
  addDetectorState(Profiler, T);
  return writeFile(OutPath, Text);
}

/// The trace reader's two steps, timed apart on a second load of the file
/// (the op itself reads and parses inside TraceSource::start()).
bool timeTraceLoad(const std::string &Path, Totals &T, std::string &Error) {
  std::string Text;
  {
    Span S(T.TraceReadMs);
    if (!readFile(Path, Text)) {
      Error = "cannot read " + Path;
      return false;
    }
  }
  pmu::TraceData Data;
  {
    Span S(T.TraceParseMs);
    if (!pmu::TraceData::parse(Text, Data, Error))
      return false;
  }
  ++T.TraceLoads;
  T.TraceBytes += Text.size();
  return true;
}

double median(std::vector<double> Values) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  size_t N = Values.size();
  return N % 2 ? Values[N / 2] : (Values[N / 2 - 1] + Values[N / 2]) / 2;
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

void printResult(const Totals &T, bool Ok, const std::string &Error) {
  double Ops = static_cast<double>(T.Ops);
  std::map<std::string, double> M;
  M["workloads.build_ms"] = ratio(T.BuildMs, T.Builds);
  M["sim.run_ms"] = ratio(T.SimProfiledMs - T.SimSinkMs, T.SimRuns);
  M["sim.accesses_per_s"] = ratio(T.NativeAccesses, T.SimNativeMs / 1000.0);
  // Profiled runs cover the same programs as the native ones, in the
  // same proportions (whole rounds), so the means are comparable.
  M["pmu.sampling_ms"] =
      T.SimRuns ? std::max(0.0, ratio(T.SimProfiledMs - T.SimSinkMs,
                                      T.SimRuns) -
                                    ratio(T.SimNativeMs, T.NativeRuns))
                : 0.0;
  M["pmu.trace_read_ms"] = ratio(T.TraceReadMs, T.TraceLoads);
  M["pmu.trace_parse_ms"] = ratio(T.TraceParseMs, T.TraceLoads);
  M["pmu.trace_parse_mb_per_s"] =
      ratio(T.TraceBytes / 1e6, T.TraceParseMs / 1000.0);
  M["pmu.samples_per_batch"] = ratio(T.IngestSamples, T.IngestCalls);
  M["runtime.lifecycle_ms"] = ratio(T.LifecycleMs, Ops);
  M["detect.ingest_ms"] = ratio(T.IngestMs, Ops);
  M["detect.ingest_ns_per_sample"] = ratio(T.IngestMs * 1e6, T.IngestSamples);
  M["detect.samples_seen"] = ratio(T.SamplesSeen, Ops);
  M["detect.recorded_ratio"] = ratio(T.SamplesRecorded, T.SamplesSeen);
  M["detect.invalidations"] = ratio(T.Invalidations, Ops);
  M["detect.line_footprint_bytes"] = T.LineFootprint;
  M["detect.page_footprint_bytes"] = T.PageFootprint;
  M["detect.evicted_grains"] = T.EvictedGrains;
  M["interpose.epoch_ingest_ms"] = ratio(T.EpochIngestMs, Ops);
  M["interpose.cpu_ns_per_sample"] = ratio(T.ReplayCpuNs, T.ReplaySamples);
  M["interpose.threads"] = T.ReplayThreads;
  M["report.finish_ms"] = ratio(T.FinishMs, Ops);
  M["report.emit_ms"] = ratio(T.EmitMs, Ops);
  M["report.bytes"] = ratio(T.ReportBytes, Ops);
  M["report.findings"] = ratio(T.Findings, Ops);
  M["history.parse_ms"] = ratio(T.HistoryParseMs, Ops);
  M["history.append_ms"] = ratio(T.HistoryAppendMs, Ops);
  M["history.serialize_ms"] = ratio(T.HistorySerializeMs, Ops);
  M["history.store_bytes"] = T.StoreBytes;

  std::string Out = "{\"ok\": ";
  Out += Ok ? "true" : "false";
  Out += ", \"error\": \"";
  for (char C : Error)
    Out += (C == '"' || C == '\\') ? '\'' : (C == '\n' ? ' ' : C);
  Out += "\", \"ops\": " + std::to_string(T.Ops);
  char Buffer[64];
  std::snprintf(Buffer, sizeof(Buffer), "%.6f", median(T.OpMs));
  Out += ", \"op_ms_p50\": " + std::string(Buffer) + ", \"layers\": {";
  bool First = true;
  for (const auto &[Name, Value] : M) {
    std::snprintf(Buffer, sizeof(Buffer), "%.6f", Value);
    Out += (First ? "\"" : ", \"") + Name + "\": " + Buffer;
    First = false;
  }
  Out += "}}\n";
  std::fputs(Out.c_str(), stdout);
}

bool timeUp(Clock::time_point Begin, double Seconds) {
  return msBetween(Begin, Clock::now()) >= Seconds * 1000.0;
}

/// One op string, parsed; workloads outlive the configs that name them.
struct ParsedOp {
  std::unique_ptr<workloads::Workload> W;
  driver::SessionOptions Options;
  FlagSet Flags;
};

bool parseOps(const std::vector<std::string> &Strings,
              std::vector<std::unique_ptr<ParsedOp>> &Ops,
              void (*ExtraFlags)(FlagSet &), std::string &Error) {
  for (const std::string &S : Strings) {
    auto Op = std::make_unique<ParsedOp>();
    if (ExtraFlags)
      ExtraFlags(Op->Flags);
    if (!parseOp(S, Op->W, Op->Options, Op->Flags, Error)) {
      Error = "'" + S + "': " + Error;
      return false;
    }
    Ops.push_back(std::move(Op));
  }
  return true;
}

int runLive(double Seconds, const std::string &OutDir,
            const std::vector<std::string> &OpStrings) {
  Totals T;
  std::string Error;
  std::vector<std::unique_ptr<ParsedOp>> Ops;
  if (!parseOps(OpStrings, Ops, nullptr, Error)) {
    printResult(T, false, Error);
    return 1;
  }
  // Whole rounds over the op list, like the untraced loop.
  auto Begin = Clock::now();
  bool Ok = true;
  for (size_t Round = 0; Ok && (Round == 0 || !timeUp(Begin, Seconds));
       ++Round) {
    for (size_t I = 0; Ok && I < Ops.size(); ++I) {
      const ParsedOp &Op = *Ops[I];
      auto OpBegin = Clock::now();
      Ok = liveOp(*Op.W, Op.Options.Config,
                  OutDir + "/op-" + std::to_string(I) + ".json", T);
      T.OpMs.push_back(msBetween(OpBegin, Clock::now()));
      ++T.Ops;
      // The native baseline for pmu.sampling_ms, outside the op window;
      // it is deterministic, so the first round measures it.
      if (Round == 0)
        timeNativeRun(*Op.W, Op.Options.Config, T);
    }
  }
  if (!Ok)
    Error = "a traced op failed";
  printResult(T, Ok, Error);
  return Ok ? 0 : 1;
}

int runReplay(double Seconds, const std::string &OutDir,
              const std::string &TracePath, const std::string &LivePath,
              const std::string &OpString) {
  Totals T;
  std::string Error;
  std::vector<std::unique_ptr<ParsedOp>> Ops;
  if (!parseOps({OpString}, Ops, nullptr, Error)) {
    printResult(T, false, Error);
    return 1;
  }
  const ParsedOp &Op = *Ops.front();
  // Set-up, traced too: the recording run and its native baseline.
  Totals SetUp;
  if (!liveOp(*Op.W, Op.Options.Config, LivePath, SetUp, TracePath)) {
    printResult(T, false, "recording the trace failed");
    return 1;
  }
  timeNativeRun(*Op.W, Op.Options.Config, SetUp);
  T.SimProfiledMs = SetUp.SimProfiledMs;
  T.SimSinkMs = SetUp.SimSinkMs;
  T.SimNativeMs = SetUp.SimNativeMs;
  T.SimRuns = SetUp.SimRuns;
  T.NativeRuns = SetUp.NativeRuns;
  T.NativeAccesses = SetUp.NativeAccesses;
  std::string Live;
  readFile(LivePath, Live);

  driver::SessionConfig Config = Op.Options.Config;
  Config.Backend = driver::SampleBackend::TraceReplay;
  Config.ReplayTracePath = TracePath;
  auto Begin = Clock::now();
  bool Ok = true;
  std::string OutPath = OutDir + "/replay.json";
  while (Ok && (T.Ops == 0 || !timeUp(Begin, Seconds))) {
    auto OpBegin = Clock::now();
    Ok = replayOp(*Op.W, Config, OutPath, T, Error);
    T.OpMs.push_back(msBetween(OpBegin, Clock::now()));
    ++T.Ops;
    std::string Replayed;
    if (Ok && (!readFile(OutPath, Replayed) || Replayed != Live)) {
      Ok = false;
      Error = "traced replay report differs from the live report";
    }
    if (Ok && T.TraceLoads < 5)
      Ok = timeTraceLoad(TracePath, T, Error);
  }
  printResult(T, Ok, Error);
  return Ok ? 0 : 1;
}

/// Buckets the captured stream per issuing thread (as cheetah-daemon does).
struct PartitionSink : pmu::SampleSink {
  std::map<ThreadId, std::vector<pmu::Sample>> PerThread;

  void threadStarted(ThreadId, bool, uint64_t) override {}
  void threadFinished(ThreadId, bool, uint64_t) override {}
  void ingestBatch(const pmu::Sample *Samples, size_t Count) override {
    for (size_t I = 0; I < Count; ++I)
      PerThread[Samples[I].Tid].push_back(Samples[I]);
  }
};

/// Per-thread ingest tally, one cache line each so the tracer adds no
/// shared line of its own to the path it measures.
struct alignas(64) IngestTally {
  uint64_t Ns = 0, Calls = 0, Samples = 0;
};
thread_local IngestTally *CurrentTally = nullptr;

void addDaemonFlags(FlagSet &Flags) {
  Flags.addInt("line-budget", 0, "line shadow-table byte budget");
  Flags.addInt("page-budget", 0, "page shadow-table byte budget");
}

/// One cheetah-daemon launch of \p Epochs epochs, in process. \returns
/// false with \p Error on a failed step.
bool daemonLaunch(const ParsedOp &Op, int64_t Epochs, const std::string &Dir,
                  Totals &T, std::string &Error) {
  driver::SessionConfig Config = Op.Options.Config;
  Config.Profiler.Detect.LineShadowBudgetBytes =
      static_cast<size_t>(Op.Flags.getInt("line-budget"));
  Config.Profiler.Detect.PageShadowBudgetBytes =
      static_cast<size_t>(Op.Flags.getInt("page-budget"));

  core::Profiler Profiler(Config.Profiler);
  sim::ForkJoinProgram Program = timedBuild(*Op.W, Profiler, Config, T);
  std::unique_ptr<pmu::TraceSource> Trace = driver::makeCaptureSource(Config);
  if (!Trace->start().Available) {
    Error = "capture source failed to start";
    return false;
  }
  {
    sim::Simulator Sim(Config.Profiler.Geometry, Config.Latency);
    if (Config.Profiler.Topology.multiNode())
      Sim.setTopology(&Config.Profiler.Topology);
    Sim.addObserver(Trace->simObserver());
    auto Begin = Clock::now();
    sim::SimulationResult Capture = Sim.run(Program);
    T.SimProfiledMs += msBetween(Begin, Clock::now());
    ++T.SimRuns;
    Trace->setRunCycles(Capture.TotalCycles);
    if (!Trace->stop().Available) {
      Error = "capture source failed to stop";
      return false;
    }
  }
  PartitionSink Partition;
  Trace->replayInto(Partition);
  std::vector<ThreadId> ChildTids;
  ThreadId MaxTid = 0;
  for (const auto &Entry : Partition.PerThread) {
    if (Entry.first != 0)
      ChildTids.push_back(Entry.first);
    MaxTid = std::max(MaxTid, Entry.first);
  }

  core::ReportHistory History;
  // Declared before the bridge, whose destructor uninstalls the sink that
  // refers to them.
  std::shared_mutex Gate;
  IngestTally MainTally;
  std::vector<IngestTally> Tallies(ChildTids.size());
  struct ClearTally {
    ~ClearTally() { CurrentTally = nullptr; }
  } Clear;
  driver::PreloadProfilerBridge Bridge(Profiler);
  // The bridge's sink, re-installed with a timer around the profiler call;
  // the gate mirrors the bridge's own per-delivery shared lock.
  interpose::setSampleSink([&Profiler, &Gate](const pmu::Sample *Samples,
                                              size_t Count) {
    std::shared_lock<std::shared_mutex> Lock(Gate);
    auto Begin = Clock::now();
    Profiler.ingestBatch(Samples, Count);
    IngestTally *Tally = CurrentTally;
    Tally->Ns += static_cast<uint64_t>(
        std::chrono::duration<double, std::nano>(Clock::now() - Begin)
            .count());
    ++Tally->Calls;
    Tally->Samples += Count;
  });
  CurrentTally = &MainTally;

  std::string StorePath = Dir + "/store.json";
  for (int64_t Epoch = 0; Epoch < Epochs; ++Epoch) {
    auto OpBegin = Clock::now();
    core::DetectorStats Before = Profiler.detector().stats();
    auto MainIt = Partition.PerThread.find(0);
    if (MainIt != Partition.PerThread.end()) {
      for (const pmu::Sample &Sample : MainIt->second)
        interpose::recordSample(Sample);
      interpose::flushThreadSamples();
    }

    ThreadId Stride = MaxTid + 1;
    auto IngestBegin = Clock::now();
    {
      Span S(T.LifecycleMs);
      for (ThreadId Tid : ChildTids)
        Bridge.attachThread(static_cast<ThreadId>(Epoch) * Stride + Tid);
    }
    std::vector<uint64_t> CpuNs(ChildTids.size(), 0);
    std::vector<std::thread> Replayers;
    for (size_t I = 0; I < ChildTids.size(); ++I) {
      ThreadId EpochTid = static_cast<ThreadId>(Epoch) * Stride + ChildTids[I];
      const std::vector<pmu::Sample> &Samples =
          Partition.PerThread[ChildTids[I]];
      T.ReplaySamples += Samples.size();
      Replayers.emplace_back([EpochTid, &Samples, &CpuNs, &Tallies, I] {
        uint64_t CpuBegin = threadCpuNs();
        CurrentTally = &Tallies[I];
        interpose::threadAttach();
        for (pmu::Sample Sample : Samples) {
          Sample.Tid = EpochTid;
          interpose::recordSample(Sample);
        }
        interpose::flushThreadSamples();
        CpuNs[I] = threadCpuNs() - CpuBegin;
      });
    }
    for (std::thread &Replayer : Replayers)
      Replayer.join();
    T.EpochIngestMs += msBetween(IngestBegin, Clock::now());
    for (uint64_t Ns : CpuNs)
      T.ReplayCpuNs += Ns;
    T.ReplayThreads = ChildTids.size();
    {
      // detachThread flushes every registered buffer; stragglers land on
      // the main thread's tally.
      Span S(T.LifecycleMs);
      for (ThreadId Tid : ChildTids)
        Bridge.detachThread(static_cast<ThreadId>(Epoch) * Stride + Tid);
    }

    core::ReportRunInfo Info = driver::makeRunInfo(*Op.W, Config);
    Info.Tool = "cheetah-daemon";
    std::string ReportText = timedReport(Info, T, [&](auto *Sink) {
      Profiler.snapshotEpoch(Bridge.elapsedCycles(), Sink);
    });
    addDetectorStats(Before, Profiler.detector().stats(), T);
    core::ParsedReport Report;
    bool Ok;
    {
      Span S(T.HistoryParseMs);
      Ok = core::parseRunDocument(ReportText, Report, Error);
    }
    std::string RunId = "epoch-" + std::to_string(History.runs().size());
    if (Ok) {
      Span S(T.HistoryAppendMs);
      Ok = History.appendRun(Report, RunId, Error);
    }
    std::string Store;
    if (Ok) {
      Span S(T.HistorySerializeMs);
      Store = History.serialize();
    }
    T.StoreBytes = std::max<uint64_t>(T.StoreBytes, Store.size());
    if (Ok && !(writeFile(StorePath, Store) &&
                writeFile(Dir + "/" + RunId + ".json", ReportText))) {
      Ok = false;
      Error = "cannot write the store or a snapshot under " + Dir;
    }
    T.OpMs.push_back(msBetween(OpBegin, Clock::now()));
    ++T.Ops;
    addDetectorState(Profiler, T);
    if (!Ok)
      return false;
  }
  for (const IngestTally &Tally : Tallies) {
    T.IngestMs += Tally.Ns / 1e6;
    T.IngestCalls += Tally.Calls;
    T.IngestSamples += Tally.Samples;
  }
  T.IngestMs += MainTally.Ns / 1e6;
  T.IngestCalls += MainTally.Calls;
  T.IngestSamples += MainTally.Samples;
  Bridge.finish();
  return true;
}

int runDaemon(double Seconds, const std::string &OutDir, int64_t Epochs,
              const std::string &OpString) {
  Totals T;
  std::string Error;
  std::vector<std::unique_ptr<ParsedOp>> Ops;
  if (Epochs < 1 || !parseOps({OpString}, Ops, addDaemonFlags, Error)) {
    printResult(T, false, Epochs < 1 ? "epochs must be >= 1" : Error);
    return 1;
  }
  auto Begin = Clock::now();
  bool Ok = true;
  for (int Launch = 0; Ok && (Launch == 0 || !timeUp(Begin, Seconds));
       ++Launch) {
    std::string Dir = OutDir + "/launch-" + std::to_string(Launch);
    std::filesystem::create_directories(Dir);
    Ok = daemonLaunch(*Ops.front(), Epochs, Dir, T, Error);
    // Native baseline of the capture run, for pmu.sampling_ms.
    timeNativeRun(*Ops.front()->W, Ops.front()->Options.Config, T);
  }
  printResult(T, Ok, Error);
  return Ok ? 0 : 1;
}

int describe() {
  std::string Out = "{\"decode_kernel\": \"";
  Out += core::decodeKernelName(
      core::BatchDecoder(CacheGeometry(64), {}).kernel());
  Out += "\", \"workloads\": {";
  bool First = true;
  for (const auto &W : workloads::createAllWorkloads()) {
    char Floor[32];
    std::snprintf(Floor, sizeof(Floor), "%.17g",
                  W->expectedPageImprovementFloor());
    Out += First ? "" : ", ";
    Out += "\"" + W->name() + "\": {\"site\": \"" + W->falseSharingSiteTag() +
           "\", \"significant\": " +
           (W->hasSignificantFalseSharing() ? "true" : "false") +
           ", \"page_floor\": " + Floor + "}";
    First = false;
  }
  Out += "}}\n";
  std::fputs(Out.c_str(), stdout);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  std::vector<std::string> Args(Argv + 1, Argv + Argc);
  if (Args.size() == 1 && Args[0] == "describe")
    return describe();
  if (Args.size() >= 4 && Args[0] == "live")
    return runLive(std::stod(Args[1]), Args[2],
                   std::vector<std::string>(Args.begin() + 3, Args.end()));
  if (Args.size() == 6 && Args[0] == "replay")
    return runReplay(std::stod(Args[1]), Args[2], Args[3], Args[4], Args[5]);
  if (Args.size() == 5 && Args[0] == "daemon")
    return runDaemon(std::stod(Args[1]), Args[2], std::stoll(Args[3]),
                     Args[4]);
  std::fprintf(stderr,
               "usage: perfbench-trace describe\n"
               "       perfbench-trace live SECONDS OUTDIR OP...\n"
               "       perfbench-trace replay SECONDS OUTDIR TRACE "
               "LIVE_REPORT OP\n"
               "       perfbench-trace daemon SECONDS OUTDIR "
               "EPOCHS_PER_LAUNCH OP\n");
  return 2;
}
