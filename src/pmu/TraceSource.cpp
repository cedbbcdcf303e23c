//===- pmu/TraceSource.cpp - Sample-trace record and replay ---------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "pmu/TraceSource.h"

#include "support/FileIO.h"
#include "support/Json.h"

using namespace cheetah;
using namespace cheetah::pmu;

//===----------------------------------------------------------------------===//
// cheetah-trace-v1 serialization
//===----------------------------------------------------------------------===//

static const char *TraceSchema = "cheetah-trace-v1";

std::string TraceData::serialize() const {
  std::string Out;
  JsonWriter Writer(Out);
  Writer.beginObject();
  Writer.member("schema", TraceSchema);
  Writer.member("sampling_period", SamplingPeriod);
  Writer.member("run_cycles", RunCycles);
  Writer.key("events");
  Writer.beginArray();
  for (const TraceEvent &Event : Events) {
    Writer.beginObject();
    switch (Event.K) {
    case TraceEvent::Kind::ThreadStart:
      Writer.member("k", "ts");
      Writer.member("tid", static_cast<uint64_t>(Event.Tid));
      Writer.member("main", Event.IsMain);
      Writer.member("t", Event.Time);
      break;
    case TraceEvent::Kind::ThreadEnd:
      Writer.member("k", "te");
      Writer.member("tid", static_cast<uint64_t>(Event.Tid));
      Writer.member("main", Event.IsMain);
      Writer.member("t", Event.Time);
      break;
    case TraceEvent::Kind::SamplePoint:
      Writer.member("k", "s");
      Writer.member("a", Event.Address);
      Writer.member("tid", static_cast<uint64_t>(Event.Tid));
      Writer.member("w", Event.IsWrite);
      Writer.member("l", static_cast<uint64_t>(Event.LatencyCycles));
      Writer.member("t", Event.Time);
      break;
    }
    Writer.endObject();
  }
  Writer.endArray();
  Writer.endObject();
  return Out;
}

bool TraceData::parse(const std::string &Text, TraceData &Out,
                      std::string &Error) {
  JsonValue Root;
  if (!JsonValue::parse(Text, Root, Error))
    return false;
  if (!Root.isObject()) {
    Error = "trace document is not a JSON object";
    return false;
  }

  // Version first: a wrong schema must be the error even if the rest of
  // the document happens to look structurally plausible.
  std::string Schema;
  if (!jsonFieldString(Root, "schema", Schema, Error))
    return false;
  if (Schema != TraceSchema) {
    Error = "unsupported schema '" + Schema + "' (expected " +
            std::string(TraceSchema) + ")";
    return false;
  }

  TraceData Parsed;
  if (!jsonFieldUint(Root, "sampling_period", Parsed.SamplingPeriod, Error) ||
      !jsonFieldUint(Root, "run_cycles", Parsed.RunCycles, Error))
    return false;
  if (Parsed.SamplingPeriod < 1) {
    Error = "sampling_period must be at least 1";
    return false;
  }

  const JsonValue *Events = Root.find("events");
  if (!Events || !Events->isArray()) {
    Error = "missing or non-array 'events'";
    return false;
  }

  Parsed.Events.reserve(Events->size());
  for (size_t I = 0; I < Events->elements().size(); ++I) {
    const JsonValue &Node = Events->elements()[I];
    std::string At = "event " + std::to_string(I) + ": ";
    if (!Node.isObject()) {
      Error = At + "not a JSON object";
      return false;
    }
    std::string Kind;
    if (!jsonFieldString(Node, "k", Kind, Error)) {
      Error = At + Error;
      return false;
    }

    TraceEvent Event;
    uint64_t Tid = 0, Time = 0;
    if (Kind == "ts" || Kind == "te") {
      Event.K = Kind == "ts" ? TraceEvent::Kind::ThreadStart
                             : TraceEvent::Kind::ThreadEnd;
      if (!jsonFieldUint(Node, "tid", Tid, Error) ||
          !jsonFieldBool(Node, "main", Event.IsMain, Error) ||
          !jsonFieldUint(Node, "t", Time, Error)) {
        Error = At + Error;
        return false;
      }
    } else if (Kind == "s") {
      Event.K = TraceEvent::Kind::SamplePoint;
      uint64_t Latency = 0;
      if (!jsonFieldUint(Node, "a", Event.Address, Error) ||
          !jsonFieldUint(Node, "tid", Tid, Error) ||
          !jsonFieldBool(Node, "w", Event.IsWrite, Error) ||
          !jsonFieldUint(Node, "l", Latency, Error) ||
          !jsonFieldUint(Node, "t", Time, Error)) {
        Error = At + Error;
        return false;
      }
      if (Latency > UINT32_MAX) {
        Error = At + "latency exceeds 32 bits";
        return false;
      }
      Event.LatencyCycles = static_cast<uint32_t>(Latency);
    } else {
      Error = At + "unknown event kind '" + Kind + "'";
      return false;
    }
    if (Tid > UINT32_MAX) {
      Error = At + "tid exceeds 32 bits";
      return false;
    }
    Event.Tid = static_cast<ThreadId>(Tid);
    Event.Time = Time;
    Parsed.Events.push_back(Event);
  }

  Out = std::move(Parsed);
  return true;
}

//===----------------------------------------------------------------------===//
// TraceSource
//===----------------------------------------------------------------------===//

TraceSource::TraceSource(std::unique_ptr<SampleSource> Inner, std::string Path,
                         uint64_t SamplingPeriod)
    : Inner(std::move(Inner)), Path(std::move(Path)) {
  Data.SamplingPeriod = SamplingPeriod;
}

TraceSource::TraceSource(std::string Path) : Path(std::move(Path)) {}

SourceStatus TraceSource::start() {
  if (Started)
    return {true, ""};
  if (Inner) {
    // Record mode: interpose on the inner backend's stream. The outer sink
    // (set on *this*) receives everything the inner backend delivers,
    // after the tee buffers it.
    Inner->setSink(this);
    SourceStatus Status = Inner->start();
    Started = Status.Available;
    return Status;
  }
  // Replay mode: the whole trace is materialized up front so a parse error
  // surfaces here, before any event reaches the sink.
  std::string Text, Error;
  if (!readFile(Path, Text, Error))
    return {false, Error};
  if (!TraceData::parse(Text, Data, Error))
    return {false, "'" + Path + "': " + Error};
  Started = true;
  return {true, ""};
}

SourceStatus TraceSource::attachThread(ThreadId Tid) {
  if (Inner)
    return Inner->attachThread(Tid);
  return {true, ""};
}

size_t TraceSource::drain() {
  if (Inner)
    return Inner->drain();
  if (!Started || !sink())
    return 0;
  size_t Delivered = replayInto(*sink());
  SamplesDelivered += Delivered;
  return Delivered;
}

SourceStatus TraceSource::stop() {
  if (Stopped)
    return {true, ""};
  Stopped = true;
  if (!Inner)
    return {true, ""};
  SourceStatus Status = Inner->stop();
  if (!Status.Available)
    return Status;
  if (Path.empty())
    return {true, ""}; // in-memory recording: nothing to flush
  std::string Error;
  if (!writeFile(Path, Data.serialize(), Error))
    return {false, Error};
  return {true, ""};
}

void TraceSource::threadStarted(ThreadId Tid, bool IsMain, uint64_t Now) {
  TraceEvent Event;
  Event.K = TraceEvent::Kind::ThreadStart;
  Event.Tid = Tid;
  Event.IsMain = IsMain;
  Event.Time = Now;
  Data.Events.push_back(Event);
  if (sink())
    sink()->threadStarted(Tid, IsMain, Now);
}

void TraceSource::threadFinished(ThreadId Tid, bool IsMain,
                                 uint64_t EndCycle) {
  TraceEvent Event;
  Event.K = TraceEvent::Kind::ThreadEnd;
  Event.Tid = Tid;
  Event.IsMain = IsMain;
  Event.Time = EndCycle;
  Data.Events.push_back(Event);
  if (sink())
    sink()->threadFinished(Tid, IsMain, EndCycle);
}

void TraceSource::ingestBatch(const Sample *Samples, size_t Count) {
  for (size_t I = 0; I < Count; ++I) {
    const Sample &S = Samples[I];
    TraceEvent Event;
    Event.K = TraceEvent::Kind::SamplePoint;
    Event.Tid = S.Tid;
    Event.Time = S.Timestamp;
    Event.Address = S.Address;
    Event.IsWrite = S.IsWrite;
    Event.LatencyCycles = S.LatencyCycles;
    Data.Events.push_back(Event);
  }
  SamplesDelivered += Count;
  if (sink())
    sink()->ingestBatch(Samples, Count);
}

size_t TraceSource::replayInto(SampleSink &Out) const {
  size_t Delivered = 0;
  for (const TraceEvent &Event : Data.Events) {
    switch (Event.K) {
    case TraceEvent::Kind::ThreadStart:
      Out.threadStarted(Event.Tid, Event.IsMain, Event.Time);
      break;
    case TraceEvent::Kind::ThreadEnd:
      Out.threadFinished(Event.Tid, Event.IsMain, Event.Time);
      break;
    case TraceEvent::Kind::SamplePoint: {
      // Batches of one, in recorded order: byte-identical reports depend
      // on replay matching the recording backend's synchronous delivery
      // (batched delivery would merge latency statistics in a different
      // floating-point order).
      Sample S;
      S.Address = Event.Address;
      S.Tid = Event.Tid;
      S.IsWrite = Event.IsWrite;
      S.LatencyCycles = Event.LatencyCycles;
      S.Timestamp = Event.Time;
      Out.ingestBatch(&S, 1);
      ++Delivered;
      break;
    }
    }
  }
  return Delivered;
}
