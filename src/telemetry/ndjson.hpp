// NDJSON trace streaming — the wire form of the engine's TraceEvent
// stream.
//
// The hmmsimd service streams telemetry back to clients as newline-
// delimited JSON: one object per TraceEvent, live, while the run is
// still executing.  This header provides the two halves:
//
//  * trace_event_json / trace_event_from_json — the (de)serialisation of
//    a single TraceEvent, exact enough that a parsed event compares ==
//    to the original (locked by tests/service_test.cpp);
//  * NdjsonStreamSink — a trace sink that stores nothing: it serialises
//    each event and hands the finished NDJSON line to a writer
//    callback, under a hard per-run event BUDGET.  Once the
//    budget is spent the sink stops serialising and only counts drops —
//    the backpressure contract that keeps one chatty grid point from
//    monopolising a client's socket (the service reports the counter in
//    its drop frames, mirroring RingBufferSink::dropped()).
//
// Like every TelemetrySink the stream sink runs inline in the engine
// loop: the writer callback must be cheap and must never re-enter the
// Machine.  Sinks are single-run, single-thread objects; the service
// builds one per observed grid point.
#pragma once

#include <functional>
#include <string_view>

#include "core/json.hpp"
#include "telemetry/sink.hpp"

namespace hmm::telemetry {

/// One TraceEvent as a JSON object: kind ("memory" / "compute" /
/// "barrier"), warp, dmm, space ("shared" / "global"), requests, stages,
/// begin, end, ready.  Every field is serialised for every kind so the
/// round trip reconstructs the struct exactly.
json::Value trace_event_json(const TraceEvent& event);

/// Inverse of trace_event_json; throws PreconditionError on unknown
/// kind/space spellings or missing fields.
TraceEvent trace_event_from_json(const json::Value& v);

class NdjsonStreamSink final : public TelemetrySink {
 public:
  /// Receives one finished NDJSON line (no trailing newline).
  using LineWriter = std::function<void(std::string_view line)>;
  /// Maps the bare event object into the line actually emitted — the
  /// service wraps events into its telemetry frames here.  Identity when
  /// not given.
  using Wrap = std::function<json::Value(json::Value event)>;

  /// Streams at most `budget` events per observed run (budget >= 0; 0
  /// streams nothing and counts everything as dropped — the count-only
  /// mode RingBufferSink implements with capacity 0).
  NdjsonStreamSink(LineWriter writer, std::int64_t budget, Wrap wrap = {});

  void on_run_begin(const Machine& machine) override {
    (void)machine;
    streamed_ = 0;
    dropped_ = 0;
  }

  std::int64_t budget() const { return budget_; }
  /// Lines handed to the writer this run.
  std::int64_t streamed() const { return streamed_; }
  /// Events past the budget this run (counted, never serialised).
  std::int64_t dropped() const { return dropped_; }

 protected:
  void consume(const TraceEvent& event) override;

 private:
  LineWriter writer_;
  Wrap wrap_;
  std::int64_t budget_;
  std::int64_t streamed_ = 0;
  std::int64_t dropped_ = 0;
};

}  // namespace hmm::telemetry
