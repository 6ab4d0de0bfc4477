// Trace sinks — streaming consumers of the engine's TraceEvent stream.
//
// A TelemetrySink is an EngineObserver that subscribes to the trace
// channel (machine/observer.hpp): attach one with
// `machine.set_observer(&sink)` and it receives every TraceEvent of
// every subsequent run, in the engine's deterministic emission order.
// Two implementations here trade memory for completeness:
//
//  * CollectingSink  — keeps everything; O(run length) memory.  The way
//    to obtain a run's full trace (render_gantt, exact-event tests).
//  * RingBufferSink  — bounded drop-oldest window; O(capacity) memory
//    regardless of run length, with a dropped-event counter.  The
//    production choice for long traced runs.
//
// NdjsonStreamSink (telemetry/ndjson.hpp) streams each event as one
// NDJSON line and stores nothing.
//
// Per-run semantics: both sinks here reset at on_run_begin, so they hold
// one run's trace; events_seen() counts across runs.  Sinks are not
// thread-safe; attach each instance to one Machine at a time.
#pragma once

#include <vector>

#include "core/error.hpp"
#include "machine/observer.hpp"

namespace hmm::telemetry {

/// Base class of every trace sink: routes the observer trace hook into
/// `consume` and keeps the offered-event count.
class TelemetrySink : public EngineObserver {
 public:
  bool wants_trace_events() const final { return true; }
  void on_trace_event(const TraceEvent& event) final {
    ++seen_;
    consume(event);
  }

  /// Events offered to the sink since construction (kept + dropped,
  /// across all observed runs).
  std::int64_t events_seen() const { return seen_; }

 protected:
  virtual void consume(const TraceEvent& event) = 0;

 private:
  std::int64_t seen_ = 0;
};

/// Keeps the full trace of the current run.
class CollectingSink final : public TelemetrySink {
 public:
  void on_run_begin(const Machine& machine) override {
    (void)machine;
    events_.clear();
  }

  const std::vector<TraceEvent>& events() const { return events_; }

 protected:
  void consume(const TraceEvent& event) override { events_.push_back(event); }

 private:
  std::vector<TraceEvent> events_;
};

/// Bounded drop-oldest trace window.  Storage is reserved once at
/// construction and NEVER grows: a traced run holds O(capacity) events
/// no matter how long it runs.  Capacity 0 is legal (count-only mode:
/// every event is dropped but still counted).
class RingBufferSink final : public TelemetrySink {
 public:
  explicit RingBufferSink(std::int64_t capacity) : capacity_(capacity) {
    HMM_REQUIRE(capacity >= 0, "ring sink: capacity must be >= 0");
    buffer_.reserve(static_cast<std::size_t>(capacity));
  }

  void on_run_begin(const Machine& machine) override {
    (void)machine;
    buffer_.clear();  // keeps the reserved storage
    head_ = 0;
    dropped_ = 0;
  }

  std::int64_t capacity() const { return capacity_; }
  /// Events currently held (<= capacity).
  std::int64_t size() const {
    return static_cast<std::int64_t>(buffer_.size());
  }
  /// Events evicted (or never admitted, capacity 0) this run.
  std::int64_t dropped() const { return dropped_; }
  /// Reserved storage in events; stays == capacity for the sink's whole
  /// lifetime (the O(capacity) guarantee, asserted by tests).
  std::int64_t storage_capacity() const {
    return static_cast<std::int64_t>(buffer_.capacity());
  }

  /// The kept window, oldest event first (copies out of the ring).
  std::vector<TraceEvent> events_in_order() const {
    std::vector<TraceEvent> out;
    out.reserve(buffer_.size());
    const auto n = buffer_.size();
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(buffer_[(head_ + i) % n]);
    }
    return out;
  }

 protected:
  void consume(const TraceEvent& event) override {
    if (capacity_ == 0) {
      ++dropped_;
      return;
    }
    if (size() < capacity_) {
      buffer_.push_back(event);
      return;
    }
    buffer_[head_] = event;  // overwrite the oldest
    head_ = (head_ + 1) % buffer_.size();
    ++dropped_;
  }

 private:
  std::int64_t capacity_;
  std::vector<TraceEvent> buffer_;
  std::size_t head_ = 0;  // index of the oldest kept event
  std::int64_t dropped_ = 0;
};

}  // namespace hmm::telemetry
