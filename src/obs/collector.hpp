// Observability: the trace collector and exporters.
//
// A TraceCollector assembles spans from every hop of a request (client
// process, reverse proxy) into per-trace span trees, bounded in both
// directions: head sampling by priority class decides up front whether a
// trace is worth keeping (errors, sheds and fallbacks are always kept —
// the decision is revisited at finalize time), and a retention ring caps
// how many finished traces stay resident.
//
// Exports:
//   - chrome_trace_json(): Chrome trace_event JSON ("X" complete events,
//     microsecond timestamps), loadable in about:tracing and Perfetto.
//     Components map to tids under one pid, flight-recorder events attached
//     to a trace become "i" instant events.
//   - spans_jsonl(): one compact JSON object per span, for grep/jq.
// Served by GET /skip/traces (JSONL) and GET /skip/trace/<id> (Chrome JSON,
// single trace); the figure benches dump Chrome JSON per scenario.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "util/types.hpp"

namespace pan::obs {

/// One span as exported: ids, hop component, wall-clock, attributes.
struct CollectedSpan {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  ///< 0 = root of the trace.
  std::string name;
  std::string component;  ///< "skip-proxy", "revproxy", ...
  TimePoint start;
  Duration duration = Duration::zero();
  std::vector<std::pair<std::string, std::string>> attrs;
};

/// A finished, retained trace: its span tree plus any flight-recorder
/// context attached when it ended badly.
struct TraceRecord {
  std::uint64_t trace_id = 0;
  std::string outcome;
  std::vector<CollectedSpan> spans;
  std::vector<FlightEvent> events;
};

struct CollectorConfig {
  std::size_t max_traces = 128;  ///< Retained finished traces (ring).
  /// Head-sampling rates per priority class: keep 1 in N. 1 = keep all,
  /// 0 = keep none (errors still force retention at finalize).
  std::uint32_t sample_document = 1;
  std::uint32_t sample_subresource = 1;
  std::uint32_t sample_probe = 4;
};

class TraceCollector {
 public:
  explicit TraceCollector(CollectorConfig config = {}) : config_(config) {}

  /// Head-sampling decision for a new trace of the given priority class
  /// (0 = document, 1 = subresource, 2+ = probe). Deterministic: a
  /// per-class counter keeps every Nth trace.
  [[nodiscard]] bool head_sample(unsigned priority);

  /// Buffers a span under its trace id. Spans arrive from any hop in any
  /// order; sampling is not consulted here (an unsampled trace may still be
  /// forced at finalize by an error), only finalize discards.
  void record_span(CollectedSpan span);

  /// Ends a trace: retains its spans as a TraceRecord when `keep`, discards
  /// them otherwise. Idempotent per trace id (later spans for the same id
  /// would start a new pending entry — bounded by max_pending).
  void finalize(std::uint64_t trace_id, std::string_view outcome, bool keep);

  /// Attaches flight-recorder events to a finished trace (the 5xx auto-dump
  /// path). No-op when the trace was not retained.
  void attach_events(std::uint64_t trace_id, std::vector<FlightEvent> events);

  [[nodiscard]] const TraceRecord* find(std::uint64_t trace_id) const;
  [[nodiscard]] const std::deque<TraceRecord>& traces() const { return done_; }

  /// Chrome trace_event JSON for every retained trace (or one).
  [[nodiscard]] std::string chrome_trace_json() const;
  [[nodiscard]] static std::string chrome_trace_json(const TraceRecord& trace);

  /// One JSON object per span per line, every retained trace, trace order.
  [[nodiscard]] std::string spans_jsonl() const;

  /// {"retained":N,"pending":N,"spans_recorded":N,"spans_dropped":N,
  ///  "sampled_out":N,"evicted":N}
  [[nodiscard]] std::string stats_json() const;

 private:
  static void collect_chrome_events(const TraceRecord& trace, std::map<std::string, int>& tids,
                                    std::vector<std::pair<double, std::string>>& out);
  static std::string wrap_chrome_events(const std::map<std::string, int>& tids,
                                        std::vector<std::pair<double, std::string>> events);
  CollectorConfig config_;
  std::map<std::uint64_t, std::vector<CollectedSpan>> pending_;
  std::deque<std::uint64_t> pending_order_;
  std::deque<TraceRecord> done_;
  std::vector<std::uint64_t> sample_seen_ = {0, 0, 0};
  std::uint64_t spans_recorded_ = 0;
  std::uint64_t spans_dropped_ = 0;
  std::uint64_t sampled_out_ = 0;
  std::uint64_t evicted_ = 0;
};

}  // namespace pan::obs
