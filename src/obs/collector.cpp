#include "obs/collector.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace pan::obs {

namespace {

/// Spans kept per trace; excess spans are counted, dropped.
constexpr std::size_t kMaxSpansPerTrace = 64;
/// In-flight traces (oldest evicted).
constexpr std::size_t kMaxPending = 256;

std::string hex_id(std::uint64_t id) {
  return strings::format("0x%016llx", static_cast<unsigned long long>(id));
}

void append_attrs(std::string& out, const std::vector<std::pair<std::string, std::string>>& attrs) {
  for (const auto& [key, value] : attrs) {
    out += ',' + strings::json_quote(key) + ':' + strings::json_quote(value);
  }
}

}  // namespace

bool TraceCollector::head_sample(unsigned priority) {
  const std::size_t cls = priority >= 2 ? 2 : priority;
  const std::uint32_t rate = cls == 0   ? config_.sample_document
                             : cls == 1 ? config_.sample_subresource
                                        : config_.sample_probe;
  const std::uint64_t seen = sample_seen_[cls]++;
  if (rate == 0) return false;
  return seen % rate == 0;
}

void TraceCollector::record_span(CollectedSpan span) {
  ++spans_recorded_;
  auto it = pending_.find(span.trace_id);
  if (it == pending_.end()) {
    // New in-flight trace; evict the oldest when over budget so a hop that
    // keeps emitting after finalize (late reverse-proxy spans) stays bounded.
    while (pending_order_.size() >= kMaxPending) {
      pending_.erase(pending_order_.front());
      pending_order_.pop_front();
      ++evicted_;
    }
    pending_order_.push_back(span.trace_id);
    it = pending_.emplace(span.trace_id, std::vector<CollectedSpan>{}).first;
  }
  if (it->second.size() >= kMaxSpansPerTrace) {
    ++spans_dropped_;
    return;
  }
  it->second.push_back(std::move(span));
}

void TraceCollector::finalize(std::uint64_t trace_id, std::string_view outcome, bool keep) {
  const auto it = pending_.find(trace_id);
  if (it == pending_.end()) return;
  std::vector<CollectedSpan> spans = std::move(it->second);
  pending_.erase(it);
  pending_order_.erase(
      std::find(pending_order_.begin(), pending_order_.end(), trace_id));
  if (!keep) {
    ++sampled_out_;
    return;
  }
  TraceRecord record;
  record.trace_id = trace_id;
  record.outcome = std::string(outcome);
  // Spans arrive in completion order; sort by start (stable, so equal starts
  // keep arrival order) so exports read chronologically.
  std::stable_sort(spans.begin(), spans.end(),
                   [](const CollectedSpan& a, const CollectedSpan& b) { return a.start < b.start; });
  record.spans = std::move(spans);
  done_.push_back(std::move(record));
  while (done_.size() > config_.max_traces) {
    done_.pop_front();
    ++evicted_;
  }
}

void TraceCollector::attach_events(std::uint64_t trace_id, std::vector<FlightEvent> events) {
  for (auto it = done_.rbegin(); it != done_.rend(); ++it) {
    if (it->trace_id != trace_id) continue;
    it->events = std::move(events);
    return;
  }
}

const TraceRecord* TraceCollector::find(std::uint64_t trace_id) const {
  for (auto it = done_.rbegin(); it != done_.rend(); ++it) {
    if (it->trace_id == trace_id) return &*it;
  }
  return nullptr;
}

void TraceCollector::collect_chrome_events(const TraceRecord& trace,
                                           std::map<std::string, int>& tids,
                                           std::vector<std::pair<double, std::string>>& out) {
  for (const CollectedSpan& span : trace.spans) {
    auto [it, inserted] = tids.emplace(span.component, 0);
    if (inserted) it->second = static_cast<int>(tids.size());
    const double ts = span.start.nanos() / 1e3;  // trace_event wants microseconds
    std::string event = "{\"ph\":\"X\",\"name\":" + strings::json_quote(span.name);
    event += ",\"cat\":" + strings::json_quote(span.component);
    event += strings::format(",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d", ts,
                             span.duration.nanos() / 1e3, it->second);
    event += ",\"args\":{\"trace\":" + strings::json_quote(hex_id(span.trace_id));
    event += ",\"span\":" + strings::json_quote(hex_id(span.span_id));
    event += ",\"parent\":" + strings::json_quote(hex_id(span.parent_id));
    append_attrs(event, span.attrs);
    event += "}}";
    out.emplace_back(ts, std::move(event));
  }
  for (const FlightEvent& fe : trace.events) {
    const double ts = fe.at.nanos() / 1e3;
    std::string event = "{\"ph\":\"i\",\"s\":\"g\",\"name\":" +
                        strings::json_quote(fe.component + ":" + fe.kind);
    event += strings::format(",\"ts\":%.3f,\"pid\":1,\"tid\":0", ts);
    event += ",\"args\":{\"trace\":" + strings::json_quote(hex_id(trace.trace_id));
    event += ",\"detail\":" + strings::json_quote(fe.detail) + "}}";
    out.emplace_back(ts, std::move(event));
  }
}

std::string TraceCollector::wrap_chrome_events(const std::map<std::string, int>& tids,
                                               std::vector<std::pair<double, std::string>> events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const auto& [component, tid] : tids) {
    if (!first) out += ',';
    first = false;
    out += strings::format("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":%d", tid);
    out += ",\"args\":{\"name\":" + strings::json_quote(component) + "}}";
  }
  for (const auto& [ts, event] : events) {
    if (!first) out += ',';
    first = false;
    out += event;
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

std::string TraceCollector::chrome_trace_json() const {
  std::map<std::string, int> tids;
  std::vector<std::pair<double, std::string>> events;
  for (const TraceRecord& trace : done_) collect_chrome_events(trace, tids, events);
  return wrap_chrome_events(tids, std::move(events));
}

std::string TraceCollector::chrome_trace_json(const TraceRecord& trace) {
  std::map<std::string, int> tids;
  std::vector<std::pair<double, std::string>> events;
  collect_chrome_events(trace, tids, events);
  return wrap_chrome_events(tids, std::move(events));
}

std::string TraceCollector::spans_jsonl() const {
  std::string out;
  for (const TraceRecord& trace : done_) {
    for (const CollectedSpan& span : trace.spans) {
      out += "{\"trace\":" + strings::json_quote(hex_id(span.trace_id));
      out += ",\"span\":" + strings::json_quote(hex_id(span.span_id));
      out += ",\"parent\":" + strings::json_quote(hex_id(span.parent_id));
      out += ",\"name\":" + strings::json_quote(span.name);
      out += ",\"component\":" + strings::json_quote(span.component);
      out += strings::format(",\"start_ms\":%.6f,\"dur_ms\":%.6f", span.start.millis(),
                             span.duration.millis());
      out += ",\"outcome\":" + strings::json_quote(trace.outcome);
      append_attrs(out, span.attrs);
      out += "}\n";
    }
  }
  return out;
}

std::string TraceCollector::stats_json() const {
  return strings::format(
      "{\"retained\":%zu,\"pending\":%zu,\"spans_recorded\":%llu,\"spans_dropped\":%llu,"
      "\"sampled_out\":%llu,\"evicted\":%llu}",
      done_.size(), pending_.size(), static_cast<unsigned long long>(spans_recorded_),
      static_cast<unsigned long long>(spans_dropped_),
      static_cast<unsigned long long>(sampled_out_),
      static_cast<unsigned long long>(evicted_));
}

}  // namespace pan::obs
