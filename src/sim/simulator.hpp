// Deterministic discrete-event simulation engine.
//
// The whole system — links, transports, proxies, the browser model — runs on
// one Simulator. Events are (time, sequence, closure) triples ordered by time
// with the sequence number breaking ties FIFO, which makes runs bit-for-bit
// reproducible. Everything is single-threaded by design: handlers run to
// completion and schedule follow-up events.
//
// Pending events live in a slot table; an indexed binary heap of slot
// numbers orders them. An EventId names a slot plus the slot's generation,
// which is bumped whenever the event fires or is cancelled, so a stale id
// can never reach the slot's next occupant. cancel() removes the event from
// the heap immediately: the queue and the slot table stay O(live events), no
// matter how often timers are re-armed (DESIGN.md §5m).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/types.hpp"

namespace pan::sim {

/// Identifies a scheduled event so it can be cancelled: the generation in
/// the high 32 bits, the slot in the low 32. Generations start at 1, so no
/// live id is ever kInvalidEventId.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

class Simulator {
 public:
  Simulator();
  /// Unhooks the logger's clock if it still points at this simulator.
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedules `fn` to run at the absolute time `when` (>= now, else clamped
  /// to now). Returns an id usable with cancel().
  EventId schedule_at(TimePoint when, std::function<void()> fn);

  /// Schedules `fn` to run `delay` after now (negative delays clamp to 0).
  EventId schedule_after(Duration delay, std::function<void()> fn);

  /// Cancels a pending event, removing it (and its closure) from the queue
  /// at once. Returns true iff the event was pending; cancelling an event
  /// that already fired (including from inside its own handler), was
  /// already cancelled, or was never issued returns false and changes
  /// nothing.
  bool cancel(EventId id);

  /// Runs events until the queue drains. Returns the number of events run.
  std::size_t run();

  /// Runs events with time <= deadline. The clock always ends at the
  /// deadline, even when the queue drains early, so repeated calls advance
  /// monotonically. Returns the number of events run.
  std::size_t run_until(TimePoint deadline);

  /// Runs for `span` of simulated time from now.
  std::size_t run_for(Duration span);

  /// Runs events until `pred()` becomes true (checked after each event) or
  /// the queue drains or `deadline` passes. Returns true iff pred held.
  bool run_until_condition(const std::function<bool()>& pred, TimePoint deadline);

  [[nodiscard]] std::size_t pending_events() const { return heap_.size(); }
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }
  /// Size of the slot table: the peak number of simultaneously pending
  /// events so far (slots are recycled, never released).
  [[nodiscard]] std::size_t event_slots() const { return slots_.size(); }

 private:
  static constexpr std::uint32_t kNotQueued = UINT32_MAX;

  struct Slot {
    std::function<void()> fn;
    std::uint32_t generation = 1;
    std::uint32_t heap_index = kNotQueued;
  };
  /// Heap entries carry the ordering key, so sifting never touches slots_
  /// except to update the back-pointer.
  struct Entry {
    TimePoint when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static bool earlier(const Entry& a, const Entry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  /// Pops and runs the next event; returns false if the queue is empty or the
  /// next event is beyond `deadline` (clock untouched in that case).
  bool step(TimePoint deadline);

  /// Takes the entry at heap position `index` out of the heap and frees its
  /// slot; returns the closure so the caller decides when it runs or dies.
  std::function<void()> remove(std::uint32_t index);
  void place(std::uint32_t index, const Entry& entry);
  void sift_up(std::uint32_t index, Entry entry);
  void sift_down(std::uint32_t index, Entry entry);

  TimePoint now_ = TimePoint::origin();
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<Entry> heap_;  // min-heap on (when, seq)
};

}  // namespace pan::sim
