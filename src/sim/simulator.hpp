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
// An object that can die while its simulator runs schedules through a Scope
// member instead; destroying the scope cancels the events still pending.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "util/types.hpp"

namespace pan::sim {

/// Identifies a scheduled event so it can be cancelled: the generation in
/// the high 32 bits, the slot in the low 32. Generations start at 1, so no
/// live id is ever kInvalidEventId.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

class Scope;

class Simulator {
 public:
  Simulator();
  /// Drops pending events one at a time, then unhooks the logger's clock.
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
  friend class Scope;
  static constexpr std::uint32_t kNone = UINT32_MAX;  // no heap position / no slot

  /// An event scheduled through a Scope is linked into the scope's list by
  /// `scope_prev`/`scope_next`: scope bookkeeping never allocates.
  struct Slot {
    std::function<void()> fn;
    std::uint32_t generation = 1;
    std::uint32_t heap_index = kNone;
    Scope* scope = nullptr;
    std::uint32_t scope_prev = kNone;
    std::uint32_t scope_next = kNone;
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

  EventId schedule(TimePoint when, std::function<void()> fn, Scope* scope);

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

/// Owner scope, held as a member by an object whose events must not outlive
/// it. Its events keep their (when, seq) place in the simulator's order.
class Scope {
 public:
  explicit Scope(Simulator& sim) : sim_(sim) {}
  /// Cancels every event still pending through this scope. Safe from inside
  /// one of the scope's own events (that one is no longer pending).
  ~Scope();

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  EventId schedule_at(TimePoint when, std::function<void()> fn) {
    return sim_.schedule(when, std::move(fn), this);
  }
  EventId schedule_after(Duration delay, std::function<void()> fn) {
    return schedule_at(sim_.now() + delay, std::move(fn));  // clamped to now
  }
  bool cancel(EventId id) { return sim_.cancel(id); }

  [[nodiscard]] Simulator& simulator() const { return sim_; }
  [[nodiscard]] TimePoint now() const { return sim_.now(); }

 private:
  friend class Simulator;

  Simulator& sim_;
  std::uint32_t head_ = Simulator::kNone;
};

}  // namespace pan::sim
