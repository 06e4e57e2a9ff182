#include "sim/simulator.hpp"

#include <utility>

#include "util/log.hpp"

namespace pan::sim {

namespace {
TimePoint clock_hook(const void* ctx) {
  return static_cast<const Simulator*>(ctx)->now();
}
}  // namespace

Simulator::Simulator() {
  // Make log records carry simulated timestamps. The last-constructed
  // simulator wins, which matches the one-simulator-per-process usage.
  Logger::set_clock(&clock_hook, this);
}

Simulator::~Simulator() {
  while (!heap_.empty()) remove(static_cast<std::uint32_t>(heap_.size() - 1));
  Logger::clear_clock(this);
}

EventId Simulator::schedule_at(TimePoint when, std::function<void()> fn) {
  return schedule(when, std::move(fn), nullptr);
}

EventId Simulator::schedule(TimePoint when, std::function<void()> fn, Scope* scope) {
  if (when < now_) when = now_;
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& target = slots_[slot];
  target.fn = std::move(fn);
  if (scope != nullptr) {  // push onto the front of the scope's list
    target.scope = scope;
    target.scope_prev = kNone;
    target.scope_next = scope->head_;
    if (scope->head_ != kNone) slots_[scope->head_].scope_prev = slot;
    scope->head_ = slot;
  }
  heap_.emplace_back();
  sift_up(static_cast<std::uint32_t>(heap_.size() - 1), Entry{when, next_seq_++, slot});
  return (EventId{slots_[slot].generation} << 32) | slot;
}

EventId Simulator::schedule_after(Duration delay, std::function<void()> fn) {
  return schedule_at(now_ + delay, std::move(fn));  // clamped to now
}

bool Simulator::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id);
  if (slot >= slots_.size()) return false;
  const Slot& target = slots_[slot];
  if (target.generation != static_cast<std::uint32_t>(id >> 32) ||
      target.heap_index == kNone) {
    return false;
  }
  // The closure dies at the end of this scope, after the queue is
  // consistent again: its captures' destructors may schedule or cancel.
  const std::function<void()> dropped = remove(target.heap_index);
  return true;
}

std::function<void()> Simulator::remove(std::uint32_t index) {
  const std::uint32_t slot = heap_[index].slot;
  const Entry last = heap_.back();
  heap_.pop_back();
  if (index < heap_.size()) {
    // Refill the hole with the former last entry.
    if (index > 0 && earlier(last, heap_[(index - 1) / 2])) {
      sift_up(index, last);
    } else {
      sift_down(index, last);
    }
  }
  Slot& freed = slots_[slot];
  if (freed.scope != nullptr) {  // unlink from the scope's list
    if (freed.scope_prev == kNone) {
      freed.scope->head_ = freed.scope_next;
    } else {
      slots_[freed.scope_prev].scope_next = freed.scope_next;
    }
    if (freed.scope_next != kNone) slots_[freed.scope_next].scope_prev = freed.scope_prev;
    freed.scope = nullptr;
  }
  std::function<void()> fn = std::move(freed.fn);
  freed.fn = nullptr;
  freed.heap_index = kNone;
  if (++freed.generation == 0) freed.generation = 1;
  free_slots_.push_back(slot);
  return fn;
}

void Simulator::place(std::uint32_t index, const Entry& entry) {
  heap_[index] = entry;
  slots_[entry.slot].heap_index = index;
}

void Simulator::sift_up(std::uint32_t index, Entry entry) {
  while (index > 0) {
    const std::uint32_t parent = (index - 1) / 2;
    if (!earlier(entry, heap_[parent])) break;
    place(index, heap_[parent]);
    index = parent;
  }
  place(index, entry);
}

void Simulator::sift_down(std::uint32_t index, Entry entry) {
  const std::size_t size = heap_.size();
  for (;;) {
    std::size_t child = 2 * std::size_t{index} + 1;
    if (child >= size) break;
    if (child + 1 < size && earlier(heap_[child + 1], heap_[child])) ++child;
    if (!earlier(heap_[child], entry)) break;
    place(index, heap_[child]);
    index = static_cast<std::uint32_t>(child);
  }
  place(index, entry);
}

bool Simulator::step(TimePoint deadline) {
  if (heap_.empty() || heap_.front().when > deadline) return false;
  now_ = heap_.front().when;
  const std::function<void()> fn = remove(0);
  ++executed_;
  fn();
  return true;
}

std::size_t Simulator::run() {
  std::size_t n = 0;
  while (step(TimePoint::max())) ++n;
  return n;
}

std::size_t Simulator::run_until(TimePoint deadline) {
  std::size_t n = 0;
  while (step(deadline)) ++n;
  if (now_ < deadline) now_ = deadline;
  return n;
}

std::size_t Simulator::run_for(Duration span) { return run_until(now_ + span); }

bool Simulator::run_until_condition(const std::function<bool()>& pred, TimePoint deadline) {
  if (pred()) return true;
  while (step(deadline)) {
    if (pred()) return true;
  }
  return pred();
}

Scope::~Scope() {
  // Re-read head_ each time: a dropped closure's captures may cancel or schedule.
  while (head_ != Simulator::kNone) sim_.remove(sim_.slots_[head_].heap_index);
}

}  // namespace pan::sim
