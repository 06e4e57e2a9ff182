// RAII timers on top of the Simulator.
//
// Timer: a one-shot, re-armable timer (retransmission timeouts, idle
// timeouts). PeriodicTimer: fires at a fixed period until stopped
// (keep-alives, beacon origination). Both cancel themselves on destruction,
// and Simulator::cancel removes the event eagerly, so owning objects can be
// destroyed without leaving dangling callbacks. The scheduled closure is
// just `[this]`, which std::function stores inline: re-arming allocates
// nothing.
#pragma once

#include <functional>

#include "sim/simulator.hpp"

namespace pan::sim {

class Timer {
 public:
  Timer(Simulator& sim, std::function<void()> on_fire);
  ~Timer();

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// (Re)arms the timer to fire `delay` from now; cancels any pending firing.
  void arm(Duration delay);
  /// Arms only if not already pending (useful for RTO-style timers).
  void arm_if_idle(Duration delay);
  void cancel();
  [[nodiscard]] bool pending() const { return pending_; }
  [[nodiscard]] TimePoint deadline() const { return deadline_; }

 private:
  void fire();

  Simulator& sim_;
  std::function<void()> on_fire_;
  EventId event_ = kInvalidEventId;
  bool pending_ = false;
  TimePoint deadline_;
};

class PeriodicTimer {
 public:
  PeriodicTimer(Simulator& sim, std::function<void()> on_fire);
  ~PeriodicTimer();

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  /// Starts firing every `period`, first firing after `initial_delay`.
  void start(Duration initial_delay, Duration period);
  void stop();
  [[nodiscard]] bool running() const { return running_; }

 private:
  void fire();

  Simulator& sim_;
  std::function<void()> on_fire_;
  Duration period_ = Duration::zero();
  bool running_ = false;
  EventId event_ = kInvalidEventId;
};

}  // namespace pan::sim
