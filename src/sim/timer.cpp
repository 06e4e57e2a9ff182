#include "sim/timer.hpp"

#include <utility>

namespace pan::sim {

Timer::Timer(Simulator& sim, std::function<void()> on_fire)
    : sim_(sim), on_fire_(std::move(on_fire)) {}

Timer::~Timer() { cancel(); }

void Timer::arm(Duration delay) {
  cancel();
  pending_ = true;
  deadline_ = sim_.now() + delay;
  event_ = sim_.schedule_after(delay, [this] { fire(); });
}

void Timer::arm_if_idle(Duration delay) {
  if (!pending_) arm(delay);
}

void Timer::cancel() {
  if (pending_) {
    sim_.cancel(event_);
    pending_ = false;
  }
}

void Timer::fire() {
  pending_ = false;
  on_fire_();
}

PeriodicTimer::PeriodicTimer(Simulator& sim, std::function<void()> on_fire)
    : sim_(sim), on_fire_(std::move(on_fire)) {}

PeriodicTimer::~PeriodicTimer() { stop(); }

void PeriodicTimer::start(Duration initial_delay, Duration period) {
  stop();
  running_ = true;
  period_ = period;
  event_ = sim_.schedule_after(initial_delay, [this] { fire(); });
}

void PeriodicTimer::stop() {
  if (running_) {
    sim_.cancel(event_);
    running_ = false;
  }
}

void PeriodicTimer::fire() {
  if (!running_) return;
  event_ = sim_.schedule_after(period_, [this] { fire(); });
  on_fire_();
}

}  // namespace pan::sim
