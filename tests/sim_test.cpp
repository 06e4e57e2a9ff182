// Unit tests for the discrete-event simulator and timers.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace pan::sim {
namespace {

TEST(SimulatorTest, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_after(milliseconds(3), [&] { order.push_back(3); });
  sim.schedule_after(milliseconds(1), [&] { order.push_back(1); });
  sim.schedule_after(milliseconds(2), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, TiesBreakFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_after(milliseconds(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SimulatorTest, ClockAdvancesToEventTime) {
  Simulator sim;
  TimePoint seen;
  sim.schedule_after(milliseconds(7), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen.nanos(), milliseconds(7).nanos());
  EXPECT_EQ(sim.now().nanos(), milliseconds(7).nanos());
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator sim;
  int fired = 0;
  sim.schedule_after(milliseconds(1), [&] {
    sim.schedule_after(milliseconds(1), [&] { ++fired; });
  });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now().nanos(), milliseconds(2).nanos());
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator sim;
  bool fired = false;
  sim.schedule_after(milliseconds(-5), [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now().nanos(), 0);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_after(milliseconds(1), [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // double cancel is a no-op
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CancelUnknownIdIsSafe) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(kInvalidEventId));
  EXPECT_FALSE(sim.cancel(9999));
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule_after(milliseconds(1), [&] { ++fired; });
  sim.schedule_after(milliseconds(10), [&] { ++fired; });
  sim.run_until(TimePoint{milliseconds(5).nanos()});
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now().nanos(), milliseconds(5).nanos());
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, RunForIsRelative) {
  Simulator sim;
  sim.schedule_after(milliseconds(1), [] {});
  sim.run();
  EXPECT_EQ(sim.now().nanos(), milliseconds(1).nanos());
  sim.run_for(milliseconds(4));
  EXPECT_EQ(sim.now().nanos(), milliseconds(5).nanos());
}

TEST(SimulatorTest, RunUntilConditionStopsEarly) {
  Simulator sim;
  int counter = 0;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_after(milliseconds(i + 1), [&] { ++counter; });
  }
  const bool met = sim.run_until_condition([&] { return counter == 3; },
                                           TimePoint{seconds(1).nanos()});
  EXPECT_TRUE(met);
  EXPECT_EQ(counter, 3);
}

TEST(SimulatorTest, RunUntilConditionFailsOnDrain) {
  Simulator sim;
  const bool met = sim.run_until_condition([] { return false; },
                                           TimePoint{seconds(1).nanos()});
  EXPECT_FALSE(met);
}

TEST(SimulatorTest, PendingEventsAccountsForCancellations) {
  Simulator sim;
  const EventId a = sim.schedule_after(milliseconds(1), [] {});
  sim.schedule_after(milliseconds(2), [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, CancelAfterFireReturnsFalse) {
  Simulator sim;
  const EventId id = sim.schedule_after(milliseconds(1), [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(id));
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, CancelInsideOwnHandlerReturnsFalse) {
  // Browser::settle cancels a page's timeout event from inside that event.
  Simulator sim;
  EventId id = kInvalidEventId;
  bool cancelled = true;
  id = sim.schedule_after(milliseconds(1), [&] { cancelled = sim.cancel(id); });
  sim.run();
  EXPECT_FALSE(cancelled);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, FireThenCancelRoundsLeaveNothingPending) {
  Simulator sim;
  constexpr int kRounds = 100'000;
  for (int i = 0; i < kRounds; ++i) {
    const EventId id = sim.schedule_after(microseconds(1), [] {});
    sim.run();
    sim.cancel(id);
  }
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.events_executed(), static_cast<std::uint64_t>(kRounds));
  EXPECT_EQ(sim.event_slots(), 1u);
}

TEST(SimulatorTest, SlotTableBoundedByPeakLiveEvents) {
  Simulator sim;
  constexpr std::size_t kLive = 8;
  std::vector<EventId> ids;
  for (int round = 0; round < 1000; ++round) {
    // Idle-timer style: arm far in the future, cancel long before firing.
    for (std::size_t i = 0; i < kLive; ++i) {
      ids.push_back(sim.schedule_after(seconds(30), [] {}));
    }
    EXPECT_EQ(sim.pending_events(), kLive);
    for (const EventId id : ids) EXPECT_TRUE(sim.cancel(id));
    ids.clear();
    sim.run_for(milliseconds(1));
  }
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.event_slots(), kLive);
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(SimulatorTest, StaleIdCannotCancelReusedSlot) {
  Simulator sim;
  const EventId stale = sim.schedule_after(milliseconds(1), [] {});
  sim.run();
  bool fired = false;
  const EventId fresh = sim.schedule_after(milliseconds(1), [&] { fired = true; });
  EXPECT_EQ(sim.event_slots(), 1u);  // the fired event's slot was reused
  EXPECT_NE(fresh, stale);
  EXPECT_FALSE(sim.cancel(stale));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, CancelRemovesEventsInAnyHeapPosition) {
  Simulator sim;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 64; ++i) {
    // Scrambled deadlines so cancelled entries sit at every heap depth.
    const int at = (i * 37) % 64;
    ids.push_back(sim.schedule_after(microseconds(at), [&order, at] { order.push_back(at); }));
  }
  for (std::size_t i = 0; i < ids.size(); i += 3) EXPECT_TRUE(sim.cancel(ids[i]));
  sim.run();
  std::vector<int> expected;
  for (int i = 0; i < 64; ++i) {
    if (i % 3 != 0) expected.push_back((i * 37) % 64);
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(order, expected);
}

TEST(SimulatorTest, RandomScheduleCancelMatchesOrderedModel) {
  // Differential check of the indexed heap and of owner scopes: random
  // schedules (ties included, direct or through a scope), cancels of live,
  // fired and stale ids, scope teardown (from outside and from inside one of
  // the scope's own events) and partial runs must fire exactly what an
  // ordered (when, seq) model predicts, in its order.
  Simulator sim;
  Rng rng(42);
  constexpr int kDirect = -1;
  std::map<std::pair<std::int64_t, int>, int> model;  // (when, seq) -> scope index
  std::map<int, std::pair<EventId, std::pair<std::int64_t, int>>> issued;
  std::vector<std::unique_ptr<Scope>> scopes;
  std::size_t peak_live = 0;
  std::size_t fired = 0;
  int seq = 0;

  const auto live_scope = [&]() -> int {
    std::vector<int> live;
    for (std::size_t i = 0; i < scopes.size(); ++i) {
      if (scopes[i] != nullptr) live.push_back(static_cast<int>(i));
    }
    if (live.empty() || rng.next_below(3) == 0) return kDirect;
    return live[rng.next_below(live.size())];
  };
  const auto destroy_scope = [&](int index) {
    std::erase_if(model, [index](const auto& entry) { return entry.second == index; });
    scopes[static_cast<std::size_t>(index)].reset();
    EXPECT_EQ(sim.pending_events(), model.size());  // exactly its own went
  };
  std::function<void(TimePoint, int)> schedule;
  const auto on_fire = [&](int tag, int scope) {
    // Each firing is the model's earliest live event, at its own time.
    ASSERT_FALSE(model.empty()) << "tag " << tag;
    ASSERT_EQ(model.begin()->first.second, tag);
    ASSERT_EQ(model.begin()->first.first, sim.now().nanos());
    model.erase(model.begin());
    ++fired;
    if (scope == kDirect || scopes[static_cast<std::size_t>(scope)] == nullptr) return;
    const std::uint64_t action = rng.next_below(8);
    if (action == 0) {
      destroy_scope(scope);  // from inside one of its own events
    } else if (action < 3) {
      // Past any round's horizon, so it never fires in the current round.
      schedule(sim.now() + microseconds(31 + static_cast<std::int64_t>(rng.next_below(40))),
               scope);
    }
  };
  schedule = [&](TimePoint at, int scope) {
    const int tag = seq++;
    auto fn = [&on_fire, tag, scope] { on_fire(tag, scope); };
    const EventId id = scope == kDirect
                           ? sim.schedule_at(at, fn)
                           : scopes[static_cast<std::size_t>(scope)]->schedule_at(at, fn);
    model[{at.nanos(), tag}] = scope;
    issued[tag] = {id, {at.nanos(), tag}};
    peak_live = std::max(peak_live, model.size());
  };

  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 40; ++i) {
      const std::uint64_t op = rng.next_below(12);
      if (op < 6) {
        schedule(sim.now() + microseconds(static_cast<std::int64_t>(rng.next_below(50))),
                 live_scope());
      } else if (op < 9) {
        if (issued.empty()) continue;
        auto it = issued.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(rng.next_below(issued.size())));
        const bool live = model.erase(it->second.second) > 0;
        EXPECT_EQ(sim.cancel(it->second.first), live);
        if (!live || rng.next_below(2) == 0) issued.erase(it);  // keep some stale ids
      } else if (op == 9) {
        scopes.push_back(std::make_unique<Scope>(sim));
      } else if (op == 10) {
        const int index = live_scope();
        if (index != kDirect) destroy_scope(index);
      } else {
        // A short-lived scope leaves the queue exactly as it found it.
        const std::size_t before = sim.pending_events();
        {
          Scope transient(sim);
          const std::size_t n = 1 + rng.next_below(4);
          for (std::size_t k = 0; k < n; ++k) {
            transient.schedule_after(microseconds(static_cast<std::int64_t>(rng.next_below(50))),
                                     [] { FAIL() << "transient scope event fired"; });
          }
          EXPECT_EQ(sim.pending_events(), before + n);
          peak_live = std::max(peak_live, before + n);
        }
        EXPECT_EQ(sim.pending_events(), before);
      }
    }
    EXPECT_EQ(sim.pending_events(), model.size());
    const TimePoint until = sim.now() + microseconds(static_cast<std::int64_t>(rng.next_below(30)));
    sim.run_until(until);
    ASSERT_TRUE(model.empty() || model.begin()->first.first > until.nanos()) << "round " << round;
    EXPECT_EQ(sim.pending_events(), model.size());
  }
  EXPECT_GT(fired, 1000u);
  EXPECT_EQ(sim.event_slots(), peak_live);
  scopes.clear();
  std::size_t direct = 0;
  for (const auto& [key, scope] : model) direct += scope == kDirect ? 1 : 0;
  EXPECT_EQ(sim.pending_events(), direct);
}

TEST(SimulatorTest, LoggerClockUnhookedWhenSimulatorDies) {
  auto sim = std::make_unique<Simulator>();
  sim->run_for(milliseconds(5));
  sim.reset();
  const LogLevel saved = Logger::level();
  Logger::set_level(LogLevel::kWarn);
  testing::internal::CaptureStderr();
  PAN_WARN("sim_test") << "after the simulator";
  const std::string out = testing::internal::GetCapturedStderr();
  Logger::set_level(saved);
  EXPECT_NE(out.find("after the simulator"), std::string::npos);
  EXPECT_EQ(out.find("ms]"), std::string::npos) << "stamped with a dead clock: " << out;
}

TEST(SimulatorTest, ExecutedCounter) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule_after(milliseconds(i), [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 5u);
}

// ---------------------------------------------------------------- timer --

TEST(TimerTest, FiresOnce) {
  Simulator sim;
  int fired = 0;
  Timer timer(sim, [&] { ++fired; });
  timer.arm(milliseconds(5));
  EXPECT_TRUE(timer.pending());
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(timer.pending());
}

TEST(TimerTest, RearmReplacesDeadline) {
  Simulator sim;
  TimePoint fired_at;
  Timer timer(sim, [&] { fired_at = sim.now(); });
  timer.arm(milliseconds(5));
  timer.arm(milliseconds(20));
  sim.run();
  EXPECT_EQ(fired_at.nanos(), milliseconds(20).nanos());
}

TEST(TimerTest, ArmIfIdleDoesNotReplace) {
  Simulator sim;
  TimePoint fired_at;
  Timer timer(sim, [&] { fired_at = sim.now(); });
  timer.arm(milliseconds(5));
  timer.arm_if_idle(milliseconds(20));
  sim.run();
  EXPECT_EQ(fired_at.nanos(), milliseconds(5).nanos());
}

TEST(TimerTest, CancelStopsFiring) {
  Simulator sim;
  int fired = 0;
  Timer timer(sim, [&] { ++fired; });
  timer.arm(milliseconds(5));
  timer.cancel();
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(TimerTest, DestructionCancelsSafely) {
  Simulator sim;
  int fired = 0;
  {
    Timer timer(sim, [&] { ++fired; });
    timer.arm(milliseconds(5));
  }
  sim.run();  // must not crash or fire
  EXPECT_EQ(fired, 0);
}

TEST(TimerTest, RearmsLeaveOneQueuedEvent) {
  Simulator sim;
  int fired = 0;
  Timer timer(sim, [&] { ++fired; });
  for (int i = 0; i < 100'000; ++i) timer.arm(seconds(30));
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.event_slots(), 1u);
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(TimerTest, RearmFromCallback) {
  Simulator sim;
  int fired = 0;
  Timer timer(sim, [&] {
    if (++fired < 3) timer.arm(milliseconds(1));
  });
  timer.arm(milliseconds(1));
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(PeriodicTimerTest, FiresAtPeriod) {
  Simulator sim;
  std::vector<std::int64_t> times;
  PeriodicTimer timer(sim, [&] { times.push_back(sim.now().nanos()); });
  timer.start(milliseconds(1), milliseconds(2));
  sim.run_until(TimePoint{milliseconds(8).nanos()});
  timer.stop();
  ASSERT_GE(times.size(), 4u);
  EXPECT_EQ(times[0], milliseconds(1).nanos());
  EXPECT_EQ(times[1], milliseconds(3).nanos());
  EXPECT_EQ(times[2], milliseconds(5).nanos());
}

TEST(PeriodicTimerTest, StopHalts) {
  Simulator sim;
  int fired = 0;
  PeriodicTimer timer(sim, [&] { ++fired; });
  timer.start(milliseconds(1), milliseconds(1));
  sim.run_until(TimePoint{milliseconds(3).nanos() + 500});
  timer.stop();
  sim.run_until(TimePoint{milliseconds(10).nanos()});
  EXPECT_EQ(fired, 3);
}

TEST(PeriodicTimerTest, DestructionSafe) {
  Simulator sim;
  int fired = 0;
  {
    PeriodicTimer timer(sim, [&] { ++fired; });
    timer.start(milliseconds(1), milliseconds(1));
    sim.run_until(TimePoint{milliseconds(1).nanos()});
  }
  sim.run_until(TimePoint{milliseconds(10).nanos()});
  EXPECT_EQ(fired, 1);
}

TEST(PeriodicTimerTest, StopFromCallback) {
  Simulator sim;
  int fired = 0;
  PeriodicTimer timer(sim, [&] {
    if (++fired == 2) timer.stop();
  });
  timer.start(milliseconds(1), milliseconds(1));
  sim.run_until(TimePoint{milliseconds(10).nanos()});
  EXPECT_EQ(fired, 2);
}

}  // namespace
}  // namespace pan::sim
