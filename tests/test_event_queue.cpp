#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace sf {
namespace {

TEST(SimEngine, RunsEventsInTimeOrder) {
  SimEngine engine;
  std::vector<int> order;
  engine.schedule_at(3.0, [&] { order.push_back(3); });
  engine.schedule_at(1.0, [&] { order.push_back(1); });
  engine.schedule_at(2.0, [&] { order.push_back(2); });
  const SimTime end = engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(end, 3.0);
}

TEST(SimEngine, TiesBreakBySubmissionOrder) {
  SimEngine engine;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    engine.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimEngine, EventsCanScheduleEvents) {
  SimEngine engine;
  int chain = 0;
  std::function<void()> step = [&] {
    ++chain;
    if (chain < 10) engine.schedule_after(1.0, step);
  };
  engine.schedule_at(0.0, step);
  const SimTime end = engine.run();
  EXPECT_EQ(chain, 10);
  EXPECT_DOUBLE_EQ(end, 9.0);
}

TEST(SimEngine, ScheduleAfterUsesCurrentTime) {
  SimEngine engine;
  SimTime fired_at = -1.0;
  engine.schedule_at(5.0, [&] { engine.schedule_after(2.5, [&] { fired_at = engine.now(); }); });
  engine.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(SimEngine, PastTimesClampToNow) {
  SimEngine engine;
  SimTime fired_at = -1.0;
  engine.schedule_at(5.0, [&] {
    engine.schedule_at(1.0, [&] { fired_at = engine.now(); });  // in the past
  });
  engine.run();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
  // Negative delay also clamps.
  SimEngine e2;
  e2.schedule_after(-3.0, [] {});
  EXPECT_DOUBLE_EQ(e2.run(), 0.0);
}

TEST(SimEngine, EmptyRunIsNoop) {
  SimEngine engine;
  EXPECT_TRUE(engine.empty());
  EXPECT_DOUBLE_EQ(engine.run(), 0.0);
}

}  // namespace
}  // namespace sf
