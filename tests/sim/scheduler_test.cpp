#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace pdos {
namespace {

TEST(SchedulerTest, StartsAtTimeZero) {
  Scheduler sched;
  EXPECT_DOUBLE_EQ(sched.now(), 0.0);
  EXPECT_TRUE(sched.empty());
}

TEST(SchedulerTest, RunsEventsInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule(3.0, [&] { order.push_back(3); });
  sched.schedule(1.0, [&] { order.push_back(1); });
  sched.schedule(2.0, [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sched.now(), 3.0);
}

TEST(SchedulerTest, SimultaneousEventsRunFifo) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sched.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  sched.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SchedulerTest, NowAdvancesToEventTime) {
  Scheduler sched;
  Time seen = -1.0;
  sched.schedule(2.5, [&] { seen = sched.now(); });
  sched.run();
  EXPECT_DOUBLE_EQ(seen, 2.5);
}

TEST(SchedulerTest, EventsCanScheduleMoreEvents) {
  Scheduler sched;
  int fired = 0;
  sched.schedule(1.0, [&] {
    ++fired;
    sched.schedule(1.0, [&] { ++fired; });
  });
  sched.run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sched.now(), 2.0);
}

TEST(SchedulerTest, RunUntilStopsAtHorizon) {
  Scheduler sched;
  int fired = 0;
  sched.schedule(1.0, [&] { ++fired; });
  sched.schedule(5.0, [&] { ++fired; });
  sched.run_until(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sched.now(), 2.0);
  EXPECT_EQ(sched.queue_size(), 1u);
  sched.run_until(10.0);
  EXPECT_EQ(fired, 2);
}

TEST(SchedulerTest, RunUntilIncludesEventAtExactHorizon) {
  Scheduler sched;
  int fired = 0;
  sched.schedule(2.0, [&] { ++fired; });
  sched.run_until(2.0);
  EXPECT_EQ(fired, 1);
}

TEST(SchedulerTest, CancelPreventsExecution) {
  Scheduler sched;
  int fired = 0;
  const EventId id = sched.schedule(1.0, [&] { ++fired; });
  EXPECT_TRUE(sched.pending(id));
  EXPECT_TRUE(sched.cancel(id));
  EXPECT_FALSE(sched.pending(id));
  sched.run();
  EXPECT_EQ(fired, 0);
}

TEST(SchedulerTest, CancelTwiceIsANoOp) {
  Scheduler sched;
  const EventId id = sched.schedule(1.0, [] {});
  EXPECT_TRUE(sched.cancel(id));
  EXPECT_FALSE(sched.cancel(id));
}

TEST(SchedulerTest, CancelAfterFiringIsANoOp) {
  Scheduler sched;
  const EventId id = sched.schedule(1.0, [] {});
  sched.run();
  EXPECT_FALSE(sched.cancel(id));
}

TEST(SchedulerTest, CancelledEventsDoNotBlockLaterOnes) {
  Scheduler sched;
  std::vector<int> order;
  const EventId id = sched.schedule(1.0, [&] { order.push_back(1); });
  sched.schedule(2.0, [&] { order.push_back(2); });
  sched.cancel(id);
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{2}));
}

TEST(SchedulerTest, QueueSizeTracksCancellations) {
  Scheduler sched;
  const EventId a = sched.schedule(1.0, [] {});
  sched.schedule(2.0, [] {});
  EXPECT_EQ(sched.queue_size(), 2u);
  sched.cancel(a);
  EXPECT_EQ(sched.queue_size(), 1u);
}

TEST(SchedulerTest, NegativeDelayThrows) {
  Scheduler sched;
  EXPECT_THROW(sched.schedule(-1.0, [] {}), ParameterError);
}

TEST(SchedulerTest, ScheduleAtPastThrows) {
  Scheduler sched;
  sched.schedule(1.0, [] {});
  sched.run();
  EXPECT_THROW(sched.schedule_at(0.5, [] {}), ParameterError);
}

TEST(SchedulerTest, StepExecutesSingleEvent) {
  Scheduler sched;
  int fired = 0;
  sched.schedule(1.0, [&] { ++fired; });
  sched.schedule(2.0, [&] { ++fired; });
  EXPECT_TRUE(sched.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sched.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sched.step());
}

TEST(SchedulerTest, EventsExecutedCounter) {
  Scheduler sched;
  for (int i = 0; i < 5; ++i) sched.schedule(i, [] {});
  sched.run();
  EXPECT_EQ(sched.events_executed(), 5u);
}

TEST(SchedulerTest, ZeroDelayRunsAtCurrentTime) {
  Scheduler sched;
  Time seen = -1.0;
  sched.schedule(1.0, [&] {
    sched.schedule(0.0, [&] { seen = sched.now(); });
  });
  sched.run();
  EXPECT_DOUBLE_EQ(seen, 1.0);
}

TEST(SchedulerTest, PopUnderInterleavedCancels) {
  // Regression for the old priority_queue implementation, which lazily
  // retained cancelled entries and fished live ones out with a
  // const_cast-and-move at pop time. Interleaving cancels between pops —
  // including cancelling the current minimum right before it would fire —
  // must leave execution order and the pending set exact.
  Scheduler sched;
  std::vector<int> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 64; ++i) {
    ids.push_back(sched.schedule(static_cast<Time>(i % 8),
                                 [&fired, i] { fired.push_back(i); }));
  }
  std::vector<int> expect;
  for (int round = 0; round < 8; ++round) {
    // Cancel the first still-pending event by insertion order plus an
    // arbitrary later one, then pop a few.
    for (int i = 0; i < 64; ++i) {
      if (sched.pending(ids[i])) {
        EXPECT_TRUE(sched.cancel(ids[i]));
        EXPECT_FALSE(sched.pending(ids[i]));
        break;
      }
    }
    const int victim = (round * 23 + 40) % 64;
    sched.cancel(ids[victim]);
    for (int p = 0; p < 6 && sched.step(); ++p) {
    }
  }
  sched.run();
  // Rebuild the expected order: time bins ascending, FIFO (ascending i)
  // within each bin, restricted to the events that actually fired.
  std::vector<int> expected;
  for (int bin = 0; bin < 8; ++bin) {
    for (int i = bin; i < 64; i += 8) {
      if (std::find(fired.begin(), fired.end(), i) != fired.end()) {
        expected.push_back(i);
      }
    }
  }
  EXPECT_EQ(fired, expected) << "events must fire in (time, insertion) order";
}

TEST(SchedulerTest, StaleIdsStayDeadAfterSlotReuse) {
  Scheduler sched;
  const EventId first = sched.schedule(1.0, [] {});
  ASSERT_TRUE(sched.cancel(first));
  // The freed slot is recycled by the next schedule; the generation tag
  // must keep the old handle dead rather than aliasing the new event.
  int fired = 0;
  const EventId second = sched.schedule(2.0, [&] { ++fired; });
  EXPECT_FALSE(sched.pending(first));
  EXPECT_FALSE(sched.cancel(first));
  EXPECT_TRUE(sched.pending(second));
  sched.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sched.pending(second));
  EXPECT_FALSE(sched.cancel(second));
}

TEST(SchedulerTest, RescheduleAtMovesEventInPlace) {
  Scheduler sched;
  std::vector<int> order;
  const EventId id = sched.schedule(5.0, [&] { order.push_back(0); });
  sched.schedule(2.0, [&] { order.push_back(1); });
  EXPECT_TRUE(sched.reschedule_at(id, 1.0));  // ahead of the other event
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_FALSE(sched.reschedule_at(id, 9.0)) << "fired ids cannot move";
}

TEST(SchedulerTest, RescheduleMatchesCancelPlusScheduleTieBreaking) {
  // A rescheduled event must fire in FIFO position as if it had been
  // cancelled and freshly scheduled — i.e. after events already waiting at
  // the destination time.
  Scheduler sched;
  std::vector<int> order;
  const EventId moved = sched.schedule(1.0, [&] { order.push_back(0); });
  sched.schedule(3.0, [&] { order.push_back(1); });
  sched.schedule(3.0, [&] { order.push_back(2); });
  EXPECT_TRUE(sched.reschedule(moved, 3.0));
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 0}));
}

TEST(SchedulerTest, ReschedulePastThrows) {
  Scheduler sched;
  sched.schedule(1.0, [] {});
  const EventId id = sched.schedule(5.0, [] {});
  sched.run_until(2.0);
  EXPECT_THROW(sched.reschedule_at(id, 1.0), ParameterError);
}

// Reference model for the property test: a sorted-vector event queue with
// the same (time, insertion-order) contract as the real scheduler.
class ReferenceScheduler {
 public:
  std::uint64_t schedule(double when, int payload) {
    const std::uint64_t id = next_id_++;
    entries_.push_back(Entry{when, id, payload});
    return id;
  }

  bool cancel(std::uint64_t id) {
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->id == id) {
        entries_.erase(it);
        return true;
      }
    }
    return false;
  }

  bool pending(std::uint64_t id) const {
    for (const Entry& e : entries_) {
      if (e.id == id) return true;
    }
    return false;
  }

  /// Pop every event with when <= horizon, in (when, id) order.
  std::vector<int> run_until(double horizon) {
    std::stable_sort(entries_.begin(), entries_.end(),
                     [](const Entry& a, const Entry& b) {
                       if (a.when != b.when) return a.when < b.when;
                       return a.id < b.id;
                     });
    std::vector<int> fired;
    std::size_t n = 0;
    while (n < entries_.size() && entries_[n].when <= horizon) {
      fired.push_back(entries_[n].payload);
      ++n;
    }
    entries_.erase(entries_.begin(), entries_.begin() + n);
    now_ = horizon;
    return fired;
  }

  /// Fire one event: remove the earliest entry in (when, id) order if it is
  /// due at or before `horizon`, moving the clock to its time.
  bool pop_one(double horizon, int* payload) {
    const auto it = std::min_element(entries_.begin(), entries_.end(),
                                     [](const Entry& a, const Entry& b) {
                                       if (a.when != b.when) return a.when < b.when;
                                       return a.id < b.id;
                                     });
    if (it == entries_.end() || it->when > horizon) return false;
    now_ = it->when;
    *payload = it->payload;
    entries_.erase(it);
    return true;
  }

  /// The end of a run_until: the clock moves up to the horizon.
  void advance_to(double horizon) { now_ = std::max(now_, horizon); }

  double now() const { return now_; }
  std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    double when;
    std::uint64_t id;
    int payload;
  };
  std::vector<Entry> entries_;
  std::uint64_t next_id_ = 0;
  double now_ = 0.0;
};

TEST(SchedulerPropertyTest, MatchesReferenceModelUnderRandomWorkloads) {
  // Randomized schedule / cancel / reschedule / run interleavings checked
  // against the naive model: identical firing order (including FIFO ties —
  // delays are drawn from a tiny set to force collisions) and identical
  // pending() on every outstanding handle after every batch.
  std::mt19937 rng(20260806);
  for (int trial = 0; trial < 40; ++trial) {
    Scheduler sched;
    ReferenceScheduler ref;
    std::vector<int> real_fired;
    struct Handle {
      EventId real;
      std::uint64_t ref;
      int tag;
    };
    std::vector<Handle> handles;
    int payload = 0;

    for (int batch = 0; batch < 30; ++batch) {
      const int ops = static_cast<int>(rng() % 12) + 1;
      for (int op = 0; op < ops; ++op) {
        const std::uint32_t kind = rng() % 8;
        if (kind < 4) {  // schedule, delays collide on purpose
          const double delay = static_cast<double>(rng() % 5);
          const int tag = payload++;
          const EventId real = sched.schedule(
              delay, [&real_fired, tag] { real_fired.push_back(tag); });
          handles.push_back(
              Handle{real, ref.schedule(sched.now() + delay, tag), tag});
        } else if (kind < 6 && !handles.empty()) {  // cancel a random handle
          const Handle& h = handles[rng() % handles.size()];
          EXPECT_EQ(sched.cancel(h.real), ref.cancel(h.ref));
        } else if (!handles.empty()) {  // reschedule a random handle
          Handle& h = handles[rng() % handles.size()];
          const double when = sched.now() + static_cast<double>(rng() % 5);
          const bool moved = sched.reschedule_at(h.real, when);
          EXPECT_EQ(moved, ref.cancel(h.ref));
          if (moved) {
            // Model contract: a reschedule is a cancel plus a fresh
            // schedule of the same payload (new insertion order).
            h.ref = ref.schedule(when, h.tag);
          }
        }
      }
      const double horizon = sched.now() + static_cast<double>(rng() % 4);
      const std::vector<int> ref_fired = ref.run_until(horizon);
      real_fired.clear();
      sched.run_until(horizon);
      EXPECT_EQ(real_fired, ref_fired) << "trial " << trial;
      EXPECT_EQ(sched.queue_size(), ref.size());
      for (const Handle& h : handles) {
        EXPECT_EQ(sched.pending(h.real), ref.pending(h.ref));
      }
    }
  }
}

// Scripted re-entrant workload for the property test below. Every fired
// event logs what its callback observes and then runs a script seeded by its
// tag: schedule 0-3 events (at zero delay, tied with another handle's time,
// near, or around and beyond the 50 ms far window), maybe cancel a handle,
// maybe reschedule one, in shuffled order. Handles are numbered in creation
// order, so the real scheduler and the model make the same calls for as long
// as they agree, and any divergence shows up in the fire logs.
struct ScriptOp {
  enum Kind { kSchedule, kCancel, kReschedule } kind;
  double when;
  std::size_t target;
};

struct FireRecord {
  int tag;
  double now;
  std::size_t size_in;   // queue_size() as the callback starts
  std::size_t size_out;  // ... and as it returns
  // pending() of the firing handle, then per cancel or reschedule its
  // return value and the target's pending() after it.
  std::vector<int> results;
  bool operator==(const FireRecord&) const = default;
};

void PrintTo(const FireRecord& r, std::ostream* os) {
  *os << "{tag " << r.tag << " at " << r.now << ", size " << r.size_in
      << " -> " << r.size_out << ", results " << ::testing::PrintToString(r.results)
      << "}";
}

constexpr double kTick = 1.0 / 1024.0;  // sums of ticks are exact, so times tie
constexpr std::size_t kMaxHandles = 600;

double draw_when(std::mt19937& rng, double now, const std::vector<double>& when_of) {
  switch (rng() % 4) {
    case 0:
      return now;
    case 1:
      return when_of.empty() ? now : std::max(now, when_of[rng() % when_of.size()]);
    case 2:
      return now + kTick * static_cast<double>(1 + rng() % 8);
    default:
      return now + kTick * static_cast<double>(40 + rng() % 1000);
  }
}

std::vector<ScriptOp> script_for(std::uint32_t seed, int tag, double now,
                                 const std::vector<double>& when_of) {
  std::mt19937 rng(seed ^ (0x9e3779b9u * static_cast<std::uint32_t>(tag + 1)));
  static constexpr int kSpawn[8] = {0, 0, 0, 1, 1, 1, 2, 3};  // one child on average
  std::vector<ScriptOp> ops;
  const int spawn = when_of.size() < kMaxHandles ? kSpawn[rng() % 8] : 0;
  for (int i = 0; i < spawn; ++i) {
    ops.push_back({ScriptOp::kSchedule, draw_when(rng, now, when_of), 0});
  }
  if (rng() % 3 == 0) ops.push_back({ScriptOp::kCancel, 0.0, rng() % when_of.size()});
  if (rng() % 3 == 0) {
    ops.push_back({ScriptOp::kReschedule, draw_when(rng, now, when_of),
                   rng() % when_of.size()});
  }
  std::shuffle(ops.begin(), ops.end(), rng);
  return ops;
}

/// Apply one op; cancels and reschedules append their results to `out`.
template <typename World>
void apply_op(World& w, const ScriptOp& op, std::vector<int>* out) {
  if (op.kind == ScriptOp::kSchedule) {
    w.schedule(op.when);
    return;
  }
  out->push_back(op.kind == ScriptOp::kCancel ? w.cancel(op.target)
                                              : w.reschedule(op.target, op.when));
  out->push_back(w.pending(op.target));
}

/// The body of every fired event, on either side.
template <typename World>
void fire_scripted(World& w, int tag) {
  FireRecord r{tag, w.now(), w.size(), 0, {w.pending(static_cast<std::size_t>(tag))}};
  for (const ScriptOp& op : script_for(w.seed, tag, w.now(), w.when_of)) {
    apply_op(w, op, &r.results);
  }
  r.size_out = w.size();
  w.log.push_back(std::move(r));
}

struct RealWorld {
  explicit RealWorld(std::uint32_t s) : seed(s) {}
  std::uint32_t seed;
  Scheduler sched;
  std::vector<EventId> ids;
  std::vector<double> when_of;
  std::vector<FireRecord> log;

  double now() const { return sched.now(); }
  std::size_t size() const { return sched.queue_size(); }
  bool pending(std::size_t h) const { return sched.pending(ids[h]); }
  void schedule(double when) {
    const int tag = static_cast<int>(ids.size());
    ids.push_back(sched.schedule_at(when, [this, tag] { fire_scripted(*this, tag); }));
    when_of.push_back(when);
  }
  bool cancel(std::size_t h) { return sched.cancel(ids[h]); }
  bool reschedule(std::size_t h, double when) {
    if (!sched.reschedule_at(ids[h], when)) return false;
    when_of[h] = when;
    return true;
  }
};

struct ModelWorld {
  explicit ModelWorld(std::uint32_t s) : seed(s) {}
  std::uint32_t seed;
  ReferenceScheduler ref;
  std::vector<std::uint64_t> ids;
  std::vector<double> when_of;
  std::vector<FireRecord> log;

  double now() const { return ref.now(); }
  std::size_t size() const { return ref.size(); }
  bool pending(std::size_t h) const { return ref.pending(ids[h]); }
  void schedule(double when) {
    ids.push_back(ref.schedule(when, static_cast<int>(ids.size())));
    when_of.push_back(when);
  }
  bool cancel(std::size_t h) { return ref.cancel(ids[h]); }
  bool reschedule(std::size_t h, double when) {  // cancel plus a fresh schedule
    if (!ref.cancel(ids[h])) return false;
    ids[h] = ref.schedule(when, static_cast<int>(h));
    when_of[h] = when;
    return true;
  }
  bool step(double horizon) {
    int tag = 0;
    if (!ref.pop_one(horizon, &tag)) return false;
    fire_scripted(*this, tag);
    return true;
  }
};

TEST(SchedulerPropertyTest, MatchesReferenceModelWhenCallbacksScheduleCancelAndReschedule) {
  // The path every packet event takes: callbacks that schedule, cancel and
  // reschedule while they fire, driven through run_until, step and run.
  // Checked against the model after every batch: the firing order, now()
  // and queue_size() inside each callback, the results of its cancels and
  // reschedules, and pending() on every handle.
  constexpr double kForever = 1e300;
  for (std::uint32_t trial = 0; trial < 40; ++trial) {
    const std::uint32_t seed = 20261017u + trial;
    std::mt19937 rng(seed);
    RealWorld real(seed);
    ModelWorld model(seed);
    for (int batch = 0; batch < 30; ++batch) {
      const int ops = static_cast<int>(rng() % 6) + 1;
      for (int op = 0; op < ops; ++op) {  // from outside the loop
        const std::uint32_t kind = rng() % 4;
        std::vector<int> real_out, model_out;
        if (kind < 2 || real.ids.empty()) {
          const ScriptOp s{ScriptOp::kSchedule, draw_when(rng, real.now(), real.when_of), 0};
          apply_op(real, s, &real_out);
          apply_op(model, s, &model_out);
        } else {
          const ScriptOp s{kind == 2 ? ScriptOp::kCancel : ScriptOp::kReschedule,
                           draw_when(rng, real.now(), real.when_of),
                           rng() % real.ids.size()};
          apply_op(real, s, &real_out);
          apply_op(model, s, &model_out);
        }
        EXPECT_EQ(real_out, model_out) << "trial " << trial;
      }
      const std::uint32_t drive = rng() % 8;
      if (drive < 4) {
        const double horizon = real.now() + kTick * static_cast<double>(rng() % 64);
        real.sched.run_until(horizon);
        while (model.step(horizon)) {
        }
        model.ref.advance_to(horizon);
      } else if (drive < 7) {
        for (std::uint32_t k = rng() % 8 + 1; k > 0; --k) {
          EXPECT_EQ(real.sched.step(), model.step(kForever)) << "trial " << trial;
        }
      } else {
        real.sched.run();
        while (model.step(kForever)) {
        }
      }
      ASSERT_EQ(real.log, model.log) << "trial " << trial << " batch " << batch;
      real.log.clear();
      model.log.clear();
      EXPECT_EQ(real.now(), model.now());
      EXPECT_EQ(real.size(), model.size());
      ASSERT_EQ(real.ids.size(), model.ids.size());
      for (std::size_t h = 0; h < real.ids.size(); ++h) {
        EXPECT_EQ(real.pending(h), model.pending(h)) << "trial " << trial << " handle " << h;
      }
    }
    real.sched.run();
    while (model.step(kForever)) {
    }
    EXPECT_EQ(real.log, model.log) << "trial " << trial;
    EXPECT_TRUE(real.sched.empty());
  }
}

TEST(SchedulerTest, NegativeZeroTimeTiesWithZeroInFifoOrder) {
  // -0.0 passes the when >= now() check at time 0 and equals 0.0, so it
  // must tie with it in schedule order, not sort after every other time.
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(-0.0, [&order] { order.push_back(0); });
  sched.schedule_at(0.0, [&order] { order.push_back(1); });
  sched.schedule_at(-0.0, [&order] { order.push_back(2); });
  sched.schedule_at(1.0, [&order] { order.push_back(3); });
  const EventId moved = sched.schedule_at(2.0, [&order] { order.push_back(4); });
  EXPECT_TRUE(sched.reschedule_at(moved, -0.0));
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 4, 3}));
}

TEST(SchedulerTest, EarlierClaimedRankScheduledFromACallbackKeepsItsPlace) {
  // A rank claimed before other events were scheduled keeps its place when
  // its event is materialized later from inside a callback, even though its
  // key is then smaller than the firing event's own.
  Scheduler sched;
  std::vector<int> order;
  const std::uint32_t early = sched.allocate_seq();
  sched.schedule(1.0, [&sched, &order, early] {
    sched.schedule_at_sequenced(1.0, early, [&order] { order.push_back(0); });
  });
  sched.schedule(1.0, [&order] { order.push_back(1); });
  sched.schedule(1.0, [&order] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(SchedulerTest, ThrowingEventLeavesSchedulerUsable) {
  // An exception out of a callback propagates out of the run, and the
  // scheduler stays consistent: whether the callback threw before or after
  // scheduling, the remaining events still fire in order, and reset works.
  Scheduler sched;
  std::vector<int> order;
  sched.schedule(1.0, [] { throw std::runtime_error("first"); });
  sched.schedule(2.0, [&sched, &order] {
    sched.schedule(0.5, [&order] { order.push_back(25); });
    throw std::runtime_error("second");
  });
  sched.schedule(3.0, [&order] { order.push_back(30); });
  EXPECT_THROW(sched.run(), std::runtime_error);
  EXPECT_EQ(sched.queue_size(), 2u);
  EXPECT_THROW(sched.run(), std::runtime_error);
  EXPECT_EQ(sched.queue_size(), 2u);
  EXPECT_EQ(sched.run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{25, 30}));
  sched.schedule(1.0, [&order] { order.push_back(40); });
  sched.reset();
  EXPECT_TRUE(sched.empty());
  sched.schedule(1.0, [&order] { order.push_back(1); });
  EXPECT_EQ(sched.run(), 1u);
  EXPECT_EQ(order, (std::vector<int>{25, 30, 1}));
}

TEST(SchedulerTest, RunningFromInsideAnEventThrows) {
  // A firing event's node holds the heap root while its callback runs, so
  // a nested run_until, run, step or reset would corrupt the heap. Each
  // fails with InvariantError, which leaves the outer run and the
  // scheduler usable.
  for (int call = 0; call < 4; ++call) {
    Scheduler sched;
    int later = 0;
    sched.schedule(1.0, [&sched, call] {
      if (call == 0) sched.run_until(5.0);
      if (call == 1) sched.run();
      if (call == 2) sched.step();
      if (call == 3) sched.reset();
    });
    sched.schedule(2.0, [&later] { ++later; });
    EXPECT_THROW(sched.run(), InvariantError) << "call " << call;
    EXPECT_EQ(sched.queue_size(), 1u);
    EXPECT_EQ(sched.run(), 1u);
    EXPECT_EQ(later, 1);
  }
}

TEST(SchedulerTest, ManyEventsStressOrdering) {
  Scheduler sched;
  Time last = -1.0;
  bool monotonic = true;
  for (int i = 0; i < 5000; ++i) {
    const Time when = static_cast<Time>((i * 7919) % 1000) / 10.0;
    sched.schedule(when, [&, when] {
      if (when < last) monotonic = false;
      last = when;
    });
  }
  sched.run();
  EXPECT_TRUE(monotonic);
}

}  // namespace
}  // namespace pdos
