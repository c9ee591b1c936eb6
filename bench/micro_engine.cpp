// Engine microbenchmarks (google-benchmark): scheduler throughput, queue
// disciplines, DTW, the analytical model/optimizer, and end-to-end
// simulation event rates. These guard the simulator's performance envelope
// — the figure harnesses run hundreds of packet-level simulations.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <optional>
#include <random>
#include <vector>

#include "core/experiment.hpp"
#include "core/model.hpp"
#include "core/optimizer.hpp"
#include "detect/dtw_detector.hpp"
#include "net/droptail.hpp"
#include "net/red.hpp"
#include "sim/scheduler.hpp"
#include "sim/timer.hpp"

namespace pdos {
namespace {

void BM_SchedulerScheduleRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Scheduler sched;
    int sink = 0;
    for (int i = 0; i < n; ++i) {
      sched.schedule(static_cast<Time>((i * 2654435761u) % 1000),
                     [&sink] { ++sink; });
    }
    sched.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SchedulerScheduleRun)->Arg(1000)->Arg(100000);

void BM_SchedulerCancelHeavy(benchmark::State& state) {
  // TCP-like pattern: schedule a timer, cancel it, schedule the next.
  for (auto _ : state) {
    Scheduler sched;
    EventId pending = kInvalidEventId;
    for (int i = 0; i < 10000; ++i) {
      if (pending != kInvalidEventId) sched.cancel(pending);
      pending = sched.schedule(1000.0, [] {});
      sched.schedule(0.001 * i, [] {});
    }
    sched.run();
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SchedulerCancelHeavy);

void BM_SchedulerCancelAmongCrowd(benchmark::State& state) {
  // Cancels hitting the middle of a large pending population: exercises
  // the indexed heap's O(log n) detach instead of the tail-pop fast case.
  const int crowd = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Scheduler sched;
    std::vector<EventId> ids;
    ids.reserve(static_cast<std::size_t>(crowd));
    for (int i = 0; i < crowd; ++i) {
      ids.push_back(
          sched.schedule(static_cast<Time>((i * 2654435761u) % 1000), [] {}));
    }
    for (int i = 0; i < crowd; i += 2) sched.cancel(ids[static_cast<std::size_t>(i)]);
    sched.run();
  }
  state.SetItemsProcessed(state.iterations() * crowd);
}
BENCHMARK(BM_SchedulerCancelAmongCrowd)->Arg(10000);

void BM_TimerRestart(benchmark::State& state) {
  // RTO shape: a pending timer repeatedly pushed back before it can fire.
  // Restart goes through reschedule_at, moving the heap node in place.
  for (auto _ : state) {
    Scheduler sched;
    int fired = 0;
    Timer timer(sched, [&fired] { ++fired; });
    timer.schedule_at(1.0);
    for (int i = 0; i < 10000; ++i) {
      timer.schedule_at(1.0 + 0.001 * i);
    }
    sched.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_TimerRestart);

void BM_SchedulerHold(benchmark::State& state) {
  // Hold model, the shape of the packet engine's event loop: N events stay
  // pending, and every fired event schedules one successor at now plus a
  // delay from a fixed pseudo-random table, from inside its callback. The
  // delays (0.1-10 ms) stay inside the far window, so every event goes
  // through the heap. N = 32 and 512 are about the mean heap sizes of the
  // paper's dumbbell sweep and of the 1000-flow gigabit scenario.
  struct Hold {
    Scheduler sched;
    std::vector<Time> delays;
    std::size_t next = 0;
    std::int64_t fired = 0;
    void fire() {
      ++fired;
      sched.schedule(delays[next++ & (delays.size() - 1)], [this] { fire(); });
    }
  };
  const int n = static_cast<int>(state.range(0));
  Hold hold;
  std::mt19937_64 rng(0x5eed);
  hold.delays.resize(4096);
  for (Time& d : hold.delays) d = 1e-4 * static_cast<Time>(1 + rng() % 100);
  for (int i = 0; i < n; ++i) {
    hold.sched.schedule(hold.delays[hold.next++], [&hold] { hold.fire(); });
  }
  // About 1024 events per iteration at the table's 5 ms mean delay.
  const Time span = 5e-3 * 1024.0 / n;
  for (auto _ : state) {
    hold.sched.run_until(hold.sched.now() + span);
  }
  benchmark::DoNotOptimize(hold.fired);
  state.SetItemsProcessed(hold.fired);
}
BENCHMARK(BM_SchedulerHold)->Arg(32)->Arg(512);

void BM_DropTailEnqueueDequeue(benchmark::State& state) {
  DropTailQueue queue(256);
  Packet pkt;
  pkt.size_bytes = 1040;
  for (auto _ : state) {
    for (int i = 0; i < 128; ++i) queue.enqueue(pkt);
    while (queue.dequeue().has_value()) {
    }
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_DropTailEnqueueDequeue);

void BM_RedEnqueueDequeue(benchmark::State& state) {
  RedQueue queue(RedParams::paper_testbed(256), Rng(1));
  Packet pkt;
  pkt.size_bytes = 1040;
  for (auto _ : state) {
    for (int i = 0; i < 128; ++i) queue.enqueue(pkt);
    while (queue.dequeue().has_value()) {
    }
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_RedEnqueueDequeue);

void BM_DtwDistance(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<double> a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = (i % 10 == 0) ? 1.0 : 0.0;
    b[i] = (i % 12 == 0) ? 1.0 : 0.0;
  }
  for (auto _ : state) benchmark::DoNotOptimize(dtw_distance(a, b));
}
BENCHMARK(BM_DtwDistance)->Arg(100)->Arg(400);

void BM_ModelCpsi(benchmark::State& state) {
  VictimProfile victim;
  victim.rbottle = mbps(15);
  victim.rtts = VictimProfile::even_rtts(45, ms(20), ms(460));
  for (auto _ : state) {
    benchmark::DoNotOptimize(c_psi(victim, ms(50), 25.0 / 15.0));
  }
}
BENCHMARK(BM_ModelCpsi);

void BM_OptimizerClosedForm(benchmark::State& state) {
  for (auto _ : state) {
    for (double kappa = 0.1; kappa < 10.0; kappa += 0.1) {
      benchmark::DoNotOptimize(optimal_gamma(0.2, kappa));
    }
  }
  state.SetItemsProcessed(state.iterations() * 99);
}
BENCHMARK(BM_OptimizerClosedForm);

void BM_OptimizerGoldenSection(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimal_gamma_numeric(0.2, 1.5));
  }
}
BENCHMARK(BM_OptimizerGoldenSection);

void BM_ScenarioBaseline(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  const ScenarioConfig config = ScenarioConfig::ns2_dumbbell(flows);
  RunControl control;
  control.warmup = sec(1);
  control.measure = sec(4);
  std::uint64_t events = 0;
  for (auto _ : state) {
    const RunResult result = run_scenario(config, std::nullopt, control);
    events += result.events_executed;
    benchmark::DoNotOptimize(result.goodput_bytes);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("items = simulator events");
}
BENCHMARK(BM_ScenarioBaseline)->Arg(15)->Arg(45)->Unit(benchmark::kMillisecond);

void BM_ScenarioUnderAttack(benchmark::State& state) {
  const ScenarioConfig config = ScenarioConfig::ns2_dumbbell(15);
  const PulseTrain train =
      PulseTrain::from_gamma(ms(50), mbps(25), 0.5, mbps(15));
  RunControl control;
  control.warmup = sec(1);
  control.measure = sec(4);
  std::uint64_t events = 0;
  for (auto _ : state) {
    const RunResult result = run_scenario(config, train, control);
    events += result.events_executed;
    benchmark::DoNotOptimize(result.goodput_bytes);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("items = simulator events");
}
BENCHMARK(BM_ScenarioUnderAttack)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pdos

BENCHMARK_MAIN();
