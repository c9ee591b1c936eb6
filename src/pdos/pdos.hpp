// Umbrella header for the PDoS library.
//
// Pull in everything a downstream user needs:
//
//   #include "pdos/pdos.hpp"
//
//   pdos::ScenarioConfig scenario = pdos::ScenarioConfig::ns2_dumbbell(15);
//   pdos::AttackPlanRequest request{.victim = scenario.victim_profile()};
//   pdos::AttackPlan plan = pdos::plan_attack(request);
//   pdos::RunResult result =
//       pdos::run_scenario(scenario, plan.train, pdos::RunControl{});
//
// Layering (each header can also be included individually):
//   util/   — units, RNG, assertions, logging
//   sim/    — discrete-event engine
//   net/    — packets, queues (DropTail/RED), links, nodes
//   tcp/    — AIMD(a,b) TCP: Tahoe/Reno/NewReno senders, receivers
//   attack/ — pulse trains, flooding, shrew helpers
//   stats/  — traffic time series, PAA, peaks, periods, jitter
//   detect/ — rate-anomaly and DTW pulse detectors
//   core/   — the paper's model, optimizer, planner, experiment runner
//   sweep/  — multi-threaded parameter campaigns over the grid
#pragma once

#include "attack/distributed.hpp"
#include "attack/pulse.hpp"
#include "attack/shrew.hpp"
#include "core/experiment.hpp"
#include "core/model.hpp"
#include "core/optimizer.hpp"
#include "core/params.hpp"
#include "core/planner.hpp"
#include "core/roq.hpp"
#include "core/timeout_model.hpp"
#include "detect/dtw_detector.hpp"
#include "detect/rate_detector.hpp"
#include "io/csv.hpp"
#include "io/gnuplot.hpp"
#include "net/droptail.hpp"
#include "net/link.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "net/queue.hpp"
#include "net/red.hpp"
#include "sim/scheduler.hpp"
#include "sim/simulator.hpp"
#include "stats/fairness.hpp"
#include "stats/jitter.hpp"
#include "stats/timeseries.hpp"
#include "sweep/parallel_for.hpp"
#include "sweep/spec.hpp"
#include "sweep/sweep.hpp"
#include "tcp/aimd.hpp"
#include "traffic/sources.hpp"
#include "tcp/connection.hpp"
#include "tcp/tcp_receiver.hpp"
#include "tcp/tcp_sender.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"
