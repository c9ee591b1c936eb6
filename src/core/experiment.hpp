// Scenario builder and experiment runner.
//
// Encodes the paper's two evaluation environments:
//   - `ScenarioConfig::ns2_dumbbell(M)`  — §4.1: M TCP NewReno flows over a
//     dumbbell with a 15 Mbps RED bottleneck, 50 Mbps access links, RTTs
//     evenly spread over 20-460 ms, ns-2 minRTO = 1 s.
//   - `ScenarioConfig::testbed(M)`       — §4.2: Dummynet-style single
//     10 Mbps bottleneck with 150 ms RTT, Linux minRTO = 200 ms, delayed
//     ACKs (d = 2), RED(0.2B, 0.8B, w_q = 0.002, max_p = 0.1, gentle) with
//     B = RTT × R_bottle.
//
// `run_scenario` builds the topology, runs warmup + measurement under an
// optional pulse train, and reports aggregate goodput, the bottleneck's
// incoming-traffic series (Figs. 2-3), queue/loss statistics and TCP state
// counters. `measure_gain` composes two runs into the paper's Γ and G.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "attack/pulse.hpp"
#include "core/params.hpp"
#include "fluid/fluid.hpp"
#include "net/queue.hpp"
#include "net/red.hpp"
#include "tcp/tcp_sender.hpp"
#include "util/units.hpp"

namespace pdos {

class Link;
class OnOffSource;
class TcpReceiver;

enum class QueueKind { kDropTail, kRed };

/// Simulation tier a scenario runs on (DESIGN.md §12, "Choosing a backend"
/// in README.md):
///   kFull  — the packet engine's default event path (golden-digest
///            pinned; the paper figures run here).
///   kFast  — the same packet engine with the express ACK lane and event
///            fusion (DESIGN.md §11); bit-identical packet timings,
///            different event counts.
///   kFluid — no packets at all: the fluid AIMD solver (src/fluid)
///            integrates per-class window ODEs and RED occupancy,
///            microseconds per run.
enum class Backend { kFull, kFast, kFluid };

const char* backend_name(Backend backend);

/// Parse "full" | "fast" | "fluid"; nullopt on anything else.
std::optional<Backend> parse_backend(const std::string& name);

struct ScenarioConfig {
  /// One-way propagation delay of the shared bottleneck link.
  static constexpr Time kBottleneckDelay = ms(1);
  /// Flows start uniformly in [0, kFlowStartSpread].
  static constexpr Time kFlowStartSpread = sec(1.0);

  int num_flows = 15;
  BitRate bottleneck = mbps(15);
  BitRate access = mbps(50);
  std::vector<Time> rtts;         // per-flow two-way propagation targets
  QueueKind queue = QueueKind::kRed;
  std::size_t buffer_packets = 60;  // bottleneck buffer B
  TcpSenderConfig tcp;
  Bytes attack_packet_bytes = 1040;
  /// Distributed attack: the pulse train is split evenly over this many
  /// sources, each on its own access link at max(access, 2 x its share of
  /// R_attack), so no attacker link ever queues. 1 = the paper's single
  /// attacker.
  int num_attackers = 1;
  /// Random per-source start offset in [0, spread]; softens the aggregate
  /// pulse edge at a small damage cost.
  Time attacker_phase_spread = 0.0;
  /// Unresponsive cross traffic sharing the bottleneck: an exponential
  /// ON/OFF source (50% duty cycle) with this long-run average rate.
  /// 0 disables it (the paper's scenarios).
  BitRate cross_traffic_rate = 0.0;
  std::uint64_t seed = 1;
  /// Which simulation tier runs the scenario (see Backend above). kFull
  /// keeps every default-path digest byte-identical. kFast turns on the
  /// large-scale event plumbing (DESIGN.md §11): reverse-path links become
  /// queue-less express ACK lanes and forward links fuse idle serves into
  /// zero service events. Packet-level behaviour (timings, drops, RNG
  /// draws) is unchanged, but the scheduler's event count and tie-break
  /// rank stream are not — and the golden figure digests pin event counts —
  /// so the paper scenarios stay on kFull. A scenario that installs
  /// reverse-path queues or taps must stay on kFull too. kFluid trades
  /// packet-level fidelity for speed; its integration steps are
  /// `fluid::FluidConfig::dt_pulse/dt_idle`.
  Backend backend = Backend::kFull;

  /// §4.1 ns-2 scenario. The paper reuses Kuzmanovic & Knightly's scripts;
  /// parameters it does not restate (buffer size, RED thresholds) follow
  /// the same 20%/80% rule as the test-bed on a 60-packet buffer —
  /// documented in EXPERIMENTS.md.
  static ScenarioConfig ns2_dumbbell(int num_flows);

  /// §4.2 test-bed scenario.
  static ScenarioConfig testbed(int num_flows = 10);

  /// Beyond-the-paper scaling family (DESIGN.md §11): the ns-2 dumbbell
  /// stretched to `num_flows` victims on a `bottleneck` of up to 1 Gbps,
  /// with the buffer scaled in proportion to the rate (240 packets at
  /// 15 Mbps) so the queueing dynamics stay comparable. Runs on
  /// `Backend::kFast`: the express ACK lane and event fusion, which leave
  /// packet-level behaviour untouched.
  static ScenarioConfig large_scale(int num_flows,
                                    BitRate bottleneck = gbps(1));

  void validate() const;

  /// The analytical victim profile implied by this scenario.
  VictimProfile victim_profile() const;
};

struct RunControl {
  Time warmup = sec(8.0);     // attack starts at t=0; stats from `warmup`
  Time measure = sec(30.0);   // measurement window length
  Time bin_width = ms(100);   // incoming-traffic series resolution
  int traced_flow = -1;       // >= 0: record that flow's cwnd trace
  Time horizon() const { return warmup + measure; }
};

struct RunResult {
  // Aggregate application goodput over the measurement window only.
  Bytes goodput_bytes = 0;
  BitRate goodput_rate = 0.0;
  double utilization = 0.0;  // goodput_rate / bottleneck
  // Per-flow goodput over the measurement window, and Jain's fairness
  // index over it (the attack starves large-RTT flows first).
  std::vector<Bytes> per_flow_goodput;
  double fairness_index = 0.0;

  // Incoming traffic at the bottleneck (TCP + attack), bytes per bin, over
  // the whole run starting at t = 0.
  std::vector<double> incoming_bins;
  // Attack-only arrivals at the bottleneck, same binning.
  std::vector<double> attack_bins;
  Time bin_width = 0.0;

  QueueStats bottleneck_queue;
  std::uint64_t red_early_drops = 0;
  std::uint64_t red_forced_drops = 0;
  // Bottleneck queue occupancy sampled every `bin_width` (packets), and
  // RED's EWMA estimate at the same instants (0 for drop-tail). The gap
  // between the two during pulses is the AQM transient RoQ-style attacks
  // exploit.
  std::vector<double> queue_occupancy;
  std::vector<double> red_avg_samples;

  std::uint64_t total_timeouts = 0;
  std::uint64_t total_fast_recoveries = 0;
  std::uint64_t total_retransmits = 0;
  // Mean over flows of the RFC 3550 smoothed interarrival jitter of
  // in-order deliveries (§2.3: attacks increase jitter).
  Time mean_delivery_jitter = 0.0;
  std::uint64_t attack_packets_sent = 0;
  std::uint64_t events_executed = 0;

  std::vector<std::pair<Time, double>> cwnd_trace;  // if traced_flow >= 0
};

/// One point of the paper's gain plots (declared early for
/// ScenarioWorkspace): Γ = 1 − goodput/baseline (clamped at 0) and
/// G = Γ(1−γ)^κ, with γ taken from the train and the scenario's bottleneck.
struct GainMeasurement;

/// A reusable scenario harness: one warm `Simulator` whose arena blocks,
/// scheduler slabs, and container capacities survive from run to run.
/// Each `run()` rewinds the simulator to `config.seed` and rebuilds the
/// dumbbell inside the retained memory, so a sweep worker pays scenario
/// construction out of already-hot blocks instead of the system allocator.
/// Outputs are bit-identical to a fresh `run_scenario` call: the seed
/// streams, event ordering, and slot assignment do not depend on whether
/// the simulator is fresh or rewound.
class ScenarioWorkspace {
 public:
  ScenarioWorkspace() = default;
  ScenarioWorkspace(const ScenarioWorkspace&) = delete;
  ScenarioWorkspace& operator=(const ScenarioWorkspace&) = delete;

  /// Build and run one scenario; equivalent to `run_scenario`.
  RunResult run(const ScenarioConfig& config,
                const std::optional<PulseTrain>& attack,
                const RunControl& control);

  /// Baseline goodput rate (no attack); equivalent to `measure_baseline`.
  BitRate baseline(const ScenarioConfig& config, const RunControl& control);

  /// One gain point; equivalent to `measure_gain`.
  GainMeasurement gain(const ScenarioConfig& config, const PulseTrain& train,
                       double kappa, const RunControl& control,
                       BitRate baseline_goodput);

  /// The underlying simulator (for memory/telemetry inspection in tests).
  const Simulator& simulator() const { return sim_; }

 private:
  void build(const ScenarioConfig& config,
             const std::optional<PulseTrain>& attack);

  /// One bulk TCP flow's two agents, both in the simulator arena.
  struct Flow {
    TcpSender* sender;
    TcpReceiver* receiver;
  };

  Simulator sim_{1};  // reseeded by every run()
  Link* bottleneck_ = nullptr;
  std::vector<Flow> flows_;
  std::vector<PulseAttacker*> attackers_;
  OnOffSource* cross_traffic_ = nullptr;
  // Per-run scratch, cleared (not freed) between runs.
  std::vector<Bytes> goodput_marks_;
  std::vector<std::uint64_t> start_seeds_;  // one stream seed per flow
  std::vector<Time> start_offsets_;
};

/// Build and run one scenario. If `attack` is set, the pulse train starts
/// at t = 0 and runs for the whole horizon.
RunResult run_scenario(const ScenarioConfig& config,
                       const std::optional<PulseTrain>& attack,
                       const RunControl& control);

/// One point of the paper's gain plots: Γ = 1 − goodput/baseline (clamped
/// at 0) and G = Γ(1−γ)^κ, with γ taken from the train and the scenario's
/// bottleneck.
struct GainMeasurement {
  double gamma = 0.0;
  double degradation = 0.0;  // measured Γ
  double gain = 0.0;         // measured G
  RunResult run;
};

GainMeasurement measure_gain(const ScenarioConfig& config,
                             const PulseTrain& train, double kappa,
                             const RunControl& control,
                             BitRate baseline_goodput);

/// Fold one finished attack run into a gain point: Γ against the baseline,
/// G = Γ(1−γ)^κ. The measurement math shared by `ScenarioWorkspace::gain`
/// and the lane-batched fluid paths, which finish many runs at once.
GainMeasurement finish_gain(const ScenarioConfig& config,
                            const PulseTrain& train, double kappa,
                            BitRate baseline_goodput, RunResult run);

/// Baseline goodput rate (no attack) for the scenario under `control`.
BitRate measure_baseline(const ScenarioConfig& config,
                         const RunControl& control);

/// Lane-batched fluid runs (DESIGN.md §16): evaluate every attack plan in
/// `attacks` (nullopt = unattacked baseline) on the fluid tier in one
/// `fluid::solve_batch` call — same classes and topology, per-lane pulse
/// trains. results[i] is bit-identical to `run_scenario` on the kFluid
/// backend with attacks[i]; the batching only changes throughput. The
/// scenario's `backend` field is ignored: calling this IS selecting the
/// fluid tier.
std::vector<RunResult> run_fluid_batch(
    const ScenarioConfig& config,
    const std::vector<std::optional<PulseTrain>>& attacks,
    const RunControl& control);

/// Batched gain points sharing one baseline: `run_fluid_batch` over
/// `trains` folded through `finish_gain`. gains[i] is bit-identical to
/// `measure_gain(config-with-kFluid, trains[i], ...)`.
std::vector<GainMeasurement> fluid_gain_batch(const ScenarioConfig& config,
                                              const std::vector<PulseTrain>& trains,
                                              double kappa,
                                              const RunControl& control,
                                              BitRate baseline_goodput);

/// Translate a scenario to the fluid tier's system description: one class
/// per flow, the same RED parameterization `make_queue` builds, the TCP
/// stack's AIMD/slow-start/RTO knobs, with FluidConfig's default
/// integration steps. Used by the kFluid backend and the agreement tests.
fluid::FluidConfig make_fluid_config(const ScenarioConfig& config);

}  // namespace pdos
