// Persistent content-addressed cache of completed sweep points.
//
// A sweep point is a pure function of (scenario config, attack axes, seed):
// re-running a campaign recomputes work whose inputs have not changed. The
// cache keys every completed point (and every baseline run) by an FNV-1a
// digest of the canonicalized inputs plus a schema/compiler fingerprint,
// and stores the measured outputs. `run_sweep` consults it before
// dispatching a point and appends after completing one, so an interrupted
// or repeated campaign replays as cache hits (`pdos_sweep --resume`).
//
// Storage is a line-oriented append-only text file: one header line, then
// one record per entry. Doubles are written with %.17g so the reloaded
// value is bit-exact and cached CSV output stays byte-identical to a fresh
// run. Robustness over cleverness: a missing, truncated, or corrupt file —
// including one from an older schema — loads as empty and is rewritten by
// subsequent appends; malformed lines are skipped, a final line without
// its '\n' (a writer killed mid-record) never loads, and the next append
// cuts it off before writing.
//
// The key covers every *parameter* that shapes the simulation, plus the
// compiler version. It cannot see code changes that alter simulation
// semantics at equal parameters — bump kPointCacheSchema when making one,
// or delete the cache file.
//
// Two result stores implement the `PointStore` interface the sweep engine
// programs against:
//   - `PointCache` (here): one append-only file, the single-process
//     `--resume` path. Appends go through an O_APPEND fd under an advisory
//     flock, so even two processes accidentally pointed at the same file
//     cannot interleave a record.
//   - `CampaignStore` (sweep/campaign_store.hpp): a directory of hash-
//     sharded segment files with the same record format plus lease records
//     for multi-process work claiming — the coordination substrate for
//     `pdos_campaign`.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sweep/sweep.hpp"

namespace pdos::sweep {

/// Bump on any change to the record layout OR to simulation semantics that
/// changes outputs at identical parameters.
/// Schema 2: the key covers the simulation tier (ScenarioConfig::backend,
/// fast_path, and the hybrid/fluid tuning knobs), so points computed on
/// different backends never alias.
/// Schema 3: the vectorized fluid tier (DESIGN.md §16) moved the solver's
/// cross-class reductions onto a fixed-shape block tree — every fluid and
/// hybrid result shifts at ULP level at identical parameters, so schema-2
/// fluid records must not replay.
inline constexpr int kPointCacheSchema = 3;

/// The measured (and analytic) outputs of one completed point — every
/// PointResult field the CSV/JSON writers derive from a run.
struct CachedPoint {
  double c_psi = 0.0;
  double analytic_degradation = 0.0;
  double analytic_gain = 0.0;
  bool shrew = false;
  double baseline_goodput = 0.0;
  double goodput = 0.0;
  double measured_degradation = 0.0;
  double measured_gain = 0.0;
  double utilization = 0.0;
  double fairness = 0.0;
  std::uint64_t timeouts = 0;
  std::uint64_t fast_recoveries = 0;
  std::uint64_t attack_packets = 0;
  std::uint64_t events = 0;
};

/// Digest of (point axes + derived ScenarioConfig + seed + control +
/// fingerprint) for an attack point of `spec`.
std::uint64_t point_key(const SweepSpec& spec, const PointSpec& point,
                        std::uint64_t seed);

/// Digest for the no-attack baseline of a (flows, replicate) pair.
std::uint64_t baseline_key(const SweepSpec& spec, const PointSpec& probe,
                           std::uint64_t seed);

/// `point_key`/`baseline_key` for the points of one spec, with the shared
/// part hashed once. Everything the two keys hash before the seed (tag,
/// schema, compiler, scenario and queue kinds, the derived ScenarioConfig,
/// the RunControl) depends on the point only through `flows`: the seed
/// `make_scenario` also sets is left to the finishing step. So the FNV state
/// at the seed is computed once per flow count, and each key is finished
/// with the seed and the point axes. The keys are the free functions'
/// keys. Immutable after construction, so pool threads share one without
/// locking. A newly hashed field that varies per point must be hashed
/// after the prefix, in the finishing step.
class SweepKeys {
 public:
  /// Prefixes for every flow count `spec.enumerate()` can produce.
  explicit SweepKeys(const SweepSpec& spec);

  std::uint64_t point(const PointSpec& point, std::uint64_t seed) const;
  std::uint64_t baseline(const PointSpec& probe, std::uint64_t seed) const;

 private:
  struct Prefix {
    int flows = 0;
    std::uint64_t point = 0;  // FNV states before the seed
    std::uint64_t baseline = 0;
  };
  const Prefix& prefix(int flows) const;

  std::vector<Prefix> prefixes_;  // sorted by flows
};

/// Digest of (tag + schema/compiler fingerprint + full ScenarioConfig +
/// RunControl + `extra` doubles, in order). The key core of the fluid
/// surrogate-gain cache (sweep/optimizer_cache.hpp), exposed here so every
/// store key shares one hash discipline (and one schema bump). No seed
/// parameter on purpose: the callers cache fluid-tier results, which are
/// seed-invariant.
std::uint64_t scenario_digest(const char* tag, const ScenarioConfig& config,
                              const RunControl& control, const double* extra,
                              std::size_t n_extra);

// Record text codecs shared by PointCache and CampaignStore: one line per
// record, fields separated by one space, keys and owners as 16 hex digits,
// doubles as %.17g (bit-exact on reload), counts as unsigned decimals:
//
//   P <key> <c_psi> … <fairness> <timeouts> … <events>   completed point
//   B <key> <goodput>                                    completed baseline
//   L <key> <owner> <expiry>                             lease (campaign)
//   R <key> <owner>                                      release (campaign)
//
// The format functions return the whole line, trailing '\n' included. The
// parsers take the text after the "P " / "B " / "L " / "R " tag, without
// the '\n', and accept exactly what the writers produce: no leading,
// doubled or trailing spaces, no '+' signs or hex prefixes, no doubles out
// of range, nothing after the last field. They return false on anything
// else, leaving the outputs unspecified.
std::string format_point_record(std::uint64_t key, const CachedPoint& v);
std::string format_baseline_record(std::uint64_t key, double goodput);
std::string format_lease_record(std::uint64_t key, std::uint64_t owner,
                                double expiry);
std::string format_release_record(std::uint64_t key, std::uint64_t owner);
bool parse_point_record(std::string_view text, std::uint64_t& key,
                        CachedPoint& v);
bool parse_baseline_record(std::string_view text, std::uint64_t& key,
                           double& goodput);
bool parse_lease_record(std::string_view text, std::uint64_t& key,
                        std::uint64_t& owner, double& expiry);
bool parse_release_record(std::string_view text, std::uint64_t& key,
                          std::uint64_t& owner);

// Append-side file helpers shared by both stores. Call them under the
// file's exclusive flock(2).
/// Cut a torn final line (a writer killed mid-record) back to the file's
/// last '\n', or to empty when it has none, so the next record starts a
/// fresh line and the fragment can never load as a record. Returns the
/// resulting file size, or -1 on an I/O error.
std::int64_t cut_torn_tail(int fd);
/// write(2) all of `bytes`; false on an I/O error (disk full etc.).
bool write_all(int fd, std::string_view bytes);

/// What the sweep engine needs from a result store. `PointCache` is the
/// single-process file implementation; `CampaignStore` adds multi-process
/// work claiming on a sharded directory. All methods are thread-safe.
class PointStore {
 public:
  virtual ~PointStore() = default;

  virtual bool lookup_point(std::uint64_t key, CachedPoint& out) const = 0;
  virtual bool lookup_baseline(std::uint64_t key, double& goodput) const = 0;
  virtual void store_point(std::uint64_t key, const CachedPoint& value) = 0;
  virtual void store_baseline(std::uint64_t key, double goodput) = 0;
  virtual std::size_t size() const = 0;

  /// Work claiming for cooperating processes. A worker claims a task key
  /// before simulating it; the default (single-process) implementation
  /// always acquires, so plain caches run every miss themselves.
  ///   kAcquired — this process owns the task and must simulate it (and
  ///               then store the result, which supersedes the claim).
  ///   kBusy     — another live process holds a lease; defer the task and
  ///               poll for its result (or for lease expiry).
  ///   kDone     — the result appeared in the store since the lookup miss;
  ///               re-lookup instead of simulating.
  enum class ClaimStatus { kAcquired, kBusy, kDone };
  virtual ClaimStatus claim_point(std::uint64_t key) {
    (void)key;
    return ClaimStatus::kAcquired;
  }
  virtual ClaimStatus claim_baseline(std::uint64_t key) {
    (void)key;
    return ClaimStatus::kAcquired;
  }
  /// Give up a claim without a result (simulation failed): lets another
  /// worker retry immediately instead of waiting out the lease.
  virtual void release_point(std::uint64_t key) { (void)key; }
  virtual void release_baseline(std::uint64_t key) { (void)key; }

  /// Pick up records appended by other processes since the last scan.
  /// No-op for single-process stores.
  virtual void refresh() {}
};

class PointCache : public PointStore {
 public:
  /// Load `path` if it exists (tolerating corruption); appends create it,
  /// including missing parent directories.
  explicit PointCache(std::string path);
  ~PointCache() override;

  PointCache(const PointCache&) = delete;
  PointCache& operator=(const PointCache&) = delete;

  bool lookup_point(std::uint64_t key, CachedPoint& out) const override;
  bool lookup_baseline(std::uint64_t key, double& goodput) const override;

  /// Record a completed point/baseline: insert in memory and append to the
  /// cache file. Appends go through an O_APPEND fd with the full record in
  /// one write(2) under an advisory flock(2), so concurrent processes
  /// appending to the same file cannot interleave a record (each sees the
  /// other's lines whole on its next load). Under the lock the append
  /// first cuts a torn final line (`cut_torn_tail`). Thread-safe.
  void store_point(std::uint64_t key, const CachedPoint& value) override;
  void store_baseline(std::uint64_t key, double goodput) override;

  std::size_t size() const override;
  const std::string& path() const { return path_; }

 private:
  void append(const std::string& line);

  std::string path_;
  bool rewrite_ = false;  // existing file had a foreign header: truncate it
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, CachedPoint> points_;
  std::unordered_map<std::uint64_t, double> baselines_;
  int fd_ = -1;  // opened lazily on first append (O_APPEND)
};

}  // namespace pdos::sweep
