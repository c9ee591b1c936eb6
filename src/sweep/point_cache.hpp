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
// Storage is line-oriented append-only text: one header line, then one
// record per entry. Doubles are written as the 16 hex digits of their
// IEEE-754 bits, so the reloaded value is bit-exact (NaN payloads included)
// and cached CSV output stays byte-identical to a fresh run. The header
// line versions the record layout: a file with any other header — a
// missing, truncated or foreign one, or an older layout's — loads as empty
// and is rewritten by subsequent appends. Malformed lines are skipped, a
// final line without its '\n' (a writer killed mid-record) never loads,
// and the next append cuts it off before writing.
//
// The key covers every *parameter* that shapes the simulation, plus the
// compiler version. It cannot see code changes that alter simulation
// semantics at equal parameters — bump kPointCacheSchema when making one,
// or delete the cache file.
//
// The sweep engine programs against the `PointStore` interface. Both
// result stores are a `SegmentStore`, which owns the files and the
// in-memory index:
//   - `PointCache` (here): one segment file, the single-process `--resume`
//     path. It claims nothing and writes no lease records.
//   - `CampaignStore` (sweep/campaign_store.hpp): a directory of 16
//     hash-sharded segments plus lease records for multi-process work
//     claiming — the coordination substrate for `pdos_campaign`.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sweep/sweep.hpp"

namespace pdos::sweep {

/// Bump on any change to simulation semantics that changes outputs at
/// identical parameters, or to what a key hashes. The record layout is
/// versioned by the segment header line instead (`pdos-point-cache-v2`,
/// `pdos-campaign-seg-v2`): a file with an older layout loads as empty, so
/// its points are simulated again rather than misread, and no key moves.
/// Schema 2: the key covers the simulation tier (ScenarioConfig::backend,
/// fast_path, and the hybrid/fluid tuning knobs), so points computed on
/// different backends never alias.
/// Schema 3: the vectorized fluid tier (DESIGN.md §16) moved the solver's
/// cross-class reductions onto a fixed-shape block tree — every fluid and
/// hybrid result shifts at ULP level at identical parameters, so schema-2
/// fluid records must not replay.
/// Schema 4: the tier section hashes `backend` alone — the hybrid tier,
/// the fast_path flag (now Backend::kFast) and the scenario-level fluid
/// steps are gone. Outputs are unchanged, but every key moves.
/// Schema 5: seven one-valued settings became constants (bottleneck delay,
/// attacker access rate, flow start spread, TCP header bytes, RTO ceiling,
/// dupack threshold) or went (finite transfers), so hash_scenario hashes
/// 22 values instead of 29. Outputs are unchanged, but every key moves.
inline constexpr int kPointCacheSchema = 5;

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

// Record text codecs of every segment file: one line per record, fields
// separated by one space, keys and owners as 16 lowercase hex digits,
// doubles as the 16 lowercase hex digits of their IEEE-754 bits (so every
// bit pattern reloads exactly), counts as unsigned decimals with no leading
// zero, and a point's shrew flag as 0 or 1:
//
//   P <key> <c_psi> … <fairness> <timeouts> … <events>   completed point
//   B <key> <goodput>                                    completed baseline
//   L <key> <owner> <expiry>                             lease (campaign)
//   R <key> <owner>                                      release (campaign)
//
// The format functions return the whole line, trailing '\n' included. The
// parsers take the text after the "P " / "B " / "L " / "R " tag, without
// the '\n', and accept exactly what the writers produce: no leading,
// doubled or trailing spaces, no '+' signs, hex prefixes or uppercase hex
// digits, no hex field of other than 16 digits, no decimal double, no
// leading zero in a count, no shrew flag but 0 or 1, nothing after the
// last field. They return false on anything else, leaving the
// outputs unspecified.
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

/// write(2) all of `bytes`; false on an I/O error (disk full etc.). Call it
/// under the file's exclusive flock(2).
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

/// The results a store holds, by task key: one open-addressing table probed
/// linearly from each key's home slot. A slot holds a key, the kind of its
/// result and the result's position in a dense array, one array per kind.
/// Point and baseline keys are separate namespaces, so a slot matches on
/// (key, kind), and every 64-bit key is valid, 0 and ~0 included. The
/// table doubles before it passes 3/4 full. Not thread-safe: a store
/// guards its index with its mutex.
///
/// V is CachedPoint for a point result and double for a baseline's goodput.
class ResultIndex {
 public:
  /// Room for `results` more results, of either kind, without the table
  /// growing.
  void reserve(std::size_t results);

  /// `key`'s result of type V, or null.
  template <typename V>
  const V* find(std::uint64_t key) const {
    if (slots_.empty()) return nullptr;
    const Slot& slot = slots_[probe(key, kind_of<V>())];
    return slot.kind == Kind::kEmpty ? nullptr : &values<V>(*this)[slot.at];
  }
  /// Whether `key` has a result of either kind.
  bool contains(std::uint64_t key) const {
    return find<CachedPoint>(key) != nullptr || find<double>(key) != nullptr;
  }
  /// `key`'s result of type V, added value-initialized if it had none, and
  /// whether it was added. The pointer is valid until the next emplace.
  template <typename V>
  std::pair<V*, bool> emplace(std::uint64_t key);
  /// Calls fn(key, value) for every result of type V.
  template <typename V, typename Fn>
  void for_each(Fn&& fn) const {
    const std::vector<V>& dense = values<V>(*this);
    for (const Slot& slot : slots_) {
      if (slot.kind == kind_of<V>()) fn(slot.key, dense[slot.at]);
    }
  }

  std::size_t size() const { return points_.size() + baselines_.size(); }
  /// The table's length: 0, or a power of two of at least 16.
  std::size_t slots() const { return slots_.size(); }
  /// The slot where `key`'s probe starts in a table of `slots` slots.
  static std::size_t home(std::uint64_t key, std::size_t slots);

 private:
  enum class Kind : std::uint32_t { kEmpty, kPoint, kBaseline };
  struct Slot {
    std::uint64_t key = 0;
    Kind kind = Kind::kEmpty;
    std::uint32_t at = 0;  // position in points_ or baselines_
  };

  template <typename V>
  static constexpr Kind kind_of() {
    static_assert(std::is_same_v<V, CachedPoint> || std::is_same_v<V, double>,
                  "a result is a CachedPoint or a baseline's goodput");
    return std::is_same_v<V, CachedPoint> ? Kind::kPoint : Kind::kBaseline;
  }
  /// `self`'s dense array of results of type V.
  template <typename V, typename Self>
  static auto& values(Self& self) {
    if constexpr (std::is_same_v<V, CachedPoint>) {
      return self.points_;
    } else {
      return self.baselines_;
    }
  }

  /// The slot holding `key`'s result of `kind`, or else the empty slot
  /// that ends its probe. The table must be nonempty.
  std::size_t probe(std::uint64_t key, Kind kind) const;
  void rehash(std::size_t slots);

  std::vector<Slot> slots_;
  std::vector<CachedPoint> points_;
  std::vector<double> baselines_;
};

/// Append-only segment files of the records above and the in-memory index
/// over them: what both stores share. A key's records live in segment
/// `(key >> 60) % segments`. Each file starts with the store's header line.
///   - Files open lazily: an existing one when the store opens, a missing
///     one on its first append, which creates it and its parent
///     directories. A file the process can read but not write opens
///     read-only: it still loads, and appends to it fail like any I/O
///     error, which leaves the store in-memory only.
///   - Scans are incremental (a per-file offset) and consume whole lines
///     only, holding one file's new bytes at a time. Each sizes the index
///     for the result lines it read before applying them, so opening a
///     store grows the index only to fit its results, never its leases.
///     Malformed lines and unknown record kinds are skipped. A file
///     with a foreign header loads as empty and is truncated by its first
///     append, from this process or from a peer that opened it too, and
///     it loads again once it starts with the store's header.
///   - An append takes the file's exclusive flock(2), cuts a torn final
///     line back to the last '\n' unless the file ends where this store's
///     last scan or write ended, and writes the whole record in one
///     write(2) through an O_APPEND fd, so processes sharing a file never
///     interleave a record and each sees the others' lines whole on its
///     next scan.
/// Lease records (`L`/`R`) load into `leases_`; only CampaignStore writes
/// them. A scan applies the result records (`P`/`B`) of its bytes first and
/// then the lease records, skipping those of keys that have a result: the
/// index and the leases end as they would in file order, and a settled task
/// never inserts and erases a lease. All public methods are thread-safe.
class SegmentStore : public PointStore {
 public:
  ~SegmentStore() override;

  SegmentStore(const SegmentStore&) = delete;
  SegmentStore& operator=(const SegmentStore&) = delete;

  bool lookup_point(std::uint64_t key, CachedPoint& out) const override;
  bool lookup_baseline(std::uint64_t key, double& goodput) const override;
  /// Record a result: insert it in the index and append it to its segment.
  /// A key already recorded keeps its first result.
  void store_point(std::uint64_t key, const CachedPoint& value) override;
  void store_baseline(std::uint64_t key, double goodput) override;
  std::size_t size() const override;

 protected:
  /// Open the segment files at `paths`, loading the ones that exist.
  SegmentStore(std::vector<std::string> paths, const char* header);

  struct Lease {
    std::uint64_t owner = 0;
    double expiry = 0.0;  // epoch seconds
  };
  struct Segment {
    std::string path;
    int fd = -1;                // opened lazily
    std::uint64_t scanned = 0;  // bytes consumed by incremental scans
    bool header_ok = false;     // header line verified (or written by us)
    bool rewrite = false;       // foreign header: truncate on first append
  };

  std::size_t segment_index(std::uint64_t key) const {
    return static_cast<std::size_t>(key >> 60) % segments_.size();
  }

  // All helpers below assume mutex_ is held.
  bool open(Segment& seg);
  /// Whether a segment opened with a foreign header still has one: a
  /// process sharing the file may have truncated it and written ours. Call
  /// it under the file's flock(2).
  bool still_foreign(const Segment& seg) const;
  void scan(Segment& seg);
  /// Append `line` to an open segment; the caller holds its flock.
  void append_locked(Segment& seg, const std::string& line);
  /// Append `line` to `key`'s segment under its exclusive flock.
  void append(std::uint64_t key, const std::string& line);

  const char* header_;
  mutable std::mutex mutex_;
  std::vector<Segment> segments_;
  ResultIndex results_;
  std::unordered_map<std::uint64_t, Lease> leases_;  // keys with no result

 private:
  void apply_result(std::string_view line);
  void apply_lease(std::string_view line);
};

/// The single-file cache: one segment with header `pdos-point-cache-v2`.
class PointCache : public SegmentStore {
 public:
  explicit PointCache(std::string path);
  const std::string& path() const { return segments_.front().path; }
};

}  // namespace pdos::sweep
