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
// line versions the record layout. A store owns its files or refuses to
// open: a file whose first line is not the header — another program's
// file, or an older layout's — is a ParameterError naming it, and the
// store never writes to it. Malformed lines are skipped, a final line
// without its '\n' (a writer killed mid-record) never loads, and the next
// append cuts it off before writing.
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
#include <memory>
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
/// `pdos-campaign-seg-v2`): a store with an older layout is refused, never
/// misread, and deleting it has its points simulated again; no key moves.
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

/// The store keys of one spec's tasks (make_tasks): `points[i]` is row i's
/// `point_key` and `baselines[b]` baseline b's `baseline_key`.
struct TaskKeys {
  std::vector<std::uint64_t> baselines;
  std::vector<std::uint64_t> points;
};

/// Every key of `tasks`, the task list of `spec`, with the shared part
/// hashed once. Everything a key hashes before the seed (tag, schema,
/// compiler, scenario and queue kinds, the derived ScenarioConfig, the
/// RunControl) depends on the point only through `flows`: the seed
/// `make_scenario` also sets is left to the finishing step. So the FNV state
/// at the seed is computed once per flow count, and each key is finished
/// with the seed and the point axes. A newly hashed field that varies per
/// point must be hashed after the prefix, in the finishing step.
TaskKeys sweep_keys(const SweepSpec& spec, const SweepTasks& tasks);

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

/// One buffer that successive reads of files reuse: it grows to the largest
/// read and is never zero-filled. The bytes of a read are valid until the
/// next read.
class ReadBuffer {
 public:
  /// Up to `n` bytes of `fd`, the file at `path`, from offset `from`: fewer
  /// only at the end of the file. Throws std::system_error naming `path`
  /// when a read fails.
  std::string_view read(const std::string& path, int fd, std::uint64_t from,
                        std::size_t n);

 private:
  std::unique_ptr<char[]> bytes_;
  std::size_t size_ = 0;
};

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
  /// Room for `points` more point results without the point array moving.
  void reserve_points(std::size_t points);

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
/// A store persists every result or refuses to open:
///   - The constructor creates the directory that holds the files, requires
///     it to be writable, and opens every existing file read-write. A
///     nonempty file must start with the header line or be a proper prefix
///     of it (a writer killed inside its first line); any other file throws
///     ParameterError naming it and why, and is not written to. A missing
///     file is created by the first append that lands in it.
///   - After that every failure throws, naming the file: one that cannot be
///     opened, read, written or truncated, and a scan that finds a foreign
///     first line (the file was replaced under the store).
///   - Opening reads each file once, through one buffer reused from file
///     to file and never zero-filled, so it holds one file's bytes at a
///     time. The point array is reserved once for the most points the
///     files' bytes can hold, so loading never moves it; the table doubles
///     as results load, so it ends sized for them alone, never for leases.
///   - Scans are incremental (a per-file offset) and consume whole lines
///     only. Malformed lines and unknown record kinds are skipped.
///   - An append takes the file's exclusive flock(2), scans what other
///     processes appended since this store's last scan or write, cuts a
///     torn final line back to the last whole line, and writes the whole
///     record in one write(2) through an O_APPEND fd, so processes sharing
///     a file never interleave a record and each sees the others' lines
///     whole on its next scan.
/// Lease records (`L`/`R`) load into `leases_`; only CampaignStore writes
/// them. A scan applies the result records (`P`/`B`) of its bytes first and
/// then the lease records, skipping those of keys that have a result: the
/// index and the leases end as they would in file order, and a settled task
/// never inserts and erases a lease. All public methods are thread-safe.
class SegmentStore : public PointStore {
 public:
  SegmentStore(const SegmentStore&) = delete;
  SegmentStore& operator=(const SegmentStore&) = delete;

  bool lookup_point(std::uint64_t key, CachedPoint& out) const override;
  bool lookup_baseline(std::uint64_t key, double& goodput) const override;
  /// Record a result: append it to its segment, then insert it in the
  /// index. A key already recorded keeps its first result.
  void store_point(std::uint64_t key, const CachedPoint& value) override;
  void store_baseline(std::uint64_t key, double goodput) override;
  std::size_t size() const override;

 protected:
  /// Open the segment files at `paths`, all in directory `dir`, loading the
  /// ones that exist.
  SegmentStore(const std::string& dir, std::vector<std::string> paths,
               const char* header);

  struct Lease {
    std::uint64_t owner = 0;
    double expiry = 0.0;  // epoch seconds
  };
  struct Segment {
    Segment() = default;
    Segment(const Segment&) = delete;
    Segment& operator=(const Segment&) = delete;
    ~Segment();  // closes fd

    std::string path;
    int fd = -1;                // opened lazily
    std::uint64_t scanned = 0;  // bytes consumed by incremental scans
  };

  /// flock(2) on an open segment for a scope, so a throw cannot leave the
  /// file locked.
  struct FileLock {
    FileLock(const Segment& seg, int operation);  // LOCK_SH or LOCK_EX
    ~FileLock();
    FileLock(const FileLock&) = delete;
    FileLock& operator=(const FileLock&) = delete;
    const int fd;
  };

  std::size_t segment_index(std::uint64_t key) const {
    return static_cast<std::size_t>(key >> 60) % segments_.size();
  }

  /// std::system_error for the failed system call `call` on `seg`.
  [[noreturn]] static void fail(const Segment& seg, const char* call);

  // All helpers below assume mutex_ is held.
  /// Open `seg` read-write unless it is open, creating the file when
  /// `create` is set. False, leaving it closed, only for a missing file
  /// that `create` does not ask for; a file that cannot be opened throws.
  bool open(Segment& seg, bool create);
  /// Read `seg`'s new lines through `buffer`, apply them, and move its
  /// offset past them. Returns the file's size.
  std::uint64_t scan(Segment& seg, ReadBuffer& buffer);
  /// Write all of `bytes` to an open segment; the caller holds its flock.
  static void write_all(const Segment& seg, std::string_view bytes);
  /// Append `line` to an open segment; the caller holds its flock.
  void append_locked(Segment& seg, const std::string& line);
  /// Append `line` to `key`'s segment under its exclusive flock.
  void append(std::uint64_t key, const std::string& line);

  const std::string header_;  // every file's first line, '\n' included
  mutable std::mutex mutex_;
  std::vector<Segment> segments_;
  ResultIndex results_;
  std::unordered_map<std::uint64_t, Lease> leases_;  // keys with no result

 private:
  /// Throws ParameterError unless `head`, a file's first bytes (all of them
  /// when it is shorter), starts with the header line or is a proper prefix
  /// of it.
  void check_head(const Segment& seg, std::string_view head) const;
  void apply_result(std::string_view line);
  void apply_lease(std::string_view line);
};

/// The single-file cache: one segment with header `pdos-point-cache-v2`.
class PointCache : public SegmentStore {
 public:
  /// Open the cache file at `path`, creating its directory if needed.
  /// Throws ParameterError, naming the path, when the directory cannot be
  /// created or written or the file is not a cache file (see SegmentStore).
  explicit PointCache(const std::string& path);
  const std::string& path() const { return segments_.front().path; }
};

}  // namespace pdos::sweep
