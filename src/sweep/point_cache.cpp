#include "sweep/point_cache.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "util/assert.hpp"

namespace pdos::sweep {

namespace {

/// FNV-1a over the canonical byte encoding of the inputs. Doubles hash by
/// bit pattern: two configs hash alike iff every parameter is bit-equal,
/// which matches the simulator's bit-exact determinism contract.
class Fnv1a {
 public:
  Fnv1a() = default;
  /// Resume from a saved `value()`.
  explicit Fnv1a(std::uint64_t state) : hash_(state) {}

  Fnv1a& bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
    return *this;
  }
  Fnv1a& u64(std::uint64_t v) { return bytes(&v, sizeof(v)); }
  Fnv1a& i64(std::int64_t v) { return bytes(&v, sizeof(v)); }
  Fnv1a& f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return u64(bits);
  }
  Fnv1a& str(const char* s) { return bytes(s, std::strlen(s) + 1); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Every ScenarioConfig field that shapes a run (including the TCP stack);
/// field order is part of the schema. Hashed into both sweep keys below.
void hash_scenario(Fnv1a& h, const ScenarioConfig& c) {
  h.i64(c.num_flows).f64(c.bottleneck).f64(c.access).f64(c.bottleneck_delay);
  h.i64(static_cast<std::int64_t>(c.rtts.size()));
  for (double rtt : c.rtts) h.f64(rtt);
  h.i64(static_cast<std::int64_t>(c.queue));
  h.i64(static_cast<std::int64_t>(c.buffer_packets));

  const TcpSenderConfig& t = c.tcp;
  h.i64(static_cast<std::int64_t>(t.variant));
  h.f64(t.aimd.a).f64(t.aimd.b).i64(t.aimd.d);
  h.i64(t.mss).i64(t.header_bytes);
  h.f64(t.initial_cwnd).f64(t.initial_ssthresh).f64(t.max_cwnd);
  h.f64(t.rto_min).f64(t.rto_max).f64(t.initial_rto);
  h.i64(t.dupack_threshold).f64(t.rto_jitter).i64(t.total_segments);

  h.i64(c.attack_packet_bytes).f64(c.attacker_access).i64(c.num_attackers);
  h.f64(c.attacker_phase_spread).f64(c.flow_start_spread);
  h.f64(c.cross_traffic_rate);

  // Simulation tier: the backend changes what a "result" means, so
  // full/fast/fluid points must never alias in a --resume replay.
  h.i64(static_cast<std::int64_t>(c.backend));
  // The store BACKING (single file vs sharded campaign directory) and the
  // worker process and thread counts are not hashed: none of them changes
  // a result, and the same keys address both stores, which is what lets K
  // campaign processes dedup against each other and against past
  // single-process sweeps.
}

void hash_control(Fnv1a& h, const RunControl& ctl) {
  h.f64(ctl.warmup).f64(ctl.measure).f64(ctl.bin_width);
  h.i64(ctl.traced_flow);
}

/// The FNV state of a sweep key up to its seed: the entry-kind tag, the
/// build fingerprint, the derived ScenarioConfig and the measurement
/// windows. Depends on `point` only through `flows` (see SweepKeys).
std::uint64_t key_prefix(const char* tag, const SweepSpec& spec,
                         const PointSpec& point) {
  Fnv1a h;
  h.str(tag);
  h.i64(kPointCacheSchema);
  h.str(__VERSION__);  // compiler change may legally perturb FP results
  h.i64(static_cast<std::int64_t>(spec.scenario));
  h.i64(static_cast<std::int64_t>(spec.queue));
  hash_scenario(h, spec.make_scenario(point));
  hash_control(h, spec.control);
  return h.value();
}

std::uint64_t finish_point_key(std::uint64_t prefix, const PointSpec& point,
                               std::uint64_t seed) {
  Fnv1a h(prefix);
  h.u64(seed);
  h.i64(point.flows).f64(point.textent).f64(point.rattack);
  h.f64(point.gamma).f64(point.kappa).i64(point.replicate);
  return h.value();
}

std::uint64_t finish_baseline_key(std::uint64_t prefix, const PointSpec& probe,
                                  std::uint64_t seed) {
  Fnv1a h(prefix);
  h.u64(seed);
  // Only the axes the baseline run depends on; textent/rattack/gamma vary
  // freely across the points this baseline normalizes.
  h.i64(probe.flows).i64(probe.replicate);
  return h.value();
}

}  // namespace

std::uint64_t point_key(const SweepSpec& spec, const PointSpec& point,
                        std::uint64_t seed) {
  return finish_point_key(key_prefix("point", spec, point), point, seed);
}

std::uint64_t baseline_key(const SweepSpec& spec, const PointSpec& probe,
                           std::uint64_t seed) {
  return finish_baseline_key(key_prefix("baseline", spec, probe), probe, seed);
}

SweepKeys::SweepKeys(const SweepSpec& spec) {
  std::vector<int> flows;
  if (spec.explicit_points.empty()) {
    flows = spec.flow_counts;
  } else {
    for (const PointSpec& point : spec.explicit_points) {
      flows.push_back(point.flows);
    }
  }
  std::sort(flows.begin(), flows.end());
  flows.erase(std::unique(flows.begin(), flows.end()), flows.end());
  prefixes_.reserve(flows.size());
  for (int n : flows) {
    PointSpec probe;
    probe.flows = n;
    prefixes_.push_back(Prefix{n, key_prefix("point", spec, probe),
                               key_prefix("baseline", spec, probe)});
  }
}

const SweepKeys::Prefix& SweepKeys::prefix(int flows) const {
  const auto it = std::lower_bound(
      prefixes_.begin(), prefixes_.end(), flows,
      [](const Prefix& p, int n) { return p.flows < n; });
  PDOS_CHECK_MSG(it != prefixes_.end() && it->flows == flows,
                 "SweepKeys: flow count not in the spec");
  return *it;
}

std::uint64_t SweepKeys::point(const PointSpec& point,
                               std::uint64_t seed) const {
  return finish_point_key(prefix(point.flows).point, point, seed);
}

std::uint64_t SweepKeys::baseline(const PointSpec& probe,
                                  std::uint64_t seed) const {
  return finish_baseline_key(prefix(probe.flows).baseline, probe, seed);
}

std::string format_point_record(std::uint64_t key, const CachedPoint& v) {
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "P %016" PRIx64
      " %.17g %.17g %.17g %d %.17g %.17g %.17g %.17g %.17g %.17g %" PRIu64
      " %" PRIu64 " %" PRIu64 " %" PRIu64 "\n",
      key, v.c_psi, v.analytic_degradation, v.analytic_gain, v.shrew ? 1 : 0,
      v.baseline_goodput, v.goodput, v.measured_degradation, v.measured_gain,
      v.utilization, v.fairness, v.timeouts, v.fast_recoveries,
      v.attack_packets, v.events);
  return buf;
}

std::string format_baseline_record(std::uint64_t key, double goodput) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "B %016" PRIx64 " %.17g\n", key, goodput);
  return buf;
}

std::string format_lease_record(std::uint64_t key, std::uint64_t owner,
                                double expiry) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "L %016" PRIx64 " %016" PRIx64 " %.17g\n",
                key, owner, expiry);
  return buf;
}

std::string format_release_record(std::uint64_t key, std::uint64_t owner) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "R %016" PRIx64 " %016" PRIx64 "\n", key,
                owner);
  return buf;
}

namespace {

/// Reads a record's fields left to right with std::from_chars, in the
/// writers' grammar (see point_cache.hpp). A failed field fails every
/// later one, so a parser checks `done()` once at the end.
class FieldReader {
 public:
  explicit FieldReader(std::string_view text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  /// 16 hex digits, as %016 PRIx64 writes them.
  FieldReader& hex(std::uint64_t& v) {
    if (next(v, 16) && p_ - field_ != 16) ok_ = false;
    return *this;
  }
  FieldReader& u64(std::uint64_t& v) {
    next(v, 10);
    return *this;
  }
  FieldReader& f64(double& v) {
    next(v);
    return *this;
  }
  /// Every field parsed and nothing follows the last one.
  bool done() const { return ok_ && p_ == end_; }

 private:
  template <typename T, typename... Base>
  bool next(T& v, Base... base) {
    // One space before every field but the first: from_chars itself takes
    // no leading space or '+'.
    if (ok_ && !first_) ok_ = p_ != end_ && *p_++ == ' ';
    first_ = false;
    if (!ok_) return false;
    field_ = p_;
    const std::from_chars_result r = std::from_chars(p_, end_, v, base...);
    p_ = r.ptr;
    ok_ = r.ec == std::errc();
    return ok_;
  }

  const char* p_;
  const char* end_;
  const char* field_ = nullptr;  // start of the last field read
  bool first_ = true;
  bool ok_ = true;
};

}  // namespace

bool parse_point_record(std::string_view text, std::uint64_t& key,
                        CachedPoint& v) {
  std::uint64_t shrew = 0;
  FieldReader in(text);
  in.hex(key).f64(v.c_psi).f64(v.analytic_degradation).f64(v.analytic_gain);
  in.u64(shrew).f64(v.baseline_goodput).f64(v.goodput);
  in.f64(v.measured_degradation).f64(v.measured_gain).f64(v.utilization);
  in.f64(v.fairness).u64(v.timeouts).u64(v.fast_recoveries);
  in.u64(v.attack_packets).u64(v.events);
  v.shrew = shrew != 0;
  return in.done();
}

bool parse_baseline_record(std::string_view text, std::uint64_t& key,
                           double& goodput) {
  return FieldReader(text).hex(key).f64(goodput).done();
}

bool parse_lease_record(std::string_view text, std::uint64_t& key,
                        std::uint64_t& owner, double& expiry) {
  return FieldReader(text).hex(key).hex(owner).f64(expiry).done();
}

bool parse_release_record(std::string_view text, std::uint64_t& key,
                          std::uint64_t& owner) {
  return FieldReader(text).hex(key).hex(owner).done();
}

namespace {

/// Cut a torn final line (a writer killed mid-record) back to the file's
/// last '\n', or to empty when it has none, so the next record starts a
/// fresh line and the fragment can never load as a record. Returns the
/// resulting file size, or -1 on an I/O error. Call it under the file's
/// exclusive flock(2).
std::int64_t cut_torn_tail(int fd) {
  struct stat st;
  if (::fstat(fd, &st) != 0) return -1;
  off_t end = st.st_size;
  // Scan back a chunk at a time: a record is far shorter than a chunk, so
  // one pread finds the last '\n' unless the file holds no whole line.
  char buf[512];
  while (end > 0) {
    const off_t from = std::max<off_t>(0, end - static_cast<off_t>(sizeof(buf)));
    const auto want = static_cast<std::size_t>(end - from);
    if (::pread(fd, buf, want, from) != static_cast<ssize_t>(want)) return -1;
    const std::size_t nl = std::string_view(buf, want).rfind('\n');
    if (nl != std::string_view::npos) {
      end = from + static_cast<off_t>(nl) + 1;
      break;
    }
    end = from;
  }
  if (end < st.st_size && ::ftruncate(fd, end) != 0) return -1;
  return end;
}

}  // namespace

bool write_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n <= 0) return false;
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

SegmentStore::SegmentStore(std::vector<std::string> paths, const char* header)
    : header_(header), segments_(paths.size()) {
  std::error_code ec;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    Segment& seg = segments_[i];
    seg.path = std::move(paths[i]);
    // Load only files that already exist; the rest are created by the
    // first append that lands in them.
    if (std::filesystem::exists(seg.path, ec) && open(seg)) scan(seg);
  }
}

SegmentStore::~SegmentStore() {
  for (Segment& seg : segments_) {
    if (seg.fd >= 0) ::close(seg.fd);
  }
}

bool SegmentStore::open(Segment& seg) {
  if (seg.fd >= 0) return true;
  const std::filesystem::path parent =
      std::filesystem::path(seg.path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);  // best effort
  }
  // O_RDWR (not O_WRONLY): scans and the torn-tail cut pread(2) through the
  // fd the appends go through, so there is exactly one handle to lock.
  seg.fd = ::open(seg.path.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC,
                  0644);
  if (seg.fd < 0) seg.fd = ::open(seg.path.c_str(), O_RDONLY | O_CLOEXEC);
  return seg.fd >= 0;
}

void SegmentStore::apply_line(std::string_view line) {
  if (line.size() < 2 || line[1] != ' ') return;
  const std::string_view fields = line.substr(2);
  std::uint64_t key = 0;
  switch (line[0]) {
    case 'P': {
      CachedPoint value;
      if (parse_point_record(fields, key, value)) {
        points_[key] = value;
        leases_.erase(key);  // result supersedes any claim
      }
      break;
    }
    case 'B': {
      double goodput = 0.0;
      if (parse_baseline_record(fields, key, goodput)) {
        baselines_[key] = goodput;
        leases_.erase(key);
      }
      break;
    }
    case 'L': {
      std::uint64_t owner = 0;
      double expiry = 0.0;
      if (parse_lease_record(fields, key, owner, expiry)) {
        // Last lease wins: a re-claim after expiry replaces the dead one.
        // Never shadow a result that already landed.
        if (points_.find(key) == points_.end() &&
            baselines_.find(key) == baselines_.end()) {
          leases_[key] = Lease{owner, expiry};
        }
      }
      break;
    }
    case 'R': {
      std::uint64_t owner = 0;
      if (parse_release_record(fields, key, owner)) {
        const auto it = leases_.find(key);
        if (it != leases_.end() && it->second.owner == owner) {
          leases_.erase(it);
        }
      }
      break;
    }
    default:
      break;  // unknown record kinds are skipped, not fatal
  }
}

void SegmentStore::scan(Segment& seg) {
  if (seg.rewrite) return;  // foreign file: ignored until truncated
  struct stat st;
  if (::fstat(seg.fd, &st) != 0) return;
  auto size = static_cast<std::uint64_t>(st.st_size);
  if (size < seg.scanned) {
    // The file shrank under us (a compaction pass rewrote it): rescan from
    // the start. Result records are idempotent facts, so re-applying them
    // is harmless; leases age out by TTL either way.
    seg.scanned = 0;
    seg.header_ok = false;
  }
  if (size == seg.scanned) return;

  std::string tail(size - seg.scanned, '\0');
  std::size_t got = 0;
  while (got < tail.size()) {
    const ssize_t n = ::pread(seg.fd, tail.data() + got, tail.size() - got,
                              static_cast<off_t>(seg.scanned + got));
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  tail.resize(got);

  // Consume complete lines only; a torn tail (no final newline yet) stays
  // unconsumed and is re-read — whole — on a later scan.
  std::size_t begin = 0;
  while (true) {
    const std::size_t nl = tail.find('\n', begin);
    if (nl == std::string::npos) break;
    const std::string_view line(tail.data() + begin, nl - begin);
    if (seg.scanned == 0 && begin == 0 && !seg.header_ok) {
      if (line != header_) {
        // Foreign or pre-v1 file: load nothing from it and truncate it on
        // the first append (records appended after a bad header would be
        // invisible to the next load).
        seg.rewrite = true;
        return;
      }
      seg.header_ok = true;
    } else {
      apply_line(line);
    }
    begin = nl + 1;
  }
  seg.scanned += begin;
}

void SegmentStore::append_locked(Segment& seg, const std::string& line) {
  if (seg.rewrite) {
    if (::ftruncate(seg.fd, 0) != 0) return;
    seg.rewrite = false;
    seg.scanned = 0;
    seg.header_ok = false;
  }
  // A writer killed mid-record left a partial final line: cut it, so our
  // record starts a fresh line and the fragment never loads as a record.
  // Scans consume whole lines only, so `scanned` never passes the cut.
  const std::int64_t end = cut_torn_tail(seg.fd);
  if (end < 0) return;
  std::string out;
  if (end == 0) {
    out = std::string(header_) + "\n";
    seg.header_ok = true;
  }
  out += line;
  // Disk full etc. degrades to in-memory only; a partial write leaves a
  // torn line that the next append cuts. Our own bytes need no re-parse:
  // account them as scanned if we were current with the file (the common
  // case: we appended under the lock right after a scan).
  if (write_all(seg.fd, out) &&
      static_cast<std::uint64_t>(end) == seg.scanned) {
    seg.scanned += out.size();
  }
}

void SegmentStore::append(std::uint64_t key, const std::string& line) {
  Segment& seg = segments_[segment_index(key)];
  if (!open(seg)) return;  // unopenable file: in-memory only
  ::flock(seg.fd, LOCK_EX);
  append_locked(seg, line);
  ::flock(seg.fd, LOCK_UN);
}

bool SegmentStore::lookup_point(std::uint64_t key, CachedPoint& out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = points_.find(key);
  if (it == points_.end()) return false;
  out = it->second;
  return true;
}

bool SegmentStore::lookup_baseline(std::uint64_t key, double& goodput) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = baselines_.find(key);
  if (it == baselines_.end()) return false;
  goodput = it->second;
  return true;
}

void SegmentStore::store_point(std::uint64_t key, const CachedPoint& value) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!points_.emplace(key, value).second) return;  // already recorded
  leases_.erase(key);
  append(key, format_point_record(key, value));
}

void SegmentStore::store_baseline(std::uint64_t key, double goodput) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!baselines_.emplace(key, goodput).second) return;
  leases_.erase(key);
  append(key, format_baseline_record(key, goodput));
}

std::size_t SegmentStore::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return points_.size() + baselines_.size();
}

PointCache::PointCache(std::string path)
    : SegmentStore({std::move(path)}, "pdos-point-cache-v1") {}

}  // namespace pdos::sweep
