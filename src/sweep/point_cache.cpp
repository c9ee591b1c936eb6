#include "sweep/point_cache.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <limits>
#include <system_error>

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

/// An aggregate with N fields accepts at most N brace initializers, so the
/// largest count T{AnyField...} compiles with is T's field count.
struct AnyField {
  template <typename T>
  operator T() const;
};

template <typename T, typename... Fields>
constexpr std::size_t field_count() {
  if constexpr (requires { T{Fields{}..., AnyField{}}; }) {
    return field_count<T, Fields..., AnyField>();
  } else {
    return sizeof...(Fields);
  }
}

// A field missing from hash_scenario silently serves stale results from
// every store. A new field must be hashed below (or made a named constant)
// before these counts are updated. `seed` is hashed per point, not here.
static_assert(field_count<ScenarioConfig>() == 13,
              "ScenarioConfig changed: hash the new field in hash_scenario");
static_assert(field_count<TcpSenderConfig>() == 9,
              "TcpSenderConfig changed: hash the new field in hash_scenario");

/// Every ScenarioConfig field that shapes a run (including the TCP stack);
/// field order is part of the schema. Hashed into both sweep keys below.
void hash_scenario(Fnv1a& h, const ScenarioConfig& c) {
  h.i64(c.num_flows).f64(c.bottleneck).f64(c.access);
  h.i64(static_cast<std::int64_t>(c.rtts.size()));
  for (double rtt : c.rtts) h.f64(rtt);
  h.i64(static_cast<std::int64_t>(c.queue));
  h.i64(static_cast<std::int64_t>(c.buffer_packets));

  const TcpSenderConfig& t = c.tcp;
  h.i64(static_cast<std::int64_t>(t.variant));
  h.f64(t.aimd.a).f64(t.aimd.b).i64(t.aimd.d);
  h.i64(t.mss);
  h.f64(t.initial_cwnd).f64(t.initial_ssthresh).f64(t.max_cwnd);
  h.f64(t.rto_min).f64(t.initial_rto).f64(t.rto_jitter);

  h.i64(c.attack_packet_bytes).i64(c.num_attackers);
  h.f64(c.attacker_phase_spread);
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
/// windows. Depends on `point` only through `flows` (see sweep_keys).
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

TaskKeys sweep_keys(const SweepSpec& spec, const SweepTasks& tasks) {
  // The FNV states at the seed, per flow count. `enumerate()` emits flows
  // outermost, so the newest prefix is nearly always the one asked for.
  struct Prefix {
    int flows = 0;
    std::uint64_t point = 0;
    std::uint64_t baseline = 0;
  };
  std::vector<Prefix> prefixes;
  const auto prefix = [&](int flows) {
    for (auto it = prefixes.rbegin(); it != prefixes.rend(); ++it) {
      if (it->flows == flows) return *it;
    }
    PointSpec probe;
    probe.flows = flows;
    return prefixes.emplace_back(Prefix{flows, key_prefix("point", spec, probe),
                                        key_prefix("baseline", spec, probe)});
  };

  TaskKeys keys;
  keys.points.reserve(tasks.rows.size());
  for (const PointResult& row : tasks.rows) {
    keys.points.push_back(
        finish_point_key(prefix(row.point.flows).point, row.point, row.seed));
  }
  keys.baselines.reserve(tasks.baselines.size());
  for (const std::size_t first : tasks.baselines) {
    const PointResult& row = tasks.rows[first];
    keys.baselines.push_back(finish_baseline_key(
        prefix(row.point.flows).baseline, row.point, row.seed));
  }
  return keys;
}

namespace {

/// A record being written: the tag, then each field after one space.
class RecordWriter {
 public:
  explicit RecordWriter(char tag) { *p_++ = tag; }

  /// 16 lowercase hex digits: a key or owner.
  RecordWriter& hex(std::uint64_t v) {
    static constexpr char kDigits[] = "0123456789abcdef";
    *p_++ = ' ';
    for (int i = 15; i >= 0; --i, v >>= 4) p_[i] = kDigits[v & 0xf];
    p_ += 16;
    return *this;
  }
  /// A double as the 16 hex digits of its IEEE-754 bits.
  RecordWriter& f64(double v) { return hex(std::bit_cast<std::uint64_t>(v)); }
  /// An unsigned decimal count.
  RecordWriter& u64(std::uint64_t v) {
    *p_++ = ' ';
    p_ = std::to_chars(p_, std::end(buf_), v).ptr;
    return *this;
  }
  std::string line() {
    *p_++ = '\n';
    return std::string(buf_, p_);
  }

 private:
  // The longest record: a point's tag, 10 hex fields, 5 counts and '\n'.
  char buf_[1 + 10 * 17 + 5 * 21 + 1];
  char* p_ = buf_;
};

}  // namespace

std::string format_point_record(std::uint64_t key, const CachedPoint& v) {
  RecordWriter out('P');
  out.hex(key).f64(v.c_psi).f64(v.analytic_degradation).f64(v.analytic_gain);
  out.u64(v.shrew ? 1 : 0).f64(v.baseline_goodput).f64(v.goodput);
  out.f64(v.measured_degradation).f64(v.measured_gain).f64(v.utilization);
  out.f64(v.fairness).u64(v.timeouts).u64(v.fast_recoveries);
  out.u64(v.attack_packets).u64(v.events);
  return out.line();
}

std::string format_baseline_record(std::uint64_t key, double goodput) {
  return RecordWriter('B').hex(key).f64(goodput).line();
}

std::string format_lease_record(std::uint64_t key, std::uint64_t owner,
                                double expiry) {
  return RecordWriter('L').hex(key).hex(owner).f64(expiry).line();
}

std::string format_release_record(std::uint64_t key, std::uint64_t owner) {
  return RecordWriter('R').hex(key).hex(owner).line();
}

namespace {

/// The 8 lowercase hex digits at `p`, the first one most significant, in
/// `value`; false when any of the 8 bytes is not one of [0-9a-f]. Branch
/// free: the bytes are checked and converted side by side, as the lanes of
/// one 64-bit word.
inline bool decode_hex8(const char* p, std::uint32_t& value) {
  constexpr std::uint64_t kOnes = 0x0101010101010101ULL;
  constexpr std::uint64_t kHigh = kOnes * 0x80;
  std::uint64_t x;
  std::memcpy(&x, p, sizeof(x));
  if constexpr (std::endian::native == std::endian::big) {
    x = __builtin_bswap64(x);  // lane i holds the i-th byte
  }
  // Adding 0x80 - c to a byte below 0x80 sets its high bit iff the byte is
  // at least c, and carries into no other lane. A byte with its high bit
  // set is no digit; `~x` drops it below.
  const std::uint64_t low = x & ~kHigh;
  const auto at_least = [low](std::uint64_t c) {
    return (low + kOnes * (0x80 - c)) & kHigh;
  };
  const std::uint64_t digit = at_least('0') & ~at_least('9' + 1);
  const std::uint64_t letter = at_least('a') & ~at_least('f' + 1);
  // A digit's value is its low nibble; a letter's (bit 6 set) is 9 more.
  const std::uint64_t nibbles = (x & kOnes * 0xf) + 9 * (x >> 6 & kOnes);
  // Gather pairs of nibbles into bytes, pairs of bytes into 16-bit halves,
  // and the two halves into the value.
  std::uint64_t v = ((nibbles << 4) + (nibbles >> 8)) & 0x00ff00ff00ff00ffULL;
  v = ((v << 8) + (v >> 16)) & 0x0000ffff0000ffffULL;
  value = static_cast<std::uint32_t>((v << 16) + (v >> 32));
  return ((digit | letter) & ~x) == kHigh;
}

/// The 16 lowercase hex digits at `p`, as RecordWriter::hex writes them.
inline bool decode_hex16(const char* p, std::uint64_t& value) {
  std::uint32_t high = 0;
  std::uint32_t low = 0;
  // `&`, not `&&`: both halves decode, with no branch between them.
  const bool ok = decode_hex8(p, high) & decode_hex8(p + 8, low);
  value = std::uint64_t{high} << 32 | low;
  return ok;
}

/// Reads a record's fields left to right, in the writers' grammar (see
/// point_cache.hpp). A failed field fails every later one, so a parser
/// checks `done()` once at the end.
class FieldReader {
 public:
  explicit FieldReader(std::string_view text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  /// Exactly 16 lowercase hex digits, as RecordWriter::hex writes them.
  FieldReader& hex(std::uint64_t& v) {
    if (!separator()) return *this;
    if (end_ - p_ < 16) {
      ok_ = false;
      return *this;
    }
    ok_ = decode_hex16(p_, v);
    p_ += 16;
    return *this;
  }
  FieldReader& f64(double& v) {
    std::uint64_t bits = 0;
    hex(bits);
    v = std::bit_cast<double>(bits);
    return *this;
  }
  /// An unsigned decimal count, as RecordWriter::u64 writes it: no leading
  /// zero unless the count is 0.
  FieldReader& u64(std::uint64_t& v) {
    if (!separator()) return *this;
    // from_chars takes no leading space, '+' or '-' for an unsigned value.
    const char* first = p_;
    const std::from_chars_result r = std::from_chars(p_, end_, v);
    p_ = r.ptr;
    ok_ = r.ec == std::errc() && (*first != '0' || p_ - first == 1);
    return *this;
  }
  /// Every field parsed and nothing follows the last one.
  bool done() const { return ok_ && p_ == end_; }

 private:
  /// One space before every field but the first.
  bool separator() {
    if (ok_ && !first_) ok_ = p_ != end_ && *p_++ == ' ';
    first_ = false;
    return ok_;
  }

  const char* p_;
  const char* end_;
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
  return in.done() && shrew <= 1;
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

std::size_t ResultIndex::home(std::uint64_t key, std::size_t slots) {
  // Fibonacci hashing: the top bits of key * 2^64/phi. Store keys are FNV
  // digests already; the multiply also spreads keys made by hand (small
  // integers, or one segment's prefix over a counter).
  return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >>
                                  (64 - std::countr_zero(slots)));
}

std::size_t ResultIndex::probe(std::uint64_t key, Kind kind) const {
  const std::size_t mask = slots_.size() - 1;
  // The table is never full, so every probe ends at an empty slot.
  for (std::size_t i = home(key, slots_.size());; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.kind == Kind::kEmpty || (slot.key == key && slot.kind == kind)) {
      return i;
    }
  }
}

void ResultIndex::rehash(std::size_t slots) {
  std::vector<Slot> old(slots);
  old.swap(slots_);
  const std::size_t mask = slots - 1;
  for (const Slot& slot : old) {
    if (slot.kind == Kind::kEmpty) continue;
    std::size_t i = home(slot.key, slots);
    while (slots_[i].kind != Kind::kEmpty) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

void ResultIndex::reserve_points(std::size_t points) {
  points_.reserve(points_.size() + points);
}

template <typename V>
std::pair<V*, bool> ResultIndex::emplace(std::uint64_t key) {
  if ((size() + 1) * 4 > slots_.size() * 3) {
    rehash(std::max<std::size_t>(16, slots_.size() * 2));
  }
  std::vector<V>& dense = values<V>(*this);
  Slot& slot = slots_[probe(key, kind_of<V>())];
  if (slot.kind != Kind::kEmpty) return {&dense[slot.at], false};
  PDOS_CHECK_MSG(dense.size() < std::numeric_limits<std::uint32_t>::max(),
                 "ResultIndex: more results than a slot can address");
  slot = Slot{key, kind_of<V>(), static_cast<std::uint32_t>(dense.size())};
  return {&dense.emplace_back(), true};
}

template std::pair<CachedPoint*, bool> ResultIndex::emplace<CachedPoint>(
    std::uint64_t key);
template std::pair<double*, bool> ResultIndex::emplace<double>(
    std::uint64_t key);

namespace {

/// `path`, a store's directory or one of its files, cannot be the store's.
[[noreturn]] void refuse(const std::string& path, const std::string& why) {
  throw ParameterError("cannot use " + path + " as a result store: " + why);
}

}  // namespace

std::string_view ReadBuffer::read(const std::string& path, int fd,
                                  std::uint64_t from, std::size_t n) {
  if (n > size_) {
    size_ = std::bit_ceil(n);
    bytes_ = std::make_unique_for_overwrite<char[]>(size_);
  }
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::pread(fd, bytes_.get() + got, n - got,
                              static_cast<off_t>(from + got));
    if (r < 0) {
      throw std::system_error(errno, std::generic_category(),
                              "result store " + path + ": read");
    }
    if (r == 0) break;
    got += static_cast<std::size_t>(r);
  }
  return {bytes_.get(), got};
}

SegmentStore::Segment::~Segment() {
  if (fd >= 0) ::close(fd);
}

SegmentStore::FileLock::FileLock(const Segment& seg, int operation)
    : fd(seg.fd) {
  ::flock(fd, operation);
}

SegmentStore::FileLock::~FileLock() { ::flock(fd, LOCK_UN); }

void SegmentStore::fail(const Segment& seg, const char* call) {
  throw std::system_error(errno, std::generic_category(),
                          "result store " + seg.path + ": " + call);
}

SegmentStore::SegmentStore(const std::string& dir,
                           std::vector<std::string> paths, const char* header)
    : header_(std::string(header) + "\n"), segments_(paths.size()) {
  // Missing files are created by the first append that lands in them, so
  // the directory must take new files now, not after points have run.
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) refuse(dir, "cannot create the directory: " + ec.message());
  if (::access(dir.c_str(), W_OK | X_OK) != 0) {
    refuse(dir, std::string("the directory is not writable: ") +
                    std::strerror(errno));
  }
  // The point array is reserved once for the most points the existing
  // files' bytes can hold, so loading them never moves it.
  std::uint64_t bytes = 0;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    Segment& seg = segments_[i];
    seg.path = std::move(paths[i]);
    if (!open(seg, /*create=*/false)) continue;
    struct stat st;
    if (::fstat(seg.fd, &st) != 0) fail(seg, "fstat");
    bytes += static_cast<std::uint64_t>(st.st_size);
  }
  // The shortest point record: every count a single digit.
  static const std::size_t kShortestPoint =
      format_point_record(0, CachedPoint{}).size();
  results_.reserve_points(static_cast<std::size_t>(bytes / kShortestPoint));
  ReadBuffer buffer;  // one file's bytes at a time, freed when the open ends
  for (Segment& seg : segments_) {
    if (seg.fd >= 0) scan(seg, buffer);
  }
}

bool SegmentStore::open(Segment& seg, bool create) {
  if (seg.fd >= 0) return true;
  // O_RDWR (not O_WRONLY): scans pread(2) through the fd the appends go
  // through, so there is exactly one handle to lock.
  seg.fd = ::open(seg.path.c_str(),
                  O_RDWR | O_APPEND | O_CLOEXEC | (create ? O_CREAT : 0),
                  0644);
  if (seg.fd >= 0) return true;
  if (!create && errno == ENOENT) return false;
  refuse(seg.path, std::strerror(errno));
}

void SegmentStore::check_head(const Segment& seg,
                              std::string_view head) const {
  const std::string_view header = header_;
  if (head.starts_with(header) || header.starts_with(head)) return;
  // Another layout's header matches this one's up to its version number.
  const std::string_view first = head.substr(0, head.find('\n'));
  if (first.starts_with(header.substr(0, header.rfind('v') + 1))) {
    refuse(seg.path, "it holds another record layout (" +
                         std::string(first.substr(0, 40)) +
                         "); delete it to simulate its points again");
  }
  refuse(seg.path, "its first line is not \"" +
                       std::string(header.substr(0, header.size() - 1)) +
                       "\", so this store did not write it");
}

void SegmentStore::apply_result(std::string_view line) {
  if (line.size() < 2 || line[1] != ' ') return;
  const std::string_view fields = line.substr(2);
  std::uint64_t key = 0;
  if (line[0] == 'P') {
    CachedPoint value;
    if (!parse_point_record(fields, key, value)) return;
    *results_.emplace<CachedPoint>(key).first = value;
  } else if (line[0] == 'B') {
    double goodput = 0.0;
    if (!parse_baseline_record(fields, key, goodput)) return;
    *results_.emplace<double>(key).first = goodput;
  } else {
    return;  // unknown record kinds are skipped, not fatal
  }
  leases_.erase(key);  // a result supersedes any claim
}

void SegmentStore::apply_lease(std::string_view line) {
  if (line.size() < 2 || line[1] != ' ') return;
  const std::string_view fields = line.substr(2);
  std::uint64_t key = 0;
  std::uint64_t owner = 0;
  if (line[0] == 'L') {
    double expiry = 0.0;
    // Last lease wins: a re-claim after expiry replaces the dead one.
    // Never shadow a result.
    if (parse_lease_record(fields, key, owner, expiry) &&
        !results_.contains(key)) {
      leases_[key] = Lease{owner, expiry};
    }
  } else if (parse_release_record(fields, key, owner)) {  // an `R` line
    const auto it = leases_.find(key);
    if (it != leases_.end() && it->second.owner == owner) leases_.erase(it);
  }
}

std::uint64_t SegmentStore::scan(Segment& seg, ReadBuffer& buffer) {
  struct stat st;
  if (::fstat(seg.fd, &st) != 0) fail(seg, "fstat");
  const auto size = static_cast<std::uint64_t>(st.st_size);
  if (size < seg.scanned) {
    // The file shrank under us (a compaction pass rewrote it): rescan from
    // the start. Result records are idempotent facts, so re-applying them
    // is harmless; leases age out by TTL either way.
    seg.scanned = 0;
  }
  if (size == seg.scanned) return size;

  // Consume complete lines only; a torn tail (no final newline yet) stays
  // unconsumed and is re-read — whole — on a later scan.
  const std::string_view bytes =
      buffer.read(seg.path, seg.fd, seg.scanned,
                  static_cast<std::size_t>(size - seg.scanned));
  std::string_view lines = bytes.substr(0, bytes.rfind('\n') + 1);
  const std::uint64_t end = seg.scanned + lines.size();
  if (seg.scanned == 0) {
    check_head(seg, bytes);
    if (!lines.empty()) lines.remove_prefix(header_.size());
  }
  // Result records apply as they are read; lease records wait until every
  // result in these bytes is in, and then apply only to keys still without
  // one.
  std::vector<std::string_view> lease_lines;
  for (std::size_t at = 0; at < lines.size();) {
    const std::size_t nl = lines.find('\n', at);
    const std::string_view line = lines.substr(at, nl - at);
    if (line.starts_with('L') || line.starts_with('R')) {
      lease_lines.push_back(line);
    } else {
      apply_result(line);
    }
    at = nl + 1;
  }
  for (const std::string_view line : lease_lines) apply_lease(line);
  seg.scanned = end;
  return size;
}

void SegmentStore::write_all(const Segment& seg, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(seg.fd, bytes.data(), bytes.size());
    if (n <= 0) fail(seg, "write");
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
}

void SegmentStore::append_locked(Segment& seg, const std::string& line) {
  // Fold in what other processes appended since our last scan or write (a
  // file never scanned has its head checked here). Scans consume whole
  // lines only, so anything past `scanned` is a partial line that a writer
  // killed mid-record left: cut it, so our record starts a fresh line and
  // the fragment never loads as a record.
  ReadBuffer buffer;
  const std::uint64_t size = scan(seg, buffer);
  if (size > seg.scanned &&
      ::ftruncate(seg.fd, static_cast<off_t>(seg.scanned)) != 0) {
    fail(seg, "ftruncate");
  }
  std::string out;
  if (seg.scanned == 0) out = header_;
  out += line;
  // A partial write leaves a torn line that the next append cuts.
  write_all(seg, out);
  seg.scanned += out.size();
}

void SegmentStore::append(std::uint64_t key, const std::string& line) {
  Segment& seg = segments_[segment_index(key)];
  open(seg, /*create=*/true);
  const FileLock lock(seg, LOCK_EX);
  append_locked(seg, line);
}

bool SegmentStore::lookup_point(std::uint64_t key, CachedPoint& out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const CachedPoint* found = results_.find<CachedPoint>(key);
  if (found == nullptr) return false;
  out = *found;
  return true;
}

bool SegmentStore::lookup_baseline(std::uint64_t key, double& goodput) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const double* found = results_.find<double>(key);
  if (found == nullptr) return false;
  goodput = *found;
  return true;
}

void SegmentStore::store_point(std::uint64_t key, const CachedPoint& value) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (results_.find<CachedPoint>(key) != nullptr) return;  // already recorded
  // Into the index only once it is in the file: a result the store could
  // not write is not in the store.
  append(key, format_point_record(key, value));
  *results_.emplace<CachedPoint>(key).first = value;
  leases_.erase(key);
}

void SegmentStore::store_baseline(std::uint64_t key, double goodput) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (results_.find<double>(key) != nullptr) return;
  append(key, format_baseline_record(key, goodput));
  *results_.emplace<double>(key).first = goodput;
  leases_.erase(key);
}

std::size_t SegmentStore::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return results_.size();
}

namespace {

/// The directory holding the file at `path`.
std::string parent_dir(const std::string& path) {
  const std::string parent = std::filesystem::path(path).parent_path();
  return parent.empty() ? "." : parent;
}

}  // namespace

PointCache::PointCache(const std::string& path)
    : SegmentStore(parent_dir(path), {path}, "pdos-point-cache-v2") {}

}  // namespace pdos::sweep
