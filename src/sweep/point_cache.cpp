#include "sweep/point_cache.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <limits>

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

/// The value of each lowercase hex digit; 16 marks every other byte.
constexpr std::array<std::uint8_t, 256> kHexValue = [] {
  std::array<std::uint8_t, 256> table{};
  table.fill(16);
  for (int i = 0; i < 16; ++i) {
    table["0123456789abcdef"[i]] = static_cast<std::uint8_t>(i);
  }
  return table;
}();

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
    // Branch-free: a table load and a shift per digit, and one check.
    std::uint64_t value = 0;
    unsigned bad = 0;
    for (int i = 0; i < 16; ++i) {
      const unsigned digit = kHexValue[static_cast<unsigned char>(p_[i])];
      bad |= digit;
      value = value << 4 | (digit & 0xf);
    }
    p_ += 16;
    ok_ = bad < 16;
    v = value;
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

void ResultIndex::reserve(std::size_t results) {
  if (results == 0) return;
  std::size_t slots = 16;
  while (slots * 3 < (size() + results) * 4) slots *= 2;
  if (slots > slots_.size()) rehash(slots);
  // Nearly every result is a point. Their array at least doubles when it
  // grows, so a store opened a segment at a time, or refreshed a few lines
  // at a time, copies each point O(1) times.
  const std::size_t points = points_.size() + results;
  if (points > points_.capacity()) {
    points_.reserve(std::max(points, 2 * points_.capacity()));
  }
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

/// Cut a torn final line (a writer killed mid-record) back to the file's
/// last '\n', or to empty when it has none, so the next record starts a
/// fresh line and the fragment can never load as a record. `size` is the
/// file's size. Returns the resulting size, or -1 on an I/O error. Call it
/// under the file's exclusive flock(2).
std::int64_t cut_torn_tail(int fd, std::int64_t size) {
  off_t end = size;
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
  if (end < size && ::ftruncate(fd, end) != 0) return -1;
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
  for (std::size_t i = 0; i < paths.size(); ++i) {
    segments_[i].path = std::move(paths[i]);
    // Load only files that already exist; the rest are created by the
    // first append that lands in them.
    struct stat st;
    if (::stat(segments_[i].path.c_str(), &st) == 0 && open(segments_[i])) {
      scan(segments_[i]);
    }
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

bool SegmentStore::still_foreign(const Segment& seg) const {
  const std::string_view header = header_;
  std::string first(header.size() + 1, '\0');
  return ::pread(seg.fd, first.data(), first.size(), 0) !=
             static_cast<ssize_t>(first.size()) ||
         first.back() != '\n' || first.compare(0, header.size(), header) != 0;
}

void SegmentStore::scan(Segment& seg) {
  if (seg.rewrite) {
    // A foreign file is ignored until it is truncated, by us or by a peer
    // that opened it foreign too; the peer's rewrite loads from the start.
    if (still_foreign(seg)) return;
    seg.rewrite = false;
  }
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
  // unconsumed and is re-read — whole — on a later scan. Result records are
  // set aside, so the index grows once for all of them; lease records wait
  // until every result in these bytes is in, and then apply only to keys
  // still without one.
  std::vector<std::string_view> result_lines;
  std::vector<std::string_view> lease_lines;
  std::size_t begin = 0;
  while (true) {
    const std::size_t nl = tail.find('\n', begin);
    if (nl == std::string::npos) break;
    const std::string_view line(tail.data() + begin, nl - begin);
    if (seg.scanned == 0 && begin == 0 && !seg.header_ok) {
      if (line != header_) {
        // Foreign file or an older record layout: load nothing from it and
        // truncate it on the first append (records appended after a bad
        // header would be invisible to the next load).
        seg.rewrite = true;
        return;
      }
      seg.header_ok = true;
    } else if (line.starts_with('L') || line.starts_with('R')) {
      lease_lines.push_back(line);
    } else {
      result_lines.push_back(line);
    }
    begin = nl + 1;
  }
  results_.reserve(result_lines.size());
  for (const std::string_view line : result_lines) apply_result(line);
  for (const std::string_view line : lease_lines) apply_lease(line);
  seg.scanned += begin;
}

void SegmentStore::append_locked(Segment& seg, const std::string& line) {
  if (seg.rewrite) {
    // Truncate a foreign file, unless a peer's first append already did:
    // truncating again would erase the peer's records. Either way the next
    // scan reads the file from its header.
    if (still_foreign(seg) && ::ftruncate(seg.fd, 0) != 0) return;
    seg.rewrite = false;
    seg.scanned = 0;
    seg.header_ok = false;
  }
  struct stat st;
  if (::fstat(seg.fd, &st) != 0) return;
  // A file that ends where this store's last scan or write of it ended ends
  // in a whole line. Any other may end in a partial line that a writer
  // killed mid-record left: cut it, so our record starts a fresh line and
  // the fragment never loads as a record. Scans consume whole lines only,
  // so `scanned` never passes the cut.
  std::int64_t end = st.st_size;
  if (static_cast<std::uint64_t>(end) != seg.scanned) {
    end = cut_torn_tail(seg.fd, end);
    if (end < 0) return;
  }
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
  const auto [slot, added] = results_.emplace<CachedPoint>(key);
  if (!added) return;  // already recorded
  *slot = value;
  leases_.erase(key);
  append(key, format_point_record(key, value));
}

void SegmentStore::store_baseline(std::uint64_t key, double goodput) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto [slot, added] = results_.emplace<double>(key);
  if (!added) return;
  *slot = goodput;
  leases_.erase(key);
  append(key, format_baseline_record(key, goodput));
}

std::size_t SegmentStore::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return results_.size();
}

PointCache::PointCache(std::string path)
    : SegmentStore({std::move(path)}, "pdos-point-cache-v2") {}

}  // namespace pdos::sweep
