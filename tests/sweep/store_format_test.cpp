// The result stores' record grammar, index and keys: format/parse round
// trips, rejection of everything the writers never produce, torn records
// and older layouts in both stores, lease records applied after results,
// the flat result index, and SweepKeys against the free key functions.
#include <gtest/gtest.h>

#include <cctype>
#include <cfloat>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <unordered_set>
#include <vector>

#include <stdlib.h>

#include "sweep/campaign_store.hpp"
#include "sweep/point_cache.hpp"
#include "sweep/sweep.hpp"

namespace pdos::sweep {
namespace {

class TempDir {
 public:
  TempDir() {
    char name[] = "/tmp/pdos_store_format_test_XXXXXX";
    EXPECT_NE(mkdtemp(name), nullptr);
    path_ = name;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::uint64_t bits_of(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double double_of(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// Bit-exact, NaN payloads and signs included.
void expect_same_double(double got, double want) {
  EXPECT_EQ(bits_of(got), bits_of(want)) << got << " vs " << want;
}

/// Doubles drawn from the corners a text encoding has to get right, or
/// random bit patterns (a quarter of them squeezed into the subnormal
/// range, an eighth into NaNs with random payloads).
double draw_double(std::mt19937_64& rng) {
  static const double kCorners[] = {
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      DBL_MIN,
      DBL_MAX,
      -DBL_MAX,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::signaling_NaN(),
      double_of(0x7ff0000000000001ULL),  // the smallest signaling payload
      double_of(0xfff8deadbeef0001ULL),  // a negative quiet NaN's payload
  };
  const std::uint64_t pick = rng() % 32;
  if (pick < std::size(kCorners)) return kCorners[pick];
  std::uint64_t bits = rng();
  if (pick % 4 == 0) bits &= 0x800fffffffffffffULL;
  if (pick % 8 == 1) bits |= 0x7ff0000000000001ULL;
  return double_of(bits);
}

std::uint64_t draw_count(std::mt19937_64& rng) {
  switch (rng() % 4) {
    case 0: return 0;
    case 1: return std::numeric_limits<std::uint64_t>::max();
    default: return rng() >> (rng() % 64);
  }
}

/// The text after the "X " tag, without the '\n'.
std::string fields_of(const std::string& record) {
  EXPECT_GE(record.size(), 3u);
  EXPECT_EQ(record[1], ' ');
  EXPECT_EQ(record.back(), '\n');
  EXPECT_EQ(record.find('\n'), record.size() - 1);
  return record.substr(2, record.size() - 3);
}

TEST(RecordGrammarTest, RandomBitPatternsRoundTripExactly) {
  std::mt19937_64 rng(20050628);
  for (int i = 0; i < 20000; ++i) {
    CachedPoint in;
    in.c_psi = draw_double(rng);
    in.analytic_degradation = draw_double(rng);
    in.analytic_gain = draw_double(rng);
    in.shrew = (rng() & 1) != 0;
    in.baseline_goodput = draw_double(rng);
    in.goodput = draw_double(rng);
    in.measured_degradation = draw_double(rng);
    in.measured_gain = draw_double(rng);
    in.utilization = draw_double(rng);
    in.fairness = draw_double(rng);
    in.timeouts = draw_count(rng);
    in.fast_recoveries = draw_count(rng);
    in.attack_packets = draw_count(rng);
    in.events = draw_count(rng);
    const std::uint64_t key = draw_count(rng);

    const std::string line = format_point_record(key, in);
    std::uint64_t got_key = 0;
    CachedPoint out;
    ASSERT_TRUE(parse_point_record(fields_of(line), got_key, out)) << line;
    EXPECT_EQ(got_key, key);
    expect_same_double(out.c_psi, in.c_psi);
    expect_same_double(out.analytic_degradation, in.analytic_degradation);
    expect_same_double(out.analytic_gain, in.analytic_gain);
    EXPECT_EQ(out.shrew, in.shrew);
    expect_same_double(out.baseline_goodput, in.baseline_goodput);
    expect_same_double(out.goodput, in.goodput);
    expect_same_double(out.measured_degradation, in.measured_degradation);
    expect_same_double(out.measured_gain, in.measured_gain);
    expect_same_double(out.utilization, in.utilization);
    expect_same_double(out.fairness, in.fairness);
    EXPECT_EQ(out.timeouts, in.timeouts);
    EXPECT_EQ(out.fast_recoveries, in.fast_recoveries);
    EXPECT_EQ(out.attack_packets, in.attack_packets);
    EXPECT_EQ(out.events, in.events);

    const double goodput = draw_double(rng);
    double got_goodput = 0.0;
    ASSERT_TRUE(parse_baseline_record(
        fields_of(format_baseline_record(key, goodput)), got_key,
        got_goodput));
    EXPECT_EQ(got_key, key);
    expect_same_double(got_goodput, goodput);

    const std::uint64_t owner = draw_count(rng);
    std::uint64_t got_owner = 0;
    double got_expiry = 0.0;
    ASSERT_TRUE(parse_lease_record(
        fields_of(format_lease_record(key, owner, goodput)), got_key,
        got_owner, got_expiry));
    EXPECT_EQ(got_key, key);
    EXPECT_EQ(got_owner, owner);
    expect_same_double(got_expiry, goodput);

    ASSERT_TRUE(parse_release_record(
        fields_of(format_release_record(key, owner)), got_key, got_owner));
    EXPECT_EQ(got_key, key);
    EXPECT_EQ(got_owner, owner);
    if (HasFailure()) break;
  }
}

/// One record kind: its writer's fields (k = 16-hex key or owner,
/// d = a double's 16-hex bits, u = unsigned count, f = a 0/1 flag) and its
/// parser.
struct Grammar {
  const char* name;
  std::vector<std::string> fields;
  std::string types;
  std::function<bool(std::string_view)> parse;
};

std::vector<Grammar> grammars() {
  const auto point = [](std::string_view text) {
    std::uint64_t key;
    CachedPoint v;
    return parse_point_record(text, key, v);
  };
  const auto baseline = [](std::string_view text) {
    std::uint64_t key;
    double goodput;
    return parse_baseline_record(text, key, goodput);
  };
  const auto lease = [](std::string_view text) {
    std::uint64_t key, owner;
    double expiry;
    return parse_lease_record(text, key, owner, expiry);
  };
  const auto release = [](std::string_view text) {
    std::uint64_t key, owner;
    return parse_release_record(text, key, owner);
  };
  // The doubles are 0.12345678901234568, 0.25, -1.5e-07,
  // 14095466.666666666, 7047733.333333333, 0.5, inf, 0.47, 0.93 and the
  // expiry 1760649600.25. Every hex field has a letter, so its uppercase
  // spelling differs from it.
  return {
      {"P",
       {"00000000000abc12", "3fbf9add3746f65f", "3fd0000000000000",
        "be8421f5f40d8376", "1", "416ae28d55555555", "415ae28d55555555",
        "3fe0000000000000", "7ff0000000000000", "3fde147ae147ae14",
        "3fedc28f5c28f5c3", "321", "12", "98765", "1234567890123"},
       "kdddfdddddduuuu",
       point},
      {"B", {"f00000000000abc1", "416ae28d55555555"}, "kd", baseline},
      {"L", {"3000000000000a07", "00012345deadbeef", "41da3c5860100000"},
       "kkd", lease},
      {"R", {"3000000000000a07", "00012345deadbeef"}, "kk", release},
  };
}

std::string join(const std::vector<std::string>& fields) {
  std::string out;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += ' ';
    out += fields[i];
  }
  return out;
}

TEST(RecordGrammarTest, RejectsAnythingButTheWritersGrammar) {
  for (const Grammar& g : grammars()) {
    SCOPED_TRACE(g.name);
    const std::string valid = join(g.fields);
    ASSERT_TRUE(g.parse(valid)) << valid;

    std::vector<std::string> bad = {
        "",
        " " + valid,
        valid + " ",
        valid + "x",
        valid + "\r",
        valid + " 0",
    };
    for (std::size_t sep = valid.find(' '); sep != std::string::npos;
         sep = valid.find(' ', sep + 1)) {
      bad.push_back(valid.substr(0, sep) + " " + valid.substr(sep));
      std::string tab = valid;
      tab[sep] = '\t';
      bad.push_back(tab);
    }
    for (std::size_t i = 0; i < g.fields.size(); ++i) {
      std::vector<std::string> missing = g.fields;
      missing.erase(missing.begin() + static_cast<std::ptrdiff_t>(i));
      bad.push_back(join(missing));

      const auto with = [&](const std::string& field) {
        std::vector<std::string> changed = g.fields;
        changed[i] = field;
        return join(changed);
      };
      bad.push_back(with("+" + g.fields[i]));
      bad.push_back(with(""));
      bad.push_back(with("1.5e"));
      bad.push_back(with("1e400"));
      bad.push_back(with("0x1p3"));
      if (g.types[i] == 'u' || g.types[i] == 'f') {
        bad.push_back(with("-1"));
        bad.push_back(with("0" + g.fields[i]));  // a leading zero
        bad.push_back(with("00"));
        if (g.types[i] == 'f') bad.push_back(with("7"));
        continue;
      }
      bad.push_back(with("0x" + g.fields[i].substr(2)));
      bad.push_back(with(g.fields[i].substr(1)));  // 15 digits
      bad.push_back(with("0" + g.fields[i]));      // 17 digits
      bad.push_back(with("-" + g.fields[i].substr(1)));
      std::string upper = g.fields[i];
      for (char& c : upper) c = static_cast<char>(std::toupper(c));
      ASSERT_NE(upper, g.fields[i]);
      bad.push_back(with(upper));
      upper = g.fields[i];
      upper.back() = 'F';  // one uppercase digit
      bad.push_back(with(upper));
      // A double written the old way, in decimal: %.17g's digits, and one
      // that happens to be exactly 16 characters long.
      bad.push_back(with("0.25"));
      bad.push_back(with("14095466.666666666"));
      bad.push_back(with("0.12345678901234"));
    }
    for (const std::string& text : bad) {
      EXPECT_FALSE(g.parse(text)) << "accepted \"" << text << "\"";
    }
  }
}

CachedPoint sample_point(double salt = 0.0) {
  CachedPoint p;
  p.c_psi = 0.123456789012345678 + salt;
  p.analytic_degradation = 0.25;
  p.analytic_gain = 0.5;
  p.shrew = true;
  p.baseline_goodput = 14095466.666666666;
  p.goodput = 7047733.3333333331 + salt;
  p.measured_degradation = 0.5;
  p.measured_gain = 0.25;
  p.utilization = 0.47;
  p.fairness = 0.93;
  p.timeouts = 321;
  p.fast_recoveries = 12;
  p.attack_packets = 98765;
  p.events = 1234567890123ull;
  return p;
}

// Three keys in one campaign segment (top 4 bits 0x5).
constexpr std::uint64_t kIntact = 0x5000000000000001ULL;
constexpr std::uint64_t kTorn = 0x5000000000000002ULL;
constexpr std::uint64_t kNext = 0x5000000000000003ULL;
constexpr double kTornGoodput = 14095466.666666666;

void append_raw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out << bytes;
}

bool has_key(const PointStore& store, std::uint64_t key) {
  CachedPoint point;
  double goodput = 0.0;
  return store.lookup_point(key, point) || store.lookup_baseline(key, goodput);
}

/// Opens a store over the same files each time it is called.
using OpenStore = std::function<std::unique_ptr<PointStore>()>;

/// Write one intact record, append every proper prefix of `record` (a
/// writer killed at each byte), then append another record and reopen:
/// the torn key never loads and stays claimable, and both whole records
/// survive bit-exact.
void check_every_tear(const std::string& record, const std::string& file,
                      const OpenStore& open) {
  for (std::size_t cut = 0; cut < record.size(); ++cut) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut) + " of " + record);
    std::error_code ec;
    std::filesystem::remove_all(file, ec);
    open()->store_baseline(kIntact, 5.0);
    append_raw(file, record.substr(0, cut));
    {
      const std::unique_ptr<PointStore> store = open();
      EXPECT_FALSE(has_key(*store, kTorn));
      store->store_point(kNext, sample_point(1.0));
    }
    const std::unique_ptr<PointStore> store = open();
    EXPECT_FALSE(has_key(*store, kTorn));
    EXPECT_EQ(store->claim_point(kTorn), PointStore::ClaimStatus::kAcquired);
    EXPECT_EQ(store->claim_baseline(kTorn),
              PointStore::ClaimStatus::kAcquired);
    double goodput = 0.0;
    EXPECT_TRUE(store->lookup_baseline(kIntact, goodput));
    EXPECT_EQ(goodput, 5.0);
    CachedPoint next;
    ASSERT_TRUE(store->lookup_point(kNext, next));
    EXPECT_EQ(bits_of(next.goodput), bits_of(sample_point(1.0).goodput));
    EXPECT_EQ(next.events, sample_point(1.0).events);
    EXPECT_EQ(store->size(), 2u);
    if (::testing::Test::HasFailure()) return;
  }
}

std::vector<std::string> torn_records() {
  // Some prefixes of both are well-formed records with a wrong value (the
  // baseline's "B <key> 14095", the point cut inside its last count), so
  // only the missing '\n' marks them as torn.
  return {format_point_record(kTorn, sample_point()),
          format_baseline_record(kTorn, kTornGoodput)};
}

TEST(TornRecordTest, PointCacheNeverLoadsATornRecord) {
  TempDir dir;
  const std::string path = dir.path() + "/points.cache";
  for (const std::string& record : torn_records()) {
    check_every_tear(record, path,
                     [&] { return std::make_unique<PointCache>(path); });
  }
}

TEST(TornRecordTest, CampaignStoreNeverLoadsATornRecord) {
  TempDir dir;
  const std::string store_dir = dir.path() + "/store";
  const std::string segment = CampaignStore(store_dir).segment_path(kTorn);
  ASSERT_EQ(segment, CampaignStore(store_dir).segment_path(kNext));
  for (const std::string& record : torn_records()) {
    check_every_tear(record, segment, [&] {
      return std::make_unique<CampaignStore>(store_dir);
    });
  }
}

/// A writer killed inside the header line: the next append starts the
/// file over, header included, instead of gluing a record onto it.
void check_torn_header(const std::string& header, const std::string& file,
                       const OpenStore& open) {
  for (std::size_t cut = 1; cut <= header.size(); ++cut) {
    SCOPED_TRACE("header cut at byte " + std::to_string(cut));
    std::error_code ec;
    std::filesystem::remove_all(file, ec);
    append_raw(file, header.substr(0, cut));
    open()->store_baseline(kNext, 7.0);
    const std::unique_ptr<PointStore> store = open();
    double goodput = 0.0;
    EXPECT_TRUE(store->lookup_baseline(kNext, goodput));
    EXPECT_EQ(goodput, 7.0);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(TornRecordTest, TornHeaderIsRewritten) {
  TempDir dir;
  const std::string path = dir.path() + "/points.cache";
  check_torn_header("pdos-point-cache-v1", path,
                    [&] { return std::make_unique<PointCache>(path); });
  const std::string store_dir = dir.path() + "/store";
  check_torn_header("pdos-campaign-seg-v1",
                    CampaignStore(store_dir).segment_path(kNext), [&] {
                      return std::make_unique<CampaignStore>(store_dir);
                    });
}

/// A store written with the first record layout (decimal %.17g doubles):
/// its header no longer matches, so it loads as empty, and the first
/// append starts the file over with the current header.
void check_v1_file(const std::string& v1_header, const std::string& file,
                   const OpenStore& open) {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(file).parent_path(), ec);
  {
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out << v1_header << "\n"
        << "P 5000000000000001 0.12345678901234568 0.25 0.5 1 "
           "14095466.666666666 7047733.333333333 0.5 0.25 "
           "0.46999999999999997 0.93000000000000005 321 12 98765 "
           "1234567890123\n"
        << "B 5000000000000002 14095466.666666666\n";
  }
  {
    const std::unique_ptr<PointStore> store = open();
    EXPECT_EQ(store->size(), 0u);
    EXPECT_FALSE(has_key(*store, kIntact));
    EXPECT_FALSE(has_key(*store, kTorn));
    store->store_baseline(kNext, 7.0);
  }
  const std::unique_ptr<PointStore> store = open();
  EXPECT_EQ(store->size(), 1u);
  double goodput = 0.0;
  EXPECT_TRUE(store->lookup_baseline(kNext, goodput));
  EXPECT_EQ(goodput, 7.0);
  std::ifstream in(file, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes.find("pdos-"), 0u);
  EXPECT_EQ(bytes.find("-v1"), std::string::npos) << bytes;
  EXPECT_EQ(bytes.substr(bytes.find('\n') + 1),
            format_baseline_record(kNext, 7.0));
}

TEST(StoreVersionTest, V1FilesLoadEmptyAndAreRewritten) {
  TempDir dir;
  const std::string path = dir.path() + "/points.cache";
  check_v1_file("pdos-point-cache-v1", path,
                [&] { return std::make_unique<PointCache>(path); });
  const std::string store_dir = dir.path() + "/store";
  check_v1_file("pdos-campaign-seg-v1",
                CampaignStore(store_dir).segment_path(kNext), [&] {
                  return std::make_unique<CampaignStore>(store_dir);
                });
}

TEST(StoreVersionTest, PeersOpeningAV1StoreShareOneRewrite) {
  // Two workers open a store whose segment is foreign to both. The first
  // append truncates it and writes the header; the second worker must then
  // see the first one's lease and results instead of truncating them away.
  TempDir dir;
  const std::string store_dir = dir.path() + "/store";
  const std::string segment = CampaignStore(store_dir).segment_path(kTorn);
  append_raw(segment, "pdos-campaign-seg-v1\nB 5000000000000002 98765\n");
  CampaignStore a(store_dir);
  CampaignStore b(store_dir);
  ASSERT_EQ(a.size(), 0u);
  ASSERT_EQ(b.size(), 0u);
  using S = PointStore::ClaimStatus;
  EXPECT_EQ(a.claim_point(kTorn), S::kAcquired);
  EXPECT_EQ(b.claim_point(kTorn), S::kBusy);
  a.store_point(kTorn, sample_point(1.0));
  b.store_baseline(kNext, 7.0);  // b's first append to the segment
  EXPECT_EQ(b.claim_point(kTorn), S::kDone);
  a.refresh();
  const auto expect_both = [](const PointStore& store) {
    EXPECT_EQ(store.size(), 2u);
    CachedPoint point;
    ASSERT_TRUE(store.lookup_point(kTorn, point));
    EXPECT_EQ(bits_of(point.goodput), bits_of(sample_point(1.0).goodput));
    double goodput = 0.0;
    ASSERT_TRUE(store.lookup_baseline(kNext, goodput));
    EXPECT_EQ(goodput, 7.0);
  };
  expect_both(a);
  expect_both(b);
  expect_both(CampaignStore(store_dir));
}

TEST(LeaseOrderTest, LeasesAppliedAfterResultsClaimAsInFileOrder) {
  // Keys of one segment (top 4 bits 0x7); two other workers' owner tokens.
  const auto key = [](std::uint64_t low) {
    return 0x7000000000000000ULL | low;
  };
  constexpr std::uint64_t kX = 0x00000001aaaa0001ULL;
  constexpr std::uint64_t kY = 0x00000002bbbb0002ULL;
  const double live = 4.0e9;  // epoch seconds, far in the future
  const double dead = 1.0;
  const std::vector<std::string> lines = {
      format_lease_record(key(1), kX, live),    // 1: leased, then done
      format_lease_record(key(3), kX, live),    // 3: leased, released,
      format_point_record(key(2), sample_point()),  // 2: done, then leased
      format_lease_record(key(4), kX, live),    // 4: leased, wrong release
      format_point_record(key(1), sample_point(1.0)),
      format_release_record(key(3), kX),
      format_lease_record(key(2), kX, live),
      format_release_record(key(4), kY),
      format_lease_record(key(5), kX, live),    // 5: leased, released
      format_lease_record(key(3), kY, live),    //    ... re-leased by Y
      format_lease_record(key(6), kX, dead),    // 6: lease expired
      format_lease_record(key(7), kX, live),    // 7: live, then an expired
      format_release_record(key(5), kX),
      format_lease_record(key(7), kY, dead),    //    lease replaces it
      format_lease_record(key(8), kX, live),    // 8: a baseline lands
      format_lease_record(key(10), kX, live),   // 10: likewise, and its
      format_baseline_record(key(8), 3.0),      //     lease is never
      format_release_record(key(8), kX),        //     released
      format_lease_record(key(2), kY, live),
      format_baseline_record(key(10), 4.0),
  };
  using S = PointStore::ClaimStatus;
  struct Want {
    std::uint64_t key;
    bool baseline;
    S status;
  };
  const std::vector<Want> wants = {
      {key(1), false, S::kDone},     {key(2), false, S::kDone},
      {key(3), false, S::kBusy},     {key(4), false, S::kBusy},
      {key(5), false, S::kAcquired}, {key(6), false, S::kAcquired},
      {key(7), false, S::kAcquired}, {key(8), true, S::kDone},
      {key(8), false, S::kAcquired}, {key(9), false, S::kAcquired},
      {key(10), true, S::kDone},     {key(10), false, S::kAcquired},
  };

  // One store reads the whole segment in one scan, which applies the
  // lease records after the results; the other scans it a line at a time,
  // in file order. Each has its own copy, since claiming appends.
  TempDir dir;
  const std::string whole = dir.path() + "/whole";
  const std::string stepped = dir.path() + "/stepped";
  const std::string segment = CampaignStore(whole).segment_path(key(1));
  const std::string stepped_segment =
      CampaignStore(stepped).segment_path(key(1));
  append_raw(segment, "pdos-campaign-seg-v2\n");
  append_raw(stepped_segment, "pdos-campaign-seg-v2\n");
  for (const std::string& line : lines) append_raw(segment, line);
  CampaignStore in_one_scan(whole);
  CampaignStore in_order(stepped);
  for (const std::string& line : lines) {
    append_raw(stepped_segment, line);
    in_order.refresh();
  }
  ASSERT_EQ(in_one_scan.size(), 4u);
  ASSERT_EQ(in_order.size(), 4u);
  for (const Want& want : wants) {
    SCOPED_TRACE(testing::Message() << std::hex << want.key
                                    << (want.baseline ? " baseline" : ""));
    const auto claim = [&](CampaignStore& store) {
      return want.baseline ? store.claim_baseline(want.key)
                           : store.claim_point(want.key);
    };
    EXPECT_EQ(claim(in_one_scan), want.status);
    EXPECT_EQ(claim(in_order), want.status);
  }
  CachedPoint point;
  ASSERT_TRUE(in_one_scan.lookup_point(key(1), point));
  EXPECT_EQ(bits_of(point.goodput), bits_of(sample_point(1.0).goodput));
}

/// `n` distinct keys whose probes start at `slot` in a 16-slot table.
std::vector<std::uint64_t> keys_homed_at(std::size_t slot, std::size_t n,
                                         std::uint64_t from = 0) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = from; keys.size() < n; ++k) {
    if (ResultIndex::home(k, 16) == slot) keys.push_back(k);
  }
  return keys;
}

TEST(ResultIndexTest, CollidingProbeChainsKeepEveryKeyApart) {
  // Six keys share home slot 15, so their chain wraps past the table's end
  // into the chain of three keys homed at slot 0; a point and a baseline
  // share one key. The table holds 10 of its 16 slots, under 3/4.
  const std::vector<std::uint64_t> wrap = keys_homed_at(15, 7);
  const std::vector<std::uint64_t> start = keys_homed_at(0, 4);
  ResultIndex index;
  for (std::size_t i = 0; i < 6; ++i) {
    CachedPoint* value = index.emplace<CachedPoint>(wrap[i]).first;
    value->events = i;
  }
  for (std::size_t i = 0; i < 3; ++i) {
    *index.emplace<double>(start[i]).first = static_cast<double>(i);
  }
  *index.emplace<double>(wrap[2]).first = 42.0;
  ASSERT_EQ(index.slots(), 16u);
  ASSERT_EQ(index.size(), 10u);

  const auto check = [&] {
    for (std::size_t i = 0; i < 6; ++i) {
      const CachedPoint* value = index.find<CachedPoint>(wrap[i]);
      ASSERT_NE(value, nullptr) << i;
      EXPECT_EQ(value->events, i);
    }
    for (std::size_t i = 0; i < 3; ++i) {
      const double* value = index.find<double>(start[i]);
      ASSERT_NE(value, nullptr) << i;
      EXPECT_EQ(*value, static_cast<double>(i));
      EXPECT_EQ(index.find<CachedPoint>(start[i]), nullptr);
    }
    ASSERT_NE(index.find<double>(wrap[2]), nullptr);
    EXPECT_EQ(*index.find<double>(wrap[2]), 42.0);
    EXPECT_EQ(index.find<double>(wrap[1]), nullptr);
    // Misses whose probes walk the whole chain.
    EXPECT_EQ(index.find<CachedPoint>(wrap[6]), nullptr);
    EXPECT_EQ(index.find<double>(start[3]), nullptr);
    EXPECT_FALSE(index.contains(wrap[6]));
    EXPECT_TRUE(index.contains(wrap[2]));
    EXPECT_TRUE(index.contains(start[0]));
  };
  check();
  // A key already present keeps its value.
  const auto [again, added] = index.emplace<CachedPoint>(wrap[4]);
  EXPECT_FALSE(added);
  EXPECT_EQ(again->events, 4u);
  // Rehashing into a larger table keeps every key apart.
  for (std::uint64_t k : keys_homed_at(7, 3, 1u << 20)) {
    index.emplace<double>(k);
  }
  EXPECT_EQ(index.slots(), 32u);
  check();
}

TEST(ResultIndexTest, GrowsByDoublingDuringAColdPass) {
  ResultIndex index;
  EXPECT_EQ(index.slots(), 0u);
  EXPECT_EQ(index.find<CachedPoint>(1), nullptr);
  std::mt19937_64 rng(7);
  std::vector<std::uint64_t> keys(5000);
  for (std::uint64_t& k : keys) k = rng();
  std::size_t slots = 0;
  std::size_t doublings = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    CachedPoint* value = index.emplace<CachedPoint>(keys[i]).first;
    value->events = i;
    if (i % 3 == 0) *index.emplace<double>(keys[i]).first = 0.5 * i;
    if (index.slots() != slots) {
      EXPECT_EQ(index.slots(), slots == 0 ? 16u : 2 * slots);
      slots = index.slots();
      ++doublings;
    }
    ASSERT_LE(index.size() * 4, index.slots() * 3);
  }
  EXPECT_EQ(index.size(), 5000u + 1667u);
  EXPECT_EQ(index.slots(), 16384u);
  EXPECT_EQ(doublings, 11u);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const CachedPoint* value = index.find<CachedPoint>(keys[i]);
    ASSERT_NE(value, nullptr);
    EXPECT_EQ(value->events, i);
    const double* goodput = index.find<double>(keys[i]);
    if (i % 3 == 0) {
      ASSERT_NE(goodput, nullptr);
      EXPECT_EQ(*goodput, 0.5 * i);
    } else {
      EXPECT_EQ(goodput, nullptr);
    }
  }
  std::size_t points = 0;
  index.for_each<CachedPoint>([&](std::uint64_t, const CachedPoint&) {
    ++points;
  });
  EXPECT_EQ(points, 5000u);

  // Reserving room up front leaves nothing to grow.
  ResultIndex reserved;
  reserved.reserve(5000);
  const std::size_t reserved_slots = reserved.slots();
  for (std::uint64_t k : keys) reserved.emplace<CachedPoint>(k);
  EXPECT_EQ(reserved.slots(), reserved_slots);
}

TEST(ResultIndexTest, OpeningAStoreSizesTheIndexForItsResultsOnly) {
  // A campaign store of 10,000 results, each after the lease line its
  // worker wrote before running it: the index fits the results alone
  // (10,000 < 3/4 of 16,384), not the bytes of results and leases.
  TempDir dir;
  const std::string path = dir.path() + "/store";
  {
    CampaignStore writer(path);
    for (std::uint64_t k = 0; k < 10000; ++k) {
      const std::uint64_t key = k * 0x9e3779b97f4a7c15ULL;
      ASSERT_EQ(writer.claim_point(key), PointStore::ClaimStatus::kAcquired);
      writer.store_point(key, sample_point(static_cast<double>(k)));
    }
  }
  /// Exposes the index size of a store opened on `path`.
  struct Opened : CampaignStore {
    using CampaignStore::CampaignStore;
    std::size_t slots() const { return results_.slots(); }
  };
  const Opened opened(path);
  EXPECT_EQ(opened.size(), 10000u);
  EXPECT_EQ(opened.slots(), 16384u);
}

TEST(ResultIndexTest, KeysZeroAndAllOnesAreKeysLikeAnyOther) {
  constexpr std::uint64_t kZero = 0;
  constexpr std::uint64_t kOnes = ~std::uint64_t{0};
  ResultIndex index;
  EXPECT_FALSE(index.contains(kZero));
  index.emplace<CachedPoint>(kZero).first->events = 1;
  EXPECT_FALSE(index.contains(kOnes));
  EXPECT_EQ(index.find<double>(kZero), nullptr);
  *index.emplace<double>(kOnes).first = 2.0;
  *index.emplace<double>(kZero).first = 3.0;
  EXPECT_EQ(index.size(), 3u);
  EXPECT_EQ(index.find<CachedPoint>(kZero)->events, 1u);
  EXPECT_EQ(*index.find<double>(kZero), 3.0);
  EXPECT_EQ(*index.find<double>(kOnes), 2.0);
  EXPECT_EQ(index.find<CachedPoint>(kOnes), nullptr);

  // The same keys through both stores and a reopen.
  TempDir dir;
  const std::string path = dir.path() + "/points.cache";
  const std::string store_dir = dir.path() + "/store";
  const std::vector<OpenStore> opens = {
      [&] { return std::make_unique<PointCache>(path); },
      [&] { return std::make_unique<CampaignStore>(store_dir); }};
  for (const OpenStore& open : opens) {
    {
      const std::unique_ptr<PointStore> store = open();
      store->store_point(kZero, sample_point(1.0));
      store->store_baseline(kZero, 5.0);
      store->store_point(kOnes, sample_point(2.0));
    }
    const std::unique_ptr<PointStore> store = open();
    EXPECT_EQ(store->size(), 3u);
    CachedPoint point;
    ASSERT_TRUE(store->lookup_point(kZero, point));
    EXPECT_EQ(bits_of(point.goodput), bits_of(sample_point(1.0).goodput));
    ASSERT_TRUE(store->lookup_point(kOnes, point));
    EXPECT_EQ(bits_of(point.goodput), bits_of(sample_point(2.0).goodput));
    double goodput = 0.0;
    ASSERT_TRUE(store->lookup_baseline(kZero, goodput));
    EXPECT_EQ(goodput, 5.0);
    EXPECT_FALSE(store->lookup_baseline(kOnes, goodput));
  }
}

TEST(SweepKeysTest, MatchTheFreeKeyFunctionsOnEveryPoint) {
  std::size_t checked = 0;
  for (ScenarioKind scenario :
       {ScenarioKind::kNs2Dumbbell, ScenarioKind::kTestbed}) {
    for (QueueKind queue : {QueueKind::kRed, QueueKind::kDropTail}) {
      for (Backend backend :
           {Backend::kFull, Backend::kFast, Backend::kFluid}) {
        for (bool explicit_points : {false, true}) {
          SweepSpec spec;
          spec.scenario = scenario;
          spec.queue = queue;
          spec.backend = backend;
          spec.replicates = 3;
          spec.base_seed = 11;
          if (explicit_points) {
            PointSpec a;
            a.flows = 12;
            a.gamma = 0.4;
            PointSpec b = a;
            b.flows = 5;
            b.textent = ms(120);
            PointSpec c = a;
            c.rattack = mbps(40);
            c.kappa = 2.0;
            spec.explicit_points = {a, b, c};
          } else {
            spec.flow_counts = {15, 3, 9};
            spec.textents = {ms(40), ms(120)};
            spec.rattacks = {mbps(20), mbps(35)};
            spec.gamma_points = 3;
          }
          SCOPED_TRACE(std::string(scenario_kind_name(scenario)) + "/" +
                       backend_name(backend) +
                       (queue == QueueKind::kRed ? "/red" : "/droptail") +
                       (explicit_points ? "/explicit" : "/grid"));
          const SweepKeys keys(spec);
          std::unordered_set<std::uint64_t> seen;
          for (const PointSpec& point : spec.enumerate()) {
            const std::uint64_t seed =
                replicate_seed(spec.base_seed, point.replicate);
            const std::uint64_t key = keys.point(point, seed);
            EXPECT_EQ(key, point_key(spec, point, seed));
            EXPECT_EQ(keys.baseline(point, seed),
                      baseline_key(spec, point, seed));
            EXPECT_TRUE(seen.insert(key).second) << "colliding point keys";
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 1000u);  // 1,872 points over the 32 specs
}

}  // namespace
}  // namespace pdos::sweep
