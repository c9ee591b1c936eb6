// The result stores' record grammar and keys: format/parse round trips,
// rejection of everything the writers never produce, torn records in both
// stores, and SweepKeys against the free key functions.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
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

/// Bit-exact, except that any NaN matches any NaN.
void expect_same_double(double got, double want) {
  if (std::isnan(want)) {
    EXPECT_TRUE(std::isnan(got)) << got;
  } else {
    EXPECT_EQ(bits_of(got), bits_of(want)) << got << " vs " << want;
  }
}

/// Doubles drawn from the corners %.17g has to get right, or random bit
/// patterns (a quarter of them squeezed into the subnormal range).
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
  };
  const std::uint64_t pick = rng() % 16;
  if (pick < std::size(kCorners)) return kCorners[pick];
  std::uint64_t bits = rng();
  if (pick % 4 == 0) bits &= 0x800fffffffffffffULL;
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
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
/// d = %.17g double, u = unsigned count) and its parser.
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
  return {
      {"P",
       {"00000000000abc12", "0.12345678901234568", "0.25", "-1.5e-07", "1",
        "14095466.666666666", "7047733.333333333", "0.5", "inf", "0.47",
        "0.93", "321", "12", "98765", "1234567890123"},
       "kdddudddddduuuu",
       point},
      {"B", {"f00000000000abc1", "14095466.666666666"}, "kd", baseline},
      {"L", {"3000000000000007", "00012345deadbeef", "1760649600.25"}, "kkd",
       lease},
      {"R", {"3000000000000007", "00012345deadbeef"}, "kk", release},
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
      std::string doubled = valid;
      doubled.insert(sep, " ");
      bad.push_back(doubled);
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
      if (g.types[i] == 'k') {
        bad.push_back(with("0x" + g.fields[i].substr(2)));
        bad.push_back(with(g.fields[i].substr(1)));  // 15 digits
        bad.push_back(with("0" + g.fields[i]));      // 17 digits
        bad.push_back(with("-" + g.fields[i].substr(1)));
      } else {
        bad.push_back(with("1.5e"));
        bad.push_back(with("1e400"));
        bad.push_back(with("0x1p3"));
      }
      if (g.types[i] == 'u') bad.push_back(with("-1"));
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
