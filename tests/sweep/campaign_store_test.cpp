// CampaignStore: sharded persistence round-trips, torn-tail recovery,
// concurrent cross-process appends, the lease claim protocol, incremental
// refresh between live stores, compaction, and refusal of foreign files.
#include "sweep/campaign_store.hpp"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>

#include "util/assert.hpp"

namespace pdos::sweep {
namespace {

class TempStoreDir {
 public:
  TempStoreDir() {
    char name[] = "/tmp/pdos_campaign_store_test_XXXXXX";
    EXPECT_NE(mkdtemp(name), nullptr);
    path_ = name;
  }
  ~TempStoreDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

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

/// A key landing in segment `seg` (top 4 bits) with low bits `low`.
std::uint64_t key_in_segment(unsigned seg, std::uint64_t low) {
  return (static_cast<std::uint64_t>(seg) << 60) | low;
}

TEST(CampaignStoreTest, MissThenHitAndReload) {
  TempStoreDir dir;
  const CachedPoint stored = sample_point();
  {
    CampaignStore store(dir.path());
    CachedPoint out;
    EXPECT_FALSE(store.lookup_point(42, out));
    store.store_point(42, stored);
    store.store_baseline(43, 14095466.666666666);
    ASSERT_TRUE(store.lookup_point(42, out));
    EXPECT_EQ(store.size(), 2u);
  }
  CampaignStore reloaded(dir.path());
  CachedPoint out;
  ASSERT_TRUE(reloaded.lookup_point(42, out));
  // Bit-exact doubles: this is what makes replayed CSVs byte-identical.
  EXPECT_EQ(out.c_psi, stored.c_psi);
  EXPECT_EQ(out.goodput, stored.goodput);
  EXPECT_EQ(out.events, stored.events);
  double goodput = 0.0;
  ASSERT_TRUE(reloaded.lookup_baseline(43, goodput));
  EXPECT_EQ(goodput, 14095466.666666666);
}

TEST(CampaignStoreTest, ShardsByKeyPrefixAcrossSegmentFiles) {
  TempStoreDir dir;
  CampaignStore store(dir.path());
  EXPECT_EQ(store.segments(), 16u);
  store.store_point(key_in_segment(0x0, 1), sample_point());
  store.store_point(key_in_segment(0xf, 1), sample_point());
  EXPECT_NE(store.segment_path(key_in_segment(0x0, 1)),
            store.segment_path(key_in_segment(0xf, 1)));
  EXPECT_TRUE(
      std::filesystem::exists(store.segment_path(key_in_segment(0x0, 1))));
  EXPECT_TRUE(
      std::filesystem::exists(store.segment_path(key_in_segment(0xf, 1))));
  // Segments not appended to are never created.
  EXPECT_FALSE(
      std::filesystem::exists(store.segment_path(key_in_segment(0x7, 1))));
}

TEST(CampaignStoreTest, TornTailIsSkippedAndRepairedOnAppend) {
  TempStoreDir dir;
  const std::uint64_t key = key_in_segment(0x3, 7);
  std::string seg_path;
  {
    CampaignStore store(dir.path());
    store.store_point(key, sample_point());
    seg_path = store.segment_path(key);
  }
  {
    // A worker killed mid-write: partial record, no trailing newline.
    std::ofstream out(seg_path, std::ios::app);
    out << "P 3000000000000007 0.5 0.2";
  }
  {
    CampaignStore store(dir.path());
    CachedPoint out;
    ASSERT_TRUE(store.lookup_point(key, out));  // intact record survives
    EXPECT_EQ(store.size(), 1u);
    // Appending repairs the tail: the new record starts on a fresh line.
    store.store_point(key_in_segment(0x3, 8), sample_point(1.0));
  }
  CampaignStore reloaded(dir.path());
  CachedPoint out;
  EXPECT_TRUE(reloaded.lookup_point(key, out));
  ASSERT_TRUE(reloaded.lookup_point(key_in_segment(0x3, 8), out));
  EXPECT_EQ(out.goodput, sample_point(1.0).goodput);
  EXPECT_EQ(reloaded.size(), 2u);
}

TEST(CampaignStoreTest, ConcurrentForkAppendsAllSurvive) {
  TempStoreDir dir;
  constexpr int kChildren = 4;
  constexpr std::uint64_t kPerChild = 50;
  std::vector<pid_t> pids;
  for (int c = 0; c < kChildren; ++c) {
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      CampaignStore store(dir.path());
      for (std::uint64_t i = 0; i < kPerChild; ++i) {
        // Every child hammers the SAME segments (keys differ only in low
        // bits), so appends genuinely contend on the flock.
        const std::uint64_t key = key_in_segment(
            static_cast<unsigned>(i % 4),
            (static_cast<std::uint64_t>(c) << 32) | i);
        store.store_point(key, sample_point(static_cast<double>(i)));
      }
      _exit(0);
    }
    pids.push_back(pid);
  }
  for (pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }
  CampaignStore merged(dir.path());
  EXPECT_EQ(merged.size(), kChildren * kPerChild);
  CachedPoint out;
  for (int c = 0; c < kChildren; ++c) {
    for (std::uint64_t i = 0; i < kPerChild; ++i) {
      const std::uint64_t key = key_in_segment(
          static_cast<unsigned>(i % 4),
          (static_cast<std::uint64_t>(c) << 32) | i);
      ASSERT_TRUE(merged.lookup_point(key, out));
      EXPECT_EQ(out.goodput, sample_point(static_cast<double>(i)).goodput);
    }
  }
}

TEST(CampaignStoreTest, ClaimProtocolAcquireBusyDoneRelease) {
  TempStoreDir dir;
  CampaignStore a(dir.path());
  CampaignStore b(dir.path());
  EXPECT_NE(a.owner(), b.owner());
  const std::uint64_t key = key_in_segment(0x5, 11);

  // Cold key: first claimant wins, the second sees a live foreign lease.
  EXPECT_EQ(a.claim_point(key), PointStore::ClaimStatus::kAcquired);
  EXPECT_EQ(b.claim_point(key), PointStore::ClaimStatus::kBusy);
  // Re-claiming our own lease is idempotent, not a deadlock.
  EXPECT_EQ(a.claim_point(key), PointStore::ClaimStatus::kAcquired);

  // The result supersedes the lease: the waiter's next claim reports done
  // and the record is loaded by the same scan.
  a.store_point(key, sample_point());
  EXPECT_EQ(b.claim_point(key), PointStore::ClaimStatus::kDone);
  CachedPoint out;
  EXPECT_TRUE(b.lookup_point(key, out));

  // Release frees a claim without a result.
  const std::uint64_t key2 = key_in_segment(0x5, 12);
  EXPECT_EQ(a.claim_point(key2), PointStore::ClaimStatus::kAcquired);
  a.release_point(key2);
  EXPECT_EQ(b.claim_point(key2), PointStore::ClaimStatus::kAcquired);

  // Baselines claim through the same protocol.
  const std::uint64_t key3 = key_in_segment(0x6, 13);
  EXPECT_EQ(a.claim_baseline(key3), PointStore::ClaimStatus::kAcquired);
  EXPECT_EQ(b.claim_baseline(key3), PointStore::ClaimStatus::kBusy);
  a.store_baseline(key3, 1.0e7);
  EXPECT_EQ(b.claim_baseline(key3), PointStore::ClaimStatus::kDone);
}

TEST(CampaignStoreTest, ExpiredLeaseIsReclaimable) {
  TempStoreDir dir;
  CampaignStore crashed(dir.path(), /*lease_ttl_seconds=*/0.05);
  CampaignStore survivor(dir.path(), /*lease_ttl_seconds=*/0.05);
  const std::uint64_t key = key_in_segment(0x9, 21);
  EXPECT_EQ(crashed.claim_point(key), PointStore::ClaimStatus::kAcquired);
  EXPECT_EQ(survivor.claim_point(key), PointStore::ClaimStatus::kBusy);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  // The "crashed" worker never stored a result; its lease aged out and the
  // key is claimable again — crash recovery with no fsck pass.
  EXPECT_EQ(survivor.claim_point(key), PointStore::ClaimStatus::kAcquired);
}

// A NaN or negative expiry is never `> now`, so every lease would read as
// expired and claiming would stop deduplicating: such TTLs are rejected.
TEST(CampaignStoreTest, RejectsNonFiniteOrNonPositiveLeaseTtl) {
  TempStoreDir dir;
  for (double ttl : {0.0, -1.0, std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    EXPECT_THROW(CampaignStore(dir.path(), ttl), ParameterError) << ttl;
  }
  EXPECT_NO_THROW(CampaignStore(dir.path(), 0.05));
}

TEST(CampaignStoreTest, RefreshFoldsInPeerAppendsIncrementally) {
  TempStoreDir dir;
  CampaignStore writer(dir.path());
  CampaignStore reader(dir.path());
  const std::uint64_t key = key_in_segment(0xa, 31);
  writer.store_point(key, sample_point());
  CachedPoint out;
  EXPECT_FALSE(reader.lookup_point(key, out));  // not scanned yet
  reader.refresh();
  ASSERT_TRUE(reader.lookup_point(key, out));
  EXPECT_EQ(out.goodput, sample_point().goodput);
  // Incremental: a second append lands after the reader's scan offset.
  const std::uint64_t key2 = key_in_segment(0xa, 32);
  writer.store_point(key2, sample_point(2.0));
  reader.refresh();
  ASSERT_TRUE(reader.lookup_point(key2, out));
  EXPECT_EQ(out.goodput, sample_point(2.0).goodput);
}

TEST(CampaignStoreTest, CompactDropsCoordinationRecordsKeepsResults) {
  TempStoreDir dir;
  CampaignStore store(dir.path());
  const std::uint64_t done = key_in_segment(0xb, 41);
  const std::uint64_t abandoned = key_in_segment(0xb, 42);
  EXPECT_EQ(store.claim_point(done), PointStore::ClaimStatus::kAcquired);
  store.store_point(done, sample_point());
  EXPECT_EQ(store.claim_point(abandoned), PointStore::ClaimStatus::kAcquired);
  store.release_point(abandoned);
  const std::size_t dropped = store.compact();
  EXPECT_GE(dropped, 3u);  // both leases + the release

  // Same facts before and after, for this store and for a fresh load.
  CachedPoint out;
  EXPECT_TRUE(store.lookup_point(done, out));
  CampaignStore reloaded(dir.path());
  ASSERT_TRUE(reloaded.lookup_point(done, out));
  EXPECT_EQ(out.goodput, sample_point().goodput);
  EXPECT_EQ(reloaded.size(), 1u);
  // The live store survives its own compaction and can keep appending
  // (scan offsets reset cleanly despite the file shrinking).
  store.store_point(key_in_segment(0xb, 43), sample_point(3.0));
  CampaignStore again(dir.path());
  EXPECT_EQ(again.size(), 2u);
}

TEST(CampaignStoreTest, ForeignSegmentLoadsEmptyAndIsRewritten) {
  // A segment the store did not write refuses the whole store: the
  // constructor throws naming the segment, and the segment stays byte for
  // byte as it was.
  TempStoreDir dir;
  const std::uint64_t key = key_in_segment(0x4, 51);
  std::string seg_path;
  {
    CampaignStore probe(dir.path());
    seg_path = probe.segment_path(key);
  }
  const std::string foreign = "not a campaign segment\nP ffff bogus\n";
  { std::ofstream(seg_path, std::ios::binary) << foreign; }
  try {
    CampaignStore store(dir.path());
    ADD_FAILURE() << "a foreign segment must be refused";
  } catch (const ParameterError& e) {
    EXPECT_NE(std::string(e.what()).find(seg_path), std::string::npos)
        << e.what();
  }
  std::ifstream in(seg_path, std::ios::binary);
  EXPECT_EQ(std::string(std::istreambuf_iterator<char>(in), {}), foreign);
}

}  // namespace
}  // namespace pdos::sweep
