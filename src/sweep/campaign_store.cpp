#include "sweep/campaign_store.hpp"

#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <random>

#include "util/assert.hpp"

namespace pdos::sweep {

namespace {

double now_epoch_seconds() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// Lease owner token: pid in the high bits (debuggable in a hex dump), a
/// random salt in the low bits (distinguishes a restarted worker that got
/// the same pid from its crashed predecessor, whose stale lease must not
/// look like ours).
std::uint64_t make_owner_token() {
  std::random_device rd;
  const std::uint64_t salt =
      (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
  return (static_cast<std::uint64_t>(::getpid()) << 32) ^ (salt & 0xffffffff);
}

/// `dir`'s 16 segment paths, created as the directory if it is missing.
std::vector<std::string> segment_paths(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // best effort
  std::vector<std::string> paths;
  for (int i = 0; i < 16; ++i) {
    char name[16];
    std::snprintf(name, sizeof(name), "/seg-%x", i);
    paths.push_back(dir + name);
  }
  return paths;
}

}  // namespace

CampaignStore::CampaignStore(std::string dir, double lease_ttl_seconds)
    : SegmentStore(segment_paths(dir), "pdos-campaign-seg-v2"),
      dir_(std::move(dir)),
      lease_ttl_(lease_ttl_seconds),
      owner_(make_owner_token()) {
  // A NaN or negative expiry is never `> now`: every lease would read as
  // expired and claiming would stop deduplicating work.
  PDOS_REQUIRE(std::isfinite(lease_ttl_) && lease_ttl_ > 0.0,
               "CampaignStore: lease TTL must be finite and > 0");
}

CampaignStore::ClaimStatus CampaignStore::claim(std::uint64_t key,
                                                bool baseline) {
  std::lock_guard<std::mutex> lock(mutex_);
  Segment& seg = segments_[segment_index(key)];
  if (!open(seg)) {
    // Unopenable store (permissions, disk): claim unconditionally so the
    // sweep still completes — it just can't coordinate.
    return ClaimStatus::kAcquired;
  }
  // Read-tail + decide + append must be atomic across processes, so the
  // whole protocol runs under the segment lock.
  ::flock(seg.fd, LOCK_EX);
  scan(seg);
  ClaimStatus status;
  const bool done = baseline ? results_.find<double>(key) != nullptr
                             : results_.find<CachedPoint>(key) != nullptr;
  if (done) {
    status = ClaimStatus::kDone;
  } else {
    const auto it = leases_.find(key);
    if (it != leases_.end() && it->second.owner != owner_ &&
        it->second.expiry > now_epoch_seconds()) {
      status = ClaimStatus::kBusy;
    } else {
      const double expiry = now_epoch_seconds() + lease_ttl_;
      append_locked(seg, format_lease_record(key, owner_, expiry));
      leases_[key] = Lease{owner_, expiry};
      status = ClaimStatus::kAcquired;
    }
  }
  ::flock(seg.fd, LOCK_UN);
  return status;
}

CampaignStore::ClaimStatus CampaignStore::claim_point(std::uint64_t key) {
  return claim(key, false);
}

CampaignStore::ClaimStatus CampaignStore::claim_baseline(std::uint64_t key) {
  return claim(key, true);
}

void CampaignStore::release(std::uint64_t key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = leases_.find(key);
  if (it == leases_.end() || it->second.owner != owner_) return;
  leases_.erase(it);
  append(key, format_release_record(key, owner_));
}

void CampaignStore::release_point(std::uint64_t key) { release(key); }
void CampaignStore::release_baseline(std::uint64_t key) { release(key); }

void CampaignStore::refresh() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::error_code ec;
  for (Segment& seg : segments_) {
    if (seg.fd < 0 && !std::filesystem::exists(seg.path, ec)) continue;
    if (!open(seg)) continue;
    // Shared lock: appenders write whole lines under the exclusive lock,
    // so a scan never observes a half-written record.
    ::flock(seg.fd, LOCK_SH);
    scan(seg);
    ::flock(seg.fd, LOCK_UN);
  }
}

std::size_t CampaignStore::compact() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t dropped = 0;
  std::error_code ec;
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    Segment& seg = segments_[i];
    if (seg.fd < 0 && !std::filesystem::exists(seg.path, ec)) continue;
    if (!open(seg)) continue;
    ::flock(seg.fd, LOCK_EX);
    scan(seg);  // fold in everything before rewriting

    struct stat st;
    std::size_t old_lines = 0;
    if (::fstat(seg.fd, &st) == 0 && st.st_size > 0) {
      std::string all(static_cast<std::size_t>(st.st_size), '\0');
      std::size_t got = 0;
      while (got < all.size()) {
        const ssize_t n = ::pread(seg.fd, all.data() + got, all.size() - got,
                                  static_cast<off_t>(got));
        if (n <= 0) break;
        got += static_cast<std::size_t>(n);
      }
      for (std::size_t at = 0; at < got; ++at) {
        if (all[at] == '\n') ++old_lines;
      }
    }

    // The rewrite is in place (same inode), so append fds held by other
    // live processes stay valid; their offset trackers notice the shrink
    // and rescan. A result present only in a torn line is lost — it is a
    // cache, the cost is one re-simulation.
    std::string content = std::string(header_) + "\n";
    std::size_t new_lines = 1;
    results_.for_each<CachedPoint>(
        [&](std::uint64_t key, const CachedPoint& value) {
          if (segment_index(key) != i) return;
          content += format_point_record(key, value);
          ++new_lines;
        });
    results_.for_each<double>([&](std::uint64_t key, double goodput) {
      if (segment_index(key) != i) return;
      content += format_baseline_record(key, goodput);
      ++new_lines;
    });
    if (::ftruncate(seg.fd, 0) == 0) {
      // After a failed write the next scan re-reads whatever landed.
      const bool written = write_all(seg.fd, content);
      seg.scanned = written ? content.size() : 0;
      seg.header_ok = written;
      if (old_lines > new_lines) dropped += old_lines - new_lines;
    }
    ::flock(seg.fd, LOCK_UN);
  }
  return dropped;
}

}  // namespace pdos::sweep
