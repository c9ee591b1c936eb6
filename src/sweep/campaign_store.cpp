#include "sweep/campaign_store.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <random>

namespace pdos::sweep {

namespace {

constexpr char kSegHeader[] = "pdos-campaign-seg-v1";

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

}  // namespace

CampaignStore::CampaignStore(std::string dir, double lease_ttl_seconds)
    : dir_(std::move(dir)),
      lease_ttl_(lease_ttl_seconds),
      owner_(make_owner_token()) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);  // best effort
  segments_.resize(kSegments);
  for (int i = 0; i < kSegments; ++i) {
    char name[16];
    std::snprintf(name, sizeof(name), "seg-%x", i);
    segments_[i].path = dir_ + "/" + name;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  for (Segment& seg : segments_) {
    // Load only segments that already exist; the rest are created lazily
    // by the first append that hashes into them.
    if (std::filesystem::exists(seg.path, ec) && ensure_open(seg)) {
      scan_segment(seg);
    }
  }
}

CampaignStore::~CampaignStore() {
  for (Segment& seg : segments_) {
    if (seg.fd >= 0) ::close(seg.fd);
  }
}

std::size_t CampaignStore::segments() const { return kSegments; }

std::string CampaignStore::segment_path(std::uint64_t key) const {
  return segments_[segment_of(key)].path;
}

bool CampaignStore::ensure_open(Segment& seg) {
  if (seg.fd >= 0) return true;
  // O_RDWR (not O_WRONLY): incremental scans pread(2) through the same fd
  // the appends go through, so there is exactly one inode handle to lock.
  seg.fd = ::open(seg.path.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC,
                  0644);
  return seg.fd >= 0;
}

void CampaignStore::apply_line(std::string_view line) {
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

void CampaignStore::scan_segment(Segment& seg) {
  if (seg.rewrite) return;  // foreign file: ignored until truncated
  struct stat st;
  if (::fstat(seg.fd, &st) != 0) return;
  auto size = static_cast<std::uint64_t>(st.st_size);
  if (size < seg.scanned) {
    // The segment shrank under us (a compaction pass rewrote it): rescan
    // from the start. Result records are idempotent facts, so re-applying
    // them is harmless; leases age out by TTL either way.
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
      if (line != kSegHeader) {
        // Foreign or pre-v1 segment: load nothing from it and truncate it
        // on the first append (mirrors PointCache's rewrite semantics).
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

void CampaignStore::append_locked(Segment& seg, const std::string& line) {
  if (seg.rewrite) {
    if (::ftruncate(seg.fd, 0) != 0) return;
    seg.rewrite = false;
    seg.scanned = 0;
    seg.header_ok = false;
  }
  // A worker killed mid-write left a partial final line: cut it, so our
  // record starts a fresh line and the fragment never loads as a record.
  // Scans consume whole lines only, so `scanned` never passes the cut.
  const std::int64_t end = cut_torn_tail(seg.fd);
  if (end < 0) return;
  std::string out;
  if (end == 0) {
    out = std::string(kSegHeader) + "\n";
    seg.header_ok = true;
  }
  out += line;
  // Disk full etc. degrades to in-memory only. Our own bytes need no
  // re-parse: account them as scanned if we were current with the file
  // (the common case: we appended under the lock right after a scan).
  if (write_all(seg.fd, out) &&
      static_cast<std::uint64_t>(end) == seg.scanned) {
    seg.scanned += out.size();
  }
}

bool CampaignStore::lookup_point(std::uint64_t key, CachedPoint& out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = points_.find(key);
  if (it == points_.end()) return false;
  out = it->second;
  return true;
}

bool CampaignStore::lookup_baseline(std::uint64_t key, double& goodput) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = baselines_.find(key);
  if (it == baselines_.end()) return false;
  goodput = it->second;
  return true;
}

void CampaignStore::store_point(std::uint64_t key, const CachedPoint& value) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!points_.emplace(key, value).second) return;  // already recorded
  leases_.erase(key);
  Segment& seg = segments_[segment_of(key)];
  if (!ensure_open(seg)) return;
  ::flock(seg.fd, LOCK_EX);
  append_locked(seg, format_point_record(key, value));
  ::flock(seg.fd, LOCK_UN);
}

void CampaignStore::store_baseline(std::uint64_t key, double goodput) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!baselines_.emplace(key, goodput).second) return;
  leases_.erase(key);
  Segment& seg = segments_[segment_of(key)];
  if (!ensure_open(seg)) return;
  ::flock(seg.fd, LOCK_EX);
  append_locked(seg, format_baseline_record(key, goodput));
  ::flock(seg.fd, LOCK_UN);
}

std::size_t CampaignStore::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return points_.size() + baselines_.size();
}

CampaignStore::ClaimStatus CampaignStore::claim(std::uint64_t key,
                                                bool baseline) {
  std::lock_guard<std::mutex> lock(mutex_);
  Segment& seg = segments_[segment_of(key)];
  if (!ensure_open(seg)) {
    // Unopenable store (permissions, disk): claim unconditionally so the
    // sweep still completes — it just can't coordinate.
    return ClaimStatus::kAcquired;
  }
  // Read-tail + decide + append must be atomic across processes, so the
  // whole protocol runs under the segment lock.
  ::flock(seg.fd, LOCK_EX);
  scan_segment(seg);
  ClaimStatus status;
  const bool done = baseline ? baselines_.find(key) != baselines_.end()
                             : points_.find(key) != points_.end();
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
  Segment& seg = segments_[segment_of(key)];
  if (!ensure_open(seg)) return;
  ::flock(seg.fd, LOCK_EX);
  append_locked(seg, format_release_record(key, owner_));
  ::flock(seg.fd, LOCK_UN);
}

void CampaignStore::release_point(std::uint64_t key) { release(key); }
void CampaignStore::release_baseline(std::uint64_t key) { release(key); }

void CampaignStore::refresh() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::error_code ec;
  for (Segment& seg : segments_) {
    if (seg.fd < 0 && !std::filesystem::exists(seg.path, ec)) continue;
    if (!ensure_open(seg)) continue;
    // Shared lock: appenders write whole lines under the exclusive lock,
    // so a scan never observes a half-written record.
    ::flock(seg.fd, LOCK_SH);
    scan_segment(seg);
    ::flock(seg.fd, LOCK_UN);
  }
}

std::size_t CampaignStore::compact() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t dropped = 0;
  std::error_code ec;
  for (int i = 0; i < kSegments; ++i) {
    Segment& seg = segments_[i];
    if (seg.fd < 0 && !std::filesystem::exists(seg.path, ec)) continue;
    if (!ensure_open(seg)) continue;
    ::flock(seg.fd, LOCK_EX);
    scan_segment(seg);  // fold in everything before rewriting

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
    std::string content = std::string(kSegHeader) + "\n";
    std::size_t new_lines = 1;
    for (const auto& [key, value] : points_) {
      if (segment_of(key) != i) continue;
      content += format_point_record(key, value);
      ++new_lines;
    }
    for (const auto& [key, goodput] : baselines_) {
      if (segment_of(key) != i) continue;
      content += format_baseline_record(key, goodput);
      ++new_lines;
    }
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
