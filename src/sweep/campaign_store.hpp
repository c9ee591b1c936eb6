// Sharded multi-process result store: the campaign coordination substrate.
//
// `PointCache` is one append-only file owned by one process. A campaign is
// K cooperating processes (possibly serving many submitted specs) sweeping
// one shared grid, so the store must let them (a) dedup results — a point
// simulated by any worker is a cache hit for every other worker and for
// every later campaign — and (b) partition cold work without a central
// dispatcher. `CampaignStore` does both with files only: no daemon, no
// shared memory, no sockets, so workers can be independent OS processes
// (or, later, NFS peers).
//
// Layout: a directory of 16 append-only segment files, `seg-0` … `seg-f`
// (header `pdos-campaign-seg-v2`), keyed by the top 4 bits of the 64-bit
// content hash. Sharding bounds lock contention (two workers only collide
// when their keys share a prefix) and keeps each file small enough that
// compaction and re-scans stay cheap. The files, their scans and appends
// and the in-memory index are `SegmentStore`'s (point_cache.hpp), shared
// with the single-file cache: the same P/B record format (and the same
// bit-exact doubles, as the hex digits of their IEEE-754 bits), plus two
// coordination record kinds:
//
//   P <key> <outputs…>          completed point        (point_cache.hpp)
//   B <key> <goodput>           completed baseline
//   L <key> <owner> <expiry>    lease: <owner> is simulating <key> and
//                               promises a result (or a release) before
//                               wall-clock <expiry> (epoch seconds)
//   R <key> <owner>             release: <owner> gave up its lease
//
// Claim protocol (per key): take the segment's flock(2), fold in any
// records other processes appended since our last scan, then decide —
// result present → kDone; un-expired lease by another owner → kBusy;
// otherwise append our own lease and return kAcquired. The lock makes
// read-tail + append atomic, so exactly one worker wins a cold key. A
// result record supersedes the lease; a crashed worker's lease simply
// expires and the key is re-claimed by whoever polls it next — crash
// recovery needs no fsck pass.
//
// Torn-tail tolerance: a worker killed mid-write leaves a partial final
// line. Scans consume whole lines only, so the fragment never loads, and
// every appender first scans the segment under the lock and cuts it back
// to where that scan stopped, after its last '\n'. Terminating the
// fragment instead would let a prefix of a record that happens to parse
// (a point record cut inside its last count, `… 476` torn from `… 47644`)
// load as a wrong result and mark the key done. A killed worker thus
// loses its one unfinished record, never a finished one.
//
// The in-memory index (`ResultIndex`) answers lookups without I/O;
// `refresh()` incrementally folds in segment bytes appended by other
// processes since the last scan (tracked by per-segment offset).
// `compact()` rewrites each segment in place from the index, dropping
// lease/release records and duplicate results —
// run it when the campaign is quiescent (concurrent appends are serialized
// by the lock and survive, but a crash mid-compaction can lose records,
// which only costs re-simulation).
//
// Like the cache, a store owns its files or refuses to open (SegmentStore,
// point_cache.hpp): a directory it cannot create or write, or a segment
// that does not start with its header (a v1 store's included), throws
// ParameterError naming it, and the store writes nothing there.
#pragma once

#include <cstdint>
#include <string>

#include "sweep/point_cache.hpp"

namespace pdos::sweep {

class CampaignStore : public SegmentStore {
 public:
  /// Open (creating if needed) the store directory at `dir`; see above for
  /// what makes it refuse. `lease_ttl` is the wall-clock lifetime of a work
  /// claim in seconds: a worker that neither stores a result nor releases
  /// within the TTL is presumed crashed and its key becomes claimable
  /// again. Size it well above the slowest expected single point; expiry
  /// only costs duplicated work, never wrong results (both workers compute
  /// identical bytes). Throws ParameterError unless the TTL is finite and
  /// > 0.
  explicit CampaignStore(std::string dir, double lease_ttl_seconds = 120.0);

  ClaimStatus claim_point(std::uint64_t key) override;
  ClaimStatus claim_baseline(std::uint64_t key) override;
  void release_point(std::uint64_t key) override;
  void release_baseline(std::uint64_t key) override;

  /// Fold in records appended by other processes since the last scan
  /// (incremental: reads only new bytes of each segment).
  void refresh() override;

  /// Rewrite every segment keeping one copy of each result record and no
  /// coordination records. Returns the number of lines dropped.
  std::size_t compact();

  const std::string& dir() const { return dir_; }
  /// This process's lease owner token (pid ⊕ random), for tests/logs.
  std::uint64_t owner() const { return owner_; }
  std::size_t segments() const { return segments_.size(); }
  /// Path of the segment file holding `key`.
  std::string segment_path(std::uint64_t key) const {
    return segments_[segment_index(key)].path;
  }

 private:
  ClaimStatus claim(std::uint64_t key, bool baseline);
  void release(std::uint64_t key);

  std::string dir_;
  double lease_ttl_;
  std::uint64_t owner_;
};

}  // namespace pdos::sweep
