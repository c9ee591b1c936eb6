// Output checks of the benchmark. Every timed operation is one attempt; an
// operation whose outputs fail a check counts as failed, and any failure
// makes the run exit non-zero.
//
// Packet-tier outputs are pinned bit for bit to the values recorded in
// expected.hpp (the contract of tests/sweep/golden_output_test). A replay
// from the campaign store must reproduce the cold pass's CSV byte for byte.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t hash = 1469598103934665603ull;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

inline std::string hex64(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

/// Empty when `text` hashes to `expected`; otherwise a message naming both
/// digests, so an intended change can be recorded from it.
inline std::string digest_mismatch(const std::string& what,
                                   std::string_view text,
                                   std::uint64_t expected) {
  const std::uint64_t actual = fnv1a64(text);
  if (actual == expected) return {};
  return what + ": digest " + hex64(actual) + ", recorded " + hex64(expected);
}

/// Empty when a replay's CSV equals the cold pass's byte for byte;
/// otherwise a message giving the first differing offset.
inline std::string replay_mismatch(std::string_view cold,
                                   std::string_view replay) {
  if (cold == replay) return {};
  std::size_t i = 0;
  while (i < cold.size() && i < replay.size() && cold[i] == replay[i]) ++i;
  return "replay CSV differs from the cold pass at byte " + std::to_string(i) +
         " (" + std::to_string(replay.size()) + " vs " +
         std::to_string(cold.size()) + " bytes)";
}

/// Empty when the mean fluid-vs-packet gain gap is within `bound`.
inline std::string gap_violation(double gap, double bound) {
  if (gap <= bound) return {};
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "fluid_gap %.6g exceeds the fluid agreement bound %.6g", gap,
                bound);
  return buf;
}

class Checks {
 public:
  /// Record one operation; `problems` holds the message of every check it
  /// failed (empty strings are passes).
  void operation(const std::vector<std::string>& problems) {
    ++attempted_;
    bool ok = true;
    for (const std::string& p : problems) {
      if (p.empty()) continue;
      ok = false;
      if (messages_.size() < 64) messages_.push_back(p);
    }
    if (!ok) ++failed_;
  }

  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::string> messages_;
};

}  // namespace perfbench
