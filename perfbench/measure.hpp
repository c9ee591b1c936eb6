// Timing, statistics and span helpers of the benchmark. Header-only so the
// self-test (selftest.cpp) checks the same arithmetic at toy sizes.
//
// Spans follow the choosing-metrics method: each has a name, a start, an
// end, the span that caused it, and an id shared by the spans of one task,
// search or run. They are kept in memory, written out when the run ends,
// and reduced to self time: a span's duration minus the part of that
// interval its child spans cover.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_between(std::int64_t start, std::int64_t end) {
  return static_cast<double>(end - start) * 1e-9;
}

/// The middle value, or the mean of the two middle values for an even
/// count; 0 for no samples.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// 1-based rank of the nearest-rank percentile q (0 < q <= 1) of n >= 1
/// samples. The epsilon keeps q·n that is integral in exact arithmetic from
/// rounding up a rank.
inline std::size_t percentile_rank(std::size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(rank, 1.0)),
                                 1, n);
}

/// Nearest-rank percentile q of `v`; 0 for no samples.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[percentile_rank(v.size(), q) - 1];
}

/// Samples ranked above the nearest-rank percentile q of n samples.
inline std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - percentile_rank(n, q);
}

struct Tail {
  double q = 0.0;
  double value = 0.0;
};

/// The highest of p50, p75, p90, p95, p99 and p99.9 that has at least ten
/// samples beyond it; nullopt below 20 samples, where not even the median
/// qualifies.
inline std::optional<Tail> highest_tail(const std::vector<double>& v) {
  static constexpr double kLevels[] = {0.999, 0.99, 0.95, 0.9, 0.75, 0.5};
  for (double q : kLevels) {
    if (samples_beyond(v.size(), q) >= 10) return Tail{q, percentile(v, q)};
  }
  return std::nullopt;
}

/// Least-squares line y = intercept + slope·x; zeros for fewer than two
/// distinct x.
struct Line {
  double intercept = 0.0;
  double slope = 0.0;
};

inline Line fit_line(const std::vector<double>& x, const std::vector<double>& y) {
  const std::size_t n = std::min(x.size(), y.size());
  if (n < 2) return {};
  double mx = 0.0, my = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxx = 0.0, sxy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sxx += (x[i] - mx) * (x[i] - mx);
    sxy += (x[i] - mx) * (y[i] - my);
  }
  if (sxx <= 0.0) return {};
  const double slope = sxy / sxx;
  return Line{my - slope * mx, slope};
}

struct Span {
  const char* name = "";      // static string, "<layer>.<what>"
  std::int64_t start = 0;     // steady-clock ns
  std::int64_t end = 0;
  std::int64_t parent = -1;   // index of the span that caused it; -1 = root
  std::uint64_t id = 0;       // shared by the spans of one task/search/run
  std::uint32_t thread = 0;   // small per-thread number
};

/// Small dense number of the calling thread, for span records.
inline std::uint32_t thread_number() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t mine = next.fetch_add(1);
  return mine;
}

/// In-memory span recorder. Thread-safe; indices returned by add/open stay
/// valid for the tracer's lifetime.
class Tracer {
 public:
  std::size_t add(const Span& span) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
    return spans_.size() - 1;
  }

  std::size_t add(const char* name, std::int64_t start, std::int64_t end,
                  std::int64_t parent, std::uint64_t id) {
    return add(Span{name, start, end, parent, id, thread_number()});
  }

  /// Start a span now; `close` sets its end.
  std::size_t open(const char* name, std::uint64_t id, std::int64_t parent) {
    const std::int64_t t = now_ns();
    return add(name, t, t, parent, id);
  }

  void close(std::size_t index) {
    const std::int64_t t = now_ns();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[index].end = t;
  }

  void set_parent(std::size_t index, std::int64_t parent) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[index].parent = parent;
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

using Interval = std::pair<std::int64_t, std::int64_t>;

/// Total length covered by a set of [start, end) intervals.
inline std::int64_t union_length(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t total = 0;
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  bool open = false;
  for (const auto& [start, end] : intervals) {
    if (end <= start) continue;
    if (open && start <= hi) {
      hi = std::max(hi, end);
      continue;
    }
    if (open) total += hi - lo;
    lo = start;
    hi = end;
    open = true;
  }
  if (open) total += hi - lo;
  return total;
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, each clipped to the parent.
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<Interval>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    children[static_cast<std::size_t>(s.parent)].emplace_back(
        std::max(s.start, p.start), std::min(s.end, p.end));
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = (spans[i].end - spans[i].start) -
              union_length(std::move(children[i]));
  }
  return self;
}

/// Write spans as tab-separated lines (times relative to the first span's
/// start). Returns false when the file cannot be written.
inline bool write_spans(const std::vector<Span>& spans,
                        const std::vector<std::int64_t>& self,
                        const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().start;
  std::fprintf(out, "index\tname\tstart_ns\tend_ns\tself_ns\tparent\tid\tthread\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out, "%zu\t%s\t%lld\t%lld\t%lld\t%lld\t%llu\t%u\n", i, s.name,
                 static_cast<long long>(s.start - t0),
                 static_cast<long long>(s.end - t0),
                 static_cast<long long>(self[i]),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.id), s.thread);
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
