// Self-test of the benchmark at toy sizes: span self-time arithmetic, the
// rule that picks the highest percentile with at least ten samples beyond
// it, the driver/kernel line fit, and the output checks firing on a
// corrupted CSV. Exits 0 when every case passes.
//
//   python3 perfbench/run.py --selftest
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "checks.hpp"
#include "measure.hpp"
#include "sweep/sweep.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

bool tail_is(int n, double q, double value) {
  const auto tail = perfbench::highest_tail(one_to(n));
  return tail && tail->q == q && tail->value == value;
}

void test_self_time() {
  using perfbench::Span;
  // A [0,100] has children B [10,30], C [20,50] (overlapping B) and
  // D [90,120] (reaching past A's end); B has child E [15,25].
  const std::vector<Span> spans = {
      {"A", 0, 100, -1, 0, 0},  {"B", 10, 30, 0, 0, 0},
      {"C", 20, 50, 0, 0, 0},   {"D", 90, 120, 0, 0, 0},
      {"E", 15, 25, 1, 0, 0},
  };
  const std::vector<std::int64_t> self = perfbench::self_times(spans);
  expect(self[0] == 50, "self time subtracts the union of children, clipped");
  expect(self[1] == 10, "self time of a span with one child");
  expect(self[2] == 30 && self[3] == 30 && self[4] == 10,
         "self time of leaves is their duration");
  expect(perfbench::union_length({{0, 10}, {5, 15}, {20, 25}, {25, 30}}) == 25,
         "union length merges overlapping and touching intervals");
}

void test_percentiles() {
  expect(perfbench::median({3, 1, 2}) == 2 && perfbench::median({4, 1, 3, 2}) == 2.5,
         "median of odd and even counts");
  expect(!perfbench::highest_tail(one_to(19)), "no percentile under 20 samples");
  expect(tail_is(20, 0.5, 10), "20 samples: p50");
  expect(tail_is(39, 0.5, 20), "39 samples: p75 has only 9 beyond, so p50");
  expect(tail_is(40, 0.75, 30), "40 samples: p75");
  expect(tail_is(41, 0.75, 31), "41 samples: p75 (10 beyond)");
  expect(tail_is(100, 0.9, 90), "100 samples: p90");
  expect(tail_is(199, 0.9, 180), "199 samples: p95 has only 9 beyond, so p90");
  expect(tail_is(1000, 0.99, 990), "1000 samples: p99");
}

void test_fit() {
  const perfbench::Line line =
      perfbench::fit_line({15, 25, 35, 45}, {35, 55, 75, 95});
  expect(line.intercept == 5.0 && line.slope == 2.0,
         "line fit recovers intercept (driver) and slope (kernel)");
}

std::string toy_sweep_csv() {
  pdos::sweep::SweepSpec spec;
  spec.backend = pdos::Backend::kFluid;
  spec.flow_counts = {3};
  spec.gamma_points = 3;
  spec.control.warmup = pdos::sec(0.5);
  spec.control.measure = pdos::sec(1.5);
  pdos::sweep::SweepOptions options;
  options.threads = 1;
  std::ostringstream csv;
  pdos::sweep::run_sweep(spec, options).write_csv(csv);
  return csv.str();
}

void test_output_checks() {
  const std::string csv = toy_sweep_csv();
  std::string corrupted = csv;
  corrupted[corrupted.size() / 2] ^= 1;
  const std::uint64_t recorded = perfbench::fnv1a64(csv);
  expect(perfbench::digest_mismatch("toy", csv, recorded).empty(),
         "digest check passes on the recorded CSV");
  expect(!perfbench::digest_mismatch("toy", corrupted, recorded).empty(),
         "digest check fires on a corrupted CSV");
  expect(perfbench::replay_mismatch(csv, csv).empty(),
         "replay check passes on an identical CSV");
  expect(!perfbench::replay_mismatch(csv, corrupted).empty() &&
             !perfbench::replay_mismatch(csv, csv.substr(0, csv.size() - 1))
                  .empty(),
         "replay check fires on a corrupted or truncated CSV");
  expect(perfbench::gap_violation(0.05, 0.08).empty() &&
             !perfbench::gap_violation(0.09, 0.08).empty(),
         "fluid gap check fires above the agreement bound");

  perfbench::Checks checks;
  checks.operation({perfbench::digest_mismatch("toy", csv, recorded)});
  checks.operation({std::string(), perfbench::replay_mismatch(csv, corrupted)});
  expect(checks.attempted() == 2 && checks.failed() == 1,
         "a failed check counts its operation as failed");
}

}  // namespace

int main() {
  test_self_time();
  test_percentiles();
  test_fit();
  test_output_checks();
  std::printf("%s: %d failed\n", failures == 0 ? "selftest passed" : "selftest FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}
