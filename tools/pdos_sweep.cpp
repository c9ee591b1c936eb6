// pdos_sweep — run a parameter campaign described by a key=value spec file
// and emit the result table.
//
// Usage:
//   pdos_sweep SPECFILE [--threads N] [--csv PATH] [--aggregate PATH]
//              [--resume] [--cache PATH] [--campaign DIR] [--progress-json]
//              [--quiet] [--keep-going]
//
// The spec format is documented in src/sweep/spec.hpp (and README.md,
// "Running parameter sweeps"). Command-line flags override the file.
// Progress goes to stderr, the CSV table to --csv/`csv =` or stdout.
// `--aggregate` additionally writes the per-point replicate statistics
// (mean / sample stddev / 95% CI of gain and degradation) as CSV.
// `--resume` enables the persistent point cache at
// .pdos-cache/points.cache (or `--cache PATH`, or `cache =` in the spec):
// completed points are replayed instead of re-simulated, so an interrupted
// or repeated campaign picks up where it left off. `--campaign DIR` (or
// `store =` in the spec) coordinates through a sharded CampaignStore
// instead: several pdos_sweep processes pointed at the same DIR partition
// a cold grid via work claiming and share every result (see README.md,
// "Running campaigns"). `--progress-json` emits machine-readable
// JSON-lines progress on stderr for orchestrators and CI logs. `--threads`
// is read exactly, like the spec's `threads =` key, and at most 1024.
// Every output file is opened before the sweep starts, so an unwritable
// path simulates nothing.
// Exit status: 0 on success, 1 when any point failed, 2 on a usage or spec
// error (an output that cannot be opened included).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <utility>

#include "sweep/campaign_store.hpp"
#include "sweep/parallel_for.hpp"
#include "sweep/point_cache.hpp"
#include "sweep/spec.hpp"
#include "util/assert.hpp"

using namespace pdos;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: pdos_sweep SPECFILE [--threads N] [--csv PATH] "
               "[--aggregate PATH] [--resume] [--cache PATH] "
               "[--campaign DIR] [--progress-json] [--quiet] "
               "[--keep-going]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || argv[1][0] == '-') return usage();

  sweep::SpecFile file;
  try {
    file = sweep::load_spec_file(argv[1]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pdos_sweep: %s\n", e.what());
    return 2;
  }

  bool quiet = false;
  bool progress_json = false;
  std::string aggregate_path;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      try {
        file.options.threads =
            sweep::parse_integer<int>(argv[++i], "--threads");
        sweep::check_worker_count(file.options.threads, "--threads");
      } catch (const ParameterError& e) {
        std::fprintf(stderr, "pdos_sweep: %s\n", e.what());
        return 2;
      }
    } else if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc) {
      file.csv_path = argv[++i];
    } else if (std::strcmp(argv[i], "--aggregate") == 0 && i + 1 < argc) {
      aggregate_path = argv[++i];
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      if (file.cache_path.empty()) file.cache_path = ".pdos-cache/points.cache";
    } else if (std::strcmp(argv[i], "--cache") == 0 && i + 1 < argc) {
      file.cache_path = argv[++i];
    } else if (std::strcmp(argv[i], "--campaign") == 0 && i + 1 < argc) {
      file.store_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--progress-json") == 0) {
      progress_json = true;
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      quiet = true;
    } else if (std::strcmp(argv[i], "--keep-going") == 0) {
      file.options.cancel_on_failure = false;
    } else {
      return usage();
    }
  }

  // Open every output now: failing after a finished sweep would throw its
  // results away.
  std::ofstream csv_out;
  std::ofstream aggregate_out;
  for (const auto& [path, out] : {std::pair{&file.csv_path, &csv_out},
                                  std::pair{&aggregate_path, &aggregate_out}}) {
    if (path->empty()) continue;
    out->open(*path);
    if (!out->good()) {
      std::fprintf(stderr, "pdos_sweep: cannot open output: %s\n",
                   path->c_str());
      return 2;
    }
  }

  // A campaign store (from --campaign or `store =`) supersedes the
  // single-file cache: same keys, plus multi-process claiming.
  std::unique_ptr<sweep::PointStore> store;
  if (!file.store_dir.empty()) {
    store = std::make_unique<sweep::CampaignStore>(file.store_dir);
  } else if (!file.cache_path.empty()) {
    store = std::make_unique<sweep::PointCache>(file.cache_path);
  }
  file.options.store = store.get();

  const auto points = file.spec.enumerate();
  if (progress_json) {
    // One JSON object per finished task, machine-readable on stderr (the
    // CSV table owns stdout). Orchestrators and CI logs consume this.
    file.options.on_progress = [](const sweep::SweepProgress& progress) {
      std::fprintf(stderr,
                   "{\"done\": %zu, \"total\": %zu, \"cached\": %zu, "
                   "\"elapsed_s\": %.3f, \"eta_s\": %.3f}\n",
                   progress.done, progress.total, progress.cached,
                   progress.elapsed_seconds, progress.eta_seconds);
    };
  } else if (!quiet) {
    std::fprintf(stderr,
                 "pdos_sweep: %zu points (%s scenario, %s backend, "
                 "base seed %llu)\n",
                 points.size(), sweep::scenario_kind_name(file.spec.scenario),
                 backend_name(file.spec.backend),
                 static_cast<unsigned long long>(file.spec.base_seed));
    file.options.on_progress = [](const sweep::SweepProgress& progress) {
      std::fprintf(stderr, "\r%zu/%zu done, %.1fs elapsed, eta %.1fs   ",
                   progress.done, progress.total, progress.elapsed_seconds,
                   progress.eta_seconds);
      if (progress.done == progress.total) std::fprintf(stderr, "\n");
    };
  }

  const sweep::SweepResult result = sweep::run_sweep(file.spec, file.options);
  if (!quiet) {
    std::fprintf(stderr,
                 "pdos_sweep: %zu ok, %zu failed%s on %d threads in %.2fs\n",
                 result.completed(), result.failures(),
                 result.cancelled ? " (cancelled)" : "", result.threads,
                 result.wall_seconds);
    if (!file.store_dir.empty()) {
      std::fprintf(stderr,
                   "pdos_sweep: %zu store hits, %zu simulated (%s)\n",
                   result.cache_hits, result.simulated,
                   file.store_dir.c_str());
    } else if (store) {
      std::fprintf(stderr, "pdos_sweep: %zu cache hits (%s)\n",
                   result.cache_hits, file.cache_path.c_str());
    }
  }

  if (file.csv_path.empty()) {
    result.write_csv(std::cout);
  } else {
    result.write_csv(csv_out);
    if (!quiet) {
      std::fprintf(stderr, "pdos_sweep: wrote %s\n", file.csv_path.c_str());
    }
  }
  if (!aggregate_path.empty()) {
    const auto rows = sweep::aggregate_replicates(result);
    sweep::write_aggregate_csv(rows, aggregate_out);
    if (!quiet) {
      std::fprintf(stderr, "pdos_sweep: wrote %s (%zu aggregate rows)\n",
                   aggregate_path.c_str(), rows.size());
    }
  }

  for (const auto& point : result.points) {
    if (point.status == sweep::PointStatus::kFailed) {
      std::fprintf(stderr, "point %zu failed: %s\n", point.index,
                   point.error.c_str());
    }
  }
  return result.failures() == 0 && !result.cancelled ? 0 : 1;
}
