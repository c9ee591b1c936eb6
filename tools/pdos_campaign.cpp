// pdos_campaign — execute one or more sweep specs with K cooperating
// worker processes over a shared sharded point store.
//
// Usage:
//   pdos_campaign SPEC... [--store DIR] [--workers K] [--threads N]
//                 [--csv-dir DIR] [--lease-ttl S] [--keep-going]
//                 [--assert-no-dup] [--compact] [--quiet]
//
// Each worker process runs every spec through the ordinary sweep engine;
// the store's claim protocol partitions the cold grid among them with
// near-zero duplicated simulation, and every completed point is a hit for
// all workers, all specs that share its sub-grid, and every later
// campaign. After the workers join, the parent replays each spec from the
// store and writes merged CSV tables byte-identical to a single-process
// run.
//
//   --store DIR          CampaignStore directory (default
//                        .pdos-cache/campaign; spec `store =` overrides the
//                        default, the flag overrides the spec)
//   --workers K          worker processes, 1 to 1024 (default 2)
//   --threads N          threads per worker, at most 1024 (default: all
//                        hardware threads)
//   --csv-dir DIR        write each spec's merged CSV to DIR/<spec-stem>.csv
//                        (overrides the spec's `csv =`)
//   --lease-ttl S        work-claim lifetime in seconds, > 0 (default 120)
//   --keep-going         workers keep dispatching after a point failure
//   --assert-no-dup      exit 1 if total simulations exceeded the unique
//                        task count (i.e. claiming failed to dedup)
//   --compact            compact the store segments after the run
//
// Numbers are read exactly, as in spec files: a malformed or out-of-range
// value exits 2, naming the flag, before any worker is forked.
//
// Each failed point of the merged results prints
// `<spec>: point <index> failed: <error>` on stderr, --quiet or not. A
// worker failure is a worker that could not run its sweeps (it threw or
// crashed), not one whose points failed.
//
// Exit status: 0 on success; 1 when any point failed, a worker failed, or
// an --assert-no-dup check tripped; 2 on a usage or spec error, an output
// that cannot be opened or a store that refuses to open (a file it did not
// write, an older layout's, an unwritable directory) included. Both are
// checked before any worker forks, and a refused store is left as it was.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "sweep/campaign.hpp"
#include "sweep/campaign_store.hpp"
#include "sweep/parallel_for.hpp"
#include "sweep/spec.hpp"
#include "util/assert.hpp"

using namespace pdos;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: pdos_campaign SPEC... [--store DIR] [--workers K] "
               "[--threads N] [--csv-dir DIR] [--lease-ttl S] "
               "[--keep-going] [--assert-no-dup] [--compact] [--quiet]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> spec_paths;
  sweep::CampaignOptions options;
  std::string store_flag;
  std::string csv_dir;
  bool assert_no_dup = false;
  bool compact = false;
  bool quiet = false;

  try {
    for (int i = 1; i < argc; ++i) {
      const bool has_value = i + 1 < argc;
      if (std::strcmp(argv[i], "--store") == 0 && has_value) {
        store_flag = argv[++i];
      } else if (std::strcmp(argv[i], "--workers") == 0 && has_value) {
        options.workers = sweep::parse_integer<int>(argv[++i], "--workers");
        PDOS_REQUIRE(options.workers >= 1, "--workers: must be >= 1");
        sweep::check_worker_count(options.workers, "--workers");
      } else if (std::strcmp(argv[i], "--threads") == 0 && has_value) {
        options.threads = sweep::parse_integer<int>(argv[++i], "--threads");
        sweep::check_worker_count(options.threads, "--threads");
      } else if (std::strcmp(argv[i], "--csv-dir") == 0 && has_value) {
        csv_dir = argv[++i];
      } else if (std::strcmp(argv[i], "--lease-ttl") == 0 && has_value) {
        options.lease_ttl_seconds =
            sweep::parse_double(argv[++i], "--lease-ttl");
        PDOS_REQUIRE(options.lease_ttl_seconds > 0.0,
                     "--lease-ttl: must be > 0");
      } else if (std::strcmp(argv[i], "--keep-going") == 0) {
        options.keep_going = true;
      } else if (std::strcmp(argv[i], "--assert-no-dup") == 0) {
        assert_no_dup = true;
      } else if (std::strcmp(argv[i], "--compact") == 0) {
        compact = true;
      } else if (std::strcmp(argv[i], "--quiet") == 0) {
        quiet = true;
      } else if (argv[i][0] == '-') {
        return usage();
      } else {
        spec_paths.push_back(argv[i]);
      }
    }
  } catch (const ParameterError& e) {
    std::fprintf(stderr, "pdos_campaign: %s\n", e.what());
    return 2;
  }
  if (spec_paths.empty()) return usage();

  std::vector<sweep::CampaignSpec> specs;
  for (const std::string& path : spec_paths) {
    sweep::SpecFile file;
    try {
      file = sweep::load_spec_file(path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "pdos_campaign: %s\n", e.what());
      return 2;
    }
    sweep::CampaignSpec spec;
    spec.spec = file.spec;
    spec.csv_path = file.csv_path;
    spec.name = std::filesystem::path(path).stem().string();
    if (!csv_dir.empty()) {
      spec.csv_path =
          (std::filesystem::path(csv_dir) / (spec.name + ".csv")).string();
    }
    // A spec's `store =` sets the campaign-wide store; the flag wins, and
    // disagreeing specs are a configuration error (one campaign, one store).
    if (!file.store_dir.empty() && store_flag.empty()) {
      if (!options.store_dir.empty() &&
          options.store_dir != sweep::CampaignOptions{}.store_dir &&
          options.store_dir != file.store_dir) {
        std::fprintf(stderr,
                     "pdos_campaign: specs disagree on store (%s vs %s)\n",
                     options.store_dir.c_str(), file.store_dir.c_str());
        return 2;
      }
      options.store_dir = file.store_dir;
    }
    specs.push_back(std::move(spec));
  }
  if (!store_flag.empty()) options.store_dir = store_flag;

  if (!quiet) {
    options.on_progress = [](const sweep::CampaignProgress& p) {
      std::fprintf(stderr,
                   "\r%zu/%zu done (%zu cached), %d workers, %.1fs   ",
                   p.done, p.total, p.cached, p.workers_alive,
                   p.elapsed_seconds);
      if (p.done == p.total) std::fprintf(stderr, "\n");
    };
    std::fprintf(stderr, "pdos_campaign: %zu spec(s), %d workers, store %s\n",
                 specs.size(), options.workers,
                 options.store_dir.c_str());
  }

  sweep::CampaignResult result;
  try {
    result = sweep::run_campaign(specs, options);
  } catch (const ParameterError& e) {
    // A usage error, found before any worker forks: an output that cannot
    // be opened or a store that refuses to open, say.
    std::fprintf(stderr, "pdos_campaign: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pdos_campaign: %s\n", e.what());
    return 1;
  }

  const std::size_t total_simulated =
      result.worker_simulated + result.final_simulated;
  if (!quiet) {
    std::fprintf(stderr, "\n");
    for (std::size_t si = 0; si < specs.size(); ++si) {
      const sweep::CampaignSpecResult& s = result.specs[si];
      std::fprintf(stderr,
                   "pdos_campaign: %s: %zu ok, %zu failed, %zu store hits"
                   "%s%s\n",
                   specs[si].name.c_str(), s.result.completed(),
                   s.result.failures(), s.result.cache_hits,
                   specs[si].csv_path.empty() ? "" : " -> ",
                   specs[si].csv_path.c_str());
    }
    std::fprintf(stderr,
                 "pdos_campaign: %zu unique tasks, %zu simulated "
                 "(%zu by workers, %zu in merge), %d worker failure(s), "
                 "%.2fs wall\n",
                 result.unique_tasks, total_simulated,
                 result.worker_simulated, result.final_simulated,
                 result.worker_failures, result.wall_seconds);
  }

  for (std::size_t si = 0; si < specs.size(); ++si) {
    for (const sweep::PointResult& point : result.specs[si].result.points) {
      if (point.status == sweep::PointStatus::kFailed) {
        std::fprintf(stderr, "%s: point %zu failed: %s\n",
                     specs[si].name.c_str(), point.index,
                     point.error.c_str());
      }
    }
  }

  bool ok = result.ok();
  if (compact) {
    try {
      sweep::CampaignStore store(options.store_dir,
                                 options.lease_ttl_seconds);
      const std::size_t dropped = store.compact();
      if (!quiet) {
        std::fprintf(stderr,
                     "pdos_campaign: compacted %s (%zu lines dropped)\n",
                     options.store_dir.c_str(), dropped);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "pdos_campaign: %s\n", e.what());
      ok = false;
    }
  }
  if (assert_no_dup && total_simulated > result.unique_tasks) {
    std::fprintf(stderr,
                 "pdos_campaign: DUPLICATED WORK: %zu simulations for %zu "
                 "unique tasks\n",
                 total_simulated, result.unique_tasks);
    ok = false;
  }
  return ok ? 0 : 1;
}
