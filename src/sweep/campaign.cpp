#include "sweep/campaign.hpp"

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <unordered_set>

#include "sweep/campaign_store.hpp"
#include "sweep/parallel_for.hpp"
#include "sweep/point_cache.hpp"
#include "util/assert.hpp"

namespace pdos::sweep {

namespace {

/// Insert every task key of `spec` (points + deduped baselines) into `keys`.
void collect_task_keys(const SweepSpec& spec,
                       std::unordered_set<std::uint64_t>& keys) {
  const SweepKeys spec_keys(spec);
  PairIndex baseline_pairs;
  std::size_t next_slot = 0;
  for (const PointSpec& point : spec.enumerate()) {
    const std::uint64_t seed = replicate_seed(spec.base_seed, point.replicate);
    keys.insert(spec_keys.point(point, seed));
    if (baseline_pairs.insert(point.flows, point.replicate, next_slot)
            .second) {
      ++next_slot;
      keys.insert(spec_keys.baseline(point, seed));
    }
  }
}

/// Task count run_sweep will report for `spec` (points + unique baselines).
std::size_t spec_task_total(const SweepSpec& spec) {
  const std::vector<PointSpec> points = spec.enumerate();
  PairIndex pairs;
  std::size_t baselines = 0;
  for (const PointSpec& point : points) {
    if (pairs.insert(point.flows, point.replicate, baselines).second) {
      ++baselines;
    }
  }
  return points.size() + baselines;
}

std::ofstream open_output(const std::string& path) {
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);  // best effort
  }
  return std::ofstream(path);
}

/// One worker process: run every spec through the ordinary sweep engine
/// against the shared store, reporting progress as one text line per event
/// on `report_fd`. Lines are shorter than PIPE_BUF, so each lands atomically
/// in the parent's pipe.
int worker_main(const std::vector<CampaignSpec>& specs,
                const CampaignOptions& options, int report_fd) {
  CampaignStore store(options.store_dir, options.lease_ttl_seconds);
  FILE* report = ::fdopen(report_fd, "w");
  bool any_failed = false;
  for (std::size_t si = 0; si < specs.size(); ++si) {
    SweepOptions sweep_options;
    sweep_options.threads = options.threads;
    sweep_options.cancel_on_failure = !options.keep_going;
    sweep_options.store = &store;
    sweep_options.claim_poll_seconds = options.claim_poll_seconds;
    if (report != nullptr) {
      sweep_options.on_progress = [&](const SweepProgress& p) {
        std::fprintf(report, "p %zu %zu %zu %zu\n", si, p.done, p.total,
                     p.cached);
        std::fflush(report);
      };
    }
    const SweepResult r = run_sweep(specs[si].spec, sweep_options);
    if (report != nullptr) {
      std::fprintf(report, "f %zu %zu %zu %zu %zu %d\n", si, r.completed(),
                   r.failures(), r.cache_hits, r.simulated,
                   r.cancelled ? 1 : 0);
      std::fflush(report);
    }
    if (r.failures() > 0 || r.cancelled) any_failed = true;
  }
  if (report != nullptr) std::fclose(report);
  return any_failed ? 1 : 0;
}

}  // namespace

bool CampaignResult::ok() const {
  if (worker_failures > 0) return false;
  for (const CampaignSpecResult& s : specs) {
    if (s.result.failures() > 0 || s.result.cancelled) return false;
    for (const PointResult& p : s.result.points) {
      if (p.status != PointStatus::kOk) return false;
    }
  }
  return true;
}

std::size_t count_unique_tasks(const SweepSpec& spec) {
  std::unordered_set<std::uint64_t> keys;
  collect_task_keys(spec, keys);
  return keys.size();
}

SweepResult replay_from_store(const SweepSpec& spec, const PointStore& store) {
  const std::vector<PointSpec> points = spec.enumerate();
  const SweepKeys keys(spec);
  SweepResult result;
  result.points.resize(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    PointResult& slot = result.points[i];
    slot.index = i;
    slot.point = points[i];
    slot.seed = replicate_seed(spec.base_seed, points[i].replicate);
    if (store.lookup_point(keys.point(slot.point, slot.seed), slot)) {
      slot.status = PointStatus::kOk;
      ++result.cache_hits;
    }
  }
  return result;
}

CampaignResult run_campaign(const std::vector<CampaignSpec>& specs,
                            const CampaignOptions& options) {
  check_worker_count(options.workers, "run_campaign: workers");
  check_worker_count(options.threads, "run_campaign: threads");
  PDOS_REQUIRE(!specs.empty(), "run_campaign: no specs");
  PDOS_REQUIRE(std::isfinite(options.lease_ttl_seconds) &&
                   options.lease_ttl_seconds > 0.0,
               "run_campaign: lease_ttl_seconds must be finite and > 0");
  const int workers = std::max(1, options.workers);
  const auto start = std::chrono::steady_clock::now();

  CampaignResult campaign;
  {
    std::unordered_set<std::uint64_t> keys;
    for (const CampaignSpec& spec : specs) {
      collect_task_keys(spec.spec, keys);
    }
    campaign.unique_tasks = keys.size();
  }
  std::vector<std::size_t> spec_totals(specs.size(), 0);
  for (std::size_t si = 0; si < specs.size(); ++si) {
    spec_totals[si] = spec_task_total(specs[si].spec);
  }

  // Fork the workers, each with a report pipe. Fork happens before this
  // process creates any thread; each child starts its own sweep threads.
  std::vector<pid_t> pids;
  std::vector<int> report_fds;
  for (int w = 0; w < workers; ++w) {
    int fds[2];
    PDOS_REQUIRE(::pipe(fds) == 0, "run_campaign: pipe failed");
    const pid_t pid = ::fork();
    PDOS_REQUIRE(pid >= 0, "run_campaign: fork failed");
    if (pid == 0) {
      ::close(fds[0]);
      for (int other : report_fds) ::close(other);
      int code = 1;
      try {
        code = worker_main(specs, options, fds[1]);
      } catch (...) {
        code = 1;
      }
      ::_exit(code);
    }
    ::close(fds[1]);
    pids.push_back(pid);
    report_fds.push_back(fds[0]);
  }

  // Merged progress state: every worker walks every task of every spec, so
  // a spec's campaign progress is its furthest worker.
  std::vector<std::vector<std::size_t>> done(specs.size());
  std::vector<std::vector<std::size_t>> cached(specs.size());
  for (std::size_t si = 0; si < specs.size(); ++si) {
    done[si].assign(static_cast<std::size_t>(workers), 0);
    cached[si].assign(static_cast<std::size_t>(workers), 0);
  }
  const auto emit_progress = [&](int alive) {
    if (!options.on_progress) return;
    CampaignProgress progress;
    progress.workers_alive = alive;
    for (std::size_t si = 0; si < specs.size(); ++si) {
      std::size_t best_done = 0;
      std::size_t best_cached = 0;
      for (int w = 0; w < workers; ++w) {
        if (done[si][static_cast<std::size_t>(w)] > best_done) {
          best_done = done[si][static_cast<std::size_t>(w)];
          best_cached = cached[si][static_cast<std::size_t>(w)];
        }
      }
      progress.done += best_done;
      progress.cached += best_cached;
      progress.total += spec_totals[si];
    }
    progress.elapsed_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    options.on_progress(progress);
  };

  std::unique_ptr<CampaignStore> store;  // parent's view, opened lazily
  const auto ensure_store = [&]() -> CampaignStore& {
    if (!store) {
      store = std::make_unique<CampaignStore>(options.store_dir,
                                              options.lease_ttl_seconds);
    }
    return *store;
  };

  // Drain the report pipes until every worker closes its end.
  std::vector<std::string> buffers(static_cast<std::size_t>(workers));
  int alive = workers;
  auto last_partial = start;
  while (alive > 0) {
    std::vector<pollfd> fds(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      fds[static_cast<std::size_t>(w)] =
          pollfd{report_fds[static_cast<std::size_t>(w)], POLLIN, 0};
    }
    ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 200);
    bool saw_report = false;
    for (int w = 0; w < workers; ++w) {
      const std::size_t wi = static_cast<std::size_t>(w);
      if (report_fds[wi] < 0 ||
          (fds[wi].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      char buf[4096];
      const ssize_t n = ::read(report_fds[wi], buf, sizeof(buf));
      if (n <= 0) {
        ::close(report_fds[wi]);
        report_fds[wi] = -1;
        --alive;
        continue;
      }
      buffers[wi].append(buf, static_cast<std::size_t>(n));
      std::size_t begin = 0;
      while (true) {
        const std::size_t nl = buffers[wi].find('\n', begin);
        if (nl == std::string::npos) break;
        const std::string line = buffers[wi].substr(begin, nl - begin);
        begin = nl + 1;
        std::size_t si = 0;
        std::size_t a = 0, b = 0, c = 0, d = 0;
        int flag = 0;
        if (std::sscanf(line.c_str(), "p %zu %zu %zu %zu", &si, &a, &b,
                        &c) == 4 &&
            si < specs.size()) {
          done[si][wi] = a;
          cached[si][wi] = c;
          saw_report = true;
        } else if (std::sscanf(line.c_str(), "f %zu %zu %zu %zu %zu %d", &si,
                               &a, &b, &c, &d, &flag) == 6 &&
                   si < specs.size()) {
          campaign.worker_simulated += d;
          done[si][wi] = spec_totals[si];
          saw_report = true;
        }
      }
      buffers[wi].erase(0, begin);
    }
    if (saw_report) emit_progress(alive);

    if (options.partial_interval_seconds > 0.0) {
      const auto now = std::chrono::steady_clock::now();
      if (std::chrono::duration<double>(now - last_partial).count() >=
          options.partial_interval_seconds) {
        last_partial = now;
        CampaignStore& view = ensure_store();
        view.refresh();
        for (const CampaignSpec& spec : specs) {
          if (spec.csv_path.empty()) continue;
          const SweepResult partial = replay_from_store(spec.spec, view);
          std::ofstream out = open_output(spec.csv_path + ".partial");
          if (out.good()) partial.write_csv(out);
        }
      }
    }
  }

  for (pid_t pid : pids) {
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid ||
        !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      ++campaign.worker_failures;
    }
  }

  // Merge pass: replay every spec through the full engine against the
  // joined store. All-hit when the workers finished the grid (so the CSVs
  // are byte-identical to a single-process run); stragglers from crashed
  // workers get simulated right here.
  CampaignStore& merged = ensure_store();
  merged.refresh();
  for (const CampaignSpec& spec : specs) {
    CampaignSpecResult spec_result;
    SweepOptions sweep_options;
    sweep_options.threads = options.threads;
    sweep_options.cancel_on_failure = !options.keep_going;
    sweep_options.store = &merged;
    sweep_options.claim_poll_seconds = options.claim_poll_seconds;
    spec_result.result = run_sweep(spec.spec, sweep_options);
    spec_result.unique_tasks = count_unique_tasks(spec.spec);
    campaign.final_simulated += spec_result.result.simulated;
    if (!spec.csv_path.empty()) {
      std::ofstream out = open_output(spec.csv_path);
      PDOS_REQUIRE(out.good(), "cannot open output: " + spec.csv_path);
      spec_result.result.write_csv(out);
    }
    if (!spec.json_path.empty()) {
      std::ofstream out = open_output(spec.json_path);
      PDOS_REQUIRE(out.good(), "cannot open output: " + spec.json_path);
      spec_result.result.write_json(out);
    }
    campaign.specs.push_back(std::move(spec_result));
  }

  campaign.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return campaign;
}

}  // namespace pdos::sweep
