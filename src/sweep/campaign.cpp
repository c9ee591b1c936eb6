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

/// The distinct store keys of `tasks`, the task list of `spec`.
std::unordered_set<std::uint64_t> task_keys(const SweepSpec& spec,
                                            const SweepTasks& tasks) {
  const TaskKeys keys = sweep_keys(spec, tasks);
  std::unordered_set<std::uint64_t> distinct(keys.points.begin(),
                                             keys.points.end());
  distinct.insert(keys.baselines.begin(), keys.baselines.end());
  return distinct;
}

/// Open `path` for appending, creating its directory; an empty path stays
/// closed. A path that cannot be opened is a ParameterError. Nothing is
/// truncated: run_campaign empties the file once the store has opened.
std::ofstream open_output(const std::string& path) {
  std::ofstream out;
  if (path.empty()) return out;
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);  // best effort
  }
  out.open(path, std::ios::app);
  PDOS_REQUIRE(out.good(), "cannot open output: " + path);
  return out;
}

/// One worker process: run every spec through the ordinary sweep engine
/// against the shared store, reporting progress as one text line per event
/// on `report_fd`. Lines are shorter than PIPE_BUF, so each lands atomically
/// in the parent's pipe. Failed points are the merge pass's to report: a
/// worker whose sweeps all returned has done its work.
void worker_main(const std::vector<CampaignSpec>& specs,
                 const CampaignOptions& options, int report_fd) {
  CampaignStore store(options.store_dir, options.lease_ttl_seconds);
  FILE* report = ::fdopen(report_fd, "w");
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
  }
  if (report != nullptr) std::fclose(report);
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
  return task_keys(spec, make_tasks(spec)).size();
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

  // Each spec's task list, built once: its size is the spec's progress
  // total, and its keys give the spec's and the campaign's unique counts.
  CampaignResult campaign;
  std::vector<std::size_t> spec_totals;
  std::vector<std::size_t> spec_unique;
  {
    std::unordered_set<std::uint64_t> all_keys;
    for (const CampaignSpec& spec : specs) {
      const SweepTasks tasks = make_tasks(spec.spec);
      const std::unordered_set<std::uint64_t> keys =
          task_keys(spec.spec, tasks);
      spec_totals.push_back(tasks.size());
      spec_unique.push_back(keys.size());
      all_keys.insert(keys.begin(), keys.end());
    }
    campaign.unique_tasks = all_keys.size();
  }
  // Open every output before the first fork, so a path that cannot be
  // written fails here instead of after the whole grid has run. The streams
  // hold no buffered bytes across the fork, and workers leave them alone.
  // Two open streams on one path would interleave their tables.
  std::unordered_set<std::string> output_paths;
  for (const CampaignSpec& spec : specs) {
    PDOS_REQUIRE(
        spec.csv_path.empty() || output_paths.insert(spec.csv_path).second,
        "output named twice: " + spec.csv_path);
  }
  std::vector<std::ofstream> csv_outs;
  for (const CampaignSpec& spec : specs) {
    csv_outs.push_back(open_output(spec.csv_path));
  }
  // The merge pass's store, opened before the first fork so that a store
  // that refuses to open forks no worker. Each worker opens its own: flock(2)
  // locks belong to the open file, which an inherited fd would share.
  CampaignStore merged(options.store_dir, options.lease_ttl_seconds);
  // Only now empty the outputs, so a refused run leaves an earlier table.
  for (const CampaignSpec& spec : specs) {
    if (!spec.csv_path.empty()) std::filesystem::resize_file(spec.csv_path, 0);
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
      int code = 0;
      try {
        worker_main(specs, options, fds[1]);
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

  // Drain the report pipes until every worker closes its end.
  std::vector<std::string> buffers(static_cast<std::size_t>(workers));
  int alive = workers;
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
  merged.refresh();
  for (std::size_t si = 0; si < specs.size(); ++si) {
    const CampaignSpec& spec = specs[si];
    CampaignSpecResult spec_result;
    SweepOptions sweep_options;
    sweep_options.threads = options.threads;
    sweep_options.cancel_on_failure = !options.keep_going;
    sweep_options.store = &merged;
    sweep_options.claim_poll_seconds = options.claim_poll_seconds;
    spec_result.result = run_sweep(spec.spec, sweep_options);
    spec_result.unique_tasks = spec_unique[si];
    campaign.final_simulated += spec_result.result.simulated;
    if (csv_outs[si].is_open()) spec_result.result.write_csv(csv_outs[si]);
    campaign.specs.push_back(std::move(spec_result));
  }

  campaign.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return campaign;
}

}  // namespace pdos::sweep
