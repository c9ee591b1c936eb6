// key=value spec files for sweep campaigns.
//
// The format is one `key = value` pair per line, `#` comments, commas for
// lists — small enough to write by hand, rich enough to express the paper
// grid:
//
//   # full Figs. 6-9 grid
//   scenario     = ns2          # ns2 | testbed
//   queue        = red          # red | droptail
//   backend      = full         # full | fast | fluid (tier, see
//                               # DESIGN.md §12; default full)
//   flows        = 15,25,35,45
//   textent_ms   = 50,75,100
//   rattack_mbps = 25,30,35,40
//   gamma        = auto         # or a comma list, e.g. 0.2,0.4,0.6
//   gamma_points = 7            # auto-grid resolution
//   kappa        = 1.0
//   replicates   = 1
//   base_seed    = 1
//   warmup_s     = 5
//   measure_s    = 15
//   threads      = 0            # 0 = all hardware threads, at most 1024
//   csv          = sweep.csv    # optional output paths
//   json         = sweep.json
//   cache        = points.cache # optional persistent point cache
//   store        = campaign.d   # optional sharded campaign store directory
//                               # (multi-process; overrides `cache`)
//
// Unknown keys are an error (they are always typos). Numbers must be
// finite; the integer keys (flows, gamma_points, replicates, base_seed,
// threads) take whole numbers in their type's range.
#pragma once

#include <string>

#include "sweep/sweep.hpp"

namespace pdos::sweep {

struct SpecFile {
  SweepSpec spec;
  SweepOptions options;
  std::string csv_path;   // empty: write CSV to stdout
  std::string json_path;  // empty: no JSON output
  /// `store =`: CampaignStore directory to coordinate through. The caller
  /// (pdos_sweep/pdos_campaign) owns the store object; this is just the
  /// parsed path. Takes precedence over `cache` when both are set.
  std::string store_dir;
};

/// Parse spec text (the file contents). Throws ParameterError with a
/// line-numbered message on malformed input.
SpecFile parse_spec(const std::string& text);

/// Read and parse a spec file from disk.
SpecFile load_spec_file(const std::string& path);

/// The spec's number readers, shared with the command-line tools' flags:
/// all of `value` must be a finite number, or a whole number in Int's range
/// (int or std::uint64_t) read exactly. Anything else throws ParameterError
/// "<at>: ...", where `at` names the source ("spec line 3", "--workers").
double parse_double(const std::string& value, const std::string& at);
template <typename Int>
Int parse_integer(const std::string& value, const std::string& at);

}  // namespace pdos::sweep
