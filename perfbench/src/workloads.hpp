// The three workloads. Each fills `report` with the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run), and records every
// failed output check there.
#pragma once

#include <cstdint>
#include <string>

#include "probes.hpp"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout (sockets, spools, cache tiers).
  std::string workdir;
  /// Where a traced run writes its spans (JSONL); empty = do not write.
  std::string trace_file;
  /// Decision fingerprint recorded for this (workload, seed); empty = none.
  std::string expect_fingerprint;
  /// serve_fleet only: measure the fleet's capacity instead of a run.
  bool calibrate = false;
};

void run_tune_glimpse(const RunArgs& args, Report& report);
void run_sweep_baselines(const RunArgs& args, Report& report);
void run_serve_fleet(const RunArgs& args, Report& report);

}  // namespace perfbench
