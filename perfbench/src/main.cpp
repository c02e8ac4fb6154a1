// glimpse_perfbench: one workload per invocation, one result line.
//
//   glimpse_perfbench --workload tune_glimpse|sweep_baselines|serve_fleet
//                     --seed N --seconds S --trace 0|1 --workdir DIR
//                     [--trace-file PATH] [--expect-fingerprint HEX]
//                     [--calibrate]
//
// --trace 0 measures the end-to-end metrics, --trace 1 the per-layer ones
// (see README.md). The last stdout line is the JSON result with every
// metric measured, by name; run.py checks it against BENCHMARK.json and
// adds the units. The line before it carries context (pool width, sample
// sizes, tail percentiles, the decision fingerprint, failed output checks).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common/parallel.hpp"
#include "workloads.hpp"

namespace {

constexpr std::size_t kPoolWidth = 1;

int usage(const char* why) {
  std::fprintf(stderr,
               "glimpse_perfbench: %s\nusage: glimpse_perfbench --workload "
               "tune_glimpse|sweep_baselines|serve_fleet --seed N --seconds S "
               "--trace 0|1 --workdir DIR [--trace-file PATH] "
               "[--expect-fingerprint HEX] [--calibrate]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--calibrate") {
      args.calibrate = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") args.seconds = std::strtod(value.c_str(), nullptr);
    else if (flag == "--trace" && (value == "0" || value == "1")) args.trace = value == "1";
    else if (flag == "--workdir") args.workdir = value;
    else if (flag == "--trace-file") args.trace_file = value;
    else if (flag == "--expect-fingerprint") args.expect_fingerprint = value;
    else return usage(("unknown flag " + flag).c_str());
  }
  if (args.workdir.empty()) return usage("--workdir is required");
  if (!(args.seconds > 0.0)) return usage("--seconds must be positive");

  // One pool thread; the width is part of the result. On a shared 4-vCPU
  // host under hypervisor steal, a 4-wide pool stalls in fork-join waits
  // and made runs 2-4x slower at random, so the runs could not be held
  // steady (README.md, "Pool width"). Decisions are identical at any width.
  glimpse::set_num_threads(kPoolWidth);

  perfbench::Report report;
  report.info("seed", static_cast<double>(args.seed));
  report.info("pool_width", static_cast<double>(glimpse::num_threads()));
  report.info("fingerprint_checked", args.expect_fingerprint.empty() ? "no" : "yes");
  try {
    if (args.workload == "tune_glimpse") perfbench::run_tune_glimpse(args, report);
    else if (args.workload == "sweep_baselines") perfbench::run_sweep_baselines(args, report);
    else if (args.workload == "serve_fleet") perfbench::run_serve_fleet(args, report);
    else return usage(("unknown workload " + args.workload).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "glimpse_perfbench: %s\n", e.what());
    return 1;
  }
  if (args.calibrate) return 0;
  if (!args.trace) report.metric("peak_rss_mb", perfbench::peak_rss_mb());
  report.print(args.workload);
  return 0;
}
