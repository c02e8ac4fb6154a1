// tune_glimpse and sweep_baselines: the compiler user's view of tuning.
//
// Both workloads draw kDraws samples of tuning sessions from the seed. A
// "pass" runs one sample, a few seconds of work; passes cycle through the
// samples until the run's seconds are spent, at least once per sample.
// Every pass of a sample makes the same decisions (checked by
// fingerprint), so deterministic metrics come from each sample's first
// pass; timings are taken per pass, and each sample's median over its
// passes enters the result. The gated throughput is process CPU time
// corrected for host speed (SpeedProbe); its wall-clock twin is on the
// info line (README.md).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/autotvm.hpp"
#include "baselines/chameleon.hpp"
#include "baselines/dgp.hpp"
#include "bench_common.hpp"
#include "common/telemetry/telemetry.hpp"
#include "glimpse/glimpse_tuner.hpp"
#include "hwspec/database.hpp"
#include "tuning/dataset.hpp"
#include "tuning/result_cache.hpp"
#include "tuning/scheduler.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace glimpse;

/// Set-up is repeated this many times per run and its median reported.
constexpr int kSetupRepeats = 3;
/// SpeedProbe slices before and after each set-up step.
constexpr std::size_t kSetupBurst = 8;
/// Samples per run. Three average out most of what one seed's draw does to
/// the throughput (README.md, "Why three samples").
constexpr std::size_t kDraws = 3;
/// A workload tunes every stride-th task of the three models (every
/// template kind occurs), on both GPUs, so that a pass takes a few seconds.
constexpr std::size_t kGlimpseTaskStride = 6;
constexpr std::size_t kSweepTaskStride = 3;
/// sweep_baselines session shape and share of repeated cells. The
/// originals arrive in kSweepWaves equal waves, one per round, so rounds
/// mix jobs at every stage; a repeat arrives kSweepRepeatLag rounds after
/// the cell it repeats, when that cell's first batches are in the cache
/// (in the same round they would be deduplicated instead).
constexpr std::size_t kSweepTrials = 48;
constexpr std::size_t kSweepPlateau = 24;
constexpr double kSweepRepeatFrac = 0.25;
constexpr std::size_t kSweepWaves = 12;
constexpr std::size_t kSweepRepeatLag = 2;
/// Tail percentiles, fixed so that a run's sample always has ten beyond.
constexpr double kJobTailPct = 75.0;
constexpr double kRoundTailPct = 95.0;

const char* const kGpus[] = {"Titan Xp", "RTX 3090"};

/// One tuning session of a pass: what to tune, on what, with which seed.
struct Cell {
  const searchspace::Task* task = nullptr;
  const hwspec::GpuSpec* gpu = nullptr;
  std::uint64_t seed = 0;
  std::size_t method = 0;  ///< index into the workload's factories
  bool repeat = false;     ///< repeats an earlier cell of the sample
  std::size_t first = 0;   ///< the cell it repeats (itself for originals)
};

/// Sample `draw` of the seed: one session per (task, GPU, method) cell of every
/// `stride`-th task; every cell has a seed-drawn tuner seed and the cells
/// run in a seed-drawn order. Then `repeat_frac` more cells repeat a
/// seed-drawn earlier cell exactly (the same layer tuned again with the
/// same settings).
/// The task set itself is fixed: best GFLOPS differs by two orders of
/// magnitude between tasks (dense vs. winograd layers), so a seed-drawn
/// subset would make the quality metrics measure the draw, not the program.
std::vector<Cell> draw_sample(const std::vector<const searchspace::Task*>& all_tasks,
                              std::size_t stride, std::uint64_t seed, std::size_t draw,
                              std::size_t methods, double repeat_frac) {
  // hash_combine adds its inputs before mixing, so the draw goes in last:
  // (seed, draw + 1) must not give (seed + 1, draw)'s sample.
  Rng rng(hash_combine(hash_combine(seed, fnv1a("perfbench.sample")), draw));
  std::vector<Cell> cells;
  for (const char* gpu : kGpus)
    for (std::size_t t = 0; t < all_tasks.size(); t += stride)
      for (std::size_t m = 0; m < methods; ++m)
        cells.push_back({all_tasks[t], hwspec::find_gpu(gpu), 0, m, false, 0});
  for (Cell& c : cells) c.seed = rng.engine()();
  rng.shuffle(cells);
  const std::size_t originals = cells.size();
  for (std::size_t i = 0; i < originals; ++i) cells[i].first = i;
  const auto repeats = static_cast<std::size_t>(repeat_frac * static_cast<double>(originals));
  for (std::size_t i = 0; i < repeats; ++i) {
    cells.push_back(cells[rng.index(originals)]);
    cells.back().repeat = true;
  }
  return cells;
}

/// bench::pretrain's offline corpus: every evaluation task on a spread of
/// ten training GPUs (the evaluation GPUs are never seen offline).
std::vector<const hwspec::GpuSpec*> dataset_gpus(const bench::Setup& setup) {
  std::vector<const hwspec::GpuSpec*> gpus = setup.train_gpus;
  if (gpus.size() > 10) {
    std::vector<const hwspec::GpuSpec*> picked;
    for (std::size_t i = 0; i < 10; ++i) picked.push_back(gpus[i * gpus.size() / 10]);
    gpus = std::move(picked);
  }
  return gpus;
}

/// Everything one pass measured.
struct Pass {
  std::size_t draw = 0;
  Ns start = 0;
  Ns wall = 0;
  Ns cpu = 0;        ///< process CPU time, the speed probe's slices taken out
  double speed = 1.0;  ///< SpeedProbe::factor() over the pass
  std::size_t speed_slices = 0;
  std::uint64_t trials = 0;
  std::uint64_t invalid = 0;
  double gpu_s = 0.0;
  std::vector<double> best_gflops;  ///< per session, repeats left out
  std::vector<double> job_s;        ///< per session: submit to settled
  /// Per job and round the job advanced in: how long it waited for its
  /// next batch (the granularity at which a caller sees progress).
  std::vector<double> round_s;
  std::vector<double> scheduler_rounds_s;  ///< per Scheduler::step_round
  std::string fingerprint;
  bool all_found_valid = true;

  // Layer counters from the decorators.
  std::vector<double> propose_s;  ///< per propose() call
  double update_s = 0.0;
  std::uint64_t proposed = 0;
  std::map<std::string, double> propose_s_by_tuner;
  double measure_s = 0.0;
  std::uint64_t measure_calls = 0;
  std::uint64_t sampler_rejected = 0;
  double cache_hit_frac = 0.0;  ///< 0 without a cache

  // Traced passes only.
  std::vector<SpanRec> spans;
  std::vector<telemetry::TraceEvent> program_events;
};

void fingerprint_trace(Fingerprint& fp, const tuning::Trace& trace) {
  fp.add_u64(trace.trials.size());
  for (const tuning::TrialRecord& t : trace.trials) {
    fp.add_u64(t.step);
    fp.add_u64(t.config.size());
    for (std::uint32_t v : t.config) fp.add_u64(v);
    fp.add_u64(t.result.valid);
    fp.add_u64(static_cast<std::uint64_t>(t.result.reason));
    fp.add_u64(static_cast<std::uint64_t>(t.result.error));
    fp.add_u64(static_cast<std::uint64_t>(t.result.attempts));
    fp.add_double(t.result.latency_s);
    fp.add_double(t.result.gflops);
    fp.add_double(t.result.cost_s);
  }
}

/// Folds one finished session into the pass. A repeated cell's best GFLOPS
/// is its original's, so it is not counted twice.
void account_session(Pass& pass, Fingerprint& fp, const tuning::Trace& trace,
                     const TimedTuner& tuner, const TimedMeasurer& measurer, bool repeat) {
  fingerprint_trace(fp, trace);
  pass.trials += trace.trials.size();
  pass.invalid += trace.num_invalid();
  pass.gpu_s += measurer.elapsed_seconds();
  if (!repeat) pass.best_gflops.push_back(trace.best_gflops());
  if (trace.trials.empty() || trace.best_gflops() <= 0.0) pass.all_found_valid = false;
  double propose_total = 0.0;
  for (Ns ns : tuner.propose_ns) {
    pass.propose_s.push_back(to_s(ns));
    propose_total += to_s(ns);
  }
  pass.propose_s_by_tuner[tuner.name()] += propose_total;
  pass.update_s += to_s(tuner.update_ns);
  pass.proposed += tuner.proposed;
  pass.measure_s += to_s(measurer.measure_ns);
  pass.measure_calls += measurer.calls;
}

/// Ends a pass begun at wall clock `t0` and CPU clock `cpu0`: collects the
/// spans a traced pass recorded.
void close_pass(Pass& pass, Ns t0, Ns cpu0) {
  const SpeedProbe& probe = SpeedProbe::get();
  pass.cpu = cpu_ns() - cpu0 - probe.overhead_ns();
  pass.speed = probe.factor();
  pass.speed_slices = probe.slices();
  pass.start = t0;
  pass.wall = now_ns() - t0;
  if (SpanLog::get().enabled()) pass.spans = SpanLog::get().take();
  if (telemetry::tracing_enabled()) pass.program_events = telemetry::drain_events();
}

/// Runs passes, cycling through the samples, until `seconds` have elapsed
/// and every sample has run.
struct Phase {
  std::vector<Pass> passes;
  Usage begin, end;
};
using PassFn = std::function<Pass(std::size_t draw)>;
Phase run_phase(const PassFn& pass, double seconds) {
  Phase ph;
  ph.begin = sample_usage();
  do {
    const std::size_t draw = ph.passes.size() % kDraws;
    ph.passes.push_back(pass(draw));
    ph.passes.back().draw = draw;
  } while (ph.passes.size() < kDraws || to_s(now_ns() - ph.begin.wall) < seconds);
  ph.end = sample_usage();
  return ph;
}

/// Sum over the samples of each sample's median over its passes of `f`.
double sum_of_draw_medians(const Phase& ph, const std::function<double(const Pass&)>& f) {
  double total = 0.0;
  for (std::size_t d = 0; d < kDraws; ++d) {
    std::vector<double> v;
    for (const Pass& p : ph.passes)
      if (p.draw == d) v.push_back(f(p));
    total += median(v);
  }
  return total;
}

/// Set-up repeated kSetupRepeats times; `phases` are the named steps of
/// one set-up, each timed in process CPU seconds, corrected for host speed
/// by bursts of SpeedProbe slices between the steps, and its median over
/// the repeats reported.
struct SetupTimes {
  double total_s = 0.0;       ///< CPU, corrected
  double total_cpu_s = 0.0;   ///< CPU
  double total_wall_s = 0.0;
  std::map<std::string, double> phase_s;  ///< CPU, corrected
};
SetupTimes time_setup(
    const std::vector<std::pair<const char*, std::function<void()>>>& phases) {
  std::vector<double> totals, walls;
  std::map<std::string, std::vector<double>> per_phase;
  SpeedProbe& probe = SpeedProbe::get();
  probe.reset();
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    double total = 0.0, wall = 0.0;
    for (const auto& [name, fn] : phases) {
      probe.burst(kSetupBurst);
      Span span(name, 0);
      const Ns cpu0 = cpu_ns();
      fn();
      const double s = to_s(cpu_ns() - cpu0);
      wall += to_s(span.finish());
      per_phase[name].push_back(s);
      total += s;
    }
    totals.push_back(total);
    walls.push_back(wall);
  }
  probe.burst(kSetupBurst);
  const double correction = probe.correction();
  SetupTimes t;
  t.total_cpu_s = median(totals);
  t.total_s = t.total_cpu_s * correction;
  t.total_wall_s = median(walls);
  for (auto& [name, v] : per_phase) t.phase_s[name] = median(v) * correction;
  return t;
}

/// Shared runner for both tuning workloads: timed phase(s), output checks
/// and the metric report. `round_span` names the span whose self time is
/// the scheduler's; `program_spans` also records the program's own spans
/// in the traced half.
void run_tuning(const RunArgs& args, Report& report, const SetupTimes& setup,
                std::size_t sessions_per_draw, const PassFn& pass, const char* round_span,
                bool program_spans) {
  report.info("sessions_per_pass", static_cast<double>(sessions_per_draw));
  report.set_attempted(kDraws * sessions_per_draw);

  Phase plain, traced;
  SpeedProbe::get().set_enabled(!args.trace);
  if (!args.trace) {
    plain = run_phase(pass, args.seconds);
  } else {
    plain = run_phase(pass, args.seconds / 2);
    SpanLog::get().set_enabled(true);
    telemetry::set_tracing_enabled(program_spans);
    traced = run_phase(pass, args.seconds / 2);
    telemetry::set_tracing_enabled(false);
    SpanLog::get().set_enabled(false);
  }

  // Output checks: every pass of a sample made the same decisions as its
  // first pass, the run's decisions are the recorded ones, and every
  // session found a valid configuration.
  std::vector<const Pass*> first(kDraws);
  for (std::size_t d = 0; d < kDraws; ++d) first[d] = &plain.passes[d];
  std::uint64_t diverged = 0;
  for (const Phase* ph : {&plain, &traced})
    for (const Pass& p : ph->passes)
      if (p.fingerprint != first[p.draw]->fingerprint) ++diverged;
  if (diverged > 0)
    report.fail(std::to_string(diverged) + " pass(es) diverged from their sample's first pass");
  Fingerprint run_fp;
  for (const Pass* p : first) run_fp.add_u64(std::stoull(p->fingerprint, nullptr, 16));
  const std::string fingerprint = run_fp.hex();
  if (!args.expect_fingerprint.empty() && fingerprint != args.expect_fingerprint)
    report.fail("decision fingerprint " + fingerprint + " != recorded " +
                args.expect_fingerprint);
  for (const Pass* p : first)
    if (!p->all_found_valid) report.fail("a session found no valid configuration");
  report.info("fingerprint", fingerprint);
  report.info("passes", static_cast<double>(plain.passes.size() + traced.passes.size()));

  if (!args.trace) {
    // Deterministic metrics over the samples' first passes.
    std::uint64_t trials = 0, invalid = 0;
    double gpu_s = 0.0;
    std::vector<double> best;
    for (const Pass* p : first) {
      trials += p->trials;
      invalid += p->invalid;
      gpu_s += p->gpu_s;
      best.insert(best.end(), p->best_gflops.begin(), p->best_gflops.end());
    }
    // Throughput: every sample's trials over the sum of the samples' median
    // pass times, so a run weighs each sample once however many passes
    // each got.
    auto rate = [&](const std::function<double(const Pass&)>& seconds) {
      return static_cast<double>(trials) / sum_of_draw_medians(plain, seconds);
    };
    // Job and round times per pass, reported as their median over the passes.
    std::vector<double> speed, job_p50, job_tails, round_p50, round_tails;
    Tail job_tail, round_tail;
    for (const Pass& p : plain.passes) {
      std::vector<double> round_us = p.round_s;
      for (double& r : round_us) r *= 1e6;
      job_tail = tail(p.job_s, kJobTailPct);
      round_tail = tail(round_us, kRoundTailPct);
      speed.push_back(p.speed);
      job_p50.push_back(median(p.job_s));
      job_tails.push_back(job_tail.value);
      round_p50.push_back(median(round_us));
      round_tails.push_back(round_tail.value);
    }
    report.metric("setup_s", setup.total_s);
    report.metric("trials_per_s", rate([](const Pass& p) {
                    return to_s(p.cpu) * std::pow(p.speed, SpeedProbe::kExponent);
                  }));
    report.metric("search_gpu_s", gpu_s / static_cast<double>(kDraws));
    report.metric("best_gflops_geomean", geomean(best));
    // Measured but not gated: they could not be held steady (README.md).
    report.info("setup_cpu_s", setup.total_cpu_s);
    report.info("setup_wall_s", setup.total_wall_s);
    report.info("cpu_trials_per_s", rate([](const Pass& p) { return to_s(p.cpu); }));
    report.info("wall_trials_per_s", rate([](const Pass& p) { return to_s(p.wall); }));
    report.info("host_speed", median(speed));
    report.info("speed_slices_per_pass", static_cast<double>(first[0]->speed_slices));
    report.info("invalid_frac", static_cast<double>(invalid) / static_cast<double>(trials));
    report.info("control_p50_us", median(round_p50));
    report.info("job_p50_s", median(job_p50));
    report.info("job_tail_s", median(job_tails));
    report.info("control_tail_us", median(round_tails));
    report.info("trials_per_pass", static_cast<double>(trials) / static_cast<double>(kDraws));
    report.info("job_tail_pct", job_tail.pct);
    report.info("job_samples_per_pass", static_cast<double>(job_tail.n));
    report.info("control_tail_pct", round_tail.pct);
    report.info("control_samples_per_pass", static_cast<double>(round_tail.n));
    report.info("host_steal_vcpus",
                (plain.end.host_steal_s - plain.begin.host_steal_s) /
                    to_s(plain.end.wall - plain.begin.wall));
    report.info("cpu_share", (plain.end.cpu_s - plain.begin.cpu_s) /
                                 to_s(plain.end.wall - plain.begin.wall));
    return;
  }

  // Per-layer metrics, from the first traced pass.
  const Pass& tp = traced.passes.front();
  for (const auto& [name, s] : setup.phase_s) report.metric(std::string(name) + "_s", s);
  double propose_total = 0.0;
  for (double s : tp.propose_s) propose_total += s;
  std::vector<double> propose_ms;
  for (double s : tp.propose_s) propose_ms.push_back(s * 1e3);
  const Tail propose_tail = tail(propose_ms, kRoundTailPct);
  report.metric("tuner.propose_s", propose_total);
  report.metric("tuner.propose_p50_ms", median(propose_ms));
  report.metric("tuner.propose_tail_ms", propose_tail.value);
  report.metric("tuner.update_s", tp.update_s);
  report.metric("tuner.proposed", static_cast<double>(tp.proposed));
  report.info("tuner_propose_tail_pct", propose_tail.pct);

  // The program's own Glimpse spans (tune_glimpse only; nested in propose).
  std::map<std::string, double> prog_s;
  std::uint64_t epochs = 0;
  for (const telemetry::TraceEvent& e : tp.program_events) {
    prog_s[e.name] += to_s(e.dur_ns);
    if (std::string(e.name) == "surrogate.epoch") ++epochs;
  }
  if (!tp.program_events.empty()) {
    report.metric("glimpse.prior_draw_s", prog_s["tuner.prior_draw"]);
    report.metric("glimpse.surrogate_refit_s", prog_s["tuner.surrogate_refit"]);
    report.metric("glimpse.search_s", prog_s["tuner.search"]);
    report.metric("glimpse.rerank_s", prog_s["tuner.rerank"]);
    report.metric("glimpse.surrogate_epochs", static_cast<double>(epochs));
    report.metric("glimpse.sampler_reject_frac",
                  static_cast<double>(tp.sampler_rejected) /
                      static_cast<double>(tp.sampler_rejected + tp.proposed));
  }
  const double glimpse_phases = prog_s["tuner.prior_draw"] +
                                prog_s["tuner.surrogate_refit"] + prog_s["tuner.search"];
  report.metric("tuner.self_s", propose_total + tp.update_s - glimpse_phases);

  static const std::map<std::string, std::string> kBaselineMetric = {
      {"AutoTVM", "baselines.autotvm_propose_s"},
      {"Chameleon", "baselines.chameleon_propose_s"},
      {"DGP", "baselines.dgp_propose_s"}};
  for (const auto& [tuner, s] : tp.propose_s_by_tuner) {
    auto it = kBaselineMetric.find(tuner);
    if (it != kBaselineMetric.end()) report.metric(it->second, s);
  }

  report.metric("gpusim.measure_s", tp.measure_s);
  report.metric("gpusim.measure_calls", static_cast<double>(tp.measure_calls));

  std::vector<double> round_ms;
  for (double s : tp.scheduler_rounds_s) round_ms.push_back(s * 1e3);
  const Tail round_tail = tail(round_ms, kRoundTailPct);
  const std::vector<LayerTime> layers = layer_times(tp.spans);
  report.metric("scheduler.rounds", static_cast<double>(round_ms.size()));
  report.metric("scheduler.round_p50_ms", median(round_ms));
  report.metric("scheduler.round_tail_ms", round_tail.value);
  report.metric("scheduler.self_s", layer_self_s(layers, round_span));
  report.info("scheduler_round_tail_pct", round_tail.pct);
  report.metric("cache.hit_frac", tp.cache_hit_frac);

  // Resource probes over the untraced half, so tracing does not skew them.
  report.metric("parallel.cores_busy",
                (plain.end.cpu_s - plain.begin.cpu_s) / to_s(plain.end.wall - plain.begin.wall));
  report.metric("io.write_mb",
                static_cast<double>(plain.end.write_bytes - plain.begin.write_bytes) / 1e6);
  report.metric("io.write_calls",
                static_cast<double>(plain.end.write_calls - plain.begin.write_calls));

  report.metric("trace.unattributed_frac",
                unattributed_frac(tp.spans, tp.start, tp.start + tp.wall));
  auto wall = [](const Pass& p) { return to_s(p.wall); };
  report.metric("trace.overhead_frac",
                sum_of_draw_medians(traced, wall) / sum_of_draw_medians(plain, wall) - 1.0);
  if (!args.trace_file.empty()) write_spans(args.trace_file, tp.spans);
}

}  // namespace

void run_tune_glimpse(const RunArgs& args, Report& report) {
  const bench::Setup setup = bench::make_setup();
  const std::vector<const hwspec::GpuSpec*> gpus = dataset_gpus(setup);

  // Set-up: the offline corpus and the Glimpse artifacts, with bench::pretrain's
  // seed and training options (so the artifacts are the figures' artifacts).
  std::unique_ptr<tuning::OfflineDataset> dataset;
  core::GlimpseArtifacts artifacts;
  std::unique_ptr<Rng> rng;
  SpanLog::get().set_enabled(args.trace);
  const SetupTimes setup_times = time_setup({
      {"pretrain.dataset",
       [&] {
         rng = std::make_unique<Rng>(bench::kBenchSeed);
         dataset = std::make_unique<tuning::OfflineDataset>(
             tuning::OfflineDataset::generate(setup.all_tasks(), gpus, 150, *rng));
       }},
      {"pretrain.glimpse",
       [&] {
         core::PriorTrainOptions prior_opts;
         prior_opts.epochs = 26;
         core::MetaTrainOptions meta_opts;
         meta_opts.max_groups = 64;
         meta_opts.epochs = 28;
         artifacts = core::pretrain_glimpse(*dataset, setup.train_gpus,
                                            core::default_blueprint_dim(), *rng,
                                            prior_opts, meta_opts);
       }},
  });
  SpanLog::get().take();
  SpanLog::get().set_enabled(false);

  // Every kGlimpseTaskStride-th task of the three models, on both GPUs.
  std::vector<std::vector<Cell>> samples;
  for (std::size_t d = 0; d < kDraws; ++d)
    samples.push_back(draw_sample(setup.all_tasks(), kGlimpseTaskStride, args.seed, d, 1, 0.0));
  const tuning::SessionOptions options = bench::e2e_session_options();

  auto pass = [&](std::size_t draw) {
    const std::vector<Cell>& cells = samples[draw];
    Pass p;
    Fingerprint fp;
    const Ns t0 = now_ns();
    SpeedProbe::get().reset();
    const Ns cpu0 = cpu_ns();
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      Span session("session", i + 1);
      SpanLog::get().set_ambient_parent(session.id());
      auto inner = std::make_unique<core::GlimpseTuner>(*c.task, *c.gpu, c.seed, artifacts);
      core::GlimpseTuner* glimpse = inner.get();
      TimedTuner tuner(std::move(inner), i + 1);
      TimedMeasurer measurer(i + 1);
      tuning::Trace trace = tuning::run_session(tuner, *c.task, *c.gpu, measurer, options);
      const Ns dur = session.finish();
      SpanLog::get().set_ambient_parent(0);
      // One job per round: a round runs from one propose() to the next.
      const Ns end = session.start() + dur;
      for (std::size_t r = 0; r < tuner.propose_starts.size(); ++r) {
        const Ns next = r + 1 < tuner.propose_starts.size() ? tuner.propose_starts[r + 1] : end;
        p.round_s.push_back(to_s(next - tuner.propose_starts[r]));
        p.scheduler_rounds_s.push_back(p.round_s.back());
      }
      // The pass is one batch submitted at its start and run in order, as
      // on sweep_baselines: a session's job time runs from the pass start.
      p.job_s.push_back(to_s(end - t0));
      p.sampler_rejected += glimpse->num_rejected_by_sampler();
      account_session(p, fp, trace, tuner, measurer, c.repeat);
    }
    p.fingerprint = fp.hex();
    close_pass(p, t0, cpu0);
    return p;
  };
  run_tuning(args, report, setup_times, samples[0].size(), pass, "session", true);
}

void run_sweep_baselines(const RunArgs& args, Report& report) {
  const bench::Setup setup = bench::make_setup();
  const std::vector<const hwspec::GpuSpec*> gpus = dataset_gpus(setup);

  // Set-up: the offline corpus and DGP's pretrained embedding (AutoTVM and
  // Chameleon need nothing offline), with bench::pretrain's options.
  std::unique_ptr<tuning::OfflineDataset> dataset;
  std::shared_ptr<const gp::DeepKernelGp> embedder;
  std::unique_ptr<Rng> rng;
  SpanLog::get().set_enabled(args.trace);
  const SetupTimes setup_times = time_setup({
      {"pretrain.dataset",
       [&] {
         rng = std::make_unique<Rng>(bench::kBenchSeed);
         dataset = std::make_unique<tuning::OfflineDataset>(
             tuning::OfflineDataset::generate(setup.all_tasks(), gpus, 150, *rng));
       }},
      {"pretrain.dgp",
       [&] {
         embedder = baselines::pretrain_dgp_embedder(
             *dataset, *rng, {.embed_dim = 10, .hidden = 24, .pretrain_epochs = 6});
       }},
  });
  SpanLog::get().take();
  SpanLog::get().set_enabled(false);

  const std::vector<tuning::TunerFactory> factories = {
      baselines::autotvm_factory(), baselines::chameleon_factory(),
      baselines::dgp_factory(embedder)};
  // Every kSweepTaskStride-th task on both GPUs, each cell tuned by all
  // three baselines, plus repeated cells so the shared cache has work.
  // Short sessions keep a pass of a hundred concurrent jobs to seconds.
  std::vector<std::vector<Cell>> samples;
  for (std::size_t d = 0; d < kDraws; ++d)
    samples.push_back(draw_sample(setup.all_tasks(), kSweepTaskStride, args.seed, d,
                                  factories.size(), kSweepRepeatFrac));
  tuning::SessionOptions base_options;
  base_options.max_trials = kSweepTrials;
  base_options.batch_size = 8;
  base_options.plateau_trials = kSweepPlateau;

  // The round in which each cell of a sample is admitted.
  std::vector<std::vector<std::size_t>> admit_rounds;
  for (const std::vector<Cell>& cells : samples) {
    std::vector<std::size_t> admit_round(cells.size());
    const std::size_t originals = static_cast<std::size_t>(
        std::count_if(cells.begin(), cells.end(), [](const Cell& c) { return !c.repeat; }));
    for (std::size_t i = 0; i < cells.size(); ++i)
      admit_round[i] = cells[i].repeat ? admit_round[cells[i].first] + kSweepRepeatLag
                                       : i * kSweepWaves / originals;
    admit_rounds.push_back(std::move(admit_round));
  }

  auto pass = [&](std::size_t draw) {
    const std::vector<Cell>& cells = samples[draw];
    const std::vector<std::size_t>& admit_round = admit_rounds[draw];
    const std::size_t last_admission = *std::max_element(admit_round.begin(), admit_round.end());
    Pass p;
    Fingerprint fp;
    // A fresh cache per pass keeps every pass's decisions identical.
    const Ns t0 = now_ns();
    SpeedProbe::get().reset();
    const Ns cpu0 = cpu_ns();
    tuning::ResultCache cache;
    tuning::Scheduler scheduler({4});
    std::vector<std::unique_ptr<TimedTuner>> tuners;      // by job index
    std::vector<std::unique_ptr<TimedMeasurer>> measurers;
    std::vector<std::size_t> job_of(cells.size());        // cell -> job index
    std::vector<Ns> admitted;                             // by job index
    std::vector<std::size_t> steps;
    std::vector<bool> settled;
    bool more = true;
    for (std::size_t r = 0; more || r <= last_admission; ++r) {
      for (std::size_t i = 0; i < cells.size(); ++i) {
        if (admit_round[i] != r) continue;
        const Cell& c = cells[i];
        job_of[i] = tuners.size();
        tuners.push_back(std::make_unique<TimedTuner>(
            factories[c.method](*c.task, *c.gpu, c.seed), i + 1));
        measurers.push_back(std::make_unique<TimedMeasurer>(i + 1));
        tuning::ScheduledJob job;
        job.tuner = tuners.back().get();
        job.task = c.task;
        job.hw = c.gpu;
        job.measurer = measurers.back().get();
        job.options = base_options;
        job.options.result_cache = &cache;
        scheduler.add_job(job);
        admitted.push_back(now_ns());
        steps.push_back(0);
        settled.push_back(false);
      }
      Span round("scheduler.round", 0);
      SpanLog::get().set_ambient_parent(round.id());
      more = scheduler.step_round();
      const double round_s = to_s(round.finish());
      SpanLog::get().set_ambient_parent(0);
      p.scheduler_rounds_s.push_back(round_s);
      const Ns now = now_ns();
      for (std::size_t j = 0; j < scheduler.num_jobs(); ++j) {
        // Every job that advanced waited the whole round for its batch.
        if (scheduler.steps_completed(j) != steps[j]) {
          steps[j] = scheduler.steps_completed(j);
          p.round_s.push_back(round_s);
        }
        if (!settled[j] && scheduler.job_done(j)) {
          settled[j] = true;
          p.job_s.push_back(to_s(now - admitted[j]));
        }
      }
    }
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const std::size_t j = job_of[i];
      account_session(p, fp, scheduler.trace(j), *tuners[j], *measurers[j], cells[i].repeat);
    }
    const tuning::ResultCacheStats cs = cache.stats();
    p.cache_hit_frac = static_cast<double>(cs.hits) / static_cast<double>(cs.hits + cs.misses);
    p.fingerprint = fp.hex();
    close_pass(p, t0, cpu0);
    return p;
  };
  run_tuning(args, report, setup_times, samples[0].size(), pass, "scheduler.round", false);
}

}  // namespace perfbench
