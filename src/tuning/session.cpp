#include "tuning/session.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "common/telemetry/telemetry.hpp"
#include "tuning/scheduler.hpp"

namespace glimpse::tuning {

double Trace::best_gflops(std::size_t upto) const {
  double best = 0.0;
  std::size_t n = std::min(upto, trials.size());
  for (std::size_t i = 0; i < n; ++i)
    if (trials[i].result.valid) best = std::max(best, trials[i].result.gflops);
  return best;
}

double Trace::best_latency() const {
  double best = std::numeric_limits<double>::infinity();
  for (const auto& t : trials)
    if (t.result.valid) best = std::min(best, t.result.latency_s);
  return best;
}

std::vector<double> Trace::best_curve() const {
  std::vector<double> curve;
  curve.reserve(trials.size());
  double best = 0.0;
  for (const auto& t : trials) {
    if (t.result.valid) best = std::max(best, t.result.gflops);
    curve.push_back(best);
  }
  return curve;
}

double Trace::best_gflops_within(double budget_s) const {
  double best = 0.0;
  for (const auto& t : trials) {
    if (t.elapsed_s > budget_s) break;
    if (t.result.valid) best = std::max(best, t.result.gflops);
  }
  return best;
}

std::size_t Trace::num_invalid() const {
  std::size_t n = 0;
  for (const auto& t : trials)
    if (!t.result.valid && t.result.error == MeasureError::kNone) ++n;
  return n;
}

double Trace::invalid_fraction() const {
  return trials.empty() ? 0.0
                        : static_cast<double>(num_invalid()) /
                              static_cast<double>(trials.size());
}

std::size_t Trace::num_faulted() const {
  std::size_t n = 0;
  for (const auto& t : trials)
    if (t.result.error != MeasureError::kNone) ++n;
  return n;
}

double Trace::faulted_fraction() const {
  return trials.empty() ? 0.0
                        : static_cast<double>(num_faulted()) /
                              static_cast<double>(trials.size());
}

double Trace::total_cost_s() const {
  return trials.empty() ? 0.0 : trials.back().elapsed_s;
}

Trace run_session(Tuner& tuner, const searchspace::Task& task,
                  const hwspec::GpuSpec& hw, gpusim::Measurer& measurer,
                  const SessionOptions& options) {
  GLIMPSE_CHECK(options.batch_size >= 1);
  GLIMPSE_SPAN("session.run");
  // A session is a one-job schedule: the scheduler's plan/measure/assemble
  // round degenerates to propose/measure/update with every config owned,
  // reproducing the classic session loop bit for bit.
  std::vector<ScheduledJob> jobs(1);
  jobs[0].tuner = &tuner;
  jobs[0].task = &task;
  jobs[0].hw = &hw;
  jobs[0].measurer = &measurer;
  jobs[0].options = options;
  SchedulerOptions sched;
  sched.slots = 1;
  std::vector<Trace> traces = run_scheduled(jobs, sched);
  return std::move(traces.front());
}

bool trace_decisions_identical(const Trace& a, const Trace& b) {
  return std::equal(a.trials.begin(), a.trials.end(), b.trials.begin(),
                    b.trials.end(), [](const TrialRecord& x, const TrialRecord& y) {
                      return x.config == y.config && x.step == y.step &&
                             x.result == y.result;
                    });
}

}  // namespace glimpse::tuning
