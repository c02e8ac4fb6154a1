// Measurement plumbing shared by the workloads: the clock, order
// statistics, the benchmark's own span log, the timing decorators around
// tuning::Tuner and gpusim::Measurer, the process resource probes, and the
// result report.
//
// Everything here observes the program from outside through its public
// API; nothing changes what the program decides. The decorators forward
// every call unchanged, so a decorated session makes bit-identical
// decisions to an undecorated one.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gpusim/measurer.hpp"
#include "tuning/tuner.hpp"

namespace perfbench {

using Ns = std::uint64_t;

/// The program's telemetry clock (monotonic ns since telemetry init), so
/// the benchmark's spans and the program's own spans share one timeline.
Ns now_ns();
/// CPU time of the whole process, every thread, in ns. The kernel of a
/// paravirtualised guest leaves steal time (the hypervisor running other
/// guests on our vCPU) out of it; how fast the vCPU runs still counts.
Ns cpu_ns();
inline double to_s(Ns ns) { return static_cast<double>(ns) * 1e-9; }

// ---------------------------------------------------------------- stats

double median(std::vector<double> v);
/// Linear-interpolated percentile, p in [0, 100]. 0 on an empty sample.
double percentile(std::vector<double> v, double p);
double geomean(const std::vector<double>& v);

/// A tail percentile: the requested one when at least ten samples lie
/// beyond it, else the highest of 99/95/90/75/50 below it that has ten
/// beyond it, else (fewer than 20 samples) the maximum. `pct` records which.
struct Tail {
  double value = 0.0;
  double pct = 0.0;
  std::size_t n = 0;
};
Tail tail(const std::vector<double>& v, double wanted_pct);

// ---------------------------------------------------------------- spans

/// One benchmark span. `group` is the session or job the span belongs to
/// (0 = none); `parent` is the enclosing benchmark span (0 = root).
struct SpanRec {
  const char* name = nullptr;  ///< static string
  Ns start = 0;
  Ns end = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t group = 0;
};

/// Process-wide, in-memory span log for traced runs. Off by default; when
/// off, Span only reads the clock.
class SpanLog {
 public:
  static SpanLog& get();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Parent for spans opened on a thread with no open span of its own
  /// (pool threads measuring on behalf of a round or session).
  void set_ambient_parent(std::uint64_t id) {
    ambient_.store(id, std::memory_order_relaxed);
  }
  std::uint64_t ambient_parent() const { return ambient_.load(std::memory_order_relaxed); }

  std::uint64_t next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void record(const SpanRec& s);
  std::vector<SpanRec> take();

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> ambient_{0};
  std::atomic<std::uint64_t> next_id_{1};
  std::mutex mu_;
  std::vector<SpanRec> spans_;  // guarded by mu_
};

/// Scoped timer that also records a span when the log is enabled.
class Span {
 public:
  /// Parent: the thread's innermost open span, else the ambient parent.
  Span(const char* name, std::uint64_t group);
  /// Explicit parent (a span recorded later, e.g. a job's whole lifetime).
  Span(const char* name, std::uint64_t group, std::uint64_t parent);
  ~Span() { finish(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Close the span (idempotent); returns its duration.
  Ns finish();
  Ns start() const { return start_; }
  /// Span id (0 when the log is off).
  std::uint64_t id() const { return id_; }

 private:
  const char* name_;
  std::uint64_t group_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  Ns start_;
  Ns dur_ = 0;
  bool open_ = true;
};

/// Self time of every span name: duration minus the part of its interval
/// covered by its child spans.
struct LayerTime {
  std::string name;
  double self_s = 0.0;
};
std::vector<LayerTime> layer_times(const std::vector<SpanRec>& spans);
double layer_self_s(const std::vector<LayerTime>& layers, const std::string& name);
/// Share of [t0, t1] covered by no root span.
double unattributed_frac(const std::vector<SpanRec>& spans, Ns t0, Ns t1);
/// Writes spans one JSON object per line (the traced run's trace file).
void write_spans(const std::string& path, const std::vector<SpanRec>& spans);

// ---------------------------------------------------------------- decorators

/// Times propose/update of the wrapped tuner and forwards every call.
class TimedTuner final : public glimpse::tuning::Tuner {
 public:
  TimedTuner(std::unique_ptr<glimpse::tuning::Tuner> inner, std::uint64_t group);

  std::string name() const override { return inner_->name(); }
  std::vector<glimpse::tuning::Config> propose(std::size_t n) override;
  void update(const std::vector<glimpse::tuning::Config>& configs,
              const std::vector<glimpse::tuning::MeasureResult>& results) override;
  void set_warm_start(const std::vector<glimpse::tuning::Config>& configs,
                      const std::vector<double>& scores) override {
    inner_->set_warm_start(configs, scores);
  }
  bool checkpointable() const override { return inner_->checkpointable(); }
  void save(glimpse::TextWriter& w) const override { inner_->save(w); }
  void load(glimpse::TextReader& r) override { inner_->load(r); }

  glimpse::tuning::Tuner& inner() { return *inner_; }

  std::vector<Ns> propose_starts;  ///< clock at each propose() entry
  std::vector<Ns> propose_ns;      ///< duration of each propose()
  Ns update_ns = 0;
  std::uint64_t proposed = 0;      ///< configs returned by propose()

 private:
  std::unique_ptr<glimpse::tuning::Tuner> inner_;
  std::uint64_t group_;
};

/// Times measure() on a SimMeasurer and forwards the accounting calls.
class TimedMeasurer final : public glimpse::gpusim::Measurer {
 public:
  explicit TimedMeasurer(std::uint64_t group) : group_(group) {}

  using Measurer::measure;
  glimpse::gpusim::MeasureResult measure(const glimpse::searchspace::Task& task,
                                         const glimpse::hwspec::GpuSpec& hw,
                                         const glimpse::searchspace::Config& config,
                                         double timeout_s) override;
  double elapsed_seconds() const override { return sim_.elapsed_seconds(); }
  void add_cost(double seconds) override { sim_.add_cost(seconds); }
  void save_state(glimpse::TextWriter& w) const override { sim_.save_state(w); }
  void load_state(glimpse::TextReader& r) override { sim_.load_state(r); }

  Ns measure_ns = 0;
  std::uint64_t calls = 0;

 private:
  glimpse::gpusim::SimMeasurer sim_;
  std::uint64_t group_;
};

// ---------------------------------------------------------------- resources

/// Process-wide counters read from outside the program's own telemetry:
/// getrusage CPU time, /proc/self/io write counters and the host's steal.
struct Usage {
  Ns wall = 0;
  double cpu_s = 0.0;
  std::uint64_t write_bytes = 0;  ///< wchar: every write(2), sockets included
  std::uint64_t write_calls = 0;  ///< syscw
  double host_steal_s = 0.0;      ///< /proc/stat steal, summed over the vCPUs
};
Usage sample_usage();
/// Peak resident set of this process so far (getrusage ru_maxrss).
double peak_rss_mb();

/// Host speed on the program's thread. On a shared host one vCPU's speed
/// swings by up to 2x within a second (whatever shares its physical core),
/// and vCPUs do not swing together, so a speed probe has to run on the
/// thread it corrects for. The timing decorators call sample() on entry:
/// once per kSliceEvery of the thread's CPU time it runs one slice of a
/// fixed reference kernel (part of the benchmark, not of the program) and
/// records how fast the slice ran against its nominal time. factor() is
/// the mean of nominal / measured over a window: 1 on a host as fast as
/// the nominal one, 0.5 when everything takes twice as long.
class SpeedProbe {
 public:
  /// How far the program's speed moves with factor(): CPU seconds are
  /// multiplied by factor()^kExponent to give seconds at nominal speed.
  /// Across runs, log(trials per CPU second) rose with log(factor) at a
  /// slope of 1.37 (sweep_baselines) and 1.75 (tune_glimpse): the kernel
  /// runs in the core's own caches, while the program also waits on the
  /// shared cache and memory, which the same neighbours slow (README.md).
  static constexpr double kExponent = 1.5;

  static SpeedProbe& get();

  /// Off: sample() does nothing (traced runs, whose span self times the
  /// slices would otherwise land in).
  void set_enabled(bool on) { enabled_ = on; }
  /// Starts a window owned by the calling thread; only it takes slices.
  void reset();
  /// Runs a slice if one is due; a no-op on other threads.
  void sample();
  /// Runs `n` slices now, due or not (the owning thread only), for work
  /// that has no decorator to call sample(): set-up, between its steps.
  void burst(std::size_t n);
  double factor() const;
  /// factor()^kExponent.
  double correction() const;
  std::size_t slices() const { return slices_; }
  /// Thread CPU time the window's slices took (to take out of its timings).
  Ns overhead_ns() const { return overhead_; }

 private:
  void slice();

  bool enabled_ = true;
  std::thread::id owner_;
  Ns last_ = 0;
  Ns overhead_ = 0;
  // A sum, not a list: the probe allocates nothing, so it cannot move the
  // program's heap layout or peak_rss_mb.
  double factor_sum_ = 0.0;
  std::size_t slices_ = 0;
};

// ---------------------------------------------------------------- report

/// Order-sensitive 64-bit FNV-1a over raw bytes: the decision fingerprint.
class Fingerprint {
 public:
  void add_u64(std::uint64_t v);
  void add_double(double v);
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

class Report {
 public:
  void metric(const std::string& name, double value);
  /// Context printed on the line before the result (not a metric).
  void info(const std::string& key, double value);
  void info(const std::string& key, const std::string& value);
  /// A failed output check: counts once in `failed` and makes correct false.
  void fail(const std::string& what);
  void set_attempted(std::uint64_t n) { attempted_ = n; }

  bool correct() const { return failed_ == 0; }
  /// Prints the info line, then the result line (last line of stdout) with
  /// every metric the workload measured, by name. run.py gives them their
  /// units from BENCHMARK.json, the one list of the benchmark's metrics.
  void print(const std::string& workload);

 private:
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// JSON number with every digit (shortest round-trip form).
std::string json_number(double v);
std::string json_string(const std::string& s);

}  // namespace perfbench
