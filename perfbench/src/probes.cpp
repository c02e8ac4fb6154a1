#include "probes.hpp"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <stdexcept>

#include "common/telemetry/span.hpp"

namespace perfbench {

Ns now_ns() { return glimpse::telemetry::now_ns(); }

Ns cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<Ns>(ts.tv_sec) * 1000000000ULL + static_cast<Ns>(ts.tv_nsec);
}

// ---------------------------------------------------------------- stats

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

Tail tail(const std::vector<double>& v, double wanted_pct) {
  Tail t;
  t.n = v.size();
  if (v.empty()) return t;
  auto beyond = [&](double pct) { return static_cast<double>(v.size()) * (1.0 - pct / 100.0); };
  t.pct = 100.0;  // fewer than 20 samples: the maximum
  for (double pct : {wanted_pct, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (pct <= wanted_pct && beyond(pct) >= 10.0) {
      t.pct = pct;
      break;
    }
  }
  t.value = percentile(v, t.pct);
  return t;
}

// ---------------------------------------------------------------- spans

namespace {
// Open benchmark spans of the calling thread, innermost last.
thread_local std::vector<std::uint64_t> open_spans;
}  // namespace

SpanLog& SpanLog::get() {
  static SpanLog log;
  return log;
}

void SpanLog::record(const SpanRec& s) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(s);
}

std::vector<SpanRec> SpanLog::take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(spans_);
}

Span::Span(const char* name, std::uint64_t group)
    : Span(name, group,
           open_spans.empty() ? SpanLog::get().ambient_parent() : open_spans.back()) {}

Span::Span(const char* name, std::uint64_t group, std::uint64_t parent)
    : name_(name), group_(group) {
  SpanLog& log = SpanLog::get();
  if (log.enabled()) {
    id_ = log.next_id();
    parent_ = parent;
    open_spans.push_back(id_);
  }
  start_ = now_ns();
}

Ns Span::finish() {
  if (!open_) return dur_;
  open_ = false;
  const Ns end = now_ns();
  dur_ = end - start_;
  if (id_ != 0) {
    // Spans close innermost-first on their own thread.
    if (!open_spans.empty() && open_spans.back() == id_) open_spans.pop_back();
    SpanLog::get().record({name_, start_, end, id_, parent_, group_});
  }
  return dur_;
}

namespace {

/// Length of the union of [a, b) intervals, clipped to [lo, hi).
Ns covered(std::vector<std::pair<Ns, Ns>> iv, Ns lo, Ns hi) {
  for (auto& [a, b] : iv) {
    a = std::clamp(a, lo, hi);
    b = std::clamp(b, lo, hi);
  }
  std::sort(iv.begin(), iv.end());
  Ns total = 0, cur_a = 0, cur_b = 0;
  bool have = false;
  for (const auto& [a, b] : iv) {
    if (b <= a) continue;
    if (!have || a > cur_b) {
      if (have) total += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      have = true;
    } else {
      cur_b = std::max(cur_b, b);
    }
  }
  if (have) total += cur_b - cur_a;
  return total;
}

}  // namespace

std::vector<LayerTime> layer_times(const std::vector<SpanRec>& spans) {
  std::map<std::uint64_t, std::vector<std::pair<Ns, Ns>>> children;
  for (const SpanRec& s : spans)
    if (s.parent != 0) children[s.parent].emplace_back(s.start, s.end);
  std::map<std::string, LayerTime> by_name;
  for (const SpanRec& s : spans) {
    LayerTime& l = by_name[s.name];
    l.name = s.name;
    const Ns dur = s.end - s.start;
    auto it = children.find(s.id);
    const Ns kids = it == children.end() ? 0 : covered(it->second, s.start, s.end);
    l.self_s += to_s(dur - kids);
  }
  std::vector<LayerTime> out;
  for (auto& [name, l] : by_name) out.push_back(l);
  return out;
}

double layer_self_s(const std::vector<LayerTime>& layers, const std::string& name) {
  for (const auto& l : layers)
    if (l.name == name) return l.self_s;
  return 0.0;
}

double unattributed_frac(const std::vector<SpanRec>& spans, Ns t0, Ns t1) {
  if (t1 <= t0) return 0.0;
  std::vector<std::pair<Ns, Ns>> roots;
  for (const SpanRec& s : spans)
    if (s.parent == 0) roots.emplace_back(s.start, s.end);
  return 1.0 - static_cast<double>(covered(std::move(roots), t0, t1)) /
                   static_cast<double>(t1 - t0);
}

void write_spans(const std::string& path, const std::vector<SpanRec>& spans) {
  std::ofstream os(path, std::ios::trunc);
  for (const SpanRec& s : spans)
    os << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start
       << ",\"end_ns\":" << s.end << ",\"id\":" << s.id << ",\"parent\":" << s.parent
       << ",\"group\":" << s.group << "}\n";
  if (!os.good()) throw std::runtime_error("cannot write trace file " + path);
}

// ---------------------------------------------------------------- decorators

TimedTuner::TimedTuner(std::unique_ptr<glimpse::tuning::Tuner> inner, std::uint64_t group)
    : inner_(std::move(inner)), group_(group) {}

std::vector<glimpse::tuning::Config> TimedTuner::propose(std::size_t n) {
  SpeedProbe::get().sample();
  Span span("tuner.propose", group_);
  std::vector<glimpse::tuning::Config> out = inner_->propose(n);
  propose_ns.push_back(span.finish());
  propose_starts.push_back(span.start());
  proposed += out.size();
  return out;
}

void TimedTuner::update(const std::vector<glimpse::tuning::Config>& configs,
                        const std::vector<glimpse::tuning::MeasureResult>& results) {
  SpeedProbe::get().sample();
  Span span("tuner.update", group_);
  inner_->update(configs, results);
  update_ns += span.finish();
}

glimpse::gpusim::MeasureResult TimedMeasurer::measure(
    const glimpse::searchspace::Task& task, const glimpse::hwspec::GpuSpec& hw,
    const glimpse::searchspace::Config& config, double timeout_s) {
  Span span("gpusim.measure", group_);
  glimpse::gpusim::MeasureResult r = sim_.measure(task, hw, config, timeout_s);
  measure_ns += span.finish();
  ++calls;
  return r;
}

// ---------------------------------------------------------------- resources

Usage sample_usage() {
  Usage u;
  u.wall = now_ns();
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  u.cpu_s = secs(ru.ru_utime) + secs(ru.ru_stime);
  std::ifstream io("/proc/self/io");
  std::string key;
  std::uint64_t value = 0;
  while (io >> key >> value) {
    if (key == "wchar:") u.write_bytes = value;
    if (key == "syscw:") u.write_calls = value;
  }
  // First line: "cpu user nice system idle iowait irq softirq steal ...".
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::uint64_t ticks[8] = {};
  stat >> cpu;
  for (std::uint64_t& t : ticks) stat >> t;
  u.host_steal_s = static_cast<double>(ticks[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
  return u;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

namespace {

Ns thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<Ns>(ts.tv_sec) * 1000000000ULL + static_cast<Ns>(ts.tv_nsec);
}

/// One slice is due per this much of the owning thread's CPU time.
constexpr Ns kSliceEvery = 10'000'000;
/// A slice's thread CPU time on an idle host of the kind the benchmark was
/// written on (4-vCPU Xeon VM), so factor() reads about 1 there.
constexpr double kNominalSliceS = 0.45e-3;

/// The reference kernel: dense floating-point work (48x48 matrix products,
/// as in the tuners' GP and MLP fits) and data-dependent loads over a
/// 256 KiB table (as in tree building and cache lookups), all of it in the
/// core's own caches.
double reference_slice_s() {
  constexpr std::size_t kDim = 48;
  constexpr std::size_t kProducts = 2;
  constexpr std::size_t kTable = std::size_t{1} << 16;
  constexpr std::size_t kLoads = std::size_t{1} << 15;
  // Static storage, not the heap, for the same reason as SpeedProbe's sum.
  // Only SpeedProbe's owning thread runs slices.
  static std::array<double, kDim * kDim> a_buf, b_buf, c_buf;
  static std::array<std::uint32_t, kTable> table;
  static bool filled = false;
  if (!filled) {
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (std::uint32_t& t : table) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      t = static_cast<std::uint32_t>(x >> 33);
    }
    filled = true;
  }
  double* a = a_buf.data();
  double* b = b_buf.data();
  double* c = c_buf.data();
  // Untimed: bring the kernel's data into cache, so that the timed part
  // measures the core, not what the program left in the cache before it.
  for (std::size_t i = 0; i < kDim * kDim; ++i) {
    a[i] = 1.0 + static_cast<double>(i % 7) * 1e-3;
    b[i] = 1.0 - static_cast<double>(i % 5) * 1e-3;
  }
  std::uint32_t warm = 0;
  for (std::uint32_t t : table) warm ^= t;
  const Ns t0 = thread_cpu_ns();
  for (std::size_t p = 0; p < kProducts; ++p) {
    for (std::size_t i = 0; i < kDim; ++i)
      for (std::size_t j = 0; j < kDim; ++j) {
        double acc = 0.0;
        for (std::size_t k = 0; k < kDim; ++k) acc += a[i * kDim + k] * b[k * kDim + j];
        c[i * kDim + j] = acc;
      }
    std::swap(a, c);
  }
  std::uint32_t idx = warm & 1;
  for (std::size_t i = 0; i < kLoads; ++i)
    idx = table[(idx ^ static_cast<std::uint32_t>(i)) % kTable];
  const Ns t1 = thread_cpu_ns();
  // Keeps the kernel's results live.
  static volatile double sink;
  sink = sink + a[idx % (kDim * kDim)];
  return to_s(t1 - t0);
}

}  // namespace

SpeedProbe& SpeedProbe::get() {
  static SpeedProbe probe;
  return probe;
}

void SpeedProbe::reset() {
  owner_ = std::this_thread::get_id();
  factor_sum_ = 0.0;
  slices_ = 0;
  overhead_ = 0;
  last_ = thread_cpu_ns();
}

void SpeedProbe::sample() {
  if (!enabled_ || std::this_thread::get_id() != owner_ || thread_cpu_ns() - last_ < kSliceEvery)
    return;
  slice();
}

void SpeedProbe::burst(std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) slice();
}

void SpeedProbe::slice() {
  const Ns t0 = thread_cpu_ns();
  factor_sum_ += kNominalSliceS / reference_slice_s();
  ++slices_;
  last_ = thread_cpu_ns();
  overhead_ += last_ - t0;
}

double SpeedProbe::factor() const {
  return slices_ == 0 ? 1.0 : factor_sum_ / static_cast<double>(slices_);
}

double SpeedProbe::correction() const { return std::pow(factor(), kExponent); }

// ---------------------------------------------------------------- report

void Fingerprint::add_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffu;
    h_ *= 0x100000001b3ULL;
  }
}

void Fingerprint::add_double(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add_u64(bits);
}

std::string Fingerprint::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void Report::metric(const std::string& name, double value) {
  metrics_.emplace_back(name, value);
}

void Report::info(const std::string& key, double value) {
  info_.emplace_back(key, json_number(value));
}

void Report::info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, json_string(value));
}

void Report::fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  failures_.push_back(what);
  ++failed_;
}

void Report::print(const std::string& workload) {
  std::string line = "{\"perfbench_info\":{\"workload\":" + json_string(workload);
  for (const auto& [k, v] : info_) line += "," + json_string(k) + ":" + v;
  line += ",\"failed_frac\":" +
          json_number(attempted_ == 0 ? 0.0
                                      : static_cast<double>(failed_) /
                                            static_cast<double>(attempted_));
  line += ",\"failures\":[";
  for (std::size_t i = 0; i < failures_.size(); ++i)
    line += (i ? "," : "") + json_string(failures_[i]);
  line += "]}}";
  std::printf("%s\n", line.c_str());

  std::string values;
  for (const auto& [name, v] : metrics_)
    values += (values.empty() ? "" : ",") + json_string(name) + ":" + json_number(v);
  std::string out = "{\"correct\":" + std::string(correct() ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(attempted_) +
                    ",\"failed\":" + std::to_string(failed_) + ",\"metrics\":{" +
                    values + "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
