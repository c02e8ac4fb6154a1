// serve_fleet: the production path. An in-process Router+Server in front
// of two SessionManager+Server shards on Unix sockets, each with its own
// spool and a shared cache tier, fed by an open-loop Poisson generator
// while a second thread polls the in-flight jobs' status through the
// router (and, for the hop cost, directly at the owning shard). The tier
// starts with an archive, the tier file of a retired shard, which every
// boot syncs, as a restarting production fleet does.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "gpusim/measurer.hpp"
#include "hwspec/database.hpp"
#include "searchspace/models.hpp"
#include "service/client.hpp"
#include "service/router.hpp"
#include "service/server.hpp"
#include "service/session_manager.hpp"
#include "tuning/result_cache.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace glimpse;
using service::Client;
using service::JobSpec;
using service::JobSummary;
using service::Response;
using service::ResponseType;

/// Offered load, jobs per second: about 30% of the ~115 jobs/s capacity
/// --calibrate measured (README.md has the table, and why not 60-70%).
constexpr double kRatePerS = 35.0;
constexpr int kBootRepeats = 21;
/// SpeedProbe slices before each boot and after the last.
constexpr std::size_t kBootBurst = 8;
/// Measurements in the archive tier. They are of VGG-16 tasks, which no job
/// tunes, so they cost every boot a sync but never serve a job.
constexpr std::size_t kArchiveEntries = 20000;
constexpr std::uint64_t kMaxTrials = 32;
constexpr std::uint64_t kBatch = 8;
/// Share of arrivals that resubmit an earlier spec.
constexpr double kRepeatFrac = 1.0 / 3.0;
/// Pause between two status sweeps over the in-flight jobs.
constexpr auto kPollPause = std::chrono::milliseconds(1);
/// A job not settled this long after the last send fails the run.
constexpr double kDrainTimeoutS = 60.0;
constexpr double kJobTailPct = 75.0;
constexpr double kControlTailPct = 95.0;
/// The job and control metrics are taken per window of the schedule (jobs
/// by due time, polls by when they ran) and their median over the windows
/// is reported, so one stalled stretch of a run moves one window only.
constexpr double kWindowS = 2.5;

const char* const kTuners[] = {"autotvm", "chameleon", "random"};
const char* const kModels[] = {"resnet18", "alexnet"};
const char* const kGpus[] = {"Titan Xp", "RTX 2080 Ti", "RTX 3090"};
const char* const kShardNames[] = {"shard-a", "shard-b"};

/// Writes the archive tier: kArchiveEntries seeded measurements of VGG-16
/// configurations on the fleet's GPUs, through the program's own cache.
void write_archive(const std::string& path) {
  std::filesystem::remove(path);
  tuning::ResultCacheOptions options;
  options.path = path;
  tuning::ResultCache archive(options);
  const searchspace::TaskSet vgg(searchspace::vgg16());
  gpusim::SimMeasurer measurer;
  Rng rng(fnv1a("perfbench.serve_fleet.archive"));
  while (archive.size() < kArchiveEntries) {
    const searchspace::Task& task = vgg.task(rng.index(vgg.num_tasks()));
    const hwspec::GpuSpec& gpu = hwspec::find_gpu_or_throw(kGpus[rng.index(std::size(kGpus))]);
    const searchspace::Config config = task.space().random_config(rng);
    archive.insert({tuning::task_fingerprint(task), tuning::hardware_fingerprint(gpu), config},
                   measurer.measure(task, gpu, config));
  }
}

/// A fresh fleet directory: empty spools, and a shared tier holding only
/// the archive.
void prepare_fleet_dir(const std::string& dir, const std::string& archive) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir + "/tier");
  std::filesystem::copy_file(archive, dir + "/tier/tier-archive.jsonl");
}

/// One booted fleet. Members are declared in start order and torn down in
/// reverse: the router front door first, then the shards.
class Fleet {
 public:
  explicit Fleet(const std::string& dir) : dir_(dir) {
    service::RouterOptions ropts;
    for (const char* name : kShardNames) {
      const std::string spool = dir_ + "/spool-" + name;
      std::filesystem::create_directories(spool);
      service::SessionManagerOptions mopts;
      mopts.spool_dir = spool;
      mopts.cache_shared_dir = dir_ + "/tier";
      mopts.shard_name = name;
      auto shard = std::make_unique<Shard>();
      shard->sock = dir_ + "/" + name + ".sock";
      shard->manager = std::make_unique<service::SessionManager>(mopts);
      service::ServerOptions sopts;
      sopts.unix_path = shard->sock;
      shard->server = std::make_unique<service::Server>(*shard->manager, sopts);
      shard->server->start();
      ropts.shards.push_back({name, shard->sock, "", -1});
      shard_socks_[name] = shard->sock;
      shards_.push_back(std::move(shard));
    }
    router_sock_ = dir_ + "/router.sock";
    router_ = std::make_unique<service::Router>(ropts);
    service::ServerOptions sopts;
    sopts.unix_path = router_sock_;
    router_server_ = std::make_unique<service::Server>(*router_, sopts);
    router_server_->start();
  }

  ~Fleet() {
    router_server_->stop();
    router_->stop();
    for (auto& s : shards_) {
      s->server->stop();
      s->manager->stop();
    }
  }

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  const std::string& router_sock() const { return router_sock_; }
  const std::string& shard_sock(const std::string& name) const {
    return shard_socks_.at(name);
  }
  const service::ShardRing& ring() const { return router_->ring(); }
  /// Shard tier files (the archive excluded).
  std::vector<std::string> shard_tiers() const {
    std::vector<std::string> out;
    for (const char* name : kShardNames)
      out.push_back(dir_ + "/tier/tier-" + name + ".jsonl");
    return out;
  }
  /// The owning shard's id for the job the router just accepted: shards
  /// number their accepted jobs from 1 in arrival order, and the
  /// benchmark is the fleet's only submitter.
  std::uint64_t next_shard_id(const std::string& shard) { return ++accepted_[shard]; }

 private:
  struct Shard {
    std::string sock;
    std::unique_ptr<service::SessionManager> manager;
    std::unique_ptr<service::Server> server;
  };
  std::string dir_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::map<std::string, std::string> shard_socks_;
  std::map<std::string, std::uint64_t> accepted_;
  std::string router_sock_;
  std::unique_ptr<service::Router> router_;
  std::unique_ptr<service::Server> router_server_;
};

/// Boots a fleet in a freshly prepared `dir` and waits until a fleet-wide
/// stats call through the router answers (every shard reachable).
/// `boot_s` and `boot_cpu_s` receive the wall and process CPU time from
/// the first constructor to that answer.
std::unique_ptr<Fleet> boot(const std::string& dir, const std::string& archive,
                            double* boot_s = nullptr, double* boot_cpu_s = nullptr) {
  prepare_fleet_dir(dir, archive);
  const Ns t0 = now_ns();
  const Ns cpu0 = cpu_ns();
  auto fleet = std::make_unique<Fleet>(dir);
  Client c = Client::connect_unix(fleet->router_sock());
  if (c.stats().type != ResponseType::kStats)
    throw std::runtime_error("fleet did not answer stats after boot");
  if (boot_cpu_s) *boot_cpu_s = to_s(cpu_ns() - cpu0);
  if (boot_s) *boot_s = to_s(now_ns() - t0);
  return fleet;
}

struct Arrival {
  double due_s = 0.0;        ///< offset from the schedule's start
  JobSpec spec;
  std::string client;
  std::size_t first = 0;     ///< index of the arrival whose spec this repeats
};

/// Seeded open-loop schedule: Poisson arrivals at `rate` jobs/s, about
/// `seconds` long. The job mix is the same for every seed. The fresh specs
/// are whole cycles through every (tuner, model, task, GPU), as many as
/// fit, each cycle in a seeded order with seeded tuner seeds, and a fixed
/// count of arrivals at seeded positions resubmits a seeded earlier spec.
/// With a seed-drawn job count and mix, the delivered trial rate and the
/// quality metrics followed the draw.
std::vector<Arrival> make_schedule(std::uint64_t seed, double seconds,
                                   double rate = kRatePerS) {
  const std::size_t model_tasks[] = {searchspace::TaskSet(searchspace::resnet18()).num_tasks(),
                                     searchspace::TaskSet(searchspace::alexnet()).num_tasks()};
  Rng rng(hash_combine(seed, fnv1a("perfbench.serve_fleet")));
  std::vector<JobSpec> combos;
  for (const char* tuner : kTuners)
    for (std::size_t m = 0; m < 2; ++m)
      for (std::size_t task = 0; task < model_tasks[m]; ++task)
        for (const char* gpu : kGpus) {
          JobSpec spec;
          spec.tuner = tuner;
          spec.model = kModels[m];
          spec.task_index = task;
          spec.gpu = gpu;
          spec.max_trials = kMaxTrials;
          spec.batch_size = kBatch;
          combos.push_back(spec);
        }
  const double fresh_wanted = rate * seconds * (1.0 - kRepeatFrac);
  const std::size_t cycles = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(fresh_wanted / static_cast<double>(combos.size()))));
  const std::size_t fresh = cycles * combos.size();
  const auto repeats = static_cast<std::size_t>(
      std::llround(static_cast<double>(fresh) * kRepeatFrac / (1.0 - kRepeatFrac)));
  // Which arrivals repeat; the first never does.
  std::vector<char> repeat(fresh + repeats - 1, 0);
  std::fill(repeat.begin(), repeat.begin() + static_cast<std::ptrdiff_t>(repeats), 1);
  rng.shuffle(repeat);
  repeat.insert(repeat.begin(), 0);

  std::size_t next_combo = combos.size();
  std::vector<Arrival> out;
  double t = 0.0;
  for (char is_repeat : repeat) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    Arrival a;
    a.due_s = t;
    a.client = "user" + std::to_string(rng.index(4));
    a.first = out.size();
    if (is_repeat) {
      a.first = out[rng.index(out.size())].first;
      a.spec = out[a.first].spec;
    } else {
      if (next_combo == combos.size()) {
        rng.shuffle(combos);
        next_combo = 0;
      }
      a.spec = combos[next_combo++];
      a.spec.seed = rng.engine()();
    }
    out.push_back(std::move(a));
  }
  return out;
}

/// One job's life as the benchmark observed it.
struct JobObs {
  std::uint64_t router_id = 0;
  std::string shard;
  std::uint64_t shard_id = 0;
  std::uint64_t span_id = 0;  ///< the job's root span (traced runs)
  Ns due = 0;
  Ns first_running = 0;       ///< first poll that saw it leave the queue
  Ns settled = 0;
  bool accepted = false;
  JobSummary summary;
};

/// Everything one schedule measured.
struct ScheduleResult {
  std::vector<Arrival> arrivals;
  std::vector<JobObs> jobs;
  Ns start = 0, end = 0;
  std::vector<double> submit_us, late_ms, control_us, direct_us, hop_us;
  std::vector<double> control_at_s;  ///< when each control_us sample ran
  std::vector<SpanRec> spans;
};

bool settled_state(const std::string& s) {
  return s == "done" || s == "failed" || s == "cancelled";
}

ScheduleResult run_schedule(Fleet& fleet, std::vector<Arrival> arrivals) {
  ScheduleResult r;
  r.arrivals = std::move(arrivals);
  r.jobs.resize(r.arrivals.size());
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::size_t> inflight;  // guarded by mu
  bool sending = true;                // guarded by mu
  std::exception_ptr poll_error;      // guarded by mu; stops the generator

  r.start = now_ns();
  const Ns start = r.start;
  const Ns give_up = start + static_cast<Ns>(
      ((r.arrivals.empty() ? 0.0 : r.arrivals.back().due_s) + kDrainTimeoutS) * 1e9);

  // Status poller: every in-flight job, through the router and then
  // directly at its shard, until the generator is done and nothing is left.
  auto poll = [&] {
    Client via_router = Client::connect_unix(fleet.router_sock());
    std::map<std::string, Client> direct;
    for (const char* name : kShardNames)
      direct.emplace(name, Client::connect_unix(fleet.shard_sock(name)));
    while (true) {
      std::vector<std::size_t> batch;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait_for(lock, kPollPause, [&] { return !sending && inflight.empty(); });
        if (!sending && inflight.empty()) return;
        batch = inflight;
      }
      for (std::size_t i : batch) {
        JobObs& job = r.jobs[i];
        Response via;
        double router_us = 0.0;
        {
          Span span("client.status_router", i + 1, job.span_id);
          via = via_router.status(job.router_id);
          router_us = to_s(span.finish()) * 1e6;
        }
        Response at_shard;
        {
          Span span("client.status_direct", i + 1, job.span_id);
          at_shard = direct.at(job.shard).status(job.shard_id);
          const double direct_us = to_s(span.finish()) * 1e6;
          r.direct_us.push_back(direct_us);
          r.hop_us.push_back(router_us - direct_us);
        }
        r.control_us.push_back(router_us);
        const Ns now = now_ns();
        r.control_at_s.push_back(to_s(now - start));
        auto answered = [](const Response& resp, std::uint64_t id) {
          return (resp.type == ResponseType::kStatus || resp.type == ResponseType::kResult) &&
                 resp.summary.job_id == id;
        };
        if (!answered(via, job.router_id))
          throw std::runtime_error("status of job " + std::to_string(job.router_id) +
                                   " via the router failed: " + via.reason);
        // The hop is only meaningful when both calls asked about one job.
        if (!answered(at_shard, job.shard_id))
          throw std::runtime_error("direct status of job " + std::to_string(job.shard_id) +
                                   " at " + job.shard + " failed: " + at_shard.reason);
        if (job.first_running == 0 && via.summary.state != "queued") job.first_running = now;
        if (settled_state(via.summary.state)) {
          job.settled = now;
          job.summary = via.summary;
          std::lock_guard<std::mutex> lock(mu);
          inflight.erase(std::find(inflight.begin(), inflight.end(), i));
        }
      }
      if (now_ns() > give_up) throw std::runtime_error("jobs did not settle in time");
    }
  };
  std::thread poller([&] {
    try {
      poll();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu);
      poll_error = std::current_exception();
    }
  });

  // Open-loop generator: each send is due at its scheduled time, whatever
  // the fleet is doing; lateness is recorded, not compensated.
  std::exception_ptr send_error;
  try {
    Client client = Client::connect_unix(fleet.router_sock());
    for (std::size_t i = 0; i < r.arrivals.size(); ++i) {
      {
        std::lock_guard<std::mutex> lock(mu);
        if (poll_error) break;
      }
      const Arrival& a = r.arrivals[i];
      JobObs& job = r.jobs[i];
      job.due = start + static_cast<Ns>(a.due_s * 1e9);
      const Ns now = now_ns();
      if (now < job.due) std::this_thread::sleep_for(std::chrono::nanoseconds(job.due - now));
      r.late_ms.push_back(to_s(now_ns() - job.due) * 1e3);
      if (SpanLog::get().enabled()) job.span_id = SpanLog::get().next_id();
      Span span("client.submit", i + 1, job.span_id);
      const Response resp = client.submit(a.client, 0, a.spec);
      r.submit_us.push_back(to_s(span.finish()) * 1e6);
      if (resp.type != ResponseType::kAccepted) continue;
      job.accepted = true;
      job.router_id = resp.job_id;
      job.shard = fleet.ring().node_for_job(a.spec);
      job.shard_id = fleet.next_shard_id(job.shard);
      std::lock_guard<std::mutex> lock(mu);
      inflight.push_back(i);
    }
  } catch (...) {
    send_error = std::current_exception();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    sending = false;
    if (send_error) inflight.clear();
  }
  cv.notify_all();
  poller.join();
  if (send_error) std::rethrow_exception(send_error);
  if (poll_error) std::rethrow_exception(poll_error);
  r.end = now_ns();
  if (SpanLog::get().enabled()) {
    for (std::size_t i = 0; i < r.jobs.size(); ++i) {
      const JobObs& job = r.jobs[i];
      if (job.accepted)
        SpanLog::get().record({"job", job.due, job.settled, job.span_id, 0, i + 1});
    }
    r.spans = SpanLog::get().take();
  }
  return r;
}

/// Share of distinct measured configurations that were invalid, read from
/// the shards' tier files (every settled measurement lands there).
double tier_invalid_frac(const std::vector<std::string>& tiers, std::size_t& entries) {
  std::unordered_set<tuning::CacheKey, tuning::CacheKeyHash> seen;
  std::size_t invalid = 0;
  for (const std::string& path : tiers) {
    std::ifstream is(path);
    std::string line;
    while (std::getline(is, line)) {
      tuning::CacheKey key;
      gpusim::MeasureResult res;
      bool stale = false;
      if (!tuning::parse_cache_line(line, key, res, stale) || stale) continue;
      if (!seen.insert(key).second) continue;
      if (!res.valid) ++invalid;
    }
  }
  entries = seen.size();
  return entries == 0 ? 0.0 : static_cast<double>(invalid) / static_cast<double>(entries);
}

/// Output checks; returns the decision fingerprint of the schedule.
std::string check_schedule(const ScheduleResult& r, Report& report) {
  Fingerprint fp;
  std::size_t not_done = 0, no_valid = 0, repeat_mismatch = 0, rejected = 0;
  for (std::size_t i = 0; i < r.jobs.size(); ++i) {
    const JobObs& job = r.jobs[i];
    if (!job.accepted) {
      ++rejected;
      continue;
    }
    const JobSummary& s = job.summary;
    if (s.state != "done") ++not_done;
    if (s.best_gflops <= 0.0) ++no_valid;
    const JobObs& first = r.jobs[r.arrivals[i].first];
    if (first.accepted && (first.summary.best_config != s.best_config ||
                           first.summary.trials != s.trials))
      ++repeat_mismatch;
    fp.add_u64(s.trials);
    for (std::uint32_t v : s.best_config) fp.add_u64(v);
    fp.add_double(s.best_gflops);
  }
  auto fail_n = [&](std::size_t n, const char* what) {
    for (std::size_t k = 0; k < n; ++k) report.fail(what);
  };
  fail_n(rejected, "submission refused");
  fail_n(not_done, "job did not finish");
  fail_n(no_valid, "job found no valid configuration");
  fail_n(repeat_mismatch, "repeated spec settled differently from its first run");
  return fp.hex();
}

/// Capacity search: the open-loop schedule at rising rates on a fresh
/// fleet each; a rate is sustained while job latency stays flat.
void calibrate(const RunArgs& args, const std::string& archive) {
  for (double rate = 30.0; rate <= 150.0; rate += 20.0) {
    auto fleet = boot(args.workdir + "/calibrate", archive);
    const ScheduleResult r = run_schedule(*fleet, make_schedule(args.seed, args.seconds, rate));
    std::vector<double> job_s;
    std::size_t accepted = 0;
    for (const JobObs& j : r.jobs)
      if (j.accepted) {
        ++accepted;
        job_s.push_back(to_s(j.settled - j.due));
      }
    std::printf("calibrate: rate %.0f/s  jobs %zu accepted %zu  p50 %.4f s  p90 %.4f s  "
                "drain %.3f s  late_p99 %.3f ms\n",
                rate, r.jobs.size(), accepted, median(job_s), percentile(job_s, 90.0),
                to_s(r.end - r.start) - args.seconds, percentile(r.late_ms, 99.0));
    std::fflush(stdout);
  }
}

}  // namespace

void run_serve_fleet(const RunArgs& args, Report& report) {
  const std::string archive = args.workdir + "/archive.jsonl";
  write_archive(archive);
  if (args.calibrate) {
    calibrate(args, archive);
    return;
  }
  // Set-up: boot (and tear down) fresh fleets; the last one serves.
  SpanLog::get().set_enabled(false);
  // Booting is mostly the main thread syncing the tiers, so slices taken
  // on it between the boots correct the boots' CPU time for host speed.
  std::vector<double> boot_s(kBootRepeats), boot_cpu_s(kBootRepeats);
  std::unique_ptr<Fleet> fleet;
  SpeedProbe& probe = SpeedProbe::get();
  probe.reset();
  for (int i = 0; i < kBootRepeats; ++i) {
    fleet.reset();
    probe.burst(kBootBurst);
    fleet = boot(args.workdir + "/fleet", archive, &boot_s[i], &boot_cpu_s[i]);
  }
  probe.burst(kBootBurst);
  const double boot_correction = probe.correction();

  // A traced run plays one schedule twice, each on a fresh fleet: untraced,
  // then traced. Both must make the same decisions.
  const double schedule_s = args.trace ? args.seconds / 2 : args.seconds;
  const std::vector<Arrival> schedule = make_schedule(args.seed, schedule_s);
  const Usage u0 = sample_usage();
  const ScheduleResult plain = run_schedule(*fleet, schedule);
  const Usage u1 = sample_usage();
  ScheduleResult traced;
  if (args.trace) {
    fleet.reset();
    fleet = boot(args.workdir + "/fleet", archive);
    SpanLog::get().set_enabled(true);
    traced = run_schedule(*fleet, schedule);
    SpanLog::get().set_enabled(false);
  }

  report.set_attempted(plain.jobs.size() + traced.jobs.size());
  const std::string fingerprint = check_schedule(plain, report);
  if (args.trace && check_schedule(traced, report) != fingerprint)
    report.fail("the traced schedule made different decisions from the untraced one");
  if (!args.expect_fingerprint.empty() && fingerprint != args.expect_fingerprint)
    report.fail("decision fingerprint " + fingerprint + " != recorded " +
                args.expect_fingerprint);
  report.info("fingerprint", fingerprint);
  report.info("rate_jobs_per_s", kRatePerS);
  report.info("jobs", static_cast<double>(plain.jobs.size()));

  auto job_latencies = [](const ScheduleResult& r) {
    std::vector<double> v;
    for (const JobObs& j : r.jobs)
      if (j.accepted) v.push_back(to_s(j.settled - j.due));
    return v;
  };
  const std::vector<double> job_s = job_latencies(plain);

  if (!args.trace) {
    std::uint64_t trials = 0;
    double gpu_s = 0.0;
    std::vector<double> best;  // distinct specs: a repeat settles as its first run did
    for (std::size_t i = 0; i < plain.jobs.size(); ++i) {
      const JobObs& j = plain.jobs[i];
      if (!j.accepted) continue;
      trials += j.summary.trials;
      gpu_s += j.summary.elapsed_s;
      if (plain.arrivals[i].first == i && j.summary.best_gflops > 0.0)
        best.push_back(j.summary.best_gflops);
    }
    std::size_t entries = 0;
    const double invalid = tier_invalid_frac(fleet->shard_tiers(), entries);
    // Per window, then the median over the windows. Polls that ran after
    // the schedule ended (the drain) count in the last window.
    const auto windows = static_cast<std::size_t>(std::ceil(schedule_s / kWindowS));
    auto window_of = [&](double t) {
      return std::min(static_cast<std::size_t>(t / kWindowS), windows - 1);
    };
    std::vector<std::vector<double>> job_w(windows), control_w(windows);
    for (std::size_t i = 0; i < plain.jobs.size(); ++i)
      if (plain.jobs[i].accepted)
        job_w[window_of(plain.arrivals[i].due_s)].push_back(
            to_s(plain.jobs[i].settled - plain.jobs[i].due));
    for (std::size_t i = 0; i < plain.control_us.size(); ++i)
      control_w[window_of(plain.control_at_s[i])].push_back(plain.control_us[i]);
    std::vector<double> job_p50, job_tails, control_p50, control_tails;
    Tail job_tail, control_tail;
    std::size_t min_job_samples = job_s.size();
    for (std::size_t w = 0; w < windows; ++w) {
      job_tail = tail(job_w[w], kJobTailPct);
      control_tail = tail(control_w[w], kControlTailPct);
      job_p50.push_back(median(job_w[w]));
      job_tails.push_back(job_tail.value);
      control_p50.push_back(median(control_w[w]));
      control_tails.push_back(control_tail.value);
      min_job_samples = std::min(min_job_samples, job_w[w].size());
    }
    report.metric("setup_s", median(boot_cpu_s) * boot_correction);
    // The offered load is fixed, so this is the delivered rate: it falls
    // only when the fleet stops keeping up (README.md).
    report.metric("trials_per_s", static_cast<double>(trials) / to_s(plain.end - plain.start));
    report.metric("search_gpu_s", gpu_s);
    report.metric("best_gflops_geomean", geomean(best));
    // Measured but not gated: they could not be held steady (README.md).
    report.info("setup_cpu_s", median(boot_cpu_s));
    report.info("setup_wall_s", median(boot_s));
    report.info("setup_host_speed", probe.factor());
    report.info("cpu_trials_per_s", static_cast<double>(trials) / (u1.cpu_s - u0.cpu_s));
    report.info("invalid_frac", invalid);
    report.info("control_p50_us", median(control_p50));
    report.info("job_p50_s", median(job_p50));
    report.info("job_tail_s", median(job_tails));
    report.info("control_tail_us", median(control_tails));
    report.info("tier_entries", static_cast<double>(entries));
    report.info("windows", static_cast<double>(windows));
    report.info("job_tail_pct", job_tail.pct);
    report.info("min_job_samples_per_window", static_cast<double>(min_job_samples));
    report.info("control_tail_pct", control_tail.pct);
    report.info("control_samples", static_cast<double>(plain.control_us.size()));
    report.info("late_p99_ms", percentile(plain.late_ms, 99.0));
    report.info("host_steal_vcpus", (u1.host_steal_s - u0.host_steal_s) / to_s(u1.wall - u0.wall));
    report.info("cpu_share", (u1.cpu_s - u0.cpu_s) / to_s(u1.wall - u0.wall));
    return;
  }

  // Per-layer metrics from the traced half; resource probes from the
  // untraced half so tracing does not skew them.
  const Tail submit_tail = tail(traced.submit_us, kControlTailPct);
  report.metric("client.submit_p50_us", median(traced.submit_us));
  report.metric("client.submit_tail_us", submit_tail.value);
  report.info("client_submit_tail_pct", submit_tail.pct);
  report.metric("server.status_p50_us", median(traced.direct_us));
  report.metric("router.hop_p50_us", median(traced.hop_us));
  std::vector<double> queue_s, run_s;
  for (const JobObs& j : traced.jobs) {
    if (!j.accepted) continue;
    queue_s.push_back(to_s(j.first_running - j.due));
    run_s.push_back(to_s(j.settled - j.first_running));
  }
  report.metric("job.queue_p50_s", median(queue_s));
  report.metric("job.run_p50_s", median(run_s));

  // ServiceStats.shared_hits is only counted while the program's metrics
  // registry is on, so the hit rate comes from the ungated cache counters.
  Client stats_client = Client::connect_unix(fleet->router_sock());
  const Response st = stats_client.stats();
  report.metric("cache.hit_frac",
                static_cast<double>(st.stats.cache_hits) /
                    static_cast<double>(st.stats.cache_hits + st.stats.cache_inserts));

  report.metric("parallel.cores_busy", (u1.cpu_s - u0.cpu_s) / to_s(u1.wall - u0.wall));
  report.metric("io.write_mb", static_cast<double>(u1.write_bytes - u0.write_bytes) / 1e6);
  report.metric("io.write_calls", static_cast<double>(u1.write_calls - u0.write_calls));
  report.metric("loadgen.late_p99_ms", percentile(traced.late_ms, 99.0));
  report.metric("trace.unattributed_frac",
                unattributed_frac(traced.spans, traced.start, traced.end));
  report.metric("trace.overhead_frac", median(job_latencies(traced)) / median(job_s) - 1.0);
  if (!args.trace_file.empty()) write_spans(args.trace_file, traced.spans);
}

}  // namespace perfbench
