#include "service/protocol.hpp"

#include <cmath>
#include <initializer_list>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/json_reader.hpp"
#include "common/json_writer.hpp"
#include "common/telemetry/trace_context.hpp"

namespace glimpse::service {

namespace {

// ---------------------------------------------------------------------------
// Field extraction helpers (shared by the request/response converters).
// ---------------------------------------------------------------------------

/// Sets `error` to `why` and returns false.
bool fail(std::string& error, std::string why) {
  error = std::move(why);
  return false;
}

/// fail() with "key '<key>' <what>".
bool key_fail(std::string& error, std::string_view key, const char* what) {
  return fail(error, "key '" + std::string(key) + "' " + what);
}

const JsonValue* find(const JsonValue& obj, std::string_view key) {
  for (const auto& [k, v] : obj.object)
    if (k == key) return &v;
  return nullptr;
}

bool check_keys(const JsonValue& obj, std::initializer_list<std::string_view> allowed,
                std::string& error) {
  for (const auto& [k, v] : obj.object) {
    bool ok = false;
    for (std::string_view a : allowed)
      if (k == a) {
        ok = true;
        break;
      }
    if (!ok) return fail(error, "unknown key '" + k + "'");
  }
  return true;
}

bool get_u64(const JsonValue& obj, std::string_view key, std::uint64_t& out,
             std::uint64_t lo, std::uint64_t hi, std::string& error,
             bool required = true) {
  const JsonValue* v = find(obj, key);
  if (!v) return !required || fail(error, "missing key '" + std::string(key) + "'");
  std::uint64_t x;
  if (v->kind == JsonValue::kInt && v->i >= 0) {
    x = static_cast<std::uint64_t>(v->i);
  } else if (v->kind == JsonValue::kUint) {
    x = v->u;
  } else {
    return key_fail(error, key, "must be a non-negative integer");
  }
  if (x < lo || x > hi) return key_fail(error, key, "out of range");
  out = x;
  return true;
}

bool get_i64(const JsonValue& obj, std::string_view key, std::int64_t& out,
             std::int64_t lo, std::int64_t hi, std::string& error) {
  const JsonValue* v = find(obj, key);
  if (!v) return fail(error, "missing key '" + std::string(key) + "'");
  if (v->kind != JsonValue::kInt) return key_fail(error, key, "must be an integer");
  if (v->i < lo || v->i > hi) return key_fail(error, key, "out of range");
  out = v->i;
  return true;
}

bool get_string(const JsonValue& obj, std::string_view key, std::string& out,
                std::size_t max_len, bool allow_empty, std::string& error) {
  const JsonValue* v = find(obj, key);
  if (!v) return fail(error, "missing key '" + std::string(key) + "'");
  if (v->kind != JsonValue::kString) return key_fail(error, key, "must be a string");
  if (v->s.size() > max_len || (!allow_empty && v->s.empty()))
    return key_fail(error, key, "has bad length");
  out = v->s;
  return true;
}

bool get_nonneg_double(const JsonValue& obj, std::string_view key, double& out,
                       std::string& error, bool required = true) {
  const JsonValue* v = find(obj, key);
  if (!v) return !required || fail(error, "missing key '" + std::string(key) + "'");
  if (!v->is_number()) return key_fail(error, key, "must be a number");
  double x = v->as_double();
  if (!std::isfinite(x) || x < 0.0)
    return key_fail(error, key, "must be finite and non-negative");
  out = x;
  return true;
}

bool get_bool(const JsonValue& obj, std::string_view key, bool& out,
              std::string& error, bool required = true) {
  const JsonValue* v = find(obj, key);
  if (!v) return !required || fail(error, "missing key '" + std::string(key) + "'");
  if (v->kind != JsonValue::kBool) return key_fail(error, key, "must be a boolean");
  out = v->b;
  return true;
}

bool get_version(const JsonValue& obj, int& out, std::string& error) {
  std::uint64_t v = 0;
  if (!get_u64(obj, "v", v, 0, 1u << 20, error)) return false;
  if (v < static_cast<std::uint64_t>(kMinProtocolVersion) ||
      v > static_cast<std::uint64_t>(kProtocolVersion))
    return fail(error, "unsupported protocol version");
  out = static_cast<int>(v);
  return true;
}

/// Optional "auth" member (v3): absent is fine (unauthenticated peers);
/// when present it must be a non-empty token of sane length.
bool get_auth(const JsonValue& obj, std::string& out, std::string& error) {
  const JsonValue* v = find(obj, "auth");
  if (!v) return true;
  if (v->kind != JsonValue::kString) return fail(error, "key 'auth' must be a string");
  if (v->s.empty() || v->s.size() > 256) return fail(error, "key 'auth' has bad length");
  out = v->s;
  return true;
}

/// Optional "traceparent" member: absent is fine (v1 peers, untraced
/// requests); when present it must be a well-formed W3C traceparent.
bool get_traceparent(const JsonValue& obj, std::string& out, std::string& error) {
  const JsonValue* v = find(obj, "traceparent");
  if (!v) return true;
  if (v->kind != JsonValue::kString)
    return fail(error, "key 'traceparent' must be a string");
  telemetry::TraceContext ctx;
  if (!telemetry::parse_traceparent(v->s, ctx))
    return fail(error, "malformed traceparent");
  out = v->s;
  return true;
}

bool parse_job_spec(const JsonValue& obj, JobSpec& out, std::string& error) {
  if (obj.kind != JsonValue::kObject) return fail(error, "'job' must be an object");
  if (!check_keys(obj,
                  {"tuner", "model", "task", "gpu", "seed", "max_trials",
                   "batch_size", "plateau", "time_budget_s", "warmstart"},
                  error))
    return false;
  JobSpec spec;
  if (!get_string(obj, "tuner", spec.tuner, 64, false, error)) return false;
  if (!get_string(obj, "model", spec.model, 64, false, error)) return false;
  if (!get_u64(obj, "task", spec.task_index, 0, 10000, error)) return false;
  if (!get_string(obj, "gpu", spec.gpu, 128, false, error)) return false;
  if (!get_u64(obj, "seed", spec.seed, 0, UINT64_MAX, error)) return false;
  if (!get_u64(obj, "max_trials", spec.max_trials, 1, 1000000, error)) return false;
  if (!get_u64(obj, "batch_size", spec.batch_size, 1, 4096, error)) return false;
  if (!get_u64(obj, "plateau", spec.plateau_trials, 0, 1000000, error)) return false;
  if (!get_nonneg_double(obj, "time_budget_s", spec.time_budget_s, error))
    return false;
  if (!get_bool(obj, "warmstart", spec.warmstart, error, false)) return false;
  out = std::move(spec);
  return true;
}

void write_job_spec(JsonWriter& w, const JobSpec& spec) {
  w.begin_object();
  w.kv("tuner", spec.tuner);
  w.kv("model", spec.model);
  w.kv("task", spec.task_index);
  w.kv("gpu", spec.gpu);
  w.kv("seed", spec.seed);
  w.kv("max_trials", spec.max_trials);
  w.kv("batch_size", spec.batch_size);
  w.kv("plateau", spec.plateau_trials);
  w.kv("time_budget_s", spec.time_budget_s);
  // Omitted when true (the default) so old peers never see the key.
  if (!spec.warmstart) w.kv("warmstart", spec.warmstart);
  w.end_object();
}

bool parse_job_summary(const JsonValue& obj, JobSummary& out, std::string& error) {
  if (obj.kind != JsonValue::kObject) return fail(error, "'job' must be an object");
  if (!check_keys(obj,
                  {"job_id", "client", "state", "trials", "faulted",
                   "best_gflops", "best_config", "elapsed_s", "error"},
                  error))
    return false;
  JobSummary s;
  if (!get_u64(obj, "job_id", s.job_id, 0, UINT64_MAX, error)) return false;
  if (!get_string(obj, "client", s.client, 256, true, error)) return false;
  if (!get_string(obj, "state", s.state, 16, false, error)) return false;
  if (!parse_job_state(s.state))
    return fail(error, "unknown job state '" + s.state + "'");
  if (!get_u64(obj, "trials", s.trials, 0, UINT64_MAX, error)) return false;
  if (!get_u64(obj, "faulted", s.faulted, 0, UINT64_MAX, error)) return false;
  if (!get_nonneg_double(obj, "best_gflops", s.best_gflops, error)) return false;
  const JsonValue* cfg = find(obj, "best_config");
  if (!cfg || cfg->kind != JsonValue::kArray)
    return fail(error, "'best_config' must be an array");
  for (const JsonValue& e : cfg->array) {
    if (e.kind != JsonValue::kInt || e.i < 0 || e.i > 0xffffffffLL)
      return fail(error, "'best_config' entries must be uint32");
    s.best_config.push_back(static_cast<std::uint32_t>(e.i));
  }
  if (!get_nonneg_double(obj, "elapsed_s", s.elapsed_s, error)) return false;
  if (!get_string(obj, "error", s.error, 1024, true, error)) return false;
  out = std::move(s);
  return true;
}

void write_job_summary(JsonWriter& w, const JobSummary& s) {
  w.begin_object();
  w.kv("job_id", s.job_id);
  w.kv("client", s.client);
  w.kv("state", s.state);
  w.kv("trials", s.trials);
  w.kv("faulted", s.faulted);
  w.kv("best_gflops", s.best_gflops);
  w.key("best_config");
  w.begin_array();
  for (std::uint32_t v : s.best_config) w.value(static_cast<std::uint64_t>(v));
  w.end_array();
  w.kv("elapsed_s", s.elapsed_s);
  w.kv("error", s.error);
  w.end_object();
}

bool parse_stats(const JsonValue& obj, ServiceStats& out, std::string& error) {
  if (obj.kind != JsonValue::kObject) return fail(error, "'stats' must be an object");
  if (!check_keys(obj,
                  {"queue_depth", "running", "jobs_inflight",
                   "admitted_prio_high", "admitted_prio_normal",
                   "admitted_prio_low", "submitted", "completed", "cancelled",
                   "failed", "rejected", "quota_rejections", "resumed", "slots",
                   "cache_enabled", "cache_hits", "cache_inserts",
                   "shared_hits", "draining"},
                  error))
    return false;
  ServiceStats s;
  const std::uint64_t kMax = UINT64_MAX;
  if (!get_u64(obj, "queue_depth", s.queue_depth, 0, kMax, error)) return false;
  if (!get_u64(obj, "running", s.running, 0, kMax, error)) return false;
  // v2 additions; optional so v1 stats payloads still parse.
  if (!get_u64(obj, "jobs_inflight", s.jobs_inflight, 0, kMax, error,
               /*required=*/false))
    return false;
  if (!get_u64(obj, "admitted_prio_high", s.admitted_prio_high, 0, kMax, error,
               /*required=*/false))
    return false;
  if (!get_u64(obj, "admitted_prio_normal", s.admitted_prio_normal, 0, kMax,
               error, /*required=*/false))
    return false;
  if (!get_u64(obj, "admitted_prio_low", s.admitted_prio_low, 0, kMax, error,
               /*required=*/false))
    return false;
  if (!get_u64(obj, "submitted", s.submitted, 0, kMax, error)) return false;
  if (!get_u64(obj, "completed", s.completed, 0, kMax, error)) return false;
  if (!get_u64(obj, "cancelled", s.cancelled, 0, kMax, error)) return false;
  if (!get_u64(obj, "failed", s.failed, 0, kMax, error)) return false;
  if (!get_u64(obj, "rejected", s.rejected, 0, kMax, error)) return false;
  // v3 addition; optional so v1/v2 stats payloads still parse.
  if (!get_u64(obj, "quota_rejections", s.quota_rejections, 0, kMax, error,
               /*required=*/false))
    return false;
  if (!get_u64(obj, "resumed", s.resumed, 0, kMax, error)) return false;
  if (!get_u64(obj, "slots", s.slots, 0, kMax, error)) return false;
  if (!get_bool(obj, "cache_enabled", s.cache_enabled, error)) return false;
  if (!get_u64(obj, "cache_hits", s.cache_hits, 0, kMax, error)) return false;
  if (!get_u64(obj, "cache_inserts", s.cache_inserts, 0, kMax, error)) return false;
  if (!get_u64(obj, "shared_hits", s.shared_hits, 0, kMax, error)) return false;
  if (!get_bool(obj, "draining", s.draining, error)) return false;
  out = s;
  return true;
}

void write_stats(JsonWriter& w, const ServiceStats& s) {
  w.begin_object();
  w.kv("queue_depth", s.queue_depth);
  w.kv("running", s.running);
  w.kv("jobs_inflight", s.jobs_inflight);
  w.kv("admitted_prio_high", s.admitted_prio_high);
  w.kv("admitted_prio_normal", s.admitted_prio_normal);
  w.kv("admitted_prio_low", s.admitted_prio_low);
  w.kv("submitted", s.submitted);
  w.kv("completed", s.completed);
  w.kv("cancelled", s.cancelled);
  w.kv("failed", s.failed);
  w.kv("rejected", s.rejected);
  w.kv("quota_rejections", s.quota_rejections);
  w.kv("resumed", s.resumed);
  w.kv("slots", s.slots);
  w.kv("cache_enabled", s.cache_enabled);
  w.kv("cache_hits", s.cache_hits);
  w.kv("cache_inserts", s.cache_inserts);
  w.kv("shared_hits", s.shared_hits);
  w.kv("draining", s.draining);
  w.end_object();
}

/// One compact JSON line (no newline; the transport adds it), as `write`
/// emits it through the shared JsonWriter.
template <typename Write>
std::string encode_line(const Write& write) {
  std::ostringstream os;
  {
    JsonWriter w(os, /*indent=*/0);
    write(w);
  }
  return os.str();
}

/// The preamble of every line the daemon reads: the length cap, the strict
/// grammar, and a root that must be an object (`not_object` says which).
bool parse_object_line(std::string_view line, JsonValue& root,
                       const char* not_object, std::string& error) {
  if (line.size() > kMaxLineBytes) return fail(error, "line too long");
  if (!parse_json(line, root, error)) return false;
  if (root.kind != JsonValue::kObject) return fail(error, not_object);
  return true;
}

}  // namespace

std::string_view to_string(RequestType t) {
  switch (t) {
    case RequestType::kPing: return "ping";
    case RequestType::kSubmit: return "submit";
    case RequestType::kStatus: return "status";
    case RequestType::kResult: return "result";
    case RequestType::kCancel: return "cancel";
    case RequestType::kSubscribe: return "subscribe";
    case RequestType::kStats: return "stats";
    case RequestType::kDrain: return "drain";
    case RequestType::kShutdown: return "shutdown";
  }
  return "?";
}

std::string_view to_string(JobState s) {
  // Exhaustive: -Wswitch flags a missing state, and there is deliberately
  // no fallback return — a new state can never silently spell as another.
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kCancelled: return "cancelled";
    case JobState::kFailed: return "failed";
  }
  throw std::logic_error("invalid JobState value");
}

std::optional<JobState> parse_job_state(std::string_view name) {
  for (JobState s : kAllJobStates)
    if (name == to_string(s)) return s;
  return std::nullopt;
}

std::string_view to_string(ResponseType t) {
  switch (t) {
    case ResponseType::kPong: return "pong";
    case ResponseType::kAccepted: return "accepted";
    case ResponseType::kRejected: return "rejected";
    case ResponseType::kStatus: return "status";
    case ResponseType::kResult: return "result";
    case ResponseType::kStats: return "stats";
    case ResponseType::kOk: return "ok";
    case ResponseType::kError: return "error";
  }
  return "?";
}

std::string encode_request(const Request& r) {
  return encode_line([&](JsonWriter& w) {
    w.begin_object();
    w.kv("v", static_cast<std::int64_t>(r.version));
    w.kv("type", to_string(r.type));
    switch (r.type) {
      case RequestType::kSubmit:
        w.kv("client", r.client);
        w.kv("priority", r.priority);
        w.key("job");
        write_job_spec(w, r.job);
        break;
      case RequestType::kStatus:
      case RequestType::kCancel:
      case RequestType::kSubscribe:
        w.kv("job_id", r.job_id);
        break;
      case RequestType::kResult:
        w.kv("job_id", r.job_id);
        w.kv("wait", r.wait);
        break;
      default: break;  // ping / stats / drain / shutdown carry no payload
    }
    if (!r.auth.empty()) w.kv("auth", r.auth);
    if (!r.traceparent.empty()) w.kv("traceparent", r.traceparent);
    w.end_object();
  });
}

std::string encode_response(const Response& r) {
  return encode_line([&](JsonWriter& w) {
    w.begin_object();
    w.kv("v", static_cast<std::int64_t>(r.version));
    w.kv("type", to_string(r.type));
    switch (r.type) {
      case ResponseType::kAccepted: w.kv("job_id", r.job_id); break;
      case ResponseType::kRejected:
        w.kv("reason", r.reason);
        w.kv("retry_after_s", r.retry_after_s);
        break;
      case ResponseType::kStatus:
      case ResponseType::kResult:
        w.key("job");
        write_job_summary(w, r.summary);
        break;
      case ResponseType::kStats:
        w.key("stats");
        write_stats(w, r.stats);
        break;
      case ResponseType::kError: w.kv("reason", r.reason); break;
      default: break;  // pong / ok carry no payload
    }
    if (!r.traceparent.empty()) w.kv("traceparent", r.traceparent);
    w.end_object();
  });
}

bool parse_request(std::string_view line, Request& out, std::string& error) {
  JsonValue root;
  if (!parse_object_line(line, root, "request must be a JSON object", error))
    return false;
  Request r;
  if (!get_version(root, r.version, error)) return false;
  if (!get_auth(root, r.auth, error)) return false;
  if (!get_traceparent(root, r.traceparent, error)) return false;
  std::string type;
  if (!get_string(root, "type", type, 16, false, error)) return false;
  if (type == "ping" || type == "stats" || type == "drain" || type == "shutdown") {
    if (!check_keys(root, {"v", "type", "auth", "traceparent"}, error))
      return false;
    r.type = type == "ping"    ? RequestType::kPing
             : type == "stats" ? RequestType::kStats
             : type == "drain" ? RequestType::kDrain
                               : RequestType::kShutdown;
  } else if (type == "submit") {
    if (!check_keys(root,
                    {"v", "type", "client", "priority", "job", "auth",
                     "traceparent"},
                    error))
      return false;
    r.type = RequestType::kSubmit;
    if (!get_string(root, "client", r.client, 256, false, error)) return false;
    if (!get_i64(root, "priority", r.priority, -100, 100, error)) return false;
    const JsonValue* job = find(root, "job");
    if (!job) return fail(error, "missing key 'job'");
    if (!parse_job_spec(*job, r.job, error)) return false;
  } else if (type == "status" || type == "cancel" || type == "subscribe") {
    if (!check_keys(root, {"v", "type", "job_id", "auth", "traceparent"}, error))
      return false;
    r.type = type == "status"   ? RequestType::kStatus
             : type == "cancel" ? RequestType::kCancel
                                : RequestType::kSubscribe;
    if (r.type == RequestType::kSubscribe && r.version < 3)
      return fail(error, "'subscribe' requires protocol v3");
    if (!get_u64(root, "job_id", r.job_id, 0, UINT64_MAX, error)) return false;
  } else if (type == "result") {
    if (!check_keys(root, {"v", "type", "job_id", "wait", "auth", "traceparent"},
                    error))
      return false;
    r.type = RequestType::kResult;
    if (!get_u64(root, "job_id", r.job_id, 0, UINT64_MAX, error)) return false;
    if (!get_bool(root, "wait", r.wait, error, /*required=*/false)) return false;
  } else {
    return fail(error, "unknown request type '" + type + "'");
  }
  out = std::move(r);
  return true;
}

bool parse_response(std::string_view line, Response& out, std::string& error) {
  JsonValue root;
  if (!parse_object_line(line, root, "response must be a JSON object", error))
    return false;
  Response r;
  if (!get_version(root, r.version, error)) return false;
  if (!get_traceparent(root, r.traceparent, error)) return false;
  std::string type;
  if (!get_string(root, "type", type, 16, false, error)) return false;
  if (type == "pong" || type == "ok") {
    if (!check_keys(root, {"v", "type", "traceparent"}, error)) return false;
    r.type = type == "pong" ? ResponseType::kPong : ResponseType::kOk;
  } else if (type == "accepted") {
    if (!check_keys(root, {"v", "type", "job_id", "traceparent"}, error))
      return false;
    r.type = ResponseType::kAccepted;
    if (!get_u64(root, "job_id", r.job_id, 0, UINT64_MAX, error)) return false;
  } else if (type == "rejected") {
    if (!check_keys(root, {"v", "type", "reason", "retry_after_s", "traceparent"},
                    error))
      return false;
    r.type = ResponseType::kRejected;
    if (!get_string(root, "reason", r.reason, 1024, false, error)) return false;
    if (!get_nonneg_double(root, "retry_after_s", r.retry_after_s, error))
      return false;
  } else if (type == "status" || type == "result") {
    if (!check_keys(root, {"v", "type", "job", "traceparent"}, error))
      return false;
    r.type = type == "status" ? ResponseType::kStatus : ResponseType::kResult;
    const JsonValue* job = find(root, "job");
    if (!job) return fail(error, "missing key 'job'");
    if (!parse_job_summary(*job, r.summary, error)) return false;
  } else if (type == "stats") {
    if (!check_keys(root, {"v", "type", "stats", "traceparent"}, error))
      return false;
    r.type = ResponseType::kStats;
    const JsonValue* st = find(root, "stats");
    if (!st) return fail(error, "missing key 'stats'");
    if (!parse_stats(*st, r.stats, error)) return false;
  } else if (type == "error") {
    if (!check_keys(root, {"v", "type", "reason", "traceparent"}, error))
      return false;
    r.type = ResponseType::kError;
    if (!get_string(root, "reason", r.reason, 1024, true, error)) return false;
  } else {
    return fail(error, "unknown response type '" + type + "'");
  }
  out = std::move(r);
  return true;
}

Response error_response(std::string reason) {
  Response r;
  r.type = ResponseType::kError;
  r.reason = std::move(reason);
  return r;
}

std::string encode_spool_record(const SpoolRecord& r) {
  return encode_line([&](JsonWriter& w) {
    w.begin_object();
    w.kv("v", static_cast<std::int64_t>(kProtocolVersion));
    w.kv("id", r.id);
    w.kv("client", r.client);
    w.kv("priority", r.priority);
    w.key("job");
    write_job_spec(w, r.job);
    if (!r.traceparent.empty()) w.kv("traceparent", r.traceparent);
    w.end_object();
  });
}

bool parse_spool_record(std::string_view line, SpoolRecord& out, std::string& error) {
  JsonValue root;
  if (!parse_object_line(line, root, "spool record must be a JSON object", error))
    return false;
  int version = 0;
  if (!get_version(root, version, error)) return false;
  if (!check_keys(root, {"v", "id", "client", "priority", "job", "traceparent"},
                  error))
    return false;
  SpoolRecord r;
  if (!get_traceparent(root, r.traceparent, error)) return false;
  if (!get_u64(root, "id", r.id, 0, UINT64_MAX, error)) return false;
  if (!get_string(root, "client", r.client, 256, false, error)) return false;
  if (!get_i64(root, "priority", r.priority, -100, 100, error)) return false;
  const JsonValue* job = find(root, "job");
  if (!job) return fail(error, "missing key 'job'");
  if (!parse_job_spec(*job, r.job, error)) return false;
  out = std::move(r);
  return true;
}

std::string encode_job_summary(const JobSummary& s) {
  return encode_line([&](JsonWriter& w) { write_job_summary(w, s); });
}

bool parse_job_summary_line(std::string_view line, JobSummary& out,
                            std::string& error) {
  JsonValue root;
  return parse_object_line(line, root, "'job' must be an object", error) &&
         parse_job_summary(root, out, error);
}

}  // namespace glimpse::service
