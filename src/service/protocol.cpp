#include "service/protocol.hpp"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <span>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <variant>

#include "common/json_reader.hpp"
#include "common/json_writer.hpp"
#include "common/telemetry/trace_context.hpp"

namespace glimpse::service {

namespace {

// ---------------------------------------------------------------------------
// Field tables. Every payload (a message's type-specific members, a JobSpec,
// a JobSummary, ServiceStats, a spool record) is one table of Field rows;
// check_keys, read_fields and write_fields walk those rows in order, so a
// field is described once and parsed and encoded from the same row.
// ---------------------------------------------------------------------------

/// One member of a payload: its key, the struct member it lives in, its
/// bounds and whether it may be absent. A row without a member (monostate)
/// marks a field its payload reads and writes by hand at that position.
template <typename T>
struct Field {
  std::string_view key;
  std::variant<std::monostate, std::uint64_t T::*, std::int64_t T::*,
               std::string T::*, double T::*, bool T::*, JobSpec T::*,
               JobSummary T::*, ServiceStats T::*>
      member;
  // Integers: the value range. Strings: the length range. Signed low and
  // unsigned high bounds cover both priority (negative) and full-range u64s.
  std::int64_t lo = 0;
  std::uint64_t hi = UINT64_MAX;
  bool required = true;
};
template <typename T>
using Fields = std::span<const Field<T>>;

template <typename... F>
struct Overloaded : F... {
  using F::operator()...;
};

/// True when row `f` holds member `m`.
template <typename T, typename M>
bool is(const Field<T>& f, M T::*m) {
  const auto* held = std::get_if<M T::*>(&f.member);
  return held != nullptr && *held == m;
}

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

// Scalar readers: one per member type, checking kind then bounds.

bool read_value(const JsonValue& v, std::string_view key, std::int64_t lo,
                std::uint64_t hi, std::uint64_t& out, std::string& error) {
  std::uint64_t x;
  if (v.kind == JsonValue::kInt && v.i >= 0) {
    x = static_cast<std::uint64_t>(v.i);
  } else if (v.kind == JsonValue::kUint) {
    x = v.u;
  } else {
    return key_fail(error, key, "must be a non-negative integer");
  }
  if (x < static_cast<std::uint64_t>(lo) || x > hi)
    return key_fail(error, key, "out of range");
  out = x;
  return true;
}

bool read_value(const JsonValue& v, std::string_view key, std::int64_t lo,
                std::uint64_t hi, std::int64_t& out, std::string& error) {
  if (v.kind != JsonValue::kInt) return key_fail(error, key, "must be an integer");
  if (v.i < lo || (v.i > 0 && static_cast<std::uint64_t>(v.i) > hi))
    return key_fail(error, key, "out of range");
  out = v.i;
  return true;
}

bool read_value(const JsonValue& v, std::string_view key, std::int64_t lo,
                std::uint64_t hi, std::string& out, std::string& error) {
  if (v.kind != JsonValue::kString) return key_fail(error, key, "must be a string");
  if (v.s.size() < static_cast<std::uint64_t>(lo) || v.s.size() > hi)
    return key_fail(error, key, "has bad length");
  out = v.s;
  return true;
}

bool read_value(const JsonValue& v, std::string_view key, std::int64_t,
                std::uint64_t, double& out, std::string& error) {
  if (!v.is_number()) return key_fail(error, key, "must be a number");
  const double x = v.as_double();
  if (!std::isfinite(x) || x < 0.0)
    return key_fail(error, key, "must be finite and non-negative");
  out = x;
  return true;
}

bool read_value(const JsonValue& v, std::string_view key, std::int64_t,
                std::uint64_t, bool& out, std::string& error) {
  if (v.kind != JsonValue::kBool) return key_fail(error, key, "must be a boolean");
  out = v.b;
  return true;
}

// Nested payloads, defined below their tables.
bool read_value(const JsonValue& v, std::string_view key, std::int64_t,
                std::uint64_t, JobSpec& out, std::string& error);
bool read_value(const JsonValue& v, std::string_view key, std::int64_t,
                std::uint64_t, JobSummary& out, std::string& error);
bool read_value(const JsonValue& v, std::string_view key, std::int64_t,
                std::uint64_t, ServiceStats& out, std::string& error);
template <typename X>
void write_value(JsonWriter& w, const X& x) {
  w.value(x);
}
void write_value(JsonWriter& w, const JobSpec& spec);
void write_value(JsonWriter& w, const JobSummary& s);
void write_value(JsonWriter& w, const ServiceStats& s);

/// Reads member `key` of `obj` into `out`. An absent member fails only when
/// `required`, and then leaves `out` as it was.
template <typename X>
bool read_member(const JsonValue& obj, std::string_view key, std::int64_t lo,
                 std::uint64_t hi, bool required, X& out, std::string& error) {
  const JsonValue* v = find(obj, key);
  if (!v) return !required || fail(error, "missing key '" + std::string(key) + "'");
  return read_value(*v, key, lo, hi, out, error);
}

/// Fails on the first key of `obj` that is neither a row of `rows` nor one
/// of the message's envelope keys `extra`.
template <typename T>
bool check_keys(const JsonValue& obj, Fields<T> rows,
                std::initializer_list<std::string_view> extra, std::string& error) {
  for (const auto& [k, v] : obj.object)
    if (std::ranges::find(rows, k, &Field<T>::key) == rows.end() &&
        std::ranges::find(extra, k) == extra.end())
      return fail(error, "unknown key '" + k + "'");
  return true;
}

template <typename T>
bool read_field(const JsonValue& obj, const Field<T>& f, T& out, std::string& error) {
  return std::visit(
      Overloaded{[](std::monostate) { return true; },
                 [&](auto T::*m) {
                   return read_member(obj, f.key, f.lo, f.hi, f.required, out.*m,
                                      error);
                 }},
      f.member);
}

/// The walker: reads every row in order; the first fault wins.
template <typename T>
bool read_fields(const JsonValue& obj, Fields<T> rows, T& out, std::string& error) {
  for (const Field<T>& f : rows)
    if (!read_field(obj, f, out, error)) return false;
  return true;
}

template <typename T>
void write_field(JsonWriter& w, const Field<T>& f, const T& in) {
  std::visit(Overloaded{[](std::monostate) {},
                        [&](auto T::*m) {
                          w.key(f.key);
                          write_value(w, in.*m);
                        }},
             f.member);
}

template <typename T>
void write_fields(JsonWriter& w, Fields<T> rows, const T& in) {
  for (const Field<T>& f : rows) write_field(w, f, in);
}

/// Nested payloads must be objects; `key` names the member in the message.
bool check_object(const JsonValue& v, std::string_view key, std::string& error) {
  return v.kind == JsonValue::kObject ||
         fail(error, std::string("'").append(key).append("' must be an object"));
}

// Keys several payloads share.
constexpr std::string_view kJobIdKey = "job_id";
constexpr std::string_view kClientKey = "client";

constexpr Field<JobSpec> kJobSpecFields[] = {
    {"tuner", &JobSpec::tuner, 1, 64},
    {"model", &JobSpec::model, 1, 64},
    {"task", &JobSpec::task_index, 0, 10000},
    {"gpu", &JobSpec::gpu, 1, 128},
    {"seed", &JobSpec::seed},
    {"max_trials", &JobSpec::max_trials, 1, 1000000},
    {"batch_size", &JobSpec::batch_size, 1, 4096},
    {"plateau", &JobSpec::plateau_trials, 0, 1000000},
    {"time_budget_s", &JobSpec::time_budget_s},
    {.key = "warmstart", .member = &JobSpec::warmstart, .required = false},
};

constexpr Field<JobSummary> kJobSummaryFields[] = {
    {kJobIdKey, &JobSummary::job_id},
    {kClientKey, &JobSummary::client, 0, 256},
    {"state", &JobSummary::state, 1, 16},
    {"trials", &JobSummary::trials},
    {"faulted", &JobSummary::faulted},
    {"best_gflops", &JobSummary::best_gflops},
    {"best_config", {}},  // a uint32 array, read and written by hand
    {"elapsed_s", &JobSummary::elapsed_s},
    {"error", &JobSummary::error, 0, 1024},
};

// The v2 additions (jobs_inflight, admitted_prio_*) and the v3 addition
// (quota_rejections) are optional so older stats payloads still parse.
constexpr Field<ServiceStats> kStatsFields[] = {
    {"queue_depth", &ServiceStats::queue_depth},
    {"running", &ServiceStats::running},
    {.key = "jobs_inflight", .member = &ServiceStats::jobs_inflight, .required = false},
    {.key = "admitted_prio_high", .member = &ServiceStats::admitted_prio_high,
     .required = false},
    {.key = "admitted_prio_normal", .member = &ServiceStats::admitted_prio_normal,
     .required = false},
    {.key = "admitted_prio_low", .member = &ServiceStats::admitted_prio_low,
     .required = false},
    {"submitted", &ServiceStats::submitted},
    {"completed", &ServiceStats::completed},
    {"cancelled", &ServiceStats::cancelled},
    {"failed", &ServiceStats::failed},
    {"rejected", &ServiceStats::rejected},
    {.key = "quota_rejections", .member = &ServiceStats::quota_rejections,
     .required = false},
    {"resumed", &ServiceStats::resumed},
    {"slots", &ServiceStats::slots},
    {"cache_enabled", &ServiceStats::cache_enabled},
    {"cache_hits", &ServiceStats::cache_hits},
    {"cache_inserts", &ServiceStats::cache_inserts},
    {"shared_hits", &ServiceStats::shared_hits},
    {"draining", &ServiceStats::draining},
};
// merge_stats sums counters and ORs flags; a stats field of any other type
// needs its own merge rule first.
static_assert(std::ranges::all_of(kStatsFields, [](const Field<ServiceStats>& f) {
  return std::holds_alternative<std::uint64_t ServiceStats::*>(f.member) ||
         std::holds_alternative<bool ServiceStats::*>(f.member);
}));

bool read_value(const JsonValue& v, std::string_view key, std::int64_t,
                std::uint64_t, JobSpec& out, std::string& error) {
  return check_object(v, key, error) &&
         check_keys<JobSpec>(v, kJobSpecFields, {}, error) &&
         read_fields<JobSpec>(v, kJobSpecFields, out, error);
}

void write_value(JsonWriter& w, const JobSpec& spec) {
  w.begin_object();
  for (const Field<JobSpec>& f : kJobSpecFields)
    // Omitted when true (the default) so old peers never see the key.
    if (!is(f, &JobSpec::warmstart) || !spec.warmstart) write_field(w, f, spec);
  w.end_object();
}

bool read_value(const JsonValue& v, std::string_view key, std::int64_t,
                std::uint64_t, JobSummary& out, std::string& error) {
  if (!check_object(v, key, error) ||
      !check_keys<JobSummary>(v, kJobSummaryFields, {}, error))
    return false;
  for (const Field<JobSummary>& f : kJobSummaryFields) {
    if (!read_field(v, f, out, error)) return false;
    if (is(f, &JobSummary::state) && !parse_job_state(out.state))
      return fail(error, "unknown job state '" + out.state + "'");
    if (std::holds_alternative<std::monostate>(f.member)) {
      const JsonValue* cfg = find(v, f.key);
      if (!cfg || cfg->kind != JsonValue::kArray)
        return fail(error, "'best_config' must be an array");
      for (const JsonValue& e : cfg->array) {
        if (e.kind != JsonValue::kInt || e.i < 0 || e.i > 0xffffffffLL)
          return fail(error, "'best_config' entries must be uint32");
        out.best_config.push_back(static_cast<std::uint32_t>(e.i));
      }
    }
  }
  return true;
}

void write_value(JsonWriter& w, const JobSummary& s) {
  w.begin_object();
  for (const Field<JobSummary>& f : kJobSummaryFields) {
    write_field(w, f, s);
    if (std::holds_alternative<std::monostate>(f.member)) {
      w.key(f.key).begin_array();
      for (std::uint32_t v : s.best_config) w.value(static_cast<std::uint64_t>(v));
      w.end_array();
    }
  }
  w.end_object();
}

bool read_value(const JsonValue& v, std::string_view key, std::int64_t,
                std::uint64_t, ServiceStats& out, std::string& error) {
  return check_object(v, key, error) &&
         check_keys<ServiceStats>(v, kStatsFields, {}, error) &&
         read_fields<ServiceStats>(v, kStatsFields, out, error);
}

void write_value(JsonWriter& w, const ServiceStats& s) {
  w.begin_object();
  write_fields<ServiceStats>(w, kStatsFields, s);
  w.end_object();
}

// ---------------------------------------------------------------------------
// Message types: wire name, enum and payload rows, one table per direction.
// ---------------------------------------------------------------------------

template <typename T, typename Type>
struct MessageType {
  std::string_view name;
  Type type;
  Fields<T> payload;
};

template <typename T, typename Type, std::size_t N>
const MessageType<T, Type>* find_type(const MessageType<T, Type> (&types)[N],
                                      Type type) {
  for (const auto& m : types)
    if (m.type == type) return &m;
  return nullptr;
}

constexpr Field<Request> kSubmitFields[] = {
    {kClientKey, &Request::client, 1, 256},
    {"priority", &Request::priority, -100, 100},
    {"job", &Request::job},
};
// status, cancel and subscribe carry the first row; result both.
constexpr Field<Request> kJobIdFields[] = {
    {kJobIdKey, &Request::job_id},
    {.key = "wait", .member = &Request::wait, .required = false},
};
constexpr Fields<Request> kJobIdOnly = Fields<Request>(kJobIdFields).first(1);

constexpr MessageType<Request, RequestType> kRequestTypes[] = {
    {"ping", RequestType::kPing, {}},
    {"submit", RequestType::kSubmit, kSubmitFields},
    {"status", RequestType::kStatus, kJobIdOnly},
    {"result", RequestType::kResult, kJobIdFields},
    {"cancel", RequestType::kCancel, kJobIdOnly},
    {"subscribe", RequestType::kSubscribe, kJobIdOnly},
    {"stats", RequestType::kStats, {}},
    {"drain", RequestType::kDrain, {}},
    {"shutdown", RequestType::kShutdown, {}},
};

constexpr Field<Response> kAcceptedFields[] = {{kJobIdKey, &Response::job_id}};
constexpr Field<Response> kRejectedFields[] = {
    {"reason", &Response::reason, 1, 1024},
    {"retry_after_s", &Response::retry_after_s},
};
constexpr Field<Response> kSummaryFields[] = {{"job", &Response::summary}};
constexpr Field<Response> kStatsPayload[] = {{"stats", &Response::stats}};
constexpr Field<Response> kErrorFields[] = {{"reason", &Response::reason, 0, 1024}};

constexpr MessageType<Response, ResponseType> kResponseTypes[] = {
    {"pong", ResponseType::kPong, {}},
    {"accepted", ResponseType::kAccepted, kAcceptedFields},
    {"rejected", ResponseType::kRejected, kRejectedFields},
    {"status", ResponseType::kStatus, kSummaryFields},
    {"result", ResponseType::kResult, kSummaryFields},
    {"stats", ResponseType::kStats, kStatsPayload},
    {"ok", ResponseType::kOk, {}},
    {"error", ResponseType::kError, kErrorFields},
};

constexpr Field<SpoolRecord> kSpoolFields[] = {
    {"id", &SpoolRecord::id},
    {kClientKey, &SpoolRecord::client, 1, 256},
    {"priority", &SpoolRecord::priority, -100, 100},
    {"job", &SpoolRecord::job},
};

// Envelope members, read before (or, in a spool record, around) the payload.

bool get_version(const JsonValue& obj, int& out, std::string& error) {
  std::uint64_t v = 0;
  if (!read_member(obj, "v", 0, 1u << 20, true, v, error)) return false;
  if (v < static_cast<std::uint64_t>(kMinProtocolVersion) ||
      v > static_cast<std::uint64_t>(kProtocolVersion))
    return fail(error, "unsupported protocol version");
  out = static_cast<int>(v);
  return true;
}

/// Optional "traceparent" member: absent is fine (v1 peers, untraced
/// requests); when present it must be a well-formed W3C traceparent.
bool get_traceparent(const JsonValue& obj, std::string& out, std::string& error) {
  const JsonValue* v = find(obj, "traceparent");
  if (!v) return true;
  if (!read_value(*v, "traceparent", 0, UINT64_MAX, out, error)) return false;
  telemetry::TraceContext ctx;
  return telemetry::parse_traceparent(out, ctx) ||
         fail(error, "malformed traceparent");
}

/// The type name of a message and the payload rows it carries.
template <typename T, typename Type, std::size_t N>
const MessageType<T, Type>* get_type(const JsonValue& obj,
                                     const MessageType<T, Type> (&types)[N],
                                     const char* what, std::string& error) {
  std::string name;
  if (!read_member(obj, "type", 1, 16, true, name, error)) return nullptr;
  const auto* m = std::ranges::find(types, name, &MessageType<T, Type>::name);
  if (m != std::end(types)) return m;
  fail(error, "unknown " + std::string(what) + " type '" + name + "'");
  return nullptr;
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

/// A request or response line: version, type, payload rows, then the
/// optional auth and traceparent members.
template <typename T, typename Type, std::size_t N>
std::string encode_message(const MessageType<T, Type> (&types)[N], const T& msg,
                           std::string_view auth) {
  const MessageType<T, Type>* m = find_type(types, msg.type);
  return encode_line([&](JsonWriter& w) {
    w.begin_object();
    w.kv("v", static_cast<std::int64_t>(msg.version));
    w.kv("type", m ? m->name : "?");
    if (m) write_fields(w, m->payload, msg);
    if (!auth.empty()) w.kv("auth", auth);
    if (!msg.traceparent.empty()) w.kv("traceparent", msg.traceparent);
    w.end_object();
  });
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
  const auto* m = find_type(kRequestTypes, t);
  return m ? m->name : "?";
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
  const auto* m = find_type(kResponseTypes, t);
  return m ? m->name : "?";
}

void merge_stats(ServiceStats& into, const ServiceStats& from) {
  for (const Field<ServiceStats>& f : kStatsFields)
    std::visit(Overloaded{[&](std::uint64_t ServiceStats::*m) { into.*m += from.*m; },
                          [&](bool ServiceStats::*m) { into.*m = into.*m || from.*m; },
                          [](auto) {}},  // ruled out by the static_assert
               f.member);
}

std::string encode_request(const Request& r) {
  return encode_message(kRequestTypes, r, r.auth);
}

std::string encode_response(const Response& r) {
  return encode_message(kResponseTypes, r, {});
}

bool parse_request(std::string_view line, Request& out, std::string& error) {
  JsonValue root;
  if (!parse_object_line(line, root, "request must be a JSON object", error))
    return false;
  Request r;
  // "auth" (v3) is optional: absent for unauthenticated peers, else a
  // non-empty token of sane length.
  if (!get_version(root, r.version, error) ||
      !read_member(root, "auth", 1, 256, false, r.auth, error) ||
      !get_traceparent(root, r.traceparent, error))
    return false;
  const auto* m = get_type(root, kRequestTypes, "request", error);
  if (!m || !check_keys(root, m->payload, {"v", "type", "auth", "traceparent"}, error))
    return false;
  r.type = m->type;
  if (r.type == RequestType::kSubscribe && r.version < 3)
    return fail(error, "'subscribe' requires protocol v3");
  if (!read_fields(root, m->payload, r, error)) return false;
  out = std::move(r);
  return true;
}

bool parse_response(std::string_view line, Response& out, std::string& error) {
  JsonValue root;
  if (!parse_object_line(line, root, "response must be a JSON object", error))
    return false;
  Response r;
  if (!get_version(root, r.version, error) ||
      !get_traceparent(root, r.traceparent, error))
    return false;
  const auto* m = get_type(root, kResponseTypes, "response", error);
  if (!m || !check_keys(root, m->payload, {"v", "type", "traceparent"}, error) ||
      !read_fields(root, m->payload, r, error))
    return false;
  r.type = m->type;
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
    write_fields<SpoolRecord>(w, kSpoolFields, r);
    if (!r.traceparent.empty()) w.kv("traceparent", r.traceparent);
    w.end_object();
  });
}

bool parse_spool_record(std::string_view line, SpoolRecord& out, std::string& error) {
  JsonValue root;
  if (!parse_object_line(line, root, "spool record must be a JSON object", error))
    return false;
  int version = 0;
  SpoolRecord r;
  if (!get_version(root, version, error) ||
      !check_keys<SpoolRecord>(root, kSpoolFields, {"v", "traceparent"}, error) ||
      !get_traceparent(root, r.traceparent, error) ||
      !read_fields<SpoolRecord>(root, kSpoolFields, r, error))
    return false;
  out = std::move(r);
  return true;
}

std::string encode_job_summary(const JobSummary& s) {
  return encode_line([&](JsonWriter& w) { write_value(w, s); });
}

bool parse_job_summary_line(std::string_view line, JobSummary& out,
                            std::string& error) {
  JsonValue root;
  JobSummary s;
  if (!parse_object_line(line, root, "'job' must be an object", error) ||
      !read_value(root, "job", 0, 0, s, error))
    return false;
  out = std::move(s);
  return true;
}

}  // namespace glimpse::service
