// Golden encodings (ctest -L service): the exact bytes every wire message,
// spool record, job-summary line and cache-tier line is written as, the
// struct each decodes back to, and the exact error string a client sees
// for each way a line can be malformed. Peers of other versions and files
// left by older daemons depend on these bytes, so a parser or encoder
// change must leave every case here passing untouched.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "gpusim/measurer.hpp"
#include "service/protocol.hpp"
#include "tuning/result_cache.hpp"

namespace glimpse {
namespace {

using service::JobSpec;
using service::JobSummary;
using service::Request;
using service::RequestType;
using service::Response;
using service::ResponseType;
using service::ServiceStats;
using service::SpoolRecord;

const char* const kTraceparent =
    "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01";

JobSpec golden_spec() {
  JobSpec s;
  s.tuner = "autotvm";
  s.model = "resnet18";
  s.task_index = 3;
  s.gpu = "Titan Xp";
  s.seed = 18446744073709551615ULL;
  s.max_trials = 64;
  s.batch_size = 8;
  s.plateau_trials = 16;
  s.time_budget_s = 2.5;
  s.warmstart = false;
  return s;
}
const char* const kGoldenSpec =
    R"({"tuner":"autotvm","model":"resnet18","task":3,"gpu":"Titan Xp",)"
    R"("seed":18446744073709551615,"max_trials":64,"batch_size":8,)"
    R"("plateau":16,"time_budget_s":2.5,"warmstart":false})";

JobSummary golden_summary() {
  JobSummary s;
  s.job_id = 7;
  s.client = "al\"ice\\\n\x01\xc3\xa9";
  s.state = "done";
  s.trials = 64;
  s.faulted = 2;
  s.best_gflops = 1234.5;
  s.best_config = {1, 0, 4294967295u};
  s.elapsed_s = 0.001;
  s.error = "";
  return s;
}
const char* const kGoldenSummary =
    R"({"job_id":7,"client":"al\"ice\\\n\u0001)"
    "\xc3\xa9"
    R"(","state":"done","trials":64,"faulted":2,"best_gflops":1234.5,)"
    R"("best_config":[1,0,4294967295],"elapsed_s":0.001,"error":""})";

struct RequestCase {
  Request r;
  std::string line;
};

std::vector<RequestCase> request_cases() {
  std::vector<RequestCase> cases;
  auto add = [&](RequestType t, int v, std::string line) {
    Request r;
    r.version = v;
    r.type = t;
    cases.push_back({r, std::move(line)});
    return &cases.back().r;
  };
  add(RequestType::kPing, 1, R"({"v":1,"type":"ping"})");
  Request* sub = add(RequestType::kSubmit, 3,
                     std::string(R"({"v":3,"type":"submit","client":"c\"1",)"
                                 R"("priority":-5,"job":)") +
                         kGoldenSpec + R"(,"auth":"tok","traceparent":")" +
                         kTraceparent + R"("})");
  sub->client = "c\"1";
  sub->priority = -5;
  sub->job = golden_spec();
  sub->auth = "tok";
  sub->traceparent = kTraceparent;
  add(RequestType::kStatus, 2, R"({"v":2,"type":"status","job_id":3})")->job_id = 3;
  Request* res = add(RequestType::kResult, 1,
                     R"({"v":1,"type":"result","job_id":18446744073709551615,"wait":true})");
  res->job_id = 18446744073709551615ULL;
  res->wait = true;
  add(RequestType::kCancel, 1, R"({"v":1,"type":"cancel","job_id":0})");
  add(RequestType::kSubscribe, 3,
      std::string(R"({"v":3,"type":"subscribe","job_id":42,"traceparent":")") +
          kTraceparent + R"("})");
  cases.back().r.job_id = 42;
  cases.back().r.traceparent = kTraceparent;
  add(RequestType::kStats, 3, R"({"v":3,"type":"stats","auth":"s3cret"})")->auth =
      "s3cret";
  add(RequestType::kDrain, 1, R"({"v":1,"type":"drain"})");
  add(RequestType::kShutdown, 1, R"({"v":1,"type":"shutdown"})");
  return cases;
}

TEST(WireGolden, EveryRequestTypeEncodesAndDecodesExactly) {
  auto cases = request_cases();
  ASSERT_EQ(cases.size(), 9u);  // one per RequestType
  for (const RequestCase& c : cases) {
    EXPECT_EQ(service::encode_request(c.r), c.line);
    Request back;
    std::string err;
    ASSERT_TRUE(service::parse_request(c.line, back, err)) << err << "\n" << c.line;
    EXPECT_EQ(back, c.r) << c.line;
  }
}

TEST(WireGolden, EveryResponseTypeEncodesAndDecodesExactly) {
  std::vector<std::pair<Response, std::string>> cases;
  auto add = [&](ResponseType t, std::string line) {
    Response r;
    r.type = t;
    cases.emplace_back(r, std::move(line));
    return &cases.back().first;
  };
  add(ResponseType::kPong, R"({"v":3,"type":"pong"})");
  add(ResponseType::kAccepted, R"({"v":3,"type":"accepted","job_id":12})")->job_id = 12;
  Response* rej = add(ResponseType::kRejected,
                      R"({"v":3,"type":"rejected","reason":"saturated","retry_after_s":0.25})");
  rej->reason = "saturated";
  rej->retry_after_s = 0.25;
  add(ResponseType::kStatus, std::string(R"({"v":3,"type":"status","job":)") +
                                 kGoldenSummary + "}")
      ->summary = golden_summary();
  Response* fin = add(ResponseType::kResult,
                      R"({"v":3,"type":"result","job":{"job_id":8,"client":"bob",)"
                      R"("state":"failed","trials":0,"faulted":0,"best_gflops":0,)"
                      R"("best_config":[],"elapsed_s":1e+300,)"
                      R"("error":"scheduler round failed: disk full"},"traceparent":")" +
                          std::string(kTraceparent) + R"("})");
  fin->summary.job_id = 8;
  fin->summary.client = "bob";
  fin->summary.state = "failed";
  fin->summary.elapsed_s = 1e300;
  fin->summary.error = "scheduler round failed: disk full";
  fin->traceparent = kTraceparent;
  Response* st = add(
      ResponseType::kStats,
      R"({"v":3,"type":"stats","stats":{"queue_depth":1,"running":2,)"
      R"("jobs_inflight":3,"admitted_prio_high":4,"admitted_prio_normal":5,)"
      R"("admitted_prio_low":6,"submitted":7,"completed":8,"cancelled":9,)"
      R"("failed":10,"rejected":11,"quota_rejections":12,"resumed":13,)"
      R"("slots":14,"cache_enabled":true,"cache_hits":15,"cache_inserts":16,)"
      R"("shared_hits":17,"draining":false}})");
  ServiceStats& s = st->stats;
  s.queue_depth = 1;
  s.running = 2;
  s.jobs_inflight = 3;
  s.admitted_prio_high = 4;
  s.admitted_prio_normal = 5;
  s.admitted_prio_low = 6;
  s.submitted = 7;
  s.completed = 8;
  s.cancelled = 9;
  s.failed = 10;
  s.rejected = 11;
  s.quota_rejections = 12;
  s.resumed = 13;
  s.slots = 14;
  s.cache_enabled = true;
  s.cache_hits = 15;
  s.cache_inserts = 16;
  s.shared_hits = 17;
  s.draining = false;
  add(ResponseType::kOk, R"({"v":3,"type":"ok"})");
  add(ResponseType::kError, R"({"v":3,"type":"error","reason":"unknown job_id"})")
      ->reason = "unknown job_id";
  ASSERT_EQ(cases.size(), 8u);  // one per ResponseType
  for (const auto& [r, line] : cases) {
    EXPECT_EQ(service::encode_response(r), line);
    Response back;
    std::string err;
    ASSERT_TRUE(service::parse_response(line, back, err)) << err << "\n" << line;
    EXPECT_EQ(back, r) << line;
  }
}

TEST(WireGolden, V1StatsWithoutOptionalCountersDecode) {
  const std::string line =
      R"({"v":1,"type":"stats","stats":{"queue_depth":0,"running":1,)"
      R"("submitted":2,"completed":1,"cancelled":0,"failed":0,"rejected":0,)"
      R"("resumed":0,"slots":4,"cache_enabled":false,"cache_hits":0,)"
      R"("cache_inserts":0,"shared_hits":0,"draining":true}})";
  Response back;
  std::string err;
  ASSERT_TRUE(service::parse_response(line, back, err)) << err;
  Response want;
  want.version = 1;
  want.type = ResponseType::kStats;
  want.stats.running = 1;
  want.stats.submitted = 2;
  want.stats.completed = 1;
  want.stats.slots = 4;
  want.stats.draining = true;
  EXPECT_EQ(back, want);
}

TEST(WireGolden, SpoolRecordWithAndWithoutTraceparent) {
  SpoolRecord rec;
  rec.id = 9;
  rec.client = "bob";
  rec.priority = 100;
  rec.job = golden_spec();
  const std::string bare =
      std::string(R"({"v":3,"id":9,"client":"bob","priority":100,"job":)") +
      kGoldenSpec + "}";
  EXPECT_EQ(service::encode_spool_record(rec), bare);
  SpoolRecord back;
  std::string err;
  ASSERT_TRUE(service::parse_spool_record(bare, back, err)) << err;
  EXPECT_EQ(back, rec);

  rec.traceparent = kTraceparent;
  const std::string traced = bare.substr(0, bare.size() - 1) +
                             R"(,"traceparent":")" + kTraceparent + R"("})";
  EXPECT_EQ(service::encode_spool_record(rec), traced);
  ASSERT_TRUE(service::parse_spool_record(traced, back, err)) << err;
  EXPECT_EQ(back, rec);

  // A v1 spool record (written before tracing existed) still decodes.
  JobSpec defaults;
  const std::string v1 =
      R"({"v":1,"id":1,"client":"c","priority":0,"job":{"tuner":"random",)"
      R"("model":"resnet18","task":0,"gpu":"Titan Xp","seed":1,)"
      R"("max_trials":64,"batch_size":8,"plateau":0,"time_budget_s":0}})";
  ASSERT_TRUE(service::parse_spool_record(v1, back, err)) << err;
  EXPECT_EQ(back, (SpoolRecord{1, "c", 0, defaults, ""}));
}

TEST(WireGolden, JobSummaryLine) {
  EXPECT_EQ(service::encode_job_summary(golden_summary()), kGoldenSummary);
  JobSummary back;
  std::string err;
  ASSERT_TRUE(service::parse_job_summary_line(kGoldenSummary, back, err)) << err;
  EXPECT_EQ(back, golden_summary());
}

// The first failure wins: each malformed line pins the one message a client
// is answered with.
TEST(WireGolden, RequestErrorStrings) {
  const std::string spec_prefix =
      R"({"v":1,"type":"submit","client":"c","priority":0,"job":{"tuner":"r",)"
      R"("model":"m","task":0,"gpu":"g","seed":1,"max_trials":1,"batch_size":1,)"
      R"("plateau":0,"time_budget_s":)";
  std::string deep;
  for (int i = 0; i < 12; ++i) deep += '[';
  std::string many_values = "[";
  for (int a = 0; a < 5; ++a) {
    many_values += a ? ",[" : "[";
    for (int i = 0; i < 4000; ++i) many_values += i ? ",0" : "0";
    many_values += "]";
  }
  many_values += "]";
  std::string long_array = "[";
  for (int i = 0; i < 4097; ++i) long_array += i ? ",0" : "0";
  long_array += "]";
  std::string many_keys = "{";
  for (int i = 0; i < 65; ++i)
    many_keys += (i ? ",\"k" : "\"k") + std::to_string(i) + "\":0";
  many_keys += "}";

  const std::vector<std::pair<std::string, std::string>> cases = {
      {"", "unexpected end of input"},
      {R"({"v":)", "unexpected end of input"},
      {std::string(service::kMaxLineBytes + 1, ' '), "line too long"},
      {R"({"v":1,"type":"ping"} x)", "trailing bytes after JSON value"},
      {R"([1,2,3])", "request must be a JSON object"},
      {R"("ping")", "request must be a JSON object"},
      {R"({"v":1,"type":"ping","zap":1})", "unknown key 'zap'"},
      {R"({"v":1,"v":1,"type":"ping"})", "duplicate object key"},
      {R"({"v":4,"type":"ping"})", "unsupported protocol version"},
      {R"({"v":0,"type":"ping"})", "unsupported protocol version"},
      {R"({"v":2000000,"type":"ping"})", "key 'v' out of range"},
      {R"({"type":"ping"})", "missing key 'v'"},
      {R"({"v":"1","type":"ping"})", "key 'v' must be a non-negative integer"},
      {R"({"v":1.0,"type":"ping"})", "key 'v' must be a non-negative integer"},
      {R"({"v":1,"type":"zap"})", "unknown request type 'zap'"},
      {R"({"v":1,"type":5})", "key 'type' must be a string"},
      {R"({"v":1,"type":""})", "key 'type' has bad length"},
      {R"({"v":01,"type":"ping"})", "leading zero"},
      {R"({"v":-01})", "leading zero"},
      {R"({"v":1.,"type":"ping"})", "bad fraction"},
      {R"({"v":1e,"type":"ping"})", "bad exponent"},
      {R"({"v":1e+})", "bad exponent"},
      {R"({"v":-,"type":"ping"})", "bad number"},
      {R"({"v":+1})", "bad number"},
      {R"({"v":.5})", "bad number"},
      {R"({"v":1e999})", "bad number"},
      {R"({"v":nan})", "bad literal"},
      {R"({"v":Infinity})", "bad number"},
      {R"({"v":99999999999999999999})", "integer out of range"},
      {R"({"v":-9223372036854775809})", "integer out of range"},
      {R"({"v":tru})", "bad literal"},
      {R"({"v":nul})", "bad literal"},
      {R"({"v":fals})", "bad literal"},
      {R"({"v":1 "type":"ping"})", "expected ',' or '}'"},
      {R"({"v" 1})", "expected ':'"},
      {R"({1:2})", "expected object key"},
      {R"({"v":1,})", "expected object key"},
      {R"({"v":1)", "unterminated object"},
      {R"({"v":[1,2)", "unterminated array"},
      {R"({"v":[1 2]})", "expected ',' or ']'"},
      {R"({"v":[1,]})", "bad number"},
      {R"({"v":"abc)", "unterminated string"},
      {R"({"v":"ab\)", "truncated escape"},
      {R"({"v":"\q"})", "unknown escape"},
      {R"({"v":"\u12"})", "bad \\u escape"},
      {R"({"v":"\u12)", "truncated \\u escape"},
      {"{\"v\":1,\"type\":\"ping\x01\"}", "raw control character in string"},
      {"{\"v\":1,\"type\":\"ping\"}\v", "trailing bytes after JSON value"},
      {"\f{\"v\":1,\"type\":\"ping\"}", "bad number"},
      {R"({"v":1,"type":"status","job_id":"\ud800"})", "lone high surrogate"},
      {R"({"v":1,"type":"status","job_id":"\udc00"})", "lone low surrogate"},
      {R"({"v":1,"type":"status","job_id":"\ud800\u0041"})", "bad surrogate pair"},
      {R"({"v":1,"type":"status","job_id":-1})",
       "key 'job_id' must be a non-negative integer"},
      {R"({"v":1,"type":"status","job_id":18446744073709551616})",
       "integer out of range"},
      {R"({"v":1,"type":"status"})", "missing key 'job_id'"},
      {R"({"v":1,"type":"result","job_id":1,"wait":1})",
       "key 'wait' must be a boolean"},
      {R"({"v":2,"type":"subscribe","job_id":1})", "'subscribe' requires protocol v3"},
      {R"({"v":1,"type":"ping","traceparent":5})", "key 'traceparent' must be a string"},
      {R"({"v":2,"type":"ping","traceparent":"00-zz"})", "malformed traceparent"},
      {R"({"v":3,"type":"ping","auth":""})", "key 'auth' has bad length"},
      {R"({"v":3,"type":"ping","auth":7})", "key 'auth' must be a string"},
      {R"({"v":1,"type":"submit","client":"c","priority":0})", "missing key 'job'"},
      {R"({"v":1,"type":"submit","client":"c","priority":101,"job":{}})",
       "key 'priority' out of range"},
      {R"({"v":1,"type":"submit","client":"c","priority":"x","job":{}})",
       "key 'priority' must be an integer"},
      {R"({"v":1,"type":"submit","client":"","priority":0,"job":{}})",
       "key 'client' has bad length"},
      {R"({"v":1,"type":"submit","client":"c","priority":0,"job":1})",
       "'job' must be an object"},
      {R"({"v":1,"type":"submit","client":"c","priority":0,"job":{"x":1}})",
       "unknown key 'x'"},
      {R"({"v":1,"type":"submit","client":"c","priority":0,"job":{}})",
       "missing key 'tuner'"},
      {spec_prefix + "-1}}", "key 'time_budget_s' must be finite and non-negative"},
      {spec_prefix + "\"x\"}}", "key 'time_budget_s' must be a number"},
      {spec_prefix + "0,\"warmstart\":0}}", "key 'warmstart' must be a boolean"},
      {deep, "nesting too deep"},
      {many_values, "too many values"},
      {long_array, "array too long"},
      {"\"" + std::string(4097, 'a') + "\"", "string too long"},
      {many_keys, "too many object keys"},
  };
  for (const auto& [line, want] : cases) {
    Request r;
    std::string err;
    EXPECT_FALSE(service::parse_request(line, r, err)) << line.substr(0, 80);
    EXPECT_EQ(err, want) << line.substr(0, 80);
  }
}

TEST(WireGolden, ResponseSpoolAndSummaryErrorStrings) {
  const std::string summary_prefix =
      R"({"job_id":1,"client":"c","state":"done","trials":0,"faulted":0,)"
      R"("best_gflops":0,"best_config":)";
  const std::vector<std::pair<std::string, std::string>> responses = {
      {R"([1])", "response must be a JSON object"},
      {R"({"v":3,"type":"x"})", "unknown response type 'x'"},
      {R"({"v":3,"type":"stats"})", "missing key 'stats'"},
      {R"({"v":3,"type":"stats","stats":[]})", "'stats' must be an object"},
      {R"({"v":3,"type":"status"})", "missing key 'job'"},
      {R"({"v":3,"type":"rejected","reason":"","retry_after_s":1})",
       "key 'reason' has bad length"},
      {R"({"v":3,"type":"status","job":{"job_id":1,"client":"c","state":"zombie"}})",
       "unknown job state 'zombie'"},
      {R"({"v":3,"type":"status","job":)" + summary_prefix + "1}}",
       "'best_config' must be an array"},
      {R"({"v":3,"type":"status","job":)" + summary_prefix + "[-1]}}",
       "'best_config' entries must be uint32"},
      {R"({"v":3,"type":"status","job":)" + summary_prefix + "[4294967296]}}",
       "'best_config' entries must be uint32"},
  };
  for (const auto& [line, want] : responses) {
    Response r;
    std::string err;
    EXPECT_FALSE(service::parse_response(line, r, err)) << line;
    EXPECT_EQ(err, want) << line;
  }
  SpoolRecord rec;
  std::string err;
  EXPECT_FALSE(service::parse_spool_record("[1]", rec, err));
  EXPECT_EQ(err, "spool record must be a JSON object");
  EXPECT_FALSE(service::parse_spool_record(R"({"v":3,"id":1,"zap":0})", rec, err));
  EXPECT_EQ(err, "unknown key 'zap'");
  JobSummary s;
  EXPECT_FALSE(service::parse_job_summary_line("[1]", s, err));
  EXPECT_EQ(err, "'job' must be an object");
  EXPECT_FALSE(service::parse_job_summary_line(R"({"job_id":1)", s, err));
  EXPECT_EQ(err, "unterminated object");
}

// ----- cache-tier lines -----

tuning::CacheKey golden_key() {
  tuning::CacheKey k;
  k.task_fp = 0x1111;
  k.hw_fp = 0xdeadbeefcafef00dULL;
  k.config = {1, 0, 3};
  return k;
}

gpusim::MeasureResult golden_result() {
  gpusim::MeasureResult r;
  r.valid = true;
  r.attempts = 2;
  r.latency_s = 0.00125;
  r.gflops = 900.5;
  r.cost_s = 2.5;
  return r;
}

void expect_result_eq(const gpusim::MeasureResult& a, const gpusim::MeasureResult& b) {
  EXPECT_EQ(a.valid, b.valid);
  EXPECT_EQ(a.reason, b.reason);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.latency_s, b.latency_s);
  EXPECT_EQ(a.gflops, b.gflops);
  EXPECT_EQ(a.cost_s, b.cost_s);
}

TEST(WireGolden, CacheLineWithFpv) {
  const std::string path = ::testing::TempDir() + "/golden_tier.jsonl";
  std::remove(path.c_str());
  gpusim::MeasureResult invalid;
  invalid.reason = static_cast<gpusim::InvalidReason>(2);
  invalid.cost_s = 1.4;
  tuning::CacheKey key2 = golden_key();
  key2.config = {7};
  {
    tuning::ResultCacheOptions opts;
    opts.path = path;
    tuning::ResultCache cache(opts);
    cache.insert(golden_key(), golden_result());
    cache.insert(key2, invalid);
  }
  std::vector<std::string> lines;
  {
    std::ifstream is(path);
    for (std::string line; std::getline(is, line);) lines.push_back(line);
  }
  std::remove(path.c_str());
  const std::vector<std::string> want = {
      R"({"fpv":3,"task_fp":"0000000000001111","hw_fp":"deadbeefcafef00d",)"
      R"("config":[1,0,3],"valid":true,"reason":0,"error":0,"attempts":2,)"
      R"("latency_s":0.00125,"gflops":900.5,"cost_s":2.5})",
      R"({"fpv":3,"task_fp":"0000000000001111","hw_fp":"deadbeefcafef00d",)"
      R"("config":[7],"valid":false,"reason":2,"error":0,"attempts":1,)"
      R"("latency_s":0,"gflops":0,"cost_s":1.4})",
  };
  ASSERT_EQ(lines, want);

  tuning::CacheKey key;
  gpusim::MeasureResult r;
  bool stale = true;
  ASSERT_TRUE(tuning::parse_cache_line(want[0], key, r, stale));
  EXPECT_FALSE(stale);
  EXPECT_EQ(key, golden_key());
  expect_result_eq(r, golden_result());
  ASSERT_TRUE(tuning::parse_cache_line(want[1], key, r, stale));
  EXPECT_FALSE(stale);
  EXPECT_EQ(key, key2);
  expect_result_eq(r, invalid);
}

TEST(WireGolden, CacheLineWithoutFpvDecodesStale) {
  // Written before fingerprint scheme 2: same fields, no "fpv".
  const std::string line =
      R"({"task_fp":"0000000000001111","hw_fp":"deadbeefcafef00d",)"
      R"("config":[1,0,3],"valid":true,"reason":0,"error":0,"attempts":2,)"
      R"("latency_s":0.00125,"gflops":900.5,"cost_s":2.5})";
  tuning::CacheKey key;
  gpusim::MeasureResult r;
  bool stale = false;
  ASSERT_TRUE(tuning::parse_cache_line(line, key, r, stale));
  EXPECT_TRUE(stale);
  EXPECT_EQ(key, golden_key());
  expect_result_eq(r, golden_result());
}

}  // namespace
}  // namespace glimpse
