// Strict JSON reader tests (ctest -L robustness): the accept/reject grammar
// table, the cursor's exact-key-order reads, cache-tier lines that only the
// old lax scanner took (now rejected lines), and properties over garbled
// and JsonWriter-emitted text.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/json_reader.hpp"
#include "common/json_writer.hpp"
#include "proptest_util.hpp"
#include "tuning/result_cache.hpp"

namespace glimpse {
namespace {

bool parses(const std::string& text) {
  JsonValue v;
  std::string err;
  const bool ok = parse_json(text, v, err);
  EXPECT_TRUE(ok || !err.empty()) << text;
  return ok;
}

TEST(JsonReaderTest, GrammarTable) {
  const std::vector<std::string> accept = {
      "0", "-0", "1.5", "-1.5e-3", "1E+2", "1e-400", "18446744073709551615",
      "-9223372036854775808", "true", "false", "null", R"("")",
      R"("a\"\\\/\b\f\n\r\té😀")", "[]", "{}", " [ 1 , [ ] ] ",
      "\t{\"a\":{\"b\":[null]}}\r\n", R"({"a":1,"A":2})"};
  for (const auto& text : accept) EXPECT_TRUE(parses(text)) << text;
  const std::vector<std::string> reject = {
      "", " ", "nan", "NaN", "inf", "-inf", "Infinity", "+1", "01", "-01",
      "0x10", "0x1p-3", "1.", ".5", "1e", "1e+", "--1", "1e400", "-1e400",
      "18446744073709551616", "-9223372036854775809", "tru", "nul", "[1,]",
      "[1 2]", R"({"a" 1})", R"({"a":1,})", R"({"a":1,"a":2})", "{1:2}", "[",
      "\"abc", R"("\x")", R"("\ud800")", R"("\udc00")", R"("\ud800A")",
      "\"\x01\"", "\v1", "1\v", "\f1", "1\f", "[1]x", "[1][2]"};
  for (const auto& text : reject) EXPECT_FALSE(parses(text)) << text;
}

TEST(JsonReaderTest, NumbersConvertExactly) {
  JsonValue v;
  std::string err;
  ASSERT_TRUE(parse_json("18446744073709551615", v, err));
  EXPECT_EQ(v.kind, JsonValue::kUint);
  EXPECT_EQ(v.u, 18446744073709551615ULL);
  ASSERT_TRUE(parse_json("-9223372036854775808", v, err));
  EXPECT_EQ(v.kind, JsonValue::kInt);
  EXPECT_EQ(v.i, INT64_MIN);
  ASSERT_TRUE(parse_json("9007199254740993", v, err));  // 2^53 + 1
  EXPECT_EQ(v.i, 9007199254740993LL);

  // Too small for a double reads as a signed zero; too large is rejected.
  double d = 1.0;
  JsonReader tiny("-1e-400");
  ASSERT_TRUE(tiny.read_double(d));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(d), std::bit_cast<std::uint64_t>(-0.0));
  JsonReader tiny_frac("0.0000000000000000000000000000000000000000000001e-300");
  ASSERT_TRUE(tiny_frac.read_double(d));
  EXPECT_EQ(d, 0.0);
  JsonReader huge("1e309");
  EXPECT_FALSE(huge.read_double(d));
  EXPECT_STREQ(huge.error(), "bad number");
  JsonReader neg_zero("-0");
  ASSERT_TRUE(neg_zero.read_double(d));
  EXPECT_TRUE(std::signbit(d));
  JsonReader subnormal("4.9406564584124654e-324");
  ASSERT_TRUE(subnormal.read_double(d));
  EXPECT_EQ(d, std::numeric_limits<double>::denorm_min());

  std::uint64_t u = 7;
  EXPECT_TRUE(JsonReader("-0").read_u64(u));
  EXPECT_EQ(u, 0u);
  EXPECT_FALSE(JsonReader("-1").read_u64(u));
  EXPECT_FALSE(JsonReader("1.0").read_u64(u));
}

TEST(JsonReaderTest, ExactKeyOrder) {
  auto read_ab = [](const std::string& text) {
    JsonReader in(text);
    std::uint64_t a = 0, b = 0;
    return in.begin_object() && in.expect_key("a") && in.read_u64(a) &&
           in.expect_key("b") && in.read_u64(b) && in.end_object() && in.finish();
  };
  EXPECT_TRUE(read_ab(R"({"a":1,"b":2})"));
  EXPECT_TRUE(read_ab(R"( { "a" : 1 , "b" : 2 } )"));
  EXPECT_FALSE(read_ab(R"({"\u0061":1,"b":2})"));  // same key, spelled otherwise
  EXPECT_FALSE(read_ab(R"({"b":2,"a":1})"));       // reordered
  EXPECT_FALSE(read_ab(R"({"a":1})"));             // missing
  EXPECT_FALSE(read_ab(R"({"a":1,"b":2,"c":3})"));  // extra
  EXPECT_FALSE(read_ab(R"({"ab":1,"b":2})"));
  EXPECT_FALSE(read_ab(R"({"a":1,"b":2} 3)"));
}

// ----- cache-tier lines -----

const char* const kGoodLine =
    R"({"fpv":3,"task_fp":"0000000000001111","hw_fp":"0000000000002222",)"
    R"("config":[1,0],"valid":true,"reason":0,"error":0,"attempts":1,)"
    R"("latency_s":0.001,"gflops":900,"cost_s":2})";

std::string with(std::string line, const std::string& from, const std::string& to) {
  const std::size_t at = line.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  return line.replace(at, from.size(), to);
}

// Every spelling the lax line scanner used to take (strtod/strtoull, any
// isspace) that JSON forbids: each is now a rejected line, never stale or
// loaded.
TEST(JsonReaderTest, CacheLinesOutsideJsonAreRejected) {
  const std::string good = kGoodLine;
  const std::vector<std::string> bad = {
      with(good, "0.001", "nan"),
      with(good, "0.001", "NAN"),
      with(good, "0.001", "inf"),
      with(good, "\"gflops\":900", "\"gflops\":-infinity"),
      with(good, "0.001", "+0.001"),
      with(good, "\"attempts\":1", "\"attempts\":01"),
      with(good, "0.001", "0x1p-10"),
      with(good, "0.001", "0X1P-10"),
      with(good, "0.001", ".001"),
      with(good, "\"gflops\":900", "\"gflops\":900."),
      with(good, "0.001", "1e999"),
      with(good, ",\"hw_fp\"", "\v,\"hw_fp\""),
      with(good, ",\"hw_fp\"", "\f,\"hw_fp\""),
      with(good, "{", "\v{"),
      good + "\f",
      with(good, "\"attempts\":1", "\"attempts\":18446744073709551617"),
      with(good, "\"reason\":0", "\"reason\":99999999999999999999999"),
      with(good, "\"fpv\":3", "\"fpv\":18446744073709551619"),
  };
  const std::string path = ::testing::TempDir() + "/json_reader_bad_tier.jsonl";
  {
    std::ofstream os(path, std::ios::trunc);
    os << good << '\n';
    for (const std::string& line : bad) {
      tuning::CacheKey key;
      gpusim::MeasureResult r;
      bool stale = false;
      EXPECT_FALSE(tuning::parse_cache_line(line, key, r, stale)) << line;
      os << line << '\n';
    }
  }
  tuning::ResultCacheOptions opts;
  opts.path = path;
  tuning::ResultCache cache(opts);
  EXPECT_EQ(cache.stats().loaded, 1u);
  EXPECT_EQ(cache.stats().stale, 0u);
  EXPECT_EQ(cache.stats().rejected_lines, bad.size());
  std::remove(path.c_str());
}

// ----- properties -----

// A random JSON value emitted by JsonWriter (unique keys, depth <= 4).
void write_random(JsonWriter& w, Rng& rng, int depth) {
  const int kind = static_cast<int>(rng.uniform_int(0, depth >= 4 ? 4 : 6));
  switch (kind) {
    case 0: w.null(); break;
    case 1: w.value(rng.chance(0.5)); break;
    case 2:
      if (rng.chance(0.5))
        w.value(static_cast<std::int64_t>(rng.uniform_int(INT64_MIN, INT64_MAX)));
      else
        w.value(static_cast<std::uint64_t>(rng.uniform_int(0, INT64_MAX)) * 2u + 1u);
      break;
    case 3: w.value(testing::finite_double(rng)); break;
    case 4: w.value(testing::any_string(rng, 24)); break;
    case 5: {
      w.begin_array();
      for (std::int64_t n = rng.uniform_int(0, 4); n > 0; --n)
        write_random(w, rng, depth + 1);
      w.end_array();
      break;
    }
    default: {
      w.begin_object();
      for (std::int64_t n = rng.uniform_int(0, 4); n > 0; --n) {
        w.key("k" + std::to_string(n) + testing::any_string(rng, 6));
        write_random(w, rng, depth + 1);
      }
      w.end_object();
      break;
    }
  }
}

std::string random_json(Rng& rng) {
  std::ostringstream os;
  {
    JsonWriter w(os, /*indent=*/0);
    write_random(w, rng, 0);
  }
  return os.str();
}

// Walk the cursor over the text the tree came from; every value, key and
// element must agree.
bool cursor_agrees(JsonReader& in, const JsonValue& v) {
  switch (v.kind) {
    case JsonValue::kNull: {
      JsonValue n;
      return in.read_value(n) && n.kind == JsonValue::kNull;
    }
    case JsonValue::kBool: {
      bool b = !v.b;
      return in.read_bool(b) && b == v.b;
    }
    case JsonValue::kInt:
    case JsonValue::kUint:
    case JsonValue::kDouble: {
      double d = 0.0;
      return in.read_double(d) && d == v.as_double();
    }
    case JsonValue::kString: {
      std::string s;
      return in.read_string(s) && s == v.s;
    }
    case JsonValue::kArray: {
      if (!in.begin_array()) return false;
      for (const JsonValue& e : v.array)
        if (!in.next_element() || !cursor_agrees(in, e)) return false;
      return !in.next_element() && in.ok();
    }
    case JsonValue::kObject: {
      if (!in.begin_object()) return false;
      for (const auto& [key, member] : v.object) {
        std::string k;
        if (!in.next_key(k) || k != key || !cursor_agrees(in, member)) return false;
      }
      return in.end_object();
    }
  }
  return false;
}

TEST(JsonReaderTest, TreeAndCursorAgreeOnWriterOutput) {
  CHECK_PROP(0x75ead01, 400, [](Rng& rng) {
    const std::string text = random_json(rng);
    JsonValue v;
    std::string err;
    if (!parse_json(text, v, err)) {
      ADD_FAILURE() << err << "\n  " << text;
      return false;
    }
    JsonReader in(text);
    return cursor_agrees(in, v) && in.finish();
  });
}

TEST(JsonReaderTest, CacheLineCursorAgreesWithTree) {
  CHECK_PROP(0x75ead02, 300, [](Rng& rng) {
    std::ostringstream os;
    {
      JsonWriter w(os, /*indent=*/0);
      w.begin_object();
      w.kv("fpv", tuning::kCacheLineFpVersion);
      char hex[20];
      std::snprintf(hex, sizeof(hex), "%016llx",
                    static_cast<unsigned long long>(rng.uniform_int(0, INT64_MAX)));
      w.kv("task_fp", hex);
      w.kv("hw_fp", hex);
      w.key("config");
      w.begin_array();
      for (std::int64_t n = rng.uniform_int(0, 6); n > 0; --n)
        w.value(static_cast<std::uint64_t>(rng.uniform_int(0, 0xffffffffLL)));
      w.end_array();
      w.kv("valid", rng.chance(0.5));
      w.kv("reason", static_cast<std::uint64_t>(rng.uniform_int(0, 9)));
      w.kv("error", static_cast<std::uint64_t>(rng.uniform_int(0, 3)));
      w.kv("attempts", static_cast<std::uint64_t>(rng.uniform_int(0, 2000)));
      w.kv("latency_s", testing::finite_double(rng));
      w.kv("gflops", testing::finite_double(rng));
      w.kv("cost_s", testing::finite_double(rng));
      w.end_object();
    }
    const std::string line = os.str();
    tuning::CacheKey key;
    gpusim::MeasureResult r;
    bool stale = false;
    JsonValue v;
    std::string err;
    if (!tuning::parse_cache_line(line, key, r, stale) || !parse_json(line, v, err)) {
      ADD_FAILURE() << line;
      return false;
    }
    const auto& m = v.object;
    bool same = m.size() == 11 && m[1].second.s == m[2].second.s &&
                std::stoull(m[1].second.s, nullptr, 16) == key.task_fp &&
                key.hw_fp == key.task_fp &&
                m[3].second.array.size() == key.config.size() &&
                m[4].second.b == r.valid &&
                m[5].second.i == static_cast<std::int64_t>(r.reason) &&
                m[6].second.i == static_cast<std::int64_t>(r.error) &&
                m[7].second.i == r.attempts &&
                m[8].second.as_double() == r.latency_s &&
                m[9].second.as_double() == r.gflops &&
                m[10].second.as_double() == r.cost_s;
    for (std::size_t k = 0; same && k < key.config.size(); ++k)
      same = m[3].second.array[k].i == key.config[k];
    return same;
  });
}

TEST(JsonReaderTest, GarbledTextNeverMisbehaves) {
  CHECK_PROP(0x75ead03, 600, [](Rng& rng) {
    const std::string damaged = testing::garble(random_json(rng), rng);
    JsonValue v;
    std::string err;
    const bool ok = parse_json(damaged, v, err);
    tuning::CacheKey key;
    gpusim::MeasureResult r;
    bool stale = false;
    tuning::parse_cache_line(damaged, key, r, stale);
    return ok || !err.empty();
  });
}

}  // namespace
}  // namespace glimpse
