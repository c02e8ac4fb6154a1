// Strict JSON reader: the one grammar for every line read back — protocol
// messages, spool records, job summaries and result-cache tier lines.
//
// JsonReader is a pull cursor over one text. Each call consumes one value or
// structural step and fails at the first deviation from RFC 8259 or from the
// caps below, keeping that failure's message. Integers stay exact (a seed is
// a uint64), non-finite numbers and lone surrogates are rejected, and numbers
// convert in place with std::from_chars. read_value()/parse_json() build a
// JsonValue tree, rejecting duplicate keys; fixed-layout records instead walk
// the cursor with expect_key(), demanding the writer's keys in its order.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace glimpse {

/// One parsed JSON value.
struct JsonValue {
  enum Kind { kNull, kBool, kInt, kUint, kDouble, kString, kArray, kObject };
  Kind kind = kNull;
  bool b = false;
  std::int64_t i = 0;   ///< kInt
  std::uint64_t u = 0;  ///< kUint (magnitudes above int64 range)
  double d = 0.0;       ///< kDouble
  std::string s;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;  ///< in input order

  bool is_number() const { return kind == kInt || kind == kUint || kind == kDouble; }
  double as_double() const {
    if (kind == kInt) return static_cast<double>(i);
    if (kind == kUint) return static_cast<double>(u);
    return d;
  }
};

class JsonReader {
 public:
  static constexpr int kMaxDepth = 8;  ///< containers nested inside the root
  static constexpr std::size_t kMaxValues = 16384;
  static constexpr std::size_t kMaxStringLen = 4096;  ///< decoded bytes
  static constexpr std::size_t kMaxArrayLen = 4096;
  static constexpr std::size_t kMaxObjectKeys = 64;

  explicit JsonReader(std::string_view text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  /// The next value, whatever it is, as a tree.
  bool read_value(JsonValue& out);
  bool read_bool(bool& out);
  bool read_string(std::string& out);
  /// An integer token in [0, 2^64).
  bool read_u64(std::uint64_t& out);
  /// Any number token, as the nearest double.
  bool read_double(double& out);

  /// Objects: begin_object(), then next_key() until it returns false,
  /// reading one value after each key. next_key() returns false once '}'
  /// is consumed or on a failure (tell them apart with ok()).
  bool begin_object() { return begin('{'); }
  bool next_key(std::string& key);
  /// The next member's key must be exactly `key`, byte for byte.
  bool expect_key(std::string_view key);
  /// The open object must end here.
  bool end_object();

  /// Arrays: begin_array(), then one value each time next_element()
  /// returns true.
  bool begin_array() { return begin('['); }
  bool next_element() { return next(']'); }

  /// Only whitespace may follow the root value.
  bool finish();

  bool ok() const { return err_ == nullptr; }
  const char* error() const { return err_ ? err_ : ""; }

 private:
  /// Record a failure (the first one wins) and return false.
  bool fail(const char* what) {
    if (!err_) err_ = what;
    return false;
  }
  void skip_ws() {
    while (p_ != end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r'))
      ++p_;
  }
  bool lit(std::string_view s);
  bool start_value();
  bool begin(char open);
  void enter() {
    ++p_;
    count_[depth_++] = 0;
  }
  bool next(char close);
  bool key_start();
  bool bool_body(bool& out);
  bool string_body(std::string& out);
  bool hex4(std::uint32_t& out);
  bool number(JsonValue& out);
  bool scan_number(std::string_view& token, bool& integral);

  const char* p_;
  const char* end_;
  const char* err_ = nullptr;
  std::size_t values_ = 0;
  int depth_ = 0;  ///< open containers
  std::size_t count_[kMaxDepth + 1] = {};  ///< members begun, per open container
  bool colon_pending_ = false;  ///< a key was read; ':' and its value are due
};

/// Strict parse of one whole JSON text into a tree. Returns false and sets
/// `error` to a short reason on any deviation; `out` is untouched then.
bool parse_json(std::string_view text, JsonValue& out, std::string& error);

}  // namespace glimpse
