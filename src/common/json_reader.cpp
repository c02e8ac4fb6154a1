#include "common/json_reader.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>

namespace glimpse {

namespace {

void append_utf8(std::string& out, std::uint32_t cp) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xC0 | (cp >> 6));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    out += static_cast<char>(0xE0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (cp >> 18));
    out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// Nearest double to a grammar-checked number token; false when it is too
/// large to be finite. from_chars reports a value too small for a double
/// like one too large; only then is the token handed to strtod, which reads
/// the former as a signed zero, as JSON does.
bool to_double(std::string_view tok, double& out) {
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, out);
  if (ec == std::errc::result_out_of_range)
    out = std::strtod(std::string(tok).c_str(), nullptr);
  else if (ec != std::errc() || ptr != end)
    return false;
  return std::isfinite(out);
}

}  // namespace

bool JsonReader::lit(std::string_view s) {
  if (!std::string_view(p_, end_ - p_).starts_with(s)) return false;
  p_ += s.size();
  return true;
}

// Everything checked before a value's first byte, in this order: the
// pending member's key cap and ':', the depth and value caps, and that
// input remains.
bool JsonReader::start_value() {
  if (err_) return false;
  if (colon_pending_) {
    colon_pending_ = false;
    if (count_[depth_ - 1] > kMaxObjectKeys) return fail("too many object keys");
    skip_ws();
    if (p_ == end_ || *p_ != ':') return fail("expected ':'");
    ++p_;
  }
  if (depth_ > kMaxDepth) return fail("nesting too deep");
  if (++values_ > kMaxValues) return fail("too many values");
  skip_ws();
  if (p_ == end_) return fail("unexpected end of input");
  return true;
}

bool JsonReader::read_value(JsonValue& v) {
  if (!start_value()) return false;
  switch (*p_) {
    case '{':
      v.kind = JsonValue::kObject;
      enter();
      for (std::string key; next_key(key);) {
        for (const auto& member : v.object)
          if (member.first == key) return fail("duplicate object key");
        v.object.emplace_back(std::move(key), JsonValue());
        if (!read_value(v.object.back().second)) return false;
      }
      return ok();
    case '[':
      v.kind = JsonValue::kArray;
      enter();
      while (next_element()) {
        v.array.emplace_back();
        if (!read_value(v.array.back())) return false;
      }
      return ok();
    case '"': v.kind = JsonValue::kString; return string_body(v.s);
    case 't':
    case 'f': v.kind = JsonValue::kBool; return bool_body(v.b);
    case 'n': v.kind = JsonValue::kNull; return lit("null") || fail("bad literal");
    default: return number(v);
  }
}

bool JsonReader::read_bool(bool& out) { return start_value() && bool_body(out); }

bool JsonReader::read_string(std::string& out) {
  return start_value() && (*p_ == '"' || fail("expected string")) && string_body(out);
}

bool JsonReader::read_u64(std::uint64_t& out) {
  JsonValue n;
  if (!start_value() || !number(n)) return false;
  if (n.kind == JsonValue::kInt && n.i >= 0) out = static_cast<std::uint64_t>(n.i);
  else if (n.kind == JsonValue::kUint) out = n.u;
  else return fail("expected a non-negative integer");
  return true;
}

bool JsonReader::read_double(double& out) {
  std::string_view tok;
  bool integral = false;
  return start_value() && scan_number(tok, integral) &&
         (to_double(tok, out) || fail("bad number"));
}

bool JsonReader::begin(char open) {
  if (!start_value()) return false;
  if (*p_ != open) return fail("unexpected value");
  enter();
  return true;
}

// Past the separator to the open container's next member or element; false
// once `close` is consumed.
bool JsonReader::next(char close) {
  if (err_) return false;
  std::size_t& n = count_[depth_ - 1];
  if (close == ']' && n > kMaxArrayLen) return fail("array too long");
  skip_ws();
  if (p_ != end_ && *p_ == close) {
    ++p_;
    --depth_;
    return false;
  }
  const bool obj = close == '}';
  if (n++ > 0) {
    if (p_ == end_) return fail(obj ? "unterminated object" : "unterminated array");
    if (*p_ != ',') return fail(obj ? "expected ',' or '}'" : "expected ',' or ']'");
    ++p_;
  }
  return true;
}

bool JsonReader::key_start() {
  skip_ws();
  if (p_ == end_ || *p_ != '"') return fail("expected object key");
  colon_pending_ = true;
  return true;
}

bool JsonReader::next_key(std::string& key) {
  return next('}') && key_start() && string_body(key);
}

bool JsonReader::expect_key(std::string_view key) {
  if (!next('}')) return fail("missing key");  // an earlier failure wins
  if (!key_start()) return false;
  if (static_cast<std::size_t>(end_ - p_) < key.size() + 2 || p_[key.size() + 1] != '"' ||
      std::memcmp(p_ + 1, key.data(), key.size()) != 0)
    return fail("unexpected key");
  p_ += key.size() + 2;
  return true;
}

bool JsonReader::end_object() {
  if (next('}')) return fail("unexpected key");
  return ok();
}

bool JsonReader::finish() {
  if (err_) return false;
  skip_ws();
  return p_ == end_ || fail("trailing bytes after JSON value");
}

bool JsonReader::bool_body(bool& out) {
  if (lit("true")) out = true;
  else if (lit("false")) out = false;
  else return fail("bad literal");
  return true;
}

bool JsonReader::hex4(std::uint32_t& out) {
  if (end_ - p_ < 4) return fail("truncated \\u escape");
  std::uint32_t v = 0;
  for (int k = 0; k < 4; ++k) {
    char c = *p_++;
    int d;
    if (c >= '0' && c <= '9') d = c - '0';
    else if (c >= 'a' && c <= 'f') d = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') d = c - 'A' + 10;
    else return fail("bad \\u escape");
    v = (v << 4) | static_cast<std::uint32_t>(d);
  }
  out = v;
  return true;
}

bool JsonReader::string_body(std::string& out) {
  ++p_;  // opening quote
  out.clear();
  while (true) {
    if (p_ == end_) return fail("unterminated string");
    unsigned char c = static_cast<unsigned char>(*p_);
    if (c == '"') {
      ++p_;
      return true;
    }
    if (out.size() >= kMaxStringLen) return fail("string too long");
    if (c < 0x20) return fail("raw control character in string");
    if (c != '\\') {  // copy the whole run of plain bytes at once
      const char* run = p_;
      while (p_ != end_ && *p_ != '"' && *p_ != '\\' &&
             static_cast<unsigned char>(*p_) >= 0x20)
        ++p_;
      if (out.size() + static_cast<std::size_t>(p_ - run) > kMaxStringLen)
        return fail("string too long");
      out.append(run, p_);
      continue;
    }
    ++p_;  // backslash
    if (p_ == end_) return fail("truncated escape");
    char e = *p_++;
    switch (e) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        std::uint32_t cp;
        if (!hex4(cp)) return false;
        if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate: need the pair
          if (end_ - p_ < 2 || p_[0] != '\\' || p_[1] != 'u')
            return fail("lone high surrogate");
          p_ += 2;
          std::uint32_t lo;
          if (!hex4(lo)) return false;
          if (lo < 0xDC00 || lo > 0xDFFF) return fail("bad surrogate pair");
          cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
        } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
          return fail("lone low surrogate");
        }
        append_utf8(out, cp);
        break;
      }
      default: return fail("unknown escape");
    }
  }
}

bool JsonReader::scan_number(std::string_view& token, bool& integral) {
  const char* start = p_;
  if (p_ != end_ && *p_ == '-') ++p_;
  const char* digits = p_;
  while (p_ != end_ && is_digit(*p_)) ++p_;
  if (p_ == digits) return fail("bad number");
  // JSON forbids leading zeros on multi-digit integers.
  if (p_ - digits > 1 && *digits == '0') return fail("leading zero");
  integral = true;
  if (p_ != end_ && *p_ == '.') {
    integral = false;
    ++p_;
    const char* frac = p_;
    while (p_ != end_ && is_digit(*p_)) ++p_;
    if (p_ == frac) return fail("bad fraction");
  }
  if (p_ != end_ && (*p_ == 'e' || *p_ == 'E')) {
    integral = false;
    ++p_;
    if (p_ != end_ && (*p_ == '+' || *p_ == '-')) ++p_;
    const char* exp = p_;
    while (p_ != end_ && is_digit(*p_)) ++p_;
    if (p_ == exp) return fail("bad exponent");
  }
  token = std::string_view(start, static_cast<std::size_t>(p_ - start));
  return true;
}

bool JsonReader::number(JsonValue& v) {
  std::string_view tok;
  bool integral = false;
  if (!scan_number(tok, integral)) return false;
  if (!integral) {
    v.kind = JsonValue::kDouble;
    return to_double(tok, v.d) || fail("bad number");
  }
  const char* end = tok.data() + tok.size();
  std::from_chars_result r;
  if (tok[0] == '-') {
    v.kind = JsonValue::kInt;
    r = std::from_chars(tok.data(), end, v.i);
  } else {
    std::uint64_t u = 0;
    r = std::from_chars(tok.data(), end, u);
    if (u <= static_cast<std::uint64_t>(INT64_MAX)) {
      v.kind = JsonValue::kInt;
      v.i = static_cast<std::int64_t>(u);
    } else {
      v.kind = JsonValue::kUint;
      v.u = u;
    }
  }
  return (r.ec == std::errc() && r.ptr == end) || fail("integer out of range");
}

bool parse_json(std::string_view text, JsonValue& out, std::string& error) {
  JsonReader in(text);
  JsonValue v;
  if (!in.read_value(v) || !in.finish()) {
    error = in.error();
    return false;
  }
  out = std::move(v);
  return true;
}

}  // namespace glimpse
