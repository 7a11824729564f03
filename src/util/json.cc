#include "util/json.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/check.h"
#include "util/strings.h"

namespace picloud::util {

namespace {
const std::string kEmptyString;
const JsonArray kEmptyArray;
const JsonObject kEmptyObject;
const Json kNullJson;
}  // namespace

Json::Json(JsonArray a)
    : v_(std::in_place_index<kArrayIdx>,
         std::make_unique<JsonArray>(std::move(a))) {}

Json::Json(JsonObject o)
    : v_(std::in_place_index<kObjectIdx>,
         std::make_unique<JsonObject>(std::move(o))) {}

Json::Json(const Json& other) {
  switch (other.type()) {
    case Type::kArray: {
      const auto& a = *std::get_if<kArrayIdx>(&other.v_);
      v_.emplace<kArrayIdx>(a ? std::make_unique<JsonArray>(*a) : nullptr);
      break;
    }
    case Type::kObject: {
      const auto& o = *std::get_if<kObjectIdx>(&other.v_);
      v_.emplace<kObjectIdx>(o ? std::make_unique<JsonObject>(*o) : nullptr);
      break;
    }
    case Type::kNull: break;
    case Type::kBool:
      v_.emplace<kBoolIdx>(*std::get_if<kBoolIdx>(&other.v_));
      break;
    case Type::kNumber:
      v_.emplace<kNumberIdx>(*std::get_if<kNumberIdx>(&other.v_));
      break;
    case Type::kString:
      v_.emplace<kStringIdx>(*std::get_if<kStringIdx>(&other.v_));
      break;
  }
}

Json::Json(Json&&) noexcept = default;

Json& Json::operator=(const Json& other) {
  if (this != &other) *this = Json(other);
  return *this;
}

Json& Json::operator=(Json&&) noexcept = default;

Json::~Json() = default;

const std::string& Json::as_string() const {
  PICLOUD_CHECK(is_string() || is_null()) << "as_string on non-string Json";
  return is_string() ? *std::get_if<kStringIdx>(&v_) : kEmptyString;
}

const JsonArray& Json::as_array() const {
  const auto* a = std::get_if<kArrayIdx>(&v_);
  return a != nullptr && *a ? **a : kEmptyArray;
}

const JsonObject& Json::as_object() const {
  const auto* o = std::get_if<kObjectIdx>(&v_);
  return o != nullptr && *o ? **o : kEmptyObject;
}

JsonArray& Json::mutable_array() {
  if (!is_array()) {
    PICLOUD_CHECK(is_null()) << "mutable_array on non-array Json";
    v_.emplace<kArrayIdx>();
  }
  auto& a = *std::get_if<kArrayIdx>(&v_);
  if (!a) a = std::make_unique<JsonArray>();  // also a moved-from array
  return *a;
}

JsonObject& Json::mutable_object() {
  if (!is_object()) {
    PICLOUD_CHECK(is_null()) << "mutable_object on non-object Json";
    v_.emplace<kObjectIdx>();
  }
  auto& o = *std::get_if<kObjectIdx>(&v_);
  if (!o) o = std::make_unique<JsonObject>();  // also a moved-from object
  return *o;
}

bool Json::has(const std::string& key) const {
  return as_object().count(key) > 0;
}

const Json& Json::get(const std::string& key) const {
  const JsonObject& o = as_object();
  auto it = o.find(key);
  return it != o.end() ? it->second : kNullJson;
}

double Json::get_number(const std::string& key, double fallback) const {
  const Json& v = get(key);
  return v.is_number() ? v.as_number() : fallback;
}

std::string Json::get_string(const std::string& key, std::string fallback) const {
  const Json& v = get(key);
  return v.is_string() ? v.as_string() : std::move(fallback);
}

bool Json::get_bool(const std::string& key, bool fallback) const {
  const Json& v = get(key);
  return v.is_bool() ? v.as_bool() : fallback;
}

Json& Json::set(const std::string& key, Json value) {
  mutable_object()[key] = std::move(value);
  return *this;
}

Json& Json::push_back(Json value) {
  mutable_array().push_back(std::move(value));
  return *this;
}

size_t Json::size() const {
  if (is_array()) return as_array().size();
  if (is_object()) return as_object().size();
  return 0;
}

const Json& Json::operator[](size_t i) const {
  const JsonArray& a = as_array();
  return i < a.size() ? a[i] : kNullJson;
}

bool Json::operator==(const Json& other) const {
  if (type() != other.type()) return false;
  switch (type()) {
    case Type::kNull: return true;
    case Type::kBool: return as_bool() == other.as_bool();
    case Type::kNumber: return as_number() == other.as_number();
    case Type::kString: return as_string() == other.as_string();
    case Type::kArray: return as_array() == other.as_array();
    case Type::kObject: return as_object() == other.as_object();
  }
  return false;
}

namespace {

// Where a walk's bytes go: StringSink appends them, CountSink only counts
// them. dump() and dump_size() share one walk, so the count cannot drift
// from the text.
struct StringSink {
  std::string* out;
  void put(char c) { out->push_back(c); }
  void put(std::string_view s) { out->append(s); }
  void at_depth(int /*depth*/) {}
};

struct CountSink {
  std::size_t bytes = 0;
  int deepest = 0;  // most containers enclosing any one value
  void put(char /*c*/) { ++bytes; }
  void put(std::string_view s) { bytes += s.size(); }
  void at_depth(int depth) { deepest = std::max(deepest, depth); }
};

template <class Sink>
void escape_string(std::string_view s, Sink& out) {
  static constexpr char kHex[] = "0123456789abcdef";
  out.put('"');
  std::size_t run = 0;  // start of the pending run of unescaped bytes
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.put(s.substr(run, i - run));
    run = i + 1;
    switch (c) {
      case '"': out.put("\\\""); break;
      case '\\': out.put("\\\\"); break;
      case '\n': out.put("\\n"); break;
      case '\r': out.put("\\r"); break;
      case '\t': out.put("\\t"); break;
      case '\b': out.put("\\b"); break;
      case '\f': out.put("\\f"); break;
      default: {
        const char u[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        out.put(std::string_view(u, sizeof u));
      }
    }
  }
  out.put(s.substr(run));
  out.put('"');
}

// Room for the longest "%.17g" text, "-2.2250738585072014e-308".
constexpr std::size_t kNumberChars = 32;

// The text of a number, written into `buf` without allocating: "%lld" for
// integers below 2^53 (std::to_chars), "%.17g" otherwise (both round-trip
// exactly). The "%.17g" branch stays on snprintf: std::to_chars with a
// precision reads libstdc++'s Ryu tables, which raised the perfbench
// flash_crowd peak RSS by ≈0.17 MB (5.79 -> 5.96 MB).
std::string_view format_number(double d, char (&buf)[kNumberChars]) {
  if (!std::isfinite(d)) return "null";  // not representable in JSON
  if (std::nearbyint(d) == d && std::fabs(d) < 9.007199254740992e15) {
    const auto r =
        std::to_chars(buf, buf + kNumberChars, static_cast<long long>(d));
    return {buf, static_cast<std::size_t>(r.ptr - buf)};
  }
  const int n = std::snprintf(buf, kNumberChars, "%.17g", d);
  return {buf, static_cast<std::size_t>(n)};
}

// A const walk only reads; a mutable one (canonicalize()) also rewrites each
// number into what parsing its text gives back.
const JsonArray& items(const Json& v) { return v.as_array(); }
JsonArray& items(Json& v) { return v.mutable_array(); }
const JsonObject& members(const Json& v) { return v.as_object(); }
JsonObject& members(Json& v) { return v.mutable_object(); }
void canonicalize_number(const Json& /*v*/) {}
void canonicalize_number(Json& v) {
  const double d = v.as_number();
  if (!std::isfinite(d)) {
    v = Json();
  } else if (d == 0 && std::signbit(d)) {
    v = Json(0.0);
  }
}

template <class Sink>
void newline_indent(Sink& out, int indent, int depth) {
  if (indent <= 0) return;
  out.put('\n');
  for (int i = 0; i < indent * depth; ++i) out.put(' ');
}

// The one walk behind dump(), pretty(), dump_size() and canonicalize().
// `depth` counts the containers enclosing `v`, as the parser does.
template <class J, class Sink>
void walk(J& v, Sink& out, int indent, int depth) {
  out.at_depth(depth);
  switch (v.type()) {
    case Json::Type::kNull: out.put("null"); break;
    case Json::Type::kBool: out.put(v.as_bool() ? "true" : "false"); break;
    case Json::Type::kNumber: {
      char buf[kNumberChars];
      out.put(format_number(v.as_number(), buf));
      canonicalize_number(v);
      break;
    }
    case Json::Type::kString: escape_string(v.as_string(), out); break;
    case Json::Type::kArray: {
      auto& a = items(v);
      if (a.empty()) {
        out.put("[]");
        break;
      }
      out.put('[');
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (i > 0) out.put(',');
        newline_indent(out, indent, depth + 1);
        walk(a[i], out, indent, depth + 1);
      }
      newline_indent(out, indent, depth);
      out.put(']');
      break;
    }
    case Json::Type::kObject: {
      auto& o = members(v);
      if (o.empty()) {
        out.put("{}");
        break;
      }
      out.put('{');
      bool first = true;
      for (auto& [k, child] : o) {
        if (!first) out.put(',');
        first = false;
        newline_indent(out, indent, depth + 1);
        escape_string(k, out);
        out.put(indent > 0 ? ": " : ":");
        walk(child, out, indent, depth + 1);
      }
      newline_indent(out, indent, depth);
      out.put('}');
      break;
    }
  }
}

}  // namespace

std::string Json::dump() const {
  std::string out;
  StringSink sink{&out};
  walk(*this, sink, /*indent=*/0, /*depth=*/0);
  return out;
}

std::string Json::pretty() const {
  std::string out;
  StringSink sink{&out};
  walk(*this, sink, /*indent=*/2, /*depth=*/0);
  return out;
}

std::size_t Json::dump_size() const {
  CountSink sink;
  walk(*this, sink, /*indent=*/0, /*depth=*/0);
  return sink.bytes;
}

std::size_t Json::canonicalize() {
  CountSink sink;
  walk(*this, sink, /*indent=*/0, /*depth=*/0);
  if (sink.deepest > kMaxDepth) *this = Json();  // parse() would reject it
  return sink.bytes;
}

// ---------------------------------------------------------------------------
// Parser — recursive descent over a string_view with position tracking.

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Json> parse() {
    skip_ws();
    Result<Json> v = parse_value();
    if (!v.ok()) return v;
    skip_ws();
    if (pos_ != text_.size()) return error("trailing characters");
    return v;
  }

 private:
  Error error(const std::string& what) {
    return Error::make("json_parse",
                       format("%s at offset %zu", what.c_str(), pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool eat_word(std::string_view w) {
    if (text_.substr(pos_, w.size()) == w) {
      pos_ += w.size();
      return true;
    }
    return false;
  }

  Result<Json> parse_value() {
    if (depth_ > Json::kMaxDepth) return error("nesting too deep");
    if (pos_ >= text_.size()) return error("unexpected end of input");
    char c = text_[pos_];
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      Result<std::string> s = parse_string();
      if (!s.ok()) return s.error();
      return Json(std::move(s).value());
    }
    if (eat_word("null")) return Json(nullptr);
    if (eat_word("true")) return Json(true);
    if (eat_word("false")) return Json(false);
    return parse_number();
  }

  Result<Json> parse_object() {
    ++depth_;
    eat('{');
    Json obj = Json::object();
    skip_ws();
    if (eat('}')) {
      --depth_;
      return obj;
    }
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return error("expected object key");
      }
      Result<std::string> key = parse_string();
      if (!key.ok()) return key.error();
      skip_ws();
      if (!eat(':')) return error("expected ':'");
      skip_ws();
      Result<Json> value = parse_value();
      if (!value.ok()) return value;
      // Last duplicate key wins, as with set().
      obj.mutable_object().insert_or_assign(std::move(key).value(),
                                            std::move(value).value());
      skip_ws();
      if (eat(',')) continue;
      if (eat('}')) break;
      return error("expected ',' or '}'");
    }
    --depth_;
    return obj;
  }

  Result<Json> parse_array() {
    ++depth_;
    eat('[');
    Json arr = Json::array();
    skip_ws();
    if (eat(']')) {
      --depth_;
      return arr;
    }
    while (true) {
      skip_ws();
      Result<Json> value = parse_value();
      if (!value.ok()) return value;
      arr.push_back(std::move(value).value());
      skip_ws();
      if (eat(',')) continue;
      if (eat(']')) break;
      return error("expected ',' or ']'");
    }
    --depth_;
    return arr;
  }

  Result<std::string> parse_string() {
    eat('"');
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) return error("bad escape");
        char e = text_[pos_++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return error("bad \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return error("bad hex digit in \\u escape");
            }
            // UTF-8 encode (basic multilingual plane only; surrogate pairs
            // are passed through as replacement characters — management
            // payloads are ASCII in practice).
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            return error("unknown escape");
        }
      } else {
        out.push_back(c);
      }
    }
    return error("unterminated string");
  }

  Result<Json> parse_number() {
    size_t start = pos_;
    if (eat('-')) { /* sign */ }
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return error("expected value");
    std::string num(text_.substr(start, pos_ - start));
    char* end = nullptr;
    double d = std::strtod(num.c_str(), &end);
    if (end != num.c_str() + num.size()) return error("bad number");
    return Json(d);
  }

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Result<Json> Json::parse(std::string_view text) {
  return Parser(text).parse();
}

}  // namespace picloud::util
