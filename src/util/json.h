// Minimal JSON value, parser and serializer.
//
// The PiCloud management plane speaks JSON over its RESTful API (paper
// §II-C: "a bespoke administration API supported by daemons on the pimaster
// and on individual Pi devices"), so the repo carries its own dependency-free
// implementation. Supports the full JSON data model except that numbers are
// stored as double (adequate for management payloads: counters, loads,
// sizes up to 2^53).
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "util/result.h"

namespace picloud::util {

class Json;
using JsonArray = std::vector<Json>;
// std::map keeps keys ordered -> deterministic serialization, which the
// tests rely on.
using JsonObject = std::map<std::string, Json>;

// A JSON value: null, bool, number, string, array or object.
class Json {
 public:
  // In the order of the alternatives of Storage below.
  enum class Type : std::uint8_t {
    kNull, kBool, kNumber, kString, kArray, kObject
  };

  Json() = default;
  Json(std::nullptr_t) {}                                          // NOLINT
  Json(bool b) : v_(std::in_place_index<kBoolIdx>, b) {}           // NOLINT
  Json(double d) : v_(std::in_place_index<kNumberIdx>, d) {}       // NOLINT
  Json(int i) : Json(static_cast<double>(i)) {}                    // NOLINT
  Json(unsigned u) : Json(static_cast<double>(u)) {}               // NOLINT
  Json(long long i) : Json(static_cast<double>(i)) {}              // NOLINT
  Json(unsigned long long u) : Json(static_cast<double>(u)) {}     // NOLINT
  Json(long i) : Json(static_cast<double>(i)) {}                   // NOLINT
  Json(unsigned long u) : Json(static_cast<double>(u)) {}          // NOLINT
  Json(const char* s) : v_(std::in_place_index<kStringIdx>, s) {}  // NOLINT
  Json(std::string s)                                              // NOLINT
      : v_(std::in_place_index<kStringIdx>, std::move(s)) {}
  Json(std::string_view s) : v_(std::in_place_index<kStringIdx>, s) {}  // NOLINT
  Json(JsonArray a);                                               // NOLINT
  Json(JsonObject o);                                              // NOLINT

  Json(const Json&);
  Json(Json&&) noexcept;
  Json& operator=(const Json&);
  Json& operator=(Json&&) noexcept;
  ~Json();

  static Json array() { return Json(JsonArray{}); }
  static Json object() { return Json(JsonObject{}); }

  Type type() const { return static_cast<Type>(v_.index()); }
  bool is_null() const { return type() == Type::kNull; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_number() const { return type() == Type::kNumber; }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }

  // Typed accessors. Calling the wrong accessor is a programming error
  // (asserts in debug; returns a zero value in release).
  bool as_bool() const { return is_bool() && *std::get_if<kBoolIdx>(&v_); }
  double as_number() const {
    return is_number() ? *std::get_if<kNumberIdx>(&v_) : 0.0;
  }
  std::int64_t as_int() const { return static_cast<std::int64_t>(as_number()); }
  const std::string& as_string() const;
  const JsonArray& as_array() const;
  const JsonObject& as_object() const;
  JsonArray& mutable_array();
  JsonObject& mutable_object();

  // Object helpers. get() returns null Json for missing keys.
  bool has(const std::string& key) const;
  const Json& get(const std::string& key) const;
  // get_or with a typed default.
  double get_number(const std::string& key, double fallback = 0.0) const;
  std::string get_string(const std::string& key, std::string fallback = "") const;
  bool get_bool(const std::string& key, bool fallback = false) const;
  // Sets key -> value on an object (converts a null value to object first).
  Json& set(const std::string& key, Json value);
  // Appends to an array (converts a null value to array first).
  Json& push_back(Json value);

  size_t size() const;
  const Json& operator[](size_t i) const;  // array index

  // Serialization. dump() is compact; pretty() indents with two spaces.
  std::string dump() const;
  std::string pretty() const;
  // dump().size(), counted without building the string.
  std::size_t dump_size() const;

  // Turns this value into what Json::parse(dump()) returns: NaN and +-Inf
  // become null, -0.0 becomes 0, and a tree nested deeper than parse()
  // accepts becomes null as a whole. Returns the dump_size() the value had
  // before the call, counted in the same walk. net::Network runs it on
  // every message body, so a receiver sees what parsing the text would have
  // given it.
  std::size_t canonicalize();

  // Parsing. Accepts strict JSON; returns parse errors with position info.
  // Values nested inside more than kMaxDepth containers are rejected.
  static constexpr int kMaxDepth = 128;
  static Result<Json> parse(std::string_view text);

  bool operator==(const Json& other) const;

 private:
  static constexpr auto kBoolIdx = static_cast<std::size_t>(Type::kBool);
  static constexpr auto kNumberIdx = static_cast<std::size_t>(Type::kNumber);
  static constexpr auto kStringIdx = static_cast<std::size_t>(Type::kString);
  static constexpr auto kArrayIdx = static_cast<std::size_t>(Type::kArray);
  static constexpr auto kObjectIdx = static_cast<std::size_t>(Type::kObject);
  // One alternative per Type. Containers live behind a pointer, which keeps
  // a Json at 40 bytes and breaks the recursive type; a moved-from array or
  // object keeps its Type with a null pointer and reads as empty.
  using Storage = std::variant<std::nullptr_t, bool, double, std::string,
                               std::unique_ptr<JsonArray>,
                               std::unique_ptr<JsonObject>>;
  Storage v_;
};

}  // namespace picloud::util
