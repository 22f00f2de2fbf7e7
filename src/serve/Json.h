//===- Json.h - Minimal strict JSON for the serve protocol ------*- C++ -*-===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tiny JSON layer behind the serve wire protocol (docs/SERVE.md): a
/// strict recursive-descent parser for one value, plus the string escaper
/// the response writer uses. Strictness is deliberate -- a request line
/// with trailing garbage, a duplicate key, or a malformed escape is
/// rejected with a diagnostic instead of being half-understood, and the
/// server turns that into an `error` response without dying.
///
/// Deliberately minimal: no DOM mutation, no serialization of arbitrary
/// values (responses are assembled by hand, their shape is fixed), numbers
/// carry their raw token so 64-bit integers round-trip exactly.
///
//===----------------------------------------------------------------------===//

#ifndef BUGASSIST_SERVE_JSON_H
#define BUGASSIST_SERVE_JSON_H

#include "support/JsonEscape.h"

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace bugassist {

/// One parsed JSON value. Members keep source order; lookup is linear
/// (request objects have a dozen keys at most).
struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Object, Array };
  Kind K = Kind::Null;

  bool BoolVal = false;
  /// Numbers: the raw token (e.g. "-12", "0.5"); asInt64/asDouble parse
  /// it on demand so integers beyond 2^53 survive.
  std::string Text; ///< String payload, or the raw Number token.
  std::vector<std::pair<std::string, JsonValue>> Members; ///< Object
  std::vector<JsonValue> Elements;                        ///< Array

  bool isObject() const { return K == Kind::Object; }
  bool isString() const { return K == Kind::String; }
  bool isNumber() const { return K == Kind::Number; }
  bool isBool() const { return K == Kind::Bool; }

  /// Object member lookup; nullptr when absent (or not an object).
  const JsonValue *find(std::string_view Name) const;

  /// The number as int64. \returns std::nullopt for non-numbers and for
  /// tokens that are not exactly a 64-bit integer (fractions, overflow).
  std::optional<int64_t> asInt64() const;
  /// The number as double; std::nullopt for non-numbers.
  std::optional<double> asDouble() const;
};

/// Parses exactly one JSON value covering all of \p Text (surrounding
/// whitespace allowed). \returns std::nullopt and fills \p Error on any
/// deviation: trailing garbage, duplicate object keys, bad escapes,
/// unterminated strings, numbers JSON does not allow.
std::optional<JsonValue> parseJson(std::string_view Text, std::string &Error);

} // namespace bugassist

#endif // BUGASSIST_SERVE_JSON_H
