#pragma once

// Dependency-free strict JSON for the description layer (src/desc).
//
// The description layer is the single construction path from text to every
// configurable object in the system (hw::MachineConfig, xpic::XpicConfig,
// campaign descriptions, ...).  Its parser is therefore deliberately
// strict and deterministic:
//
//   * full RFC-8259 grammar, nothing more: no comments, no trailing
//     commas, no unquoted keys, no NaN/Infinity,
//   * duplicate object keys are rejected (silently keeping one of two
//     conflicting settings is how experiments go wrong quietly),
//   * every error carries line:column and the origin label, so a typo in
//     a 200-line machine description is a one-glance fix,
//   * a nesting-depth limit keeps adversarial input from overflowing the
//     stack,
//   * object member order is preserved, and dump() is canonical (fixed
//     indentation, shortest round-trip number rendering), so
//     parse(dump(x)) == x and dump(parse(dump(x))) == dump(x) byte for
//     byte — the property `cbsim campaign --dump` is tested against.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cbsim::desc {

/// Base class of every description-layer error (parse and schema alike).
class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Lexical/syntactic error with a 1-based source position.
class ParseError : public Error {
 public:
  ParseError(const std::string& msg, int line, int column)
      : Error(msg), line_(line), column_(column) {}
  [[nodiscard]] int line() const { return line_; }
  [[nodiscard]] int column() const { return column_; }

 private:
  int line_;
  int column_;
};

/// One JSON value.  Objects preserve member insertion order (required for
/// canonical dumps); numbers remember an exact decimal rendering when one
/// is available (required for 64-bit seeds, which do not fit a double).
class Value {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };
  using Member = std::pair<std::string, Value>;

  Value() = default;

  // ---- Factories ----------------------------------------------------------
  [[nodiscard]] static Value null() { return Value{}; }
  [[nodiscard]] static Value boolean(bool b);
  /// Finite double; throws Error on NaN/Infinity (JSON cannot carry them).
  [[nodiscard]] static Value number(double v);
  [[nodiscard]] static Value integer(std::int64_t v);
  [[nodiscard]] static Value unsignedInt(std::uint64_t v);
  [[nodiscard]] static Value string(std::string s);
  [[nodiscard]] static Value array();
  [[nodiscard]] static Value object();

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] const char* kindName() const { return kindName(kind_); }
  [[nodiscard]] static const char* kindName(Kind k);

  [[nodiscard]] bool isNull() const { return kind_ == Kind::Null; }
  [[nodiscard]] bool isBool() const { return kind_ == Kind::Bool; }
  [[nodiscard]] bool isNumber() const { return kind_ == Kind::Number; }
  [[nodiscard]] bool isString() const { return kind_ == Kind::String; }
  [[nodiscard]] bool isArray() const { return kind_ == Kind::Array; }
  [[nodiscard]] bool isObject() const { return kind_ == Kind::Object; }

  // ---- Checked accessors (throw Error on kind mismatch) --------------------
  [[nodiscard]] bool asBool() const;
  [[nodiscard]] double asNumber() const;
  [[nodiscard]] const std::string& asString() const;
  [[nodiscard]] const std::vector<Value>& items() const;
  [[nodiscard]] const std::vector<Member>& members() const;

  /// Exact decimal literal of a Number when one is known (pure-integer
  /// source literals and the integer factories); empty otherwise.
  [[nodiscard]] const std::string& numberLiteral() const { return numText_; }

  // ---- Builders ------------------------------------------------------------
  /// Appends a member to an object (no duplicate check — writers construct
  /// keys from code, the parser is where duplicates are rejected).
  Value& set(std::string key, Value v);
  /// Appends an element to an array.
  Value& push(Value v);
  /// Object member lookup; nullptr when absent (or not an object).
  [[nodiscard]] const Value* find(std::string_view key) const;

 private:
  friend class Parser;

  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double num_ = 0.0;
  std::string numText_;  ///< exact decimal rendering, when available
  std::string str_;
  std::vector<Value> items_;
  std::vector<Member> members_;
};

/// Parses a complete JSON document.  `origin` labels errors (file name or
/// "builtin:fig8"); the whole input must be consumed (trailing garbage is
/// an error).  Throws ParseError.
[[nodiscard]] Value parse(std::string_view text, std::string_view origin = "");

/// Canonical rendering: two-space indent, object members in insertion
/// order, scalar-only arrays inline, shortest round-trip numbers, final
/// newline.  parse(dump(v)) reproduces `v` exactly.
[[nodiscard]] std::string dump(const Value& v);

/// Shortest decimal rendering of `v` that strtod()s back to exactly `v`.
/// Integral values within the exact-double range render without exponent
/// or decimal point.  Deterministic across platforms for a given libc
/// (the repo's canonical dumps are regenerated in CI if this ever drifts).
[[nodiscard]] std::string formatNumber(double v);

}  // namespace cbsim::desc
