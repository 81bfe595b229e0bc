#pragma once

// Typed schema binding over desc::Value.
//
// A Reader wraps one Value together with its dotted path from the document
// root ("machine.groups[1].cpu").  Domain bindings pull typed fields out of
// object Readers; every access is checked and every failure is reported
// with the full path, so "expected number, got string" always says *which*
// of the 300 fields is wrong.
//
// Readers also track which object keys were consumed.  finish() then
// rejects anything left over — an unknown key is almost always a typo
// ("node_cuont"), and silently ignoring it would mean the experiment ran
// with a default the author believed they had overridden.
//
// Usage pattern for a struct binding:
//
//   XpicConfig xpicConfigFromDesc(desc::Reader& r) {
//     XpicConfig c;
//     c.nx = r.intAt("nx", c.nx);        // optional, keeps default
//     c.steps = r.intAt("steps");        // required
//     r.finish();                        // no unknown keys
//     return c;
//   }

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "desc/json.hpp"

namespace cbsim::desc {

/// Schema-level error (wrong type, missing/unknown key, out-of-range
/// value), always path-qualified.
class SchemaError : public Error {
 public:
  using Error::Error;
};

class Reader {
 public:
  Reader(const Value& v, std::string path);

  [[nodiscard]] const Value& value() const { return *v_; }
  [[nodiscard]] const std::string& path() const { return path_; }

  /// Throws a SchemaError anchored at this Reader's path.
  [[noreturn]] void fail(const std::string& msg) const;

  // ---- Object interface ----------------------------------------------------
  [[nodiscard]] bool has(std::string_view key) const;
  /// Required member; marks it consumed.
  [[nodiscard]] Reader child(std::string_view key);
  /// Optional member; marks it consumed when present.
  [[nodiscard]] std::optional<Reader> tryChild(std::string_view key);

  [[nodiscard]] std::string stringAt(std::string_view key);
  [[nodiscard]] std::string stringAt(std::string_view key, std::string def);
  [[nodiscard]] bool boolAt(std::string_view key);
  [[nodiscard]] bool boolAt(std::string_view key, bool def);
  [[nodiscard]] double numberAt(std::string_view key);
  [[nodiscard]] double numberAt(std::string_view key, double def);
  [[nodiscard]] std::int64_t intAt(std::string_view key);
  [[nodiscard]] std::int64_t intAt(std::string_view key, std::int64_t def);
  [[nodiscard]] std::uint64_t uintAt(std::string_view key);
  [[nodiscard]] std::uint64_t uintAt(std::string_view key, std::uint64_t def);

  /// Rejects keys that were never consumed:
  ///   "machine.groups[0]: unknown key \"node_cuont\"".
  /// No-op for non-objects.
  void finish();

  // ---- Array interface -----------------------------------------------------
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] Reader item(std::size_t i) const;
  /// Calls `fn` with a Reader for each element of array member `key`
  /// (required); convenience over child()/size()/item().
  void eachIn(std::string_view key, const std::function<void(Reader&)>& fn);

  // ---- Scalar interface (for Readers wrapping leaves) ----------------------
  [[nodiscard]] const std::string& asString() const;
  [[nodiscard]] double asNumber() const;
  [[nodiscard]] std::int64_t asInt() const;
  [[nodiscard]] std::uint64_t asUint() const;
  [[nodiscard]] bool asBool() const;

 private:
  [[nodiscard]] const Value& require(std::string_view key, Value::Kind kind);
  void markUsed(std::string_view key);

  const Value* v_;
  std::string path_;
  std::vector<bool> used_;  ///< per object member, parallel to members()
};

/// Reads a whole file into a string; throws Error (with the path in the
/// message) when the file cannot be read.
[[nodiscard]] std::string readFile(const std::string& path);

/// Writes `text` to `path` (created or truncated), closes the file and only
/// then checks the stream, so a failing buffered flush (a full disk,
/// /dev/full) is caught too; throws Error with the path in the message.
void writeFile(const std::string& path, std::string_view text);

}  // namespace cbsim::desc
