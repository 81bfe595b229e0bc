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
// Each bound struct names its keys once, in a field list that a Reader
// (parse) and a Writer (--dump) both drive, so the two cannot drift:
//
//   template <class Io>
//   void fields(Io& io, ScrConfig& c) {
//     io.int32("local_every", c.localEvery);   // absent: keeps the default
//     io.string("prefix", c.prefix);
//   }
//   ScrConfig scrConfigFromDesc(desc::Reader& r) {
//     ScrConfig c;                              // defaults (or a preset)
//     fields(r, c);
//     r.finish();                               // no unknown keys
//     if (c.localEvery < 0) r.fail("...");      // range checks
//     return c;
//   }
//   desc::Value toDesc(const ScrConfig& c) { return desc::write(c); }
//
// Keys marked `desc::required` must be present when read.  A child
// object names the function that reads it (`io.object("cpu", g.cpu,
// cpuSpecFromDesc)`); the Writer renders it with the child's toDesc.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "desc/json.hpp"
#include "sim/time.hpp"

namespace cbsim::desc {

/// Schema-level error (wrong type, missing/unknown key, out-of-range
/// value), always path-qualified.
class SchemaError : public Error {
 public:
  using Error::Error;
};

/// Picoseconds per unit of the `_ns`, `_us` and `_sec` time keys.
inline constexpr double kPsPerNs = 1e3;
inline constexpr double kPsPerUs = 1e6;
inline constexpr double kPsPerSec = 1e12;

/// Whether a field call's key may be absent from a description.
enum class Need { Optional, Required };
inline constexpr Need required = Need::Required;

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
  [[nodiscard]] bool boolAt(std::string_view key);
  [[nodiscard]] double numberAt(std::string_view key);
  [[nodiscard]] std::int64_t intAt(std::string_view key);
  [[nodiscard]] std::uint64_t uintAt(std::string_view key);
  /// intAt for `int` fields: a value outside int's range fails with the
  /// key's path instead of wrapping.
  [[nodiscard]] int int32At(std::string_view key);

  // ---- Field calls (see the usage note atop this file) ----------------------
  // An absent optional key leaves the field as it is.
  void string(std::string_view key, std::string& v, Need need = Need::Optional);
  void boolean(std::string_view key, bool& v);
  void int32(std::string_view key, int& v, Need need = Need::Optional);
  void int64(std::string_view key, long& v);
  /// A std::uint64_t or std::size_t field.
  template <class U>
  void unsignedInt(std::string_view key, U& v, Need need = Need::Optional) {
    if (need == Need::Required || has(key)) v = static_cast<U>(uintAt(key));
  }
  void number(std::string_view key, double& v);
  /// A SimTime in units of `psPerUnit` picoseconds; a negative value, or
  /// one whose picosecond count does not fit int64_t, fails with the
  /// key's path.
  void time(std::string_view key, sim::SimTime& v, double psPerUnit);
  /// Seconds (microseconds) kept as a double; a value whose picosecond
  /// count is not below 2^63 (about 9.22e6 s) fails with the key's path.
  /// Each key keeps its own lower bound, checked by its binder.
  void seconds(std::string_view key, double& v, Need need = Need::Optional);
  void micros(std::string_view key, double& v);
  /// A child object, bound by `read` (a `T xFromDesc(Reader&)`).
  template <class T, class Read>
  void object(std::string_view key, T& v, Read read,
              Need need = Need::Optional) {
    if (need == Need::Optional && !has(key)) return;
    Reader c = child(key);
    v = read(c);
  }
  /// A child object that is absent unless described.
  template <class T, class Read>
  void optional(std::string_view key, std::optional<T>& v, Read read) {
    if (auto c = tryChild(key)) v = read(*c);
  }
  /// An array of objects, each bound by `read`; replaces `v` when present.
  template <class T, class Read>
  void objects(std::string_view key, std::vector<T>& v, Read read,
               Need need = Need::Optional) {
    if (need == Need::Optional && !has(key)) return;
    Reader arr = child(key);
    const std::size_t n = arr.size();
    v.clear();
    for (std::size_t i = 0; i < n; ++i) {
      Reader el = arr.item(i);
      v.push_back(read(el));
      el.finish();
    }
  }
  /// Arrays of scalars; each replaces `v` when present.
  void int32s(std::string_view key, std::vector<int>& v);
  void numbers(std::string_view key, std::vector<double>& v);

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
  [[nodiscard]] int asInt32() const;
  [[nodiscard]] std::uint64_t asUint() const;
  [[nodiscard]] bool asBool() const;

 private:
  [[nodiscard]] const Value& require(std::string_view key, Value::Kind kind);
  void markUsed(std::string_view key);

  const Value* v_;
  std::string path_;
  std::vector<bool> used_;  ///< per object member, parallel to members()
};

/// Renders a struct's field list as an object; the same field calls as
/// Reader, in the same order, so a dump reads back as what was read.
class Writer {
 public:
  void string(std::string_view key, const std::string& v,
              Need = Need::Optional) {
    set(key, Value::string(v));
  }
  void boolean(std::string_view key, bool v) { set(key, Value::boolean(v)); }
  void int32(std::string_view key, int v, Need = Need::Optional) {
    set(key, Value::integer(v));
  }
  void int64(std::string_view key, long v) { set(key, Value::integer(v)); }
  template <class U>
  void unsignedInt(std::string_view key, U v, Need = Need::Optional) {
    set(key, Value::unsignedInt(v));
  }
  void number(std::string_view key, double v) { set(key, Value::number(v)); }
  void time(std::string_view key, sim::SimTime v, double psPerUnit) {
    number(key, static_cast<double>(v.picos()) / psPerUnit);
  }
  void seconds(std::string_view key, double v, Need = Need::Optional) {
    number(key, v);
  }
  void micros(std::string_view key, double v) { number(key, v); }
  /// Children render through their own toDesc (found by argument-dependent
  /// lookup in the child type's namespace).
  template <class T, class Read>
  void object(std::string_view key, const T& v, Read,
              Need = Need::Optional) {
    set(key, toDesc(v));
  }
  template <class T, class Read>
  void optional(std::string_view key, const std::optional<T>& v, Read) {
    if (v) set(key, toDesc(*v));
  }
  template <class T, class Read>
  void objects(std::string_view key, const std::vector<T>& v, Read,
               Need = Need::Optional) {
    Value arr = Value::array();
    for (const T& el : v) arr.push(toDesc(el));
    set(key, std::move(arr));
  }
  /// An empty scalar array is left out: it reads back as the default.
  void int32s(std::string_view key, const std::vector<int>& v);
  void numbers(std::string_view key, const std::vector<double>& v);

  void set(std::string_view key, Value v) {
    v_.set(std::string(key), std::move(v));
  }
  [[nodiscard]] Value take() { return std::move(v_); }

 private:
  Value v_ = Value::object();
};

/// `s` rendered through its field list: `fields(Writer&, S&)`, found by
/// argument-dependent lookup.  The Writer only reads the fields.
template <class S>
[[nodiscard]] Value write(const S& s) {
  Writer w;
  fields(w, const_cast<S&>(s));
  return w.take();
}

/// Reads a whole file into a string; throws Error (with the path in the
/// message) when the file cannot be read.
[[nodiscard]] std::string readFile(const std::string& path);

/// Writes `text` to `path` (created or truncated), closes the file and only
/// then checks the stream, so a failing buffered flush (a full disk,
/// /dev/full) is caught too; throws Error with the path in the message.
void writeFile(const std::string& path, std::string_view text);

}  // namespace cbsim::desc
