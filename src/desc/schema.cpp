#include "desc/schema.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>

namespace cbsim::desc {

namespace {

/// Largest double that still represents every smaller integer exactly.
constexpr double kExactIntLimit = 9007199254740992.0;  // 2^53

std::string joinPath(const std::string& base, std::string_view key) {
  if (base.empty()) return std::string(key);
  return base + "." + std::string(key);
}

}  // namespace

Reader::Reader(const Value& v, std::string path)
    : v_(&v), path_(std::move(path)) {
  if (v_->isObject()) used_.assign(v_->members().size(), false);
}

void Reader::fail(const std::string& msg) const {
  throw SchemaError("desc: " + (path_.empty() ? std::string("<root>") : path_) +
                    ": " + msg);
}

bool Reader::has(std::string_view key) const {
  if (!v_->isObject()) return false;
  return v_->find(key) != nullptr;
}

void Reader::markUsed(std::string_view key) {
  const auto& members = v_->members();
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (members[i].first == key) {
      used_[i] = true;
      return;
    }
  }
}

Reader Reader::child(std::string_view key) {
  if (!v_->isObject()) {
    fail(std::string("expected object, got ") + v_->kindName());
  }
  const Value* c = v_->find(key);
  if (c == nullptr) fail("missing required key \"" + std::string(key) + "\"");
  markUsed(key);
  return Reader(*c, joinPath(path_, key));
}

std::optional<Reader> Reader::tryChild(std::string_view key) {
  if (!v_->isObject()) {
    fail(std::string("expected object, got ") + v_->kindName());
  }
  const Value* c = v_->find(key);
  if (c == nullptr) return std::nullopt;
  markUsed(key);
  return Reader(*c, joinPath(path_, key));
}

const Value& Reader::require(std::string_view key, Value::Kind kind) {
  if (!v_->isObject()) {
    fail(std::string("expected object, got ") + v_->kindName());
  }
  const Value* c = v_->find(key);
  if (c == nullptr) fail("missing required key \"" + std::string(key) + "\"");
  markUsed(key);
  if (c->kind() != kind) {
    throw SchemaError("desc: " + joinPath(path_, key) + ": expected " +
                      Value::kindName(kind) + ", got " + c->kindName());
  }
  return *c;
}

std::string Reader::stringAt(std::string_view key) {
  return require(key, Value::Kind::String).asString();
}

std::string Reader::stringAt(std::string_view key, std::string def) {
  if (!has(key)) return def;
  return stringAt(key);
}

bool Reader::boolAt(std::string_view key) {
  return require(key, Value::Kind::Bool).asBool();
}

bool Reader::boolAt(std::string_view key, bool def) {
  if (!has(key)) return def;
  return boolAt(key);
}

double Reader::numberAt(std::string_view key) {
  return require(key, Value::Kind::Number).asNumber();
}

double Reader::numberAt(std::string_view key, double def) {
  if (!has(key)) return def;
  return numberAt(key);
}

std::int64_t Reader::intAt(std::string_view key) {
  Reader c = child(key);
  return c.asInt();
}

std::int64_t Reader::intAt(std::string_view key, std::int64_t def) {
  if (!has(key)) return def;
  return intAt(key);
}

std::uint64_t Reader::uintAt(std::string_view key) {
  Reader c = child(key);
  return c.asUint();
}

std::uint64_t Reader::uintAt(std::string_view key, std::uint64_t def) {
  if (!has(key)) return def;
  return uintAt(key);
}

void Reader::finish() {
  if (!v_->isObject()) return;
  const auto& members = v_->members();
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (!used_[i]) fail("unknown key \"" + members[i].first + "\"");
  }
}

std::size_t Reader::size() const {
  if (!v_->isArray()) {
    fail(std::string("expected array, got ") + v_->kindName());
  }
  return v_->items().size();
}

Reader Reader::item(std::size_t i) const {
  const auto& items = v_->items();  // kind-checked by Value
  if (i >= items.size()) fail("array index out of range");
  return Reader(items[i], path_ + "[" + std::to_string(i) + "]");
}

void Reader::eachIn(std::string_view key,
                    const std::function<void(Reader&)>& fn) {
  Reader arr = child(key);
  const std::size_t n = arr.size();
  for (std::size_t i = 0; i < n; ++i) {
    Reader el = arr.item(i);
    fn(el);
    el.finish();
  }
}

const std::string& Reader::asString() const {
  if (!v_->isString()) {
    fail(std::string("expected string, got ") + v_->kindName());
  }
  return v_->asString();
}

double Reader::asNumber() const {
  if (!v_->isNumber()) {
    fail(std::string("expected number, got ") + v_->kindName());
  }
  return v_->asNumber();
}

std::int64_t Reader::asInt() const {
  const double d = asNumber();
  const std::string& lit = v_->numberLiteral();
  if (!lit.empty()) {
    std::int64_t out = 0;
    const auto [ptr, ec] =
        std::from_chars(lit.data(), lit.data() + lit.size(), out);
    if (ec != std::errc{} || ptr != lit.data() + lit.size()) {
      fail("integer out of 64-bit range");
    }
    return out;
  }
  if (std::floor(d) != d || std::fabs(d) >= kExactIntLimit) {
    fail("expected an integer, got " + formatNumber(d));
  }
  return static_cast<std::int64_t>(d);
}

std::uint64_t Reader::asUint() const {
  const double d = asNumber();
  const std::string& lit = v_->numberLiteral();
  if (!lit.empty()) {
    if (!lit.empty() && lit[0] == '-') fail("expected a non-negative integer");
    std::uint64_t out = 0;
    const auto [ptr, ec] =
        std::from_chars(lit.data(), lit.data() + lit.size(), out);
    if (ec != std::errc{} || ptr != lit.data() + lit.size()) {
      fail("integer out of unsigned 64-bit range");
    }
    return out;
  }
  if (std::floor(d) != d || d < 0 || d >= kExactIntLimit) {
    fail("expected a non-negative integer, got " + formatNumber(d));
  }
  return static_cast<std::uint64_t>(d);
}

bool Reader::asBool() const {
  if (!v_->isBool()) {
    fail(std::string("expected bool, got ") + v_->kindName());
  }
  return v_->asBool();
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("desc: cannot read file '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  if (!in.good() && !in.eof()) {
    throw Error("desc: error while reading '" + path + "'");
  }
  return ss.str();
}

void writeFile(const std::string& path, std::string_view text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  out.close();
  if (!out) throw Error("desc: cannot write file '" + path + "'");
}

}  // namespace cbsim::desc
