#pragma once

// Simulated time for the cbsim discrete-event engine.
//
// Time is an integer count of picoseconds.  Integer time keeps the event
// queue deterministic (no floating-point tie ambiguity) and picosecond
// granularity resolves sub-nanosecond serialization delays of a 100 Gbit/s
// link (12.5 bytes/ns) while still covering ~106 days of simulated time in
// a signed 64-bit counter.

#include <cstdint>
#include <compare>
#include <limits>
#include <string>

namespace cbsim::sim {

/// A point in (or span of) simulated time, in integer picoseconds.
class SimTime {
 public:
  constexpr SimTime() = default;

  /// Named constructors. Prefer these over the raw-picosecond constructor.
  [[nodiscard]] static constexpr SimTime ps(std::int64_t v) { return SimTime{v}; }
  [[nodiscard]] static constexpr SimTime ns(std::int64_t v) { return SimTime{v * 1'000}; }
  [[nodiscard]] static constexpr SimTime us(std::int64_t v) { return SimTime{v * 1'000'000}; }
  [[nodiscard]] static constexpr SimTime ms(std::int64_t v) { return SimTime{v * 1'000'000'000}; }
  [[nodiscard]] static constexpr SimTime sec(std::int64_t v) { return SimTime{v * 1'000'000'000'000}; }

  /// Builds a SimTime from a floating-point number of seconds
  /// (rounded to the nearest picosecond, saturating at max() and at the
  /// most negative count); NaN throws std::invalid_argument.
  [[nodiscard]] static SimTime seconds(double s);
  /// Builds a SimTime from a floating-point number of microseconds.
  [[nodiscard]] static SimTime micros(double us);

  [[nodiscard]] static constexpr SimTime zero() { return SimTime{0}; }
  [[nodiscard]] static constexpr SimTime max() {
    return SimTime{std::numeric_limits<std::int64_t>::max()};
  }

  [[nodiscard]] constexpr std::int64_t picos() const { return ps_; }
  [[nodiscard]] constexpr double toSeconds() const { return static_cast<double>(ps_) * 1e-12; }
  [[nodiscard]] constexpr double toMicros() const { return static_cast<double>(ps_) * 1e-6; }
  [[nodiscard]] constexpr double toNanos() const { return static_cast<double>(ps_) * 1e-3; }

  friend constexpr auto operator<=>(SimTime, SimTime) = default;

  constexpr SimTime& operator+=(SimTime o) { ps_ += o.ps_; return *this; }
  constexpr SimTime& operator-=(SimTime o) { ps_ -= o.ps_; return *this; }
  friend constexpr SimTime operator+(SimTime a, SimTime b) { return SimTime{a.ps_ + b.ps_}; }
  friend constexpr SimTime operator-(SimTime a, SimTime b) { return SimTime{a.ps_ - b.ps_}; }
  friend constexpr SimTime operator*(SimTime a, std::int64_t k) { return SimTime{a.ps_ * k}; }
  friend constexpr SimTime operator*(std::int64_t k, SimTime a) { return SimTime{a.ps_ * k}; }
  friend constexpr std::int64_t operator/(SimTime a, SimTime b) { return a.ps_ / b.ps_; }
  friend constexpr SimTime operator/(SimTime a, std::int64_t k) { return SimTime{a.ps_ / k}; }

  /// Human-readable rendering with an auto-selected unit (e.g. "1.80us").
  [[nodiscard]] std::string str() const;

 private:
  explicit constexpr SimTime(std::int64_t v) : ps_(v) {}
  std::int64_t ps_ = 0;
};

namespace literals {
constexpr SimTime operator""_ps(unsigned long long v) { return SimTime::ps(static_cast<std::int64_t>(v)); }
constexpr SimTime operator""_ns(unsigned long long v) { return SimTime::ns(static_cast<std::int64_t>(v)); }
constexpr SimTime operator""_us(unsigned long long v) { return SimTime::us(static_cast<std::int64_t>(v)); }
constexpr SimTime operator""_ms(unsigned long long v) { return SimTime::ms(static_cast<std::int64_t>(v)); }
constexpr SimTime operator""_s(unsigned long long v) { return SimTime::sec(static_cast<std::int64_t>(v)); }
}  // namespace literals

}  // namespace cbsim::sim
