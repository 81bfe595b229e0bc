#pragma once

// Metric registry: named counters (monotonic sums) and gauges (last value +
// running maximum).  Deterministic by construction — values are plain
// doubles fed from simulated quantities, and entries() walks the keys in
// name order.
//
// Entries live in one contiguous vector and are addressed by dense handles:
// counter(name) / gauge(name) intern a key once and return its Id, and
// add / gaugeSet / gaugeAdd on an Id are a single indexed update.  The
// name -> Id index is consulted only when a key is interned and when the
// registry is read back (entries(), value()).  The by-name
// update overloads are thin intern-then-update wrappers for cold paths.
//
// Registration is lazy by contract: a key exists only once something
// interned it, and interning is what callers do on first touch.  Hot layers
// (extoll, pmpi) cache the Ids they resolved, so a report's key set is
// exactly the set of keys that were ever updated — never a zero-valued key
// a layer merely knows about.  Ids stay valid for the registry's lifetime.
//
// The registry is the "numbers" half of the obs/ layer; the Tracer owns one
// and the timeline half (tracer.hpp) references it.  Call sites guard on
// the Tracer handle so a disabled run never pays even the indexed update.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cbsim::obs {

class Metrics {
 public:
  enum class Kind { Counter, Gauge };

  struct Entry {
    Kind kind = Kind::Counter;
    double value = 0.0;  ///< counter: running sum; gauge: last value
    double max = 0.0;    ///< gauge: maximum value ever set
  };

  /// Dense handle of an interned key.  A default-constructed Id refers to
  /// no key; layers use it as the "not resolved yet" state of a cache slot.
  struct Id {
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};
    std::uint32_t index = kNone;
    [[nodiscard]] bool valid() const { return index != kNone; }
  };

  /// Interns counter `name` (created at zero) and returns its handle.  An
  /// existing key keeps the kind it was first registered with.
  Id counter(std::string_view name) { return intern(name, Kind::Counter); }
  /// Interns gauge `name`, like counter().
  Id gauge(std::string_view name) { return intern(name, Kind::Gauge); }
  /// Cached forms for hot layers: return `slot`, first interning `name`
  /// into it while the slot is unresolved (`name` is read only then).
  Id counter(Id& slot, std::string_view name) {
    if (!slot.valid()) slot = counter(name);
    return slot;
  }
  Id gauge(Id& slot, std::string_view name) {
    if (!slot.valid()) slot = gauge(name);
    return slot;
  }

  /// Increments counter `id` by `delta`.
  void add(Id id, double delta = 1.0) { entries_[id.index].value += delta; }
  /// Sets gauge `id`, tracking its maximum.  Returns the new value.
  double gaugeSet(Id id, double value) {
    Entry& e = entries_[id.index];
    e.value = value;
    if (value > e.max) e.max = value;
    return e.value;
  }
  /// Adjusts gauge `id` by `delta` (e.g. queue depth).  Returns the new
  /// value.
  double gaugeAdd(Id id, double delta) {
    return gaugeSet(id, entries_[id.index].value + delta);
  }
  [[nodiscard]] const Entry& at(Id id) const { return entries_[id.index]; }

  /// By-name forms of the updates above (intern, then update).
  void add(std::string_view name, double delta = 1.0) {
    add(counter(name), delta);
  }
  double gaugeSet(std::string_view name, double value) {
    return gaugeSet(gauge(name), value);
  }
  double gaugeAdd(std::string_view name, double delta) {
    return gaugeAdd(gauge(name), delta);
  }

  /// Value / maximum of `name`; 0 for a key never touched.
  [[nodiscard]] double value(std::string_view name) const;
  [[nodiscard]] double maxValue(std::string_view name) const;

  /// Name-ordered view of the registry: iterating it yields
  /// `[name, entry]` pairs without copying anything.
  class EntryView {
    using Index = std::map<std::string, Id, std::less<>>;

   public:
    class iterator {
     public:
      using value_type = std::pair<const std::string&, const Entry&>;
      iterator(Index::const_iterator it, const std::vector<Entry>* entries)
          : it_(it), entries_(entries) {}
      value_type operator*() const {
        return {it_->first, (*entries_)[it_->second.index]};
      }
      iterator& operator++() {
        ++it_;
        return *this;
      }
      bool operator==(const iterator& o) const { return it_ == o.it_; }

     private:
      Index::const_iterator it_;
      const std::vector<Entry>* entries_;
    };

    EntryView(const Index& index, const std::vector<Entry>& entries)
        : index_(index), entries_(entries) {}
    [[nodiscard]] iterator begin() const { return {index_.begin(), &entries_}; }
    [[nodiscard]] iterator end() const { return {index_.end(), &entries_}; }
    [[nodiscard]] std::size_t size() const { return index_.size(); }

   private:
    const Index& index_;
    const std::vector<Entry>& entries_;
  };
  [[nodiscard]] EntryView entries() const { return {index_, entries_}; }

 private:
  Id intern(std::string_view name, Kind kind);
  [[nodiscard]] const Entry* find(std::string_view name) const;

  std::vector<Entry> entries_;                   ///< indexed by Id
  std::map<std::string, Id, std::less<>> index_;  ///< name -> Id
};

}  // namespace cbsim::obs
