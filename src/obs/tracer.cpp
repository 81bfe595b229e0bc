#include "obs/tracer.hpp"

#include <cinttypes>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace cbsim::obs {

namespace {

constexpr const char* kGroupNames[] = {"counters", "ranks", "fabric links",
                                       "devices"};

/// Chrome trace timestamps are microseconds; render the integer-picosecond
/// simulated time as a fixed-point decimal so no float formatting ambiguity
/// can creep into the file.
void appendMicros(std::string& out, std::int64_t ps) {
  const std::int64_t abs = ps < 0 ? -ps : ps;
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%s%" PRId64 ".%06" PRId64,
                ps < 0 ? "-" : "", abs / 1'000'000, abs % 1'000'000);
  out += buf;
}

}  // namespace

void appendJsonEscaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void appendJsonNumber(std::string& out, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

Tracer::Tracer() : nextTid_(4, 0) {}

int Tracer::row(Group group, std::string_view name) {
  const int tid = nextTid_[static_cast<std::size_t>(group)]++;
  rows_.push_back(Row{group, tid, std::string(name)});
  return tid;
}

void Tracer::span(Group group, int tid, std::string_view name,
                  std::string_view cat, sim::SimTime start, sim::SimTime end,
                  std::initializer_list<TraceArg> args) {
  if (metricsOnly_) return;
  Event e{'X', group, tid, start.picos(), (end - start).picos(),
          std::string(name), std::string(cat), {}};
  e.args.reserve(args.size());
  for (const TraceArg& a : args) e.args.emplace_back(a.key, a.value);
  events_.push_back(std::move(e));
}

void Tracer::instant(Group group, int tid, std::string_view name,
                     std::string_view cat, sim::SimTime t,
                     std::initializer_list<TraceArg> args) {
  if (metricsOnly_) return;
  Event e{'i', group, tid, t.picos(), 0, std::string(name), std::string(cat), {}};
  e.args.reserve(args.size());
  for (const TraceArg& a : args) e.args.emplace_back(a.key, a.value);
  events_.push_back(std::move(e));
}

void Tracer::counter(std::string_view name, sim::SimTime t, double value) {
  if (metricsOnly_) return;
  Event e{'C', kGroupCounters, 0, t.picos(), 0, std::string(name), "", {}};
  e.args.emplace_back("value", value);
  events_.push_back(std::move(e));
}

void Tracer::writeJson(std::ostream& os) const {
  std::string out;
  out.reserve(256 + events_.size() * 96 + rows_.size() * 80);
  out += "{\"traceEvents\":[\n";
  bool first = true;
  const auto comma = [&] {
    if (!first) out += ",\n";
    first = false;
  };

  // Metadata: group names, then one thread_name record per registered row.
  for (int pid = 0; pid < 4; ++pid) {
    comma();
    out += "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":";
    out += std::to_string(pid);
    out += ",\"tid\":0,\"args\":{\"name\":\"";
    appendJsonEscaped(out, kGroupNames[pid]);
    out += "\"}}";
  }
  for (const Row& r : rows_) {
    comma();
    out += "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":";
    out += std::to_string(r.pid);
    out += ",\"tid\":";
    out += std::to_string(r.tid);
    out += ",\"args\":{\"name\":\"";
    appendJsonEscaped(out, r.name);
    out += "\"}}";
  }

  for (const Event& e : events_) {
    comma();
    out += "{\"ph\":\"";
    out += e.ph;
    out += "\",\"name\":\"";
    appendJsonEscaped(out, e.name);
    out += '"';
    if (!e.cat.empty()) {
      out += ",\"cat\":\"";
      appendJsonEscaped(out, e.cat);
      out += '"';
    }
    out += ",\"pid\":";
    out += std::to_string(e.pid);
    out += ",\"tid\":";
    out += std::to_string(e.tid);
    out += ",\"ts\":";
    appendMicros(out, e.tsPs);
    if (e.ph == 'X') {
      out += ",\"dur\":";
      appendMicros(out, e.durPs);
    }
    if (e.ph == 'i') out += ",\"s\":\"t\"";
    if (!e.args.empty()) {
      out += ",\"args\":{";
      bool firstArg = true;
      for (const auto& [k, v] : e.args) {
        if (!firstArg) out += ',';
        firstArg = false;
        out += '"';
        appendJsonEscaped(out, k);
        out += "\":";
        appendJsonNumber(out, v);
      }
      out += '}';
    }
    out += '}';
  }
  out += "\n],\"displayTimeUnit\":\"ns\"}\n";
  os << out;
}

std::string Tracer::json() const {
  std::ostringstream os;
  writeJson(os);
  return os.str();
}

}  // namespace cbsim::obs
