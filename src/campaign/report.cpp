#include "campaign/report.hpp"

#include <cinttypes>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "obs/tracer.hpp"

namespace cbsim::campaign {

namespace {

void appendValues(std::string& out, const Values& vs, const char* indent) {
  out += '{';
  bool first = true;
  for (const auto& [k, v] : vs) {
    if (!first) out += ',';
    first = false;
    out += '\n';
    out += indent;
    out += '"';
    obs::appendJsonEscaped(out, k);
    out += "\": ";
    obs::appendJsonNumber(out, v);
  }
  if (!first) {
    out += '\n';
    // Closing brace sits one level shallower than the entries.
    out.append(indent, std::string_view(indent).size() - 2);
  }
  out += '}';
}

}  // namespace

void writeJson(const CampaignReport& rep, std::ostream& os) {
  std::string out;
  out.reserve(1024 + rep.scenarios.size() * 512);
  out += "{\n  \"campaign\": \"";
  obs::appendJsonEscaped(out, rep.campaign);
  out += "\",\n  \"description\": \"";
  obs::appendJsonEscaped(out, rep.description);
  out += "\",\n  \"scenarios\": [";
  bool first = true;
  for (const ScenarioResult& s : rep.scenarios) {
    if (!first) out += ',';
    first = false;
    out += "\n    {\n      \"name\": \"";
    obs::appendJsonEscaped(out, s.name);
    out += "\",\n      \"seed\": ";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, s.seed);
    out += buf;
    if (!s.error.empty()) {
      out += ",\n      \"error\": \"";
      obs::appendJsonEscaped(out, s.error);
      out += '"';
    }
    out += ",\n      \"values\": ";
    appendValues(out, s.values, "        ");
    out += ",\n      \"metrics\": ";
    appendValues(out, s.metrics, "        ");
    out += "\n    }";
  }
  if (!first) out += "\n  ";
  out += "],\n  \"derived\": ";
  appendValues(out, rep.derived, "    ");
  out += "\n}\n";
  os << out;
}

std::string toJson(const CampaignReport& rep) {
  std::ostringstream os;
  writeJson(rep, os);
  return os.str();
}

namespace {

void appendCsvString(std::string& out, std::string_view s) {
  const bool quote = s.find_first_of(",\"\n") != std::string_view::npos;
  if (!quote) {
    out += s;
    return;
  }
  out += '"';
  for (const char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
}

void appendCsvRows(std::string& out, std::string_view scenario,
                   std::string_view section, const Values& vs) {
  for (const auto& [k, v] : vs) {
    appendCsvString(out, scenario);
    out += ',';
    out += section;
    out += ',';
    appendCsvString(out, k);
    out += ',';
    obs::appendJsonNumber(out, v);
    out += '\n';
  }
}

}  // namespace

void writeCsv(const CampaignReport& rep, std::ostream& os) {
  std::string out;
  out.reserve(256 + rep.scenarios.size() * 512);
  out += "scenario,section,key,value\n";
  for (const ScenarioResult& s : rep.scenarios) {
    if (!s.error.empty()) {
      appendCsvString(out, s.name);
      out += ",error,";
      appendCsvString(out, s.error);
      out += ",1\n";
      continue;
    }
    appendCsvRows(out, s.name, "values", s.values);
    appendCsvRows(out, s.name, "metrics", s.metrics);
  }
  appendCsvRows(out, "(derived)", "derived", rep.derived);
  os << out;
}

std::string toCsv(const CampaignReport& rep) {
  std::ostringstream os;
  writeCsv(rep, os);
  return os.str();
}

}  // namespace cbsim::campaign
