#include "mc/trace.hpp"

#include "desc/json.hpp"
#include "desc/schema.hpp"

namespace cbsim::mc {

namespace {

Site siteFromString(const std::string& s, desc::Reader& r) {
  if (s == "pmpi-match") return Site::PmpiMatch;
  if (s == "retransmit") return Site::Retransmit;
  if (s == "fault-instant") return Site::FaultInstant;
  r.fail("unknown choice-point site \"" + s + "\"");
}

}  // namespace

std::string dumpTrace(const Trace& t) {
  desc::Value root = desc::Value::object();
  root.set("version", desc::Value::integer(1));
  root.set("scenario", desc::Value::string(t.scenario));
  if (!t.message.empty()) {
    root.set("message", desc::Value::string(t.message));
  }
  desc::Value choices = desc::Value::array();
  for (const int c : t.choices) choices.push(desc::Value::integer(c));
  root.set("choices", std::move(choices));
  if (!t.decisions.empty()) {
    desc::Value decisions = desc::Value::array();
    for (const Decision& d : t.decisions) {
      desc::Value v = desc::Value::object();
      v.set("site", desc::Value::string(toString(d.site)));
      v.set("locus", desc::Value::unsignedInt(d.locus));
      v.set("chosen", desc::Value::integer(d.chosen));
      v.set("alternatives", desc::Value::integer(d.alternatives));
      v.set("key", desc::Value::unsignedInt(d.key));
      decisions.push(std::move(v));
    }
    root.set("decisions", std::move(decisions));
  }
  return desc::dump(root);
}

Trace parseTrace(const std::string& text, const std::string& origin) {
  const desc::Value root = desc::parse(text, origin);
  desc::Reader r(root, origin.empty() ? "trace" : origin);
  const std::int64_t version = r.intAt("version");
  if (version != 1) r.fail("unsupported trace version");
  Trace t;
  t.scenario = r.stringAt("scenario");
  t.message = r.stringAt("message", "");
  {
    desc::Reader arr = r.child("choices");
    for (std::size_t i = 0; i < arr.size(); ++i) {
      t.choices.push_back(static_cast<int>(arr.item(i).asInt()));
    }
  }
  if (r.has("decisions")) {
    r.eachIn("decisions", [&](desc::Reader& d) {
      Decision dec;
      dec.site = siteFromString(d.stringAt("site"), d);
      dec.locus = d.uintAt("locus");
      dec.chosen = static_cast<int>(d.intAt("chosen"));
      dec.alternatives = static_cast<int>(d.intAt("alternatives"));
      dec.key = d.uintAt("key");
      d.finish();
      t.decisions.push_back(dec);
    });
  }
  r.finish();
  return t;
}

Trace readTraceFile(const std::string& path) {
  return parseTrace(desc::readFile(path), path);
}

}  // namespace cbsim::mc
