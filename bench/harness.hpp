#pragma once

// Shared support for benches that emit machine-readable BENCH_*.json files
// (picked up as CI artifacts; see EXPERIMENTS.md): peak RSS and an
// insertion-ordered JSON object builder.  Header-only, no deps.

#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace cbsim::bench {

/// Peak resident set size of this process in bytes (0 where unsupported).
/// getrusage reports the high-water mark, so call it after the workload;
/// every BENCH_*.json carries it as `peak_rss_mb`.
inline double peakRssBytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
#if defined(__APPLE__)
  return static_cast<double>(ru.ru_maxrss);  // bytes on Darwin
#else
  return static_cast<double>(ru.ru_maxrss) * 1024.0;  // KiB on Linux
#endif
#else
  return 0.0;
#endif
}

/// Insertion-ordered JSON object.  Values are rendered eagerly; nesting
/// works by rendering a child object and attaching it with raw().
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return raw(key, buf);
  }
  JsonObject& integer(const std::string& key, long long v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, quote(v));
  }
  /// Attaches pre-rendered JSON (a child object, array, ...) verbatim.
  JsonObject& raw(const std::string& key, std::string renderedJson) {
    entries_.emplace_back(key, std::move(renderedJson));
    return *this;
  }

  [[nodiscard]] std::string render(int indent = 0) const {
    const std::string pad(static_cast<std::size_t>(indent) + 2, ' ');
    std::string out = "{\n";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      out += pad + quote(entries_[i].first) + ": " + entries_[i].second;
      if (i + 1 < entries_.size()) out += ",";
      out += "\n";
    }
    out += std::string(static_cast<std::size_t>(indent), ' ') + "}";
    return out;
  }

  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += '"';
    return out;
  }

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

/// Renders a JSON array from already-rendered element strings.
inline std::string jsonArray(const std::vector<std::string>& elems,
                             int indent = 0) {
  const std::string pad(static_cast<std::size_t>(indent) + 2, ' ');
  std::string out = "[\n";
  for (std::size_t i = 0; i < elems.size(); ++i) {
    out += pad + elems[i];
    if (i + 1 < elems.size()) out += ",";
    out += "\n";
  }
  out += std::string(static_cast<std::size_t>(indent), ' ') + "]";
  return out;
}

inline void writeFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error("bench: cannot open output file " + path);
  }
  std::fwrite(content.data(), 1, content.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
}

}  // namespace cbsim::bench
