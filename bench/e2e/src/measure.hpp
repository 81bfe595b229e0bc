#pragma once

// Host-time helpers shared by the benchmark's spans and probes.  Every
// time is a difference of two steady_clock readings.

#include <algorithm>
#include <chrono>
#include <vector>

namespace cbsim::e2e {

[[nodiscard]] inline double hostSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Runs `fn` and adds its host seconds to `acc`: one span at a layer
/// boundary, summed over every world of a workload.
template <typename Fn>
void timed(double& acc, Fn&& fn) {
  const double t0 = hostSeconds();
  fn();
  acc += hostSeconds() - t0;
}

/// Median of a non-empty sample (mean of the middle two for even sizes).
[[nodiscard]] inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Host-speed reference: repeats a fixed kernel that shares no code with
/// the simulator (integer mixing) on `threads` threads at once for about
/// `seconds`, and returns every thread's repeat times.  The reference host
/// (README.md) drifts by up to 1.6x over minutes; timing this kernel in
/// short slices spread over a run, on as many threads as the workload
/// uses, removes most of that drift from the workload's times (README.md
/// has the numbers).
[[nodiscard]] std::vector<double> referenceKernelSeconds(double seconds,
                                                         int threads);

}  // namespace cbsim::e2e
