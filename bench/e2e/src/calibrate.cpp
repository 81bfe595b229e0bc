#include <cstdint>
#include <thread>
#include <vector>

#include "measure.hpp"

namespace cbsim::e2e {

namespace {

/// One repeat of the kernel: integer mixing, whose result depends on every
/// step.
std::uint64_t kernelUnit(std::uint64_t x) {
  for (int i = 0; i < 4000000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    x ^= x >> 29;
  }
  return x;
}

// Keeps the kernel's results observable, so no repeat is optimised away.
volatile std::uint64_t sink;

}  // namespace

std::vector<double> referenceKernelSeconds(double seconds, int threads) {
  // Each thread times its own repeats: one vCPU taken by another tenant
  // slows a quarter of four threads' samples, not every one.
  std::vector<std::vector<double>> perThread(static_cast<std::size_t>(threads));
  std::vector<std::uint64_t> results(perThread.size());
  const double start = hostSeconds();
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < perThread.size(); ++t) {
    pool.emplace_back([&, t] {
      std::uint64_t x = t + 1;
      do {
        const double t0 = hostSeconds();
        x = kernelUnit(x);
        perThread[t].push_back(hostSeconds() - t0);
      } while (hostSeconds() - start < seconds);
      results[t] = x;
    });
  }
  for (std::thread& th : pool) th.join();
  std::vector<double> samples;
  for (std::size_t t = 0; t < perThread.size(); ++t) {
    sink = sink + results[t];
    samples.insert(samples.end(), perThread[t].begin(), perThread[t].end());
  }
  return samples;
}

}  // namespace cbsim::e2e
