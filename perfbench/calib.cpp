#include "calib.hpp"

#include <algorithm>
#include <chrono>
#include <vector>

namespace perfbench {

namespace {

// The pass runs two int8 multiply-accumulate loops. The first is scalar over
// 8 KB operands read at a rotating index, so it stays in L1 and follows the
// core's speed. The second is vectorised over two 96 KB operands, streaming
// from L2 like the int8 kernels do, so it follows the slowdowns that other
// tenants of the host cause in the cache hierarchy. Either loop alone left
// some of the workloads' run-to-run spread unexplained.
constexpr int64_t kL1Len = 4096;  // power of two: the index wraps with a mask
constexpr int kL1Reps = 12;
constexpr int64_t kL2Len = 96 * 1024;
constexpr int kL2Reps = 3;

// Sum over passes r of the dot product of a[0..n) and b rotated by r.
int64_t mac_rotated(const int8_t* a, const int8_t* b, int64_t n, int reps) {
  int64_t total = 0;
  for (int r = 0; r < reps; ++r) {
    int32_t acc = 0;
    for (int64_t i = 0; i < n; ++i)
      acc += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[(i + r) & (n - 1)]);
    total += acc;
  }
  return total;
}

// Sum over passes r of the dot product of a[r..r+n) and b[0..n).
int64_t mac_streaming(const int8_t* a, const int8_t* b, int64_t n, int reps) {
  int64_t total = 0;
  for (int r = 0; r < reps; ++r) {
    int32_t acc = 0;
    for (int64_t i = 0; i < n; ++i)
      acc += static_cast<int32_t>(a[i + r]) * static_cast<int32_t>(b[i]);
    total += acc;
  }
  return total;
}

std::vector<int8_t> random_bytes(int64_t n, uint32_t seed) {
  std::vector<int8_t> v(static_cast<size_t>(n));
  for (int8_t& e : v) {
    seed = seed * 1664525u + 1013904223u;
    e = static_cast<int8_t>(seed >> 24);
  }
  return v;
}

struct CalibData {
  std::vector<int8_t> l1a = random_bytes(kL1Len, 1), l1b = random_bytes(kL1Len, 2);
  std::vector<int8_t> l2a = random_bytes(kL2Len + kL2Reps, 3), l2b = random_bytes(kL2Len, 4);
};

volatile int64_t g_sink = 0;

}  // namespace

double calib_pass_ns() {
  static const CalibData data;
  const auto t0 = std::chrono::steady_clock::now();
  g_sink = g_sink + mac_rotated(data.l1a.data(), data.l1b.data(), kL1Len, kL1Reps) +
           mac_streaming(data.l2a.data(), data.l2b.data(), kL2Len, kL2Reps);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count();
}

double calib_median_ns(int passes) {
  std::vector<double> ns;
  for (int i = 0; i < passes; ++i) ns.push_back(calib_pass_ns());
  std::nth_element(ns.begin(), ns.begin() + passes / 2, ns.end());
  return ns[static_cast<size_t>(passes / 2)];
}

}  // namespace perfbench
