// Bounded-memory soak (ctest label "soak"): one tiny tenant serves 10^5
// requests, and the process's resident set must stay flat between 10% and
// 100% of the run. The serving engine keeps fixed-size latency records
// (obs::TickHistogram plus a bounded per-tenant ring), so nothing it holds
// may grow with the number of requests served.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>

#include <unistd.h>

#include "serve/engine.hpp"
#include "serve_fixtures.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MN_SOAK_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define MN_SOAK_SANITIZED 1
#endif
#endif

using namespace mn;

namespace {

// Resident set size in bytes from /proc/self/statm, or -1 if unavailable.
int64_t rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return -1;
  long long size_pages = 0, resident_pages = 0;
  const int n = std::fscanf(f, "%lld %lld", &size_pages, &resident_pages);
  std::fclose(f);
  if (n != 2) return -1;
  return static_cast<int64_t>(resident_pages) * sysconf(_SC_PAGESIZE);
}

}  // namespace

TEST(ServeSoak, ResidentMemoryStaysFlatAsRequestsAreServed) {
#if defined(MN_SOAK_SANITIZED)
  GTEST_SKIP() << "sanitizer allocators keep freed memory resident "
                  "(quarantine and shadow memory), so RSS does not track "
                  "live allocations";
#endif
  if (rss_bytes() < 0) GTEST_SKIP() << "/proc/self/statm is unavailable";

  constexpr int64_t kRequests = 100000;
  constexpr int64_t kMaxGrowthBytes = 256 * 1024;
  serve::ServingEngine eng{serve::EngineConfig{}};
  serve::TenantConfig tc;
  tc.name = "soak";
  eng.register_tenant(tc, test::make_variant(/*service_ticks=*/1,
                                             /*instances=*/1),
                      std::nullopt, test::clean_inputs(4));

  // One arrival per tick against one single-tick replica: every request is
  // served on time, one per tick, with no queue build-up.
  int64_t rss_at_10pct = 0;
  for (int64_t i = 0; i < kRequests; ++i) {
    if (!eng.submit(0).ok()) FAIL() << "request " << i << " rejected";
    eng.step();
    if (i + 1 == kRequests / 10) rss_at_10pct = rss_bytes();
  }
  eng.drain(16);
  const int64_t growth = rss_bytes() - rss_at_10pct;
  RecordProperty("rss_growth_bytes", std::to_string(growth));

  ASSERT_EQ(eng.stats().total_served(), kRequests);
  EXPECT_EQ(eng.latency_histogram().count(), kRequests);
  EXPECT_EQ(eng.wall_latency_us().count, kRequests);
  EXPECT_LT(growth, kMaxGrowthBytes)
      << "RSS grew by " << growth << " bytes over the last "
      << kRequests * 9 / 10 << " requests served";
}
