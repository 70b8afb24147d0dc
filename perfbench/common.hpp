// Shared pieces of the deployed-path benchmark: options, bounded sample
// storage, timing, the report every workload fills, and model builders.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "calib.hpp"
#include "runtime/model.hpp"
#include "tensor/shape.hpp"

namespace mn::nn {
class Graph;
}

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // chrome trace written at the end of a traced run
};

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Log-linear histogram of positive samples: 2^kSubBits linear sub-buckets per
// power of two (relative bucket width < 0.4%), fixed size whatever the sample
// count, so the harness's own memory does not grow with run length.
// Percentiles interpolate linearly inside the bucket that holds the rank.
class LogHistogram {
 public:
  LogHistogram();
  void add(double v);
  int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
  double percentile(double q) const;
  // Samples strictly above percentile(q): the guide's "at least ten samples
  // beyond it" check for the reported tail.
  int64_t beyond(double q) const;

 private:
  static constexpr int kSubBits = 8;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kOctaves = 48;  // covers 1 .. 2^48
  // Lower edge of bucket b: octave b / kSub, linear step b % kSub.
  static double bucket_lo(size_t b);
  std::vector<int64_t> buckets_;
  int64_t count_ = 0;
  double sum_ = 0.0;
};

double median(std::vector<double> v);

// Peak resident set size of this process so far, MB.
double peak_rss_mb();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // raw value, sample count, or why it is unavailable
};

// What one workload run produced. `e2e` holds the contract's end-to-end
// metrics (names shared by every workload), `detail` the workload's own
// names for them plus exact quantities, `layer` the traced per-layer view.
struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> check_failures;
  std::vector<Metric> e2e;
  std::vector<Metric> detail;
  std::vector<Metric> layer;

  void check(bool ok, const std::string& what);
  void add_e2e(const std::string& name, double v, const std::string& unit,
               const std::string& note = "");
  void add_detail(const std::string& name, double v, const std::string& unit,
                  const std::string& note = "");
  void add_layer(const std::string& name, double v, const std::string& unit,
                 const std::string& note = "");
};

// Builds a graph's weights at random (seeded), calibrates activation ranges
// on random data and converts it: exact footprints and latency, no training.
// fuse_activations=false keeps activations as standalone ops (the naive form
// the graph compiler cleans up).
mn::rt::ModelDef calibrated_model(mn::nn::Graph& graph, mn::Shape input,
                                  const std::string& name, int weight_bits,
                                  bool fuse_activations, uint64_t calib_seed);

// Times one set-up repetition step by step: the set-up code calls lap()
// after each step (a model build, a compile, a clip of audio, ...). Each step
// is normalised by the calibration passes just before and just after it, as
// a kws_stream hop is; the host's speed phases are shorter than a whole
// set-up, so passes around the whole set-up did not follow them.
class SetupClock {
 public:
  SetupClock() : cal_(calib_pass_ns()), t_(now_ns()) {}
  void lap();
  double raw_s() const { return raw_ns_ * 1e-9; }
  double norm_s() const { return norm_ns_ * 1e-9; }

 private:
  double cal_;
  int64_t t_;
  double raw_ns_ = 0, norm_ns_ = 0;
};

// Set-up times in seconds, raw and normalised, one per repetition.
struct SetupTimes {
  std::vector<double> norm, raw;

  // Runs fn(clock) `reps` times, each with a fresh SetupClock; the caller
  // keeps the state the last repetition built.
  template <typename Fn>
  void run(int reps, Fn&& fn) {
    for (int i = 0; i < reps; ++i) {
      SetupClock clock;
      fn(clock);
      clock.lap();
      raw.push_back(clock.raw_s());
      norm.push_back(clock.norm_s());
    }
  }
  // "raw <median> s, median of N"
  std::string note() const;
};

}  // namespace perfbench
