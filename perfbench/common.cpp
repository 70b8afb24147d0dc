#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

#include "nn/graph.hpp"
#include "runtime/converter.hpp"
#include "tensor/rng.hpp"

namespace perfbench {

LogHistogram::LogHistogram()
    : buckets_(static_cast<size_t>(kOctaves) << kSubBits, 0) {}

// Bucket of v >= 1: octave = floor(log2 v), sub-bucket = the next kSubBits
// mantissa bits. Bucket b covers [bucket_lo(b), bucket_lo(b + 1)).
double LogHistogram::bucket_lo(size_t b) {
  const int octave = static_cast<int>(b / kSub);
  const int sub = static_cast<int>(b % kSub);
  return std::ldexp(1.0 + static_cast<double>(sub) / kSub, octave);
}

void LogHistogram::add(double v) {
  v = std::max(v, 1.0);
  int exp = 0;
  const double m = std::frexp(v, &exp);  // v = m * 2^exp, m in [0.5, 1)
  const int octave = std::min(exp - 1, kOctaves - 1);
  const int sub = std::min(static_cast<int>((m * 2.0 - 1.0) * kSub), kSub - 1);
  ++buckets_[static_cast<size_t>(octave) * kSub + static_cast<size_t>(sub)];
  ++count_;
  sum_ += v;
}

double LogHistogram::percentile(double q) const {
  if (count_ == 0) return 0.0;
  // Rank of the q-quantile among count_ samples, interpolated inside the
  // bucket that holds it (samples assumed spread evenly across the bucket).
  const double rank = q * static_cast<double>(count_ - 1);
  int64_t seen = 0;
  for (size_t b = 0; b < buckets_.size(); ++b) {
    const int64_t n = buckets_[b];
    if (n == 0) continue;
    if (rank < static_cast<double>(seen + n)) {
      const double frac = (rank - static_cast<double>(seen) + 0.5) / static_cast<double>(n);
      const double lo = bucket_lo(b), hi = bucket_lo(b + 1);
      return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
    seen += n;
  }
  return bucket_lo(buckets_.size());
}

int64_t LogHistogram::beyond(double q) const {
  return count_ - static_cast<int64_t>(std::ceil(q * static_cast<double>(count_)));
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

void SetupClock::lap() {
  const double raw = static_cast<double>(now_ns() - t_);
  const double cal = calib_pass_ns();
  raw_ns_ += raw;
  norm_ns_ += raw * 2.0 * kNominalCalibNs / (cal_ + cal);
  cal_ = cal;
  t_ = now_ns();
}

std::string SetupTimes::note() const {
  return "raw " + std::to_string(median(raw)) + " s, median of " +
         std::to_string(raw.size());
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  if (check_failures.size() < 16) check_failures.push_back(what);
}

void Report::add_e2e(const std::string& name, double v, const std::string& unit,
                     const std::string& note) {
  e2e.push_back({name, v, unit, note});
}
void Report::add_detail(const std::string& name, double v,
                        const std::string& unit, const std::string& note) {
  detail.push_back({name, v, unit, note});
}
void Report::add_layer(const std::string& name, double v,
                       const std::string& unit, const std::string& note) {
  layer.push_back({name, v, unit, note});
}

mn::rt::ModelDef calibrated_model(mn::nn::Graph& graph, mn::Shape input,
                                  const std::string& name, int weight_bits,
                                  bool fuse_activations, uint64_t calib_seed) {
  mn::Rng rng(calib_seed);
  mn::TensorF batch =
      input.rank() == 1
          ? mn::TensorF(mn::Shape{2, input.dim(0)})
          : mn::TensorF(mn::Shape{2, input.dim(0), input.dim(1), input.dim(2)});
  for (int64_t i = 0; i < batch.size(); ++i)
    batch[i] = static_cast<float>(rng.normal(0.0, 0.5));
  const mn::rt::RangeMap ranges = mn::rt::calibrate_ranges(graph, batch);
  mn::rt::ConvertOptions co;
  co.name = name;
  co.weight_bits = weight_bits;
  co.act_bits = weight_bits;
  co.fuse_activations = fuse_activations;
  return mn::rt::convert(graph, co, &ranges);
}

}  // namespace perfbench
