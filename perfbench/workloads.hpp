// The benchmark's workloads. Each builds its inputs from the seed, sets up,
// measures for opt.seconds, checks the program's outputs and fills a Report.
#pragma once

#include <map>
#include <string>

#include "common.hpp"
#include "obs/obs.hpp"
#include "runtime/profile.hpp"

namespace perfbench {

Report run_kws_stream(const Options& opt);
Report run_serve_fleet(const Options& opt);
Report run_model_deploy(const Options& opt);

// Per-op-type kernel time and MACs accumulated from Interpreter profiles.
struct KernelTimes {
  std::map<std::string, double> ns;    // key: conv/depthwise/fc/pool/add/softmax
  std::map<std::string, double> macs;
  double total_ns() const;
  // Adds `report`'s per-op wall time scaled by `scale` (1 = raw).
  void add(const mn::rt::ProfileReport& report, double scale);
  // Emits kernels.<kind>_us per `per` operations plus the MAC rates.
  void emit(Report& r, double per, const std::string& note) const;
};

// Deltas of the program's obs counters since construction.
class CounterWindow {
 public:
  CounterWindow();
  int64_t delta(mn::obs::Counter c) const;

 private:
  std::vector<int64_t> start_;
};

}  // namespace perfbench
