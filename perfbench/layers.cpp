#include "workloads.hpp"

namespace perfbench {

namespace {

const char* kind_of(mn::rt::OpType t) {
  switch (t) {
    case mn::rt::OpType::kConv2D: return "conv";
    case mn::rt::OpType::kDepthwiseConv2D: return "depthwise";
    case mn::rt::OpType::kFullyConnected: return "fc";
    case mn::rt::OpType::kAvgPool2D:
    case mn::rt::OpType::kMaxPool2D: return "pool";
    case mn::rt::OpType::kAdd: return "add";
    case mn::rt::OpType::kSoftmax: return "softmax";
    case mn::rt::OpType::kOpTypeCount: break;
  }
  return "other";
}

}  // namespace

double KernelTimes::total_ns() const {
  double t = 0.0;
  for (const auto& [kind, v] : ns) t += v;
  return t;
}

void KernelTimes::add(const mn::rt::ProfileReport& report, double scale) {
  for (const mn::rt::OpProfile& op : report.ops) {
    const char* kind = kind_of(op.type);
    ns[kind] += static_cast<double>(op.wall_ns) * scale;
    macs[kind] += static_cast<double>(op.macs) * static_cast<double>(op.invocations);
  }
}

void KernelTimes::emit(Report& r, double per, const std::string& note) const {
  auto get = [](const std::map<std::string, double>& m, const char* k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  };
  for (const char* kind : {"conv", "depthwise", "fc", "pool", "add"})
    r.add_layer(std::string("kernels.") + kind + "_us",
                per > 0 ? get(ns, kind) / per / 1e3 : 0.0, "us", note);
  for (const char* kind : {"conv", "depthwise"}) {
    const double t = get(ns, kind);
    r.add_layer(std::string("kernels.") + kind + "_macs_per_ns",
                t > 0 ? get(macs, kind) / t : 0.0, "MAC/ns", note);
  }
}

CounterWindow::CounterWindow() {
  for (uint32_t c = 0; c < static_cast<uint32_t>(mn::obs::Counter::kCount); ++c)
    start_.push_back(mn::obs::counter_value(static_cast<mn::obs::Counter>(c)));
}

int64_t CounterWindow::delta(mn::obs::Counter c) const {
  return mn::obs::counter_value(c) - start_[static_cast<size_t>(c)];
}

}  // namespace perfbench
