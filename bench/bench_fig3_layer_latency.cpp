// Fig. 3: per-layer latency vs op count on the STM32F767ZI — different layer
// families show different throughput, 2D convs scatter with channel
// alignment, and the 138->140 channel anomaly reproduces.
//
// Second half: the per-op ProfileReport of a real KWS DS-CNN invoke. The
// interpreter measures host wall-clock per op, mcu::annotate_profile fills
// the analytical predicted latency side-by-side, and we report the r^2 of
// measured-vs-predicted per-layer latency (the paper's per-layer fit) plus a
// chrome://tracing dump of the invoke (TRACE_fig3_kws.json, loadable in
// Perfetto).
#include <array>
#include <utility>

#include "bench_util.hpp"
#include "charac/charac.hpp"
#include "kernels/backend.hpp"
#include "runtime/planner.hpp"
#include "tensor/stats.hpp"

using namespace mn;

int main(int argc, char** argv) {
  bench::BenchOptions opt = bench::parse_args(argc, argv);
  // The Fig. 3 trace is a CI artifact; it is always written (override the
  // destination with --trace-out=PATH).
  if (opt.trace_out.empty()) opt.trace_out = "TRACE_fig3_kws.json";
  bench::print_header("Fig. 3: layer latency vs ops (STM32F767ZI, TFLM+CMSIS-NN model)");
  bench::Reporter report("fig3_layer_latency", opt);
  const int count = opt.full ? 2000 : 400;

  report.phase("characterize");
  const auto samples = charac::characterize_layers(mcu::stm32f767zi(), count, opt.seed);

  struct FamilyStats {
    const char* name;
    double min_mops = 1e18, max_mops = 0, sum = 0;
    int n = 0;
  };
  std::array<FamilyStats, 3> fams{{{"CONV_2D"}, {"DEPTHWISE_CONV_2D"}, {"FULLY_CONNECTED"}}};
  for (const charac::LayerSample& s : samples) {
    FamilyStats* f = nullptr;
    switch (s.layer.kind) {
      case mcu::LayerKind::kConv2D: f = &fams[0]; break;
      case mcu::LayerKind::kDepthwiseConv2D: f = &fams[1]; break;
      case mcu::LayerKind::kFullyConnected: f = &fams[2]; break;
      default: continue;
    }
    f->min_mops = std::min(f->min_mops, s.mops_per_s);
    f->max_mops = std::max(f->max_mops, s.mops_per_s);
    f->sum += s.mops_per_s;
    ++f->n;
  }

  bench::print_subheader("throughput by layer family (" + std::to_string(count) + " random layers)");
  const std::vector<int> w{22, 12, 14, 14, 14};
  bench::print_row({"layer type", "samples", "mean Mops/s", "min Mops/s", "max Mops/s"}, w);
  for (const FamilyStats& f : fams)
    bench::print_row({f.name, std::to_string(f.n), bench::fmt(f.sum / f.n, 1),
                      bench::fmt(f.min_mops, 1), bench::fmt(f.max_mops, 1)}, w);

  bench::print_subheader("scatter sample (ops vs latency)");
  bench::print_row({"layer type", "ops", "latency(ms)", "Mops/s"}, {22, 14, 14, 10});
  for (size_t i = 0; i < samples.size(); i += samples.size() / 18) {
    const auto& s = samples[i];
    const char* name = s.layer.kind == mcu::LayerKind::kConv2D ? "CONV_2D"
                       : s.layer.kind == mcu::LayerKind::kDepthwiseConv2D
                           ? "DEPTHWISE_CONV_2D"
                           : "FULLY_CONNECTED";
    bench::print_row({name, std::to_string(s.layer.ops),
                      bench::fmt(s.latency_s * 1e3, 3), bench::fmt(s.mops_per_s, 1)},
                     {22, 14, 14, 10});
  }

  bench::print_subheader("channel-divisibility anomaly (paper SS3.2)");
  const auto anomaly = charac::channel_divisibility_anomaly(mcu::stm32f767zi());
  std::printf("  3x3 conv 138/138 channels: %.2f ms\n", anomaly.latency_138_s * 1e3);
  std::printf("  3x3 conv 140/140 channels: %.2f ms (more ops, lower latency)\n",
              anomaly.latency_140_s * 1e3);
  bench::print_vs_paper("speedup from 138->140 channels", anomaly.speedup,
                        37.5 / 21.5, "x");

  // --- per-op profile of a real KWS invoke ----------------------------------
  report.phase("profile_kws");
  models::BuildOptions bo;
  bo.seed = opt.seed;
  bo.qat = false;
  nn::Graph g = models::build_ds_cnn(models::micronet_kws(models::ModelSize::kM), bo);
  // Pinned to the reference backend: the r^2 below measures how well the MCU
  // model's per-layer shape matches the reference kernels, not the shipped
  // fast path.
  rt::ModelDef kws =
      bench::calibrated_model(g, Shape{49, 10, 1}, "micronet-kws-m");
  rt::MemoryPlan kws_plan = rt::plan_memory(kws);
  rt::Interpreter interp(std::move(kws), std::move(kws_plan),
                         kernels::BackendConfig::reference());
  const mcu::Device& dev = mcu::stm32f767zi();
  // Install the per-op energy attribution so the trace carries the
  // "op_energy_uj" counter track next to arena/scratch/MAC occupancy.
  interp.set_op_energy_uj(mcu::per_op_energy_uj(dev, interp.model()));

  bench::start_trace_if_requested(opt, 4096);
  interp.set_profiling(true);
  const int invokes = opt.full ? 50 : 10;
  TensorF input(Shape{49, 10, 1});
  Rng rng(opt.seed);
  for (int64_t i = 0; i < input.size(); ++i)
    input[i] = static_cast<float>(rng.normal());
  for (int k = 0; k < invokes; ++k) interp.invoke(input);

  rt::ProfileReport prof = interp.profile_report();
  mcu::annotate_profile(dev, interp.model(), &prof);
  bench::print_subheader("per-op profile, micronet-kws-m (" +
                         std::to_string(invokes) + " invokes)");
  std::printf("%s", prof.table().c_str());

  // r^2 of measured host latency against the analytical prediction and
  // against raw op count — per-layer analog of Fig. 4's model-level fit.
  std::vector<double> host_us, pred_us, op_counts;
  for (const rt::OpProfile& op : prof.ops) {
    if (op.macs <= 0) continue;  // pools/softmax: latency is not MAC-bound
    host_us.push_back(op.measured_us());
    pred_us.push_back(op.predicted_us());
    op_counts.push_back(2.0 * static_cast<double>(op.macs));
  }
  const LineFit fit_pred = fit_line(pred_us, host_us);
  const LineFit fit_ops = fit_line(op_counts, host_us);
  std::printf("  host-vs-predicted per-layer fit: r^2 = %.4f (%zu MAC layers)\n",
              fit_pred.r2, host_us.size());
  std::printf("  host-vs-ops per-layer fit:       r^2 = %.4f\n", fit_ops.r2);

  bench::write_trace_if_requested(opt);

  // Memory & energy telemetry: the occupancy timeline the trace's
  // arena_bytes track renders, plus whole-invoke energy attribution.
  const std::vector<double> energy_uj = mcu::per_op_energy_uj(dev, interp.model());
  double energy_total_uj = 0.0;
  for (double e : energy_uj) energy_total_uj += e;
  std::vector<double> occupancy;
  for (int64_t b : interp.memory_plan().occupancy_timeline(
           static_cast<int>(interp.model().ops.size())))
    occupancy.push_back(static_cast<double>(b));
  report.series("kws_arena_live_bytes_per_op", occupancy);
  report.series("kws_op_energy_uj", energy_uj);

  report.metric("layer_samples", static_cast<double>(count));
  report.metric("kws_arena_bytes", static_cast<double>(interp.memory_plan().arena_bytes));
  report.metric("kws_arena_live_peak_bytes",
                static_cast<double>(interp.memory_plan().peak_live_bytes(
                    static_cast<int>(interp.model().ops.size()))));
  report.metric("kws_energy_uj_per_invoke", energy_total_uj);
  report.metric("conv_mean_mops", fams[0].sum / std::max(fams[0].n, 1));
  report.metric("dw_mean_mops", fams[1].sum / std::max(fams[1].n, 1));
  report.metric("fc_mean_mops", fams[2].sum / std::max(fams[2].n, 1));
  report.metric("anomaly_speedup", anomaly.speedup);
  report.metric("kws_profile_invokes", static_cast<double>(invokes));
  report.metric("kws_mac_layers", static_cast<double>(host_us.size()));
  report.metric("kws_predicted_us_per_invoke", prof.total_predicted_s() * 1e6);
  report.metric("r2_host_vs_predicted", fit_pred.r2);
  report.metric("r2_host_vs_ops", fit_ops.r2);
  report.finish();
  return 0;
}
