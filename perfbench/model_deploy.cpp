// model_deploy: bringing up model images that arrived over the air. Closed
// loop, one caller, one worker thread.
//
// Why this workload: compile and load dominate, and nothing is shared
// between loads. Each serialized naive-form image (kws_s, kws_m, kws_l,
// vww_s, ad_s) is loaded cold in a fixed cycle: ModelDef::try_deserialize
// (CRC) -> compile::compile_model -> plan_memory -> pack_model_weights ->
// Interpreter -> first invoke. This is the path serve_fleet's shared plans and
// packed panels bypass. Host times are normalised by the calibration passes
// taken around each load (calib.hpp); raw times are printed beside them.
#include <algorithm>
#include <memory>
#include <optional>

#include "calib.hpp"
#include "compile/compile.hpp"
#include "kernels/backend.hpp"
#include "mcu/device.hpp"
#include "mcu/perf_model.hpp"
#include "models/backbones.hpp"
#include "nn/graph.hpp"
#include "runtime/interpreter.hpp"
#include "runtime/planner.hpp"
#include "runtime/rt_error.hpp"
#include "tensor/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace mn;

namespace {

constexpr int kSetupReps = 5;

struct Image {
  std::string name;
  const mcu::Device* device = nullptr;
  std::vector<uint8_t> bytes;  // serialized naive-form ModelDef
  uint32_t crc = 0;            // rt::crc32 of bytes
  TensorI8 input;
  std::vector<int8_t> expected;  // first output of the uncompiled reference oracle
};

Image make_image(const std::string& name, nn::Graph graph, Shape input,
                 const mcu::Device& dev, uint64_t seed, SetupClock& clock) {
  Image im;
  im.name = name;
  im.device = &dev;
  const rt::ModelDef naive = calibrated_model(graph, input, "micronet-" + name, 8,
                                              /*fuse_activations=*/false, seed ^ 0xCA11B);
  im.bytes = naive.serialize();
  im.crc = rt::crc32(im.bytes);
  clock.lap();
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 7);
  im.input = TensorI8(input);
  for (int64_t i = 0; i < im.input.size(); ++i)
    im.input[i] = static_cast<int8_t>(rng.uniform_int(-128, 127));
  rt::Interpreter oracle(naive, rt::plan_memory(naive), kernels::BackendConfig::reference());
  const TensorI8 out = oracle.invoke_quantized(im.input);
  im.expected.assign(out.span().begin(), out.span().end());
  clock.lap();
  return im;
}

std::vector<Image> build_images(uint64_t seed, SetupClock& clock) {
  models::BuildOptions bo;
  bo.seed = seed;
  bo.qat = false;
  std::vector<Image> images;
  auto kws = [&](const char* name, models::ModelSize size, const mcu::Device& dev) {
    const models::DsCnnConfig c = models::micronet_kws(size);
    images.push_back(make_image(name, models::build_ds_cnn(c, bo), c.input, dev, seed, clock));
  };
  kws("kws_s", models::ModelSize::kS, mcu::stm32f446re());
  kws("kws_m", models::ModelSize::kM, mcu::stm32f746zg());
  kws("kws_l", models::ModelSize::kL, mcu::stm32f767zi());
  const models::MobileNetV2Config v = models::micronet_vww(models::ModelSize::kS);
  images.push_back(make_image("vww_s", models::build_mobilenet_v2(v, bo), v.input,
                              mcu::stm32f446re(), seed, clock));
  const models::DsCnnConfig a = models::micronet_ad(models::ModelSize::kS);
  images.push_back(make_image("ad_s", models::build_ds_cnn(a, bo), a.input,
                              mcu::stm32f446re(), seed, clock));
  return images;
}

// Time of each stage of one load, ns, and the kernel counters of its first
// invoke (the compiler's constant folding runs kernels too).
struct Stages {
  double deserialize = 0, compile = 0, plan = 0, pack = 0, construct = 0, invoke = 0;
  double macs = 0, bytes_read = 0, bytes_written = 0, fast_ops = 0, ref_ops = 0;
  void add_counts(const Stages& o) {
    macs += o.macs;
    bytes_read += o.bytes_read;
    bytes_written += o.bytes_written;
    fast_ops += o.fast_ops;
    ref_ops += o.ref_ops;
  }
  double total() const { return deserialize + compile + plan + pack + construct + invoke; }
  void scale(double f) {
    for (double* v : {&deserialize, &compile, &plan, &pack, &construct, &invoke}) *v *= f;
  }
};

// What one load leaves behind for checks and the exact metrics.
struct Loaded {
  std::unique_ptr<rt::Interpreter> interp;
  compile::CompileReport report;
  std::optional<rt::RtError> error;
  TensorI8 out;
};

Loaded load(const Image& im, bool traced, Stages& st) {
  Loaded l;
  int64_t a = now_ns(), b = 0;
  auto lap = [&](double& acc) { b = now_ns(); acc += static_cast<double>(b - a); a = b; };
  rt::Expected<rt::ModelDef> md = [&] {
    obs::SpanScope sp("runtime.deserialize", obs::Cat::kBench);
    return rt::ModelDef::try_deserialize(im.bytes);
  }();
  lap(st.deserialize);
  if (!md.ok()) {
    l.error = md.error();
    return l;
  }
  compile::CompiledModel cm = [&] {
    obs::SpanScope sp("compile.run", obs::Cat::kBench);
    return compile::compile_model(std::move(md).value(), compile::CompileConfig::all());
  }();
  lap(st.compile);
  rt::MemoryPlan plan = [&] {
    obs::SpanScope sp("runtime.plan", obs::Cat::kBench);
    return rt::plan_memory(cm.model);
  }();
  lap(st.plan);
  std::shared_ptr<const rt::PackedModel> packed = [&] {
    obs::SpanScope sp("runtime.pack", obs::Cat::kBench);
    return rt::pack_model_weights(cm.model, kernels::BackendConfig::fast());
  }();
  lap(st.pack);
  {
    obs::SpanScope sp("runtime.construct", obs::Cat::kBench);
    l.interp = std::make_unique<rt::Interpreter>(std::move(cm.model), std::move(plan),
                                                 kernels::BackendConfig::fast(), packed);
  }
  lap(st.construct);
  l.interp->set_profiling(traced);
  const CounterWindow counters;
  rt::Expected<TensorI8> out = [&] {
    obs::SpanScope sp("runtime.invoke", obs::Cat::kBench);
    return l.interp->try_invoke_quantized(im.input);
  }();
  lap(st.invoke);
  st.macs = static_cast<double>(counters.delta(obs::Counter::kKernelMacs));
  st.bytes_read = static_cast<double>(counters.delta(obs::Counter::kKernelBytesRead));
  st.bytes_written = static_cast<double>(counters.delta(obs::Counter::kKernelBytesWritten));
  st.fast_ops = static_cast<double>(counters.delta(obs::Counter::kBackendFastOps));
  st.ref_ops = static_cast<double>(counters.delta(obs::Counter::kBackendReferenceOps));
  if (out.ok())
    l.out = std::move(out).value();
  else
    l.error = out.error();
  l.report = std::move(cm.report);
  return l;
}

}  // namespace

Report run_model_deploy(const Options& opt) {
  Report r;
  std::vector<Image> images;
  SetupTimes setups;
  setups.run(kSetupReps, [&](SetupClock& clock) { images = build_images(opt.seed, clock); });
  const size_t n_img = images.size();

  LogHistogram loads_plain, raw_plain;
  double plain_ns = 0, plain_raw_ns = 0, traced_ns = 0;
  int64_t plain_loads = 0, traced_loads = 0;
  Stages stages;               // traced loads
  KernelTimes kernels_traced;  // first invokes of traced loads
  double crc_ns = 0;
  std::vector<double> mcu_ms(n_img, 0.0), sram_bytes(n_img, 0.0), cycles(n_img, 0.0),
      energy_uj(n_img, 0.0), ops_removed(n_img, 0.0), peak_saved(n_img, 0.0);
  std::vector<LogHistogram> per_model(n_img);
  obs::trace_reserve(1 << 16);

  double cal_before = calib_pass_ns();
  const int64_t t_end = now_ns() + static_cast<int64_t>(opt.seconds * 1e9);
  // Whole cycles over the images; in a traced run odd cycles are traced.
  for (int64_t cycle = 0; now_ns() < t_end || cycle < (opt.trace ? 2 : 1); ++cycle) {
    const bool traced = opt.trace && cycle % 2 == 1;
    obs::set_tracing(traced);
    for (size_t i = 0; i < n_img; ++i) {
      const Image& im = images[i];
      // Normalised by the mean of the calibration passes just before and
      // just after the load.
      Stages st;
      Loaded l = load(im, traced, st);
      const double cal_after = calib_pass_ns();
      const double scale = 2.0 * kNominalCalibNs / (cal_before + cal_after);
      cal_before = cal_after;
      st.scale(scale);
      const double ns = st.total();
      ++r.attempted;
      if (traced) {
        traced_ns += ns;
        ++traced_loads;
        stages.deserialize += st.deserialize;
        stages.compile += st.compile;
        stages.plan += st.plan;
        stages.pack += st.pack;
        stages.construct += st.construct;
        stages.invoke += st.invoke;
        stages.add_counts(st);
        if (l.interp) kernels_traced.add(l.interp->profile_report(), scale);
        const int64_t c0 = now_ns();
        const uint32_t crc = [&] {
          obs::SpanScope sp("reliability.image_crc", obs::Cat::kBench);
          return rt::crc32(im.bytes);
        }();
        crc_ns += static_cast<double>(now_ns() - c0) * scale;
        r.check(crc == im.crc, "model_deploy: " + im.name + " image bytes changed");
      } else {
        loads_plain.add(ns);
        raw_plain.add(ns / scale);
        per_model[i].add(ns);
        plain_ns += ns;
        plain_raw_ns += ns / scale;
        ++plain_loads;
      }
      if (l.error) {
        ++r.failed;
        r.check(false, "model_deploy: " + im.name + " failed to load: " + l.error->to_string());
        continue;
      }
      const auto got = l.out.span();
      r.check(std::equal(got.begin(), got.end(), im.expected.begin(), im.expected.end()),
              "model_deploy: " + im.name + " first output differs from the reference oracle");
      if (cycle == 0) {
        const double lat_s = mcu::model_latency_s(*im.device, l.interp->model());
        mcu_ms[i] = lat_s * 1e3;
        cycles[i] = lat_s * im.device->clock_mhz * 1e6;
        energy_uj[i] = mcu::model_energy_j(*im.device, l.interp->model()) * 1e6;
        sram_bytes[i] = static_cast<double>(l.interp->memory_report().model_sram());
        ops_removed[i] = static_cast<double>(l.report.ops_removed());
        peak_saved[i] = static_cast<double>(l.report.peak_bytes_saved());
      }
    }
  }
  obs::set_tracing(false);

  auto sum = [](const std::vector<double>& v) { double s = 0; for (double x : v) s += x; return s; };
  const std::string n = std::to_string(plain_loads) + " loads";
  auto note = [&](double q, double unit) {
    return "raw " + std::to_string(raw_plain.percentile(q) / unit) + ", " + n + ", " +
           std::to_string(loads_plain.beyond(q)) + " beyond";
  };
  const double setup_s = median(setups.norm);
  r.add_e2e("setup_s", setup_s, "s", setups.note());
  r.add_e2e("peak_rss_mb", peak_rss_mb(), "MB");
  r.add_e2e("p50_us", loads_plain.percentile(0.50) / 1e3, "us", note(0.50, 1e3));
  r.add_e2e("p99_us", loads_plain.percentile(0.99) / 1e3, "us", note(0.99, 1e3));
  r.add_e2e("ops_per_s", static_cast<double>(plain_loads) / (plain_ns * 1e-9), "1/s",
            "raw " + std::to_string(static_cast<double>(plain_loads) / (plain_raw_ns * 1e-9)) +
                " cold loads per second");
  r.add_e2e("mcu_sram_kb", sum(sram_bytes) / 1024.0, "KB", "sum over the 5 compiled models");

  r.add_detail("setup_s", setup_s, "s", setups.note());
  r.add_detail("peak_rss_mb", peak_rss_mb(), "MB");
  r.add_detail("fail_share", static_cast<double>(r.failed) / static_cast<double>(r.attempted), "ratio");
  r.add_detail("deploy_p50_ms", loads_plain.percentile(0.50) / 1e6, "ms", note(0.50, 1e6));
  r.add_detail("deploy_p99_ms", loads_plain.percentile(0.99) / 1e6, "ms", note(0.99, 1e6));
  r.add_detail("mcu_latency_ms", sum(mcu_ms), "ms", "sum over the 5 models, each on its target device");
  r.add_detail("mcu_sram_kb", sum(sram_bytes) / 1024.0, "KB", "sum over the 5 compiled models");
  for (size_t i = 0; i < n_img; ++i)
    r.add_detail("deploy_" + images[i].name + "_mean_ms", per_model[i].mean() / 1e6, "ms",
                 std::to_string(images[i].bytes.size() / 1024) + " KB image");

  if (!opt.trace) return r;

  const double tl = static_cast<double>(traced_loads);
  const std::string tn = "mean per load, " + std::to_string(traced_loads) + " traced loads";
  r.add_layer("runtime.deserialize_us", stages.deserialize / tl / 1e3, "us", tn);
  r.add_layer("compile.run_us", stages.compile / tl / 1e3, "us", tn);
  r.add_layer("runtime.plan_us", stages.plan / tl / 1e3, "us", tn);
  r.add_layer("runtime.pack_us", stages.pack / tl / 1e3, "us", tn);
  r.add_layer("runtime.construct_us", stages.construct / tl / 1e3, "us", tn);
  r.add_layer("runtime.invoke_us", stages.invoke / tl / 1e3, "us", "first invoke, " + tn);
  r.add_layer("runtime.overhead_us", (stages.invoke - kernels_traced.total_ns()) / tl / 1e3, "us",
              "first invoke minus the sum of per-op time");
  r.add_layer("runtime.invoke_errors", static_cast<double>(r.failed), "count");
  kernels_traced.emit(r, tl, "first invoke, " + tn);
  r.add_layer("kernels.macs", stages.macs / tl, "count", "first invoke, per load");
  r.add_layer("kernels.bytes_read", stages.bytes_read / tl, "B", "first invoke, per load");
  r.add_layer("kernels.bytes_written", stages.bytes_written / tl, "B", "first invoke, per load");
  const double ops = stages.fast_ops + stages.ref_ops;
  r.add_layer("kernels.fast_op_share", ops > 0 ? stages.fast_ops / ops : 0.0, "ratio", "first invokes");
  r.add_layer("compile.ops_removed", sum(ops_removed), "count", "sum over the 5 models");
  r.add_layer("compile.peak_bytes_saved", sum(peak_saved), "B", "sum over the 5 models");
  r.add_layer("reliability.weights_crc_us", crc_ns / tl / 1e3, "us",
              "rt::crc32 over one serialized image (the load-time CRC check)");
  r.add_layer("mcu.predicted_cycles", sum(cycles), "cycles", "sum over the 5 models");
  r.add_layer("mcu.predicted_uj", sum(energy_uj), "uJ", "sum over the 5 models");
  const double plain_mean = plain_loads ? plain_ns / static_cast<double>(plain_loads) : 0.0;
  r.add_layer("obs.trace_overhead", plain_mean > 0 ? traced_ns / tl / plain_mean - 1.0 : 0.0,
              "ratio", "traced mean load / untraced mean load - 1 (whole cycles)");
  return r;
}

}  // namespace perfbench
