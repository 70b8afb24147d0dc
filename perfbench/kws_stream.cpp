// kws_stream: one always-on wake-word stream, closed loop, one caller, one
// worker thread.
//
// Why this workload: it is the paper's deployed KWS path. Every 20 ms hop of
// raw audio runs StreamingMfcc::push -> window(49) -> Interpreter::try_invoke
// (quantize, invoke, dequantize) -> PosteriorSmoother::push on KWS-M. Runtime
// and kernels take nearly all of a hop, depthwise alone over half the invoke,
// so kernel and interpreter changes show here; DSP's share is measured.
//
// Host speed drifts on shared machines, so every hop is normalised by the
// calibration passes (calib.hpp) timed just before and just after it:
// reported times are what the hop would take on a host whose calibration
// pass takes 100 us. Raw times are printed beside them.
#include <algorithm>
#include <memory>
#include <optional>

#include "calib.hpp"
#include "compile/compile.hpp"
#include "datasets/audio_synth.hpp"
#include "datasets/kws.hpp"
#include "dsp/streaming.hpp"
#include "kernels/backend.hpp"
#include "mcu/perf_model.hpp"
#include "models/backbones.hpp"
#include "nn/graph.hpp"
#include "quant/quant.hpp"
#include "runtime/interpreter.hpp"
#include "runtime/planner.hpp"
#include "tensor/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace mn;

namespace {

constexpr int kHop = 320;           // 20 ms at 16 kHz
constexpr double kHopSeconds = 0.02;
constexpr int kWindow = 49;         // MFCC frames per model input (~1 s)
constexpr int kBlock = 16;          // hops per block; a traced run alternates blocks
constexpr int kCheckEvery = 37;     // hops between output checks
constexpr int kSetupReps = 5;
constexpr int kAudioClips = 24;     // seconds of generated audio, looped

struct KwsSetup {
  data::KwsConfig kcfg;
  rt::ModelDef converted;                    // converter output, uncompiled
  std::unique_ptr<rt::Interpreter> interp;   // compiled, fast backend
  std::unique_ptr<rt::Interpreter> oracle;   // uncompiled, reference backend
  compile::CompileReport compile_report;
  std::vector<float> audio;
};

std::unique_ptr<KwsSetup> build_setup(uint64_t seed, SetupClock& clock) {
  auto s = std::make_unique<KwsSetup>();
  const models::DsCnnConfig cfg = models::micronet_kws(models::ModelSize::kM);
  models::BuildOptions bo;
  bo.seed = seed;
  bo.qat = false;
  nn::Graph graph = models::build_ds_cnn(cfg, bo);
  s->converted = calibrated_model(graph, cfg.input, "micronet-kws_m", 8,
                                  /*fuse_activations=*/true, seed ^ 0xCA11B);
  clock.lap();

  compile::CompiledModel cm =
      compile::compile_model(s->converted, compile::CompileConfig::all());
  s->compile_report = cm.report;
  rt::MemoryPlan plan = rt::plan_memory(cm.model);
  auto packed = rt::pack_model_weights(cm.model, kernels::BackendConfig::fast());
  s->interp = std::make_unique<rt::Interpreter>(
      std::move(cm.model), std::move(plan), kernels::BackendConfig::fast(), packed);
  clock.lap();
  s->oracle = std::make_unique<rt::Interpreter>(
      s->converted, rt::plan_memory(s->converted), kernels::BackendConfig::reference());
  clock.lap();

  // Keyword audio: a random word (or an unknown one) per second, with noise.
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 11);
  const int words = s->kcfg.num_keywords + s->kcfg.num_unknown_words;
  for (int i = 0; i < kAudioClips; ++i) {
    Rng crng = rng.fork(static_cast<uint64_t>(i) * 31 + 5);
    std::vector<float> wave =
        data::synth_keyword_waveform(s->kcfg, static_cast<int>(crng.uniform_int(0, words - 1)), crng);
    data::add_noise(wave, s->kcfg.noise_amplitude, crng);
    s->audio.insert(s->audio.end(), wave.begin(), wave.end());
    clock.lap();
  }
  s->audio.resize(s->audio.size() / kHop * kHop);
  return s;
}

// Layer times of the traced path: one hop's, or a sum over hops.
struct LayerSums {
  double push = 0, window = 0, quantize = 0, invoke = 0, dequantize = 0,
         smoother = 0;
  void add_scaled(const LayerSums& o, double f) {
    push += o.push * f;
    window += o.window * f;
    quantize += o.quantize * f;
    invoke += o.invoke * f;
    dequantize += o.dequantize * f;
    smoother += o.smoother * f;
  }
  double total() const { return push + window + quantize + invoke + dequantize + smoother; }
};

}  // namespace

Report run_kws_stream(const Options& opt) {
  Report r;
  std::unique_ptr<KwsSetup> s;
  SetupTimes setups;
  setups.run(kSetupReps, [&](SetupClock& clock) { s = build_setup(opt.seed, clock); });

  rt::Interpreter& interp = *s->interp;
  const rt::TensorDef& in_t = interp.model().tensors[static_cast<size_t>(interp.model().input_tensor)];
  const rt::TensorDef& out_t = interp.model().tensors[static_cast<size_t>(interp.model().output_tensor)];
  dsp::StreamingMfcc mfcc(s->kcfg.mel);
  dsp::PosteriorSmoother smoother(s->kcfg.num_classes(), 3, 0.6f);
  const int64_t audio_hops = static_cast<int64_t>(s->audio.size()) / kHop;

  int64_t hop_index = 0;
  auto next_chunk = [&] {
    const float* p = s->audio.data() + (hop_index % audio_hops) * kHop;
    ++hop_index;
    return std::span<const float>(p, kHop);
  };
  // Warm-up: fill the MFCC window (and caches) before the first timed hop.
  for (int i = 0; i < kWindow + 4; ++i) {
    mfcc.push(next_chunk());
    if (auto w = mfcc.window(kWindow)) (void)interp.try_invoke(*w);
  }

  LogHistogram hop_norm, hop_raw, traced_norm;
  LayerSums layers;
  KernelTimes kernels_traced;
  int64_t traced_hops = 0, checks = 0;
  int64_t traced_frames = 0;
  std::optional<CounterWindow> counters;
  obs::trace_reserve(1 << 16);

  const int64_t t_end = now_ns() + static_cast<int64_t>(opt.seconds * 1e9);
  for (int64_t block = 0; now_ns() < t_end; ++block) {
    // In a traced run, odd blocks are traced and even blocks are not, so the
    // tracing overhead is measured on the same stretch of host time.
    const bool traced = opt.trace && (block % 2 == 1);
    obs::set_tracing(traced);
    interp.set_profiling(traced);
    if (traced && !counters) counters.emplace();
    // calib[h] is taken just before hop h, calib[kBlock] after the last hop.
    double calib[kBlock + 1];
    double raw[kBlock];
    LayerSums hop_layers[kBlock];
    for (int h = 0; h < kBlock; ++h) {
      calib[h] = calib_pass_ns();
      LayerSums& hl = hop_layers[h];
      const std::span<const float> chunk = next_chunk();
      const int64_t frames0 = mfcc.frames_emitted();
      std::optional<TensorF> win;
      TensorF probs;
      bool ok = false;
      const int64_t t0 = now_ns();
      if (!traced) {
        mfcc.push(chunk);
        win = mfcc.window(kWindow);
        if (win) {
          rt::Expected<TensorF> out = interp.try_invoke(*win);
          ok = out.ok();
          if (ok) {
            probs = std::move(out).value();
            smoother.push(probs.span());
          }
        }
        raw[h] = static_cast<double>(now_ns() - t0);
      } else {
        // The same path with each layer call split out, timed and spanned.
        obs::SpanScope hop_span("kws.hop", obs::Cat::kBench, "hop", hop_index);
        int64_t a = t0, b = 0;
        auto lap = [&](double& acc) { b = now_ns(); acc += static_cast<double>(b - a); a = b; };
        { obs::SpanScope sp("dsp.mfcc_push", obs::Cat::kBench); mfcc.push(chunk); }
        lap(hl.push);
        { obs::SpanScope sp("dsp.window", obs::Cat::kBench); win = mfcc.window(kWindow); }
        lap(hl.window);
        if (win) {
          TensorI8 q;
          { obs::SpanScope sp("quant.quantize", obs::Cat::kBench); q = quant::quantize(*win, in_t.qp, in_t.bits); }
          lap(hl.quantize);
          rt::Expected<TensorI8> out_q = [&] {
            obs::SpanScope sp("runtime.invoke", obs::Cat::kBench);
            return interp.try_invoke_quantized(q);
          }();
          lap(hl.invoke);
          ok = out_q.ok();
          if (ok) {
            { obs::SpanScope sp("quant.dequantize", obs::Cat::kBench); probs = quant::dequantize(out_q.value(), out_t.qp); }
            lap(hl.dequantize);
            { obs::SpanScope sp("dsp.smoother", obs::Cat::kBench); smoother.push(probs.span()); }
            lap(hl.smoother);
          }
        }
        raw[h] = static_cast<double>(now_ns() - t0);
        traced_frames += mfcc.frames_emitted() - frames0;
      }
      ++r.attempted;
      if (!win || !ok) {
        ++r.failed;
        continue;
      }
      // Output check (untimed): the timed result must equal the compiled
      // fast interpreter's quantized output, which must equal the
      // uncompiled reference-backend oracle's byte for byte.
      if (r.attempted % kCheckEvery == 0) {
        const TensorI8 q = quant::quantize(*win, in_t.qp, in_t.bits);
        const bool was_profiling = interp.profiling();
        interp.set_profiling(false);
        obs::set_tracing(false);
        rt::Expected<TensorI8> fast = interp.try_invoke_quantized(q);
        rt::Expected<TensorI8> ref = s->oracle->try_invoke_quantized(q);
        interp.set_profiling(was_profiling);
        obs::set_tracing(traced);
        ++checks;
        const bool same =
            fast.ok() && ref.ok() &&
            std::equal(fast.value().span().begin(), fast.value().span().end(),
                       ref.value().span().begin(), ref.value().span().end());
        r.check(same, "kws_stream: hop " + std::to_string(r.attempted) +
                          " output differs from the reference oracle");
        if (fast.ok()) {
          const TensorF deq = quant::dequantize(fast.value(), out_t.qp);
          r.check(std::equal(deq.span().begin(), deq.span().end(),
                             probs.span().begin(), probs.span().end()),
                  "kws_stream: timed hop output differs from its re-invoke");
        }
      }
    }
    // Normalise each hop by the mean of the calibration passes just before
    // and just after it: this follows the host's speed phases hop by hop.
    calib[kBlock] = calib_pass_ns();
    double invoke_raw = 0, invoke_norm = 0;
    for (int h = 0; h < kBlock; ++h) {
      const double scale = 2.0 * kNominalCalibNs / (calib[h] + calib[h + 1]);
      invoke_raw += hop_layers[h].invoke;
      invoke_norm += hop_layers[h].invoke * scale;
      if (traced) {
        traced_norm.add(raw[h] * scale);
        layers.add_scaled(hop_layers[h], scale);
      } else {
        hop_norm.add(raw[h] * scale);
        hop_raw.add(raw[h]);
      }
    }
    if (traced) {
      traced_hops += kBlock;
      // The block's per-op profile is scaled like its invokes, so that the
      // per-op times stay a part of the invoke time.
      kernels_traced.add(interp.profile_report(), invoke_raw > 0 ? invoke_norm / invoke_raw : 1.0);
      interp.reset_profile();
    }
  }
  obs::set_tracing(false);
  interp.set_profiling(false);
  r.check(checks > 0, "kws_stream: no hop was checked");

  // --- end-to-end --------------------------------------------------------
  const int64_t hops = hop_norm.count();
  const double norm_s = hop_norm.sum() * 1e-9, raw_s = hop_raw.sum() * 1e-9;
  const mcu::Device& dev = mcu::stm32f746zg();
  const double mcu_ms = mcu::model_latency_s(dev, interp.model()) * 1e3;
  const double sram_kb = static_cast<double>(interp.memory_report().model_sram()) / 1024.0;
  const std::string n = std::to_string(hops) + " hops";
  auto raw_note = [&](double q) {
    return "raw " + std::to_string(hop_raw.percentile(q) / 1e3) + " us, " + n +
           ", " + std::to_string(hop_norm.beyond(q)) + " beyond";
  };
  const double setup_s = median(setups.norm);
  r.add_e2e("setup_s", setup_s, "s", setups.note());
  r.add_e2e("peak_rss_mb", peak_rss_mb(), "MB");
  r.add_e2e("p50_us", hop_norm.percentile(0.50) / 1e3, "us", raw_note(0.50));
  r.add_e2e("p99_us", hop_norm.percentile(0.99) / 1e3, "us", raw_note(0.99));
  r.add_e2e("ops_per_s", static_cast<double>(hops) / norm_s, "1/s",
            "raw " + std::to_string(static_cast<double>(hops) / raw_s) + " hops/s");
  r.add_e2e("mcu_sram_kb", sram_kb, "KB", "KWS-M compiled, model_sram()");

  r.add_detail("setup_s", setup_s, "s", setups.note());
  r.add_detail("peak_rss_mb", peak_rss_mb(), "MB");
  r.add_detail("fail_share", hops ? static_cast<double>(r.failed) / static_cast<double>(r.attempted) : 0.0, "ratio");
  r.add_detail("hop_p50_us", hop_norm.percentile(0.50) / 1e3, "us", raw_note(0.50));
  r.add_detail("hop_p99_us", hop_norm.percentile(0.99) / 1e3, "us", raw_note(0.99));
  r.add_detail("stream_rtf", static_cast<double>(hops) * kHopSeconds / norm_s, "x",
               "raw " + std::to_string(static_cast<double>(hops) * kHopSeconds / raw_s) + " x");
  r.add_detail("mcu_latency_ms", mcu_ms, "ms", "KWS-M on " + dev.name);
  r.add_detail("mcu_sram_kb", sram_kb, "KB", "KWS-M on " + dev.name);
  r.add_detail("checked_hops", static_cast<double>(checks), "count");

  if (!opt.trace) return r;

  // --- per-layer (traced blocks) -------------------------------------------
  const double th = static_cast<double>(traced_hops);
  const std::string tn = "mean per hop, normalised, " + std::to_string(traced_hops) + " traced hops";
  auto per_hop_us = [&](double ns) { return th > 0 ? ns / th / 1e3 : 0.0; };
  r.add_layer("dsp.mfcc_push_us", per_hop_us(layers.push), "us", tn);
  r.add_layer("dsp.window_us", per_hop_us(layers.window), "us", tn);
  r.add_layer("dsp.smoother_us", per_hop_us(layers.smoother), "us", tn);
  r.add_layer("dsp.frames", static_cast<double>(traced_frames), "count", "frames emitted in traced hops");
  r.add_layer("quant.quantize_us", per_hop_us(layers.quantize), "us", tn);
  r.add_layer("quant.dequantize_us", per_hop_us(layers.dequantize), "us", tn);
  r.add_layer("runtime.invoke_us", per_hop_us(layers.invoke), "us", tn);
  r.add_layer("runtime.overhead_us", per_hop_us(layers.invoke - kernels_traced.total_ns()), "us",
              "invoke minus the sum of per-op time");
  r.add_layer("runtime.ops", static_cast<double>(interp.model().ops.size()), "count", "ops per invoke");
  r.add_layer("runtime.arena_kb", static_cast<double>(interp.memory_plan().arena_bytes) / 1024.0, "KB");
  r.add_layer("runtime.invoke_errors", static_cast<double>(r.failed), "count");
  kernels_traced.emit(r, th, tn);
  const double invokes = static_cast<double>(std::max<int64_t>(1, counters->delta(obs::Counter::kInterpreterInvokes)));
  r.add_layer("kernels.macs", static_cast<double>(counters->delta(obs::Counter::kKernelMacs)) / invokes, "count", "per invoke");
  r.add_layer("kernels.bytes_read", static_cast<double>(counters->delta(obs::Counter::kKernelBytesRead)) / invokes, "B", "per invoke");
  r.add_layer("kernels.bytes_written", static_cast<double>(counters->delta(obs::Counter::kKernelBytesWritten)) / invokes, "B", "per invoke");
  const double fast_ops = static_cast<double>(counters->delta(obs::Counter::kBackendFastOps));
  const double ref_ops = static_cast<double>(counters->delta(obs::Counter::kBackendReferenceOps));
  r.add_layer("kernels.fast_op_share", fast_ops + ref_ops > 0 ? fast_ops / (fast_ops + ref_ops) : 0.0, "ratio");
  r.add_layer("compile.ops_removed", static_cast<double>(s->compile_report.ops_removed()), "count", "KWS-M, at setup");
  r.add_layer("compile.peak_bytes_saved", static_cast<double>(s->compile_report.peak_bytes_saved()), "B", "KWS-M, at setup");
  r.add_layer("mcu.predicted_cycles", mcu_ms * 1e-3 * dev.clock_mhz * 1e6, "cycles", dev.name);
  r.add_layer("mcu.predicted_uj", mcu::model_energy_j(dev, interp.model()) * 1e6, "uJ", dev.name);
  const double untraced_p50 = hop_norm.percentile(0.5);
  r.add_layer("obs.trace_overhead", untraced_p50 > 0 ? traced_norm.percentile(0.5) / untraced_p50 - 1.0 : 0.0,
              "ratio", "traced p50 hop / untraced p50 hop - 1");
  r.add_detail("traced_hop_mean_us", per_hop_us(traced_norm.sum()), "us", "normalised");
  r.add_detail("traced_layer_sum_us", per_hop_us(layers.total()), "us",
               "dsp + quant + runtime, normalised");
  return r;
}

}  // namespace perfbench
