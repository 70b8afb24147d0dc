// Graph-compiler bench: arena-peak and latency deltas of the compile
// pipeline (src/compile/) on the Fig.-2 model family (KWS DS-CNNs and the
// MobileNetV2-style VWW MicroNets).
//
// Each model is converted in the converter's *naive* form (activations as
// standalone unit-window clamp ops — the shape a straightforward front-end
// emits) and then compiled with every pass enabled. The bench reports, per
// model: planned arena peak before/after, ops removed, activations fused,
// and the compiled/uncompiled latency ratio, plus the differential-harness
// invoke count proving compiled outputs byte-identical to uncompiled at
// MN_THREADS 1/2/8.
//
// The KWS chains demonstrate op-count/latency wins; the peak reduction shows
// up on the VWW models, whose widest expansion tensors are immediately
// downsampled — in naive form the activation site holds *two* copies of the
// widest tensor live, while the fused form pairs it with a smaller neighbor.
// (A stride-1 depthwise at the widest width — the KWS shape — pins the peak
// at 2x widest either way, so those honestly report zero savings.)
//
// Gated by tools/mn_regress (check-regression): "..._compiled_peak_..."
// metrics use the one-sided arena-peak upper bound (shrinking further is an
// improvement, growing even one byte means a pass stopped firing); ops and
// fusion counts are exact; the latency ratio (the median of per-pair ratios
// over interleaved invokes) gates through the generous host-time tail rule.
#include <algorithm>
#include <chrono>

#include "bench_util.hpp"
#include "compile/compile.hpp"
#include "parallel/pool.hpp"
#include "runtime/planner.hpp"
#include "tensor/rng.hpp"

using namespace mn;

namespace {

// Median over `reps` pairs of one invoke's host-time ratio after/before.
// Each pair times the two interpreters back to back, alternating which goes
// first, so a speed phase of a shared host lands on both sides of a ratio
// rather than on every "before" or every "after" invoke. Timed on one
// thread: with four pool threads, wake-up latency spread the ratio from
// 0.34 to 0.70 between identical runs; on one it stayed within 0.48-0.56.
double median_latency_ratio(rt::Interpreter& before, rt::Interpreter& after,
                            const TensorI8& in, int reps) {
  parallel::set_threads(1);
  const auto invoke_ns = [&](rt::Interpreter& interp) {
    const auto t0 = std::chrono::steady_clock::now();
    (void)interp.invoke_quantized(in);
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::nano>(t1 - t0).count();
  };
  (void)invoke_ns(before);  // first invokes touch cold arenas
  (void)invoke_ns(after);
  std::vector<double> ratios;
  ratios.reserve(static_cast<size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const bool before_first = i % 2 == 0;
    const double first = invoke_ns(before_first ? before : after);
    const double second = invoke_ns(before_first ? after : before);
    const double ns_before = before_first ? first : second;
    const double ns_after = before_first ? second : first;
    ratios.push_back(ns_before > 0 ? ns_after / ns_before : 1.0);
  }
  parallel::set_threads(0);
  std::sort(ratios.begin(), ratios.end());
  return ratios[ratios.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opt = bench::parse_args(argc, argv);
  bench::print_header(
      "Graph compiler: arena-peak + latency deltas, fig2 model family");
  bench::Reporter report("compile", opt);

  models::BuildOptions bo;
  bo.seed = opt.seed;
  bo.qat = false;

  struct Case {
    std::string name;
    nn::Graph graph;
    Shape input;
  };
  std::vector<Case> cases;
  {
    auto c = models::micronet_kws(models::ModelSize::kS);
    cases.push_back({"kws_s", models::build_ds_cnn(c, bo), c.input});
  }
  {
    auto c = models::micronet_kws(models::ModelSize::kM);
    cases.push_back({"kws_m", models::build_ds_cnn(c, bo), c.input});
  }
  {
    auto c = models::micronet_vww(models::ModelSize::kS);
    cases.push_back({"vww_s", models::build_mobilenet_v2(c, bo), c.input});
  }
  if (opt.full) {
    auto kl = models::micronet_kws(models::ModelSize::kL);
    cases.push_back({"kws_l", models::build_ds_cnn(kl, bo), kl.input});
    auto vm = models::micronet_vww(models::ModelSize::kM);
    cases.push_back({"vww_m", models::build_mobilenet_v2(vm, bo), vm.input});
  }

  const std::vector<int> w{10, 14, 14, 12, 10, 10, 12};
  bench::print_row({"model", "peak before", "peak after", "saved", "ops-",
                    "fused", "lat ratio"},
                   w);

  for (Case& c : cases) {
    report.phase(c.name);
    const rt::ModelDef naive = bench::calibrated_model(
        c.graph, c.input, "micronet-" + c.name, 8, 8,
        /*fuse_activations=*/false);

    const rt::MemoryPlan plan_before = rt::plan_memory(naive);
    const int64_t peak_before =
        plan_before.peak_live_bytes(static_cast<int>(naive.ops.size()));

    compile::CompiledModel compiled =
        compile::compile_model(naive, compile::CompileConfig::all());
    const rt::MemoryPlan plan_after = rt::plan_memory(compiled.model);
    const int64_t peak_after =
        plan_after.peak_live_bytes(static_cast<int>(compiled.model.ops.size()));

    // The contract the optimization rides on: byte-identical outputs at
    // MN_THREADS 1/2/8 on randomized inputs.
    const int64_t diff_invokes = compile::verify_bit_identical(
        naive, compiled.model, opt.seed + 77, /*trials=*/2, {1, 2, 8});

    rt::Interpreter before(naive, plan_before);
    rt::Interpreter after(compiled.model, plan_after);
    Rng rng(opt.seed + 7);
    TensorI8 in(c.input);
    for (int64_t i = 0; i < in.size(); ++i)
      in[i] = static_cast<int8_t>(rng.uniform_int(-128, 127));
    const int reps = opt.full ? 101 : 31;
    const double ratio = median_latency_ratio(before, after, in, reps);

    const compile::CompileReport& r = compiled.report;
    int64_t fused = 0;
    for (const auto& p : r.passes) fused += p.activations_fused;
    bench::print_row(
        {c.name, bench::fmt_kb(peak_before), bench::fmt_kb(peak_after),
         bench::fmt_kb(peak_before - peak_after),
         std::to_string(r.ops_removed()), std::to_string(fused),
         bench::fmt(ratio, 3)},
        w);
    std::printf("%s", r.summary().c_str());

    report.metric(c.name + "_uncompiled_peak_live_bytes",
                  static_cast<double>(peak_before));
    report.metric(c.name + "_uncompiled_arena_bytes",
                  static_cast<double>(plan_before.arena_bytes));
    report.metric(c.name + "_compiled_peak_live_bytes",
                  static_cast<double>(peak_after));
    report.metric(c.name + "_compiled_peak_arena_bytes",
                  static_cast<double>(plan_after.arena_bytes));
    report.metric(c.name + "_ops_removed_count",
                  static_cast<double>(r.ops_removed()));
    report.metric(c.name + "_activations_fused_count",
                  static_cast<double>(fused));
    report.metric(c.name + "_differential_invokes",
                  static_cast<double>(diff_invokes));
    report.metric(c.name + "_latency_ratio_p50", ratio);
  }

  report.finish();
  return 0;
}
