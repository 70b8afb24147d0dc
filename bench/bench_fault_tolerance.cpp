// Fault-tolerance campaign: accuracy vs. weight-bit-flip rate for int8 vs
// packed-int4 KWS models (a deployment-reliability extension of the paper's
// quantization story — int4 packs two weights per byte, so a single flash
// bit fault perturbs a weight twice as hard in relative terms), plus the
// load-time CRC integrity check on corrupted serialized images.
//
// Emits a human-readable table followed by a machine-readable JSON block
// ("--- JSON ---" delimiter) with the full accuracy-vs-rate curves.
//
// --smoke trains on a few samples for one epoch and runs one trial per rate:
// every stage still runs (train, convert, load, flip, invoke, CRC check,
// JSON), in seconds. The ctest bench_fault_tolerance_smoke runs it and
// asserts exit 0; the accuracies it prints mean nothing.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "datasets/kws.hpp"
#include "reliability/fault_injector.hpp"

using namespace mn;

namespace {

struct EvalResult {
  double accuracy = 0.0;
  int64_t failed_invokes = 0;  // typed-error returns (counted as wrong)
};

// Accuracy through the hardened path: a corrupted model that trips a typed
// error (NaN output, canary, ...) scores a miss instead of crashing the
// campaign.
EvalResult eval_accuracy(rt::Interpreter& interp, const data::Dataset& test) {
  EvalResult r;
  int64_t correct = 0;
  for (const data::Example& e : test.examples) {
    rt::Expected<TensorF> out = interp.try_invoke(e.input);
    if (!out.ok()) {
      ++r.failed_invokes;
      continue;
    }
    const TensorF& probs = out.value();
    int64_t best = 0;
    for (int64_t c = 1; c < probs.size(); ++c)
      if (probs[c] > probs[best]) best = c;
    if (best == e.label) ++correct;
  }
  r.accuracy = static_cast<double>(correct) / static_cast<double>(test.size());
  return r;
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

struct CurvePoint {
  double rate = 0.0;
  double mean_accuracy = 0.0;
  double min_accuracy = 1.0;
  double max_accuracy = 0.0;
  double mean_bits_flipped = 0.0;
  int64_t failed_invokes = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opt = bench::parse_args(argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  bench::print_header("Fault tolerance: accuracy vs weight-bit-flip rate");

  data::KwsConfig kcfg;
  const int per_class = smoke ? 4 : opt.full ? 40 : 24;
  data::Dataset all = data::make_kws_dataset(kcfg, per_class, opt.seed);
  auto [train, test] = data::split(all, 0.3);
  const int divisor = opt.full ? 2 : 4;

  // --chaos=<seed>:<rate> (shared with bench_serving, see bench_util) pins
  // the campaign to one fault schedule: the injection seed comes from the
  // chaos seed and the sweep collapses to {clean, rate}.
  std::vector<double> rates{0.0,  1e-5, 3e-5, 1e-4,
                            3e-4, 1e-3, 3e-3, 1e-2};
  uint64_t inject_seed = opt.seed;
  if (opt.chaos.enabled) {
    rates = {0.0, opt.chaos.rate};
    inject_seed = opt.chaos.seed;
    std::printf("  chaos schedule: seed %llu, rate %g\n",
                static_cast<unsigned long long>(opt.chaos.seed),
                opt.chaos.rate);
  }
  const int trials = smoke ? 1 : opt.full ? 6 : 3;

  struct ModelRun {
    std::string name;
    int bits;
    int64_t weights_bytes = 0;
    double clean_accuracy = 0.0;
    std::string fit_small_mcu;
    std::vector<CurvePoint> curve;
  };
  std::vector<ModelRun> runs;

  for (const int bits : {8, 4}) {
    ModelRun run;
    run.name = bits == 8 ? "kws_int8" : "kws_int4";
    run.bits = bits;

    // Train a scaled QAT proxy (progressive 8->4-bit for the int4 model,
    // same recipe as bench_table2).
    models::DsCnnConfig cfg = bench::scale_ds_cnn(
        bits == 8 ? models::micronet_kws(models::ModelSize::kM)
                  : models::micronet_kws_int4(),
        divisor);
    models::BuildOptions bo;
    bo.seed = opt.seed + static_cast<uint64_t>(bits);
    bo.qat = true;
    nn::Graph g = models::build_ds_cnn(cfg, bo);
    nn::TrainConfig warm;
    warm.epochs = smoke ? 1 : opt.full ? 20 : 14;
    warm.batch_size = 48;
    warm.lr_start = 0.08;
    warm.seed = opt.seed;
    nn::fit(g, train, warm);
    if (bits == 4) {
      models::set_graph_quantization(g, 4, 4);
      nn::TrainConfig fine = warm;
      fine.epochs = smoke ? 1 : opt.full ? 12 : 8;
      fine.lr_start = 0.02;
      fine.seed = opt.seed + 1;
      nn::fit(g, train, fine);
    }
    rt::ConvertOptions co;
    co.name = run.name;
    co.weight_bits = bits;
    co.act_bits = bits;
    const rt::ModelDef base = rt::convert(g, co);
    run.weights_bytes = base.weights_bytes();

    {
      rt::Interpreter clean(base);
      run.clean_accuracy = eval_accuracy(clean, test).accuracy;
      run.fit_small_mcu =
          mcu::check_fit(mcu::stm32f446re(), clean.memory_report()).describe();
    }

    bench::print_subheader(run.name + " (" + std::to_string(run.weights_bytes) +
                           " weight bytes, clean acc " +
                           bench::fmt(run.clean_accuracy * 100.0, 1) + "%)");
    const std::vector<int> w{12, 12, 12, 12, 12, 10};
    bench::print_row({"flip_rate", "acc_mean", "acc_min", "acc_max",
                      "bits_flip", "rt_errs"},
                     w);
    for (size_t ri = 0; ri < rates.size(); ++ri) {
      CurvePoint pt;
      pt.rate = rates[ri];
      double acc_sum = 0.0, flips_sum = 0.0;
      for (int t = 0; t < trials; ++t) {
        // Faults land in the deployed model's flash after load, where no
        // load-time check sees them. A flipped weight is still int8, so the
        // MAC sums keep the accumulator bound ModelDef::check proved; a
        // flipped bias can leave it, and the bias add wraps (defined, and
        // the same on every backend).
        rt::Interpreter interp(base);
        reliability::FaultInjector fi(hash_combine(
            hash_combine(inject_seed, static_cast<uint64_t>(bits) * 1000 + ri),
            static_cast<uint64_t>(t)));
        flips_sum +=
            static_cast<double>(fi.flip_bits(interp.mutable_weights(), pt.rate));
        const EvalResult er = eval_accuracy(interp, test);
        acc_sum += er.accuracy;
        pt.failed_invokes += er.failed_invokes;
        pt.min_accuracy = std::min(pt.min_accuracy, er.accuracy);
        pt.max_accuracy = std::max(pt.max_accuracy, er.accuracy);
      }
      pt.mean_accuracy = acc_sum / trials;
      pt.mean_bits_flipped = flips_sum / trials;
      run.curve.push_back(pt);
      bench::print_row({num(pt.rate), bench::fmt(pt.mean_accuracy * 100.0, 1),
                        bench::fmt(pt.min_accuracy * 100.0, 1),
                        bench::fmt(pt.max_accuracy * 100.0, 1),
                        bench::fmt(pt.mean_bits_flipped, 1),
                        std::to_string(pt.failed_invokes)},
                       w);
    }
    runs.push_back(std::move(run));
  }

  // --- load-time CRC integrity check on a corrupted image -------------------
  bench::print_subheader("CRC integrity check");
  const rt::ModelDef reference = [&] {
    models::BuildOptions bo;
    bo.seed = opt.seed + 99;
    bo.qat = true;
    models::DsCnnConfig cfg =
        bench::scale_ds_cnn(models::micronet_kws(models::ModelSize::kS), 4);
    nn::Graph g = models::build_ds_cnn(cfg, bo);
    nn::TrainConfig tc;
    tc.epochs = 1;
    nn::fit(g, train, tc);
    return rt::convert(g, {.name = "crc_probe"});
  }();
  std::vector<uint8_t> image = reference.serialize();
  // Flip one bit deep inside the weights blob (the last quarter of the
  // image) — the classic aged-flash single-bit fault.
  image[image.size() - image.size() / 4] ^= 0x10;
  const auto corrupted_load = rt::ModelDef::try_deserialize(image);
  const bool rejected = !corrupted_load.ok();
  std::printf("  corrupted image rejected: %s (%s)\n", rejected ? "yes" : "NO",
              rejected ? rt::error_code_name(corrupted_load.code()) : "-");
  const auto clean_load = rt::ModelDef::try_deserialize(reference.serialize());
  std::printf("  pristine image accepted:  %s\n", clean_load.ok() ? "yes" : "NO");

  // --- JSON curve -----------------------------------------------------------
  std::string j = "{\n  \"bench\": \"fault_tolerance\",\n  \"dataset\": "
                  "\"synthetic_kws\",\n  \"trials_per_rate\": " +
                  std::to_string(trials) + ",\n  \"models\": [\n";
  for (size_t m = 0; m < runs.size(); ++m) {
    const ModelRun& r = runs[m];
    j += "    {\"name\": \"" + r.name + "\", \"weight_bits\": " +
         std::to_string(r.bits) + ", \"weights_bytes\": " +
         std::to_string(r.weights_bytes) + ",\n     \"clean_accuracy\": " +
         num(r.clean_accuracy) + ",\n     \"fit_small_mcu\": \"" +
         r.fit_small_mcu + "\",\n     \"curve\": [\n";
    for (size_t i = 0; i < r.curve.size(); ++i) {
      const CurvePoint& p = r.curve[i];
      j += "       {\"bit_flip_rate\": " + num(p.rate) +
           ", \"mean_accuracy\": " + num(p.mean_accuracy) +
           ", \"min_accuracy\": " + num(p.min_accuracy) +
           ", \"max_accuracy\": " + num(p.max_accuracy) +
           ", \"mean_bits_flipped\": " + num(p.mean_bits_flipped) +
           ", \"failed_invokes\": " + std::to_string(p.failed_invokes) + "}" +
           (i + 1 < r.curve.size() ? ",\n" : "\n");
    }
    j += "     ]}";
    j += (m + 1 < runs.size() ? ",\n" : "\n");
  }
  j += "  ],\n  \"crc_check\": {\"corrupted_load_rejected\": ";
  j += rejected ? "true" : "false";
  j += ", \"error_code\": \"";
  j += rejected ? rt::error_code_name(corrupted_load.code()) : "none";
  j += "\", \"pristine_load_ok\": ";
  j += clean_load.ok() ? "true" : "false";
  j += "}\n}\n";
  std::printf("\n--- JSON ---\n%s", j.c_str());
  return 0;
}
