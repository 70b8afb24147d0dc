// Shared fixtures for the serving suites (test_serve, test_soak): a tiny
// calibrated 12x8 DS-CNN tenant model, seeded clean inputs for it, and a
// VariantSpec built on that model.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "models/backbones.hpp"
#include "runtime/converter.hpp"
#include "serve/serve.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"

namespace mn::test {

inline rt::ModelDef tiny_model(uint64_t seed = 1, int weight_bits = 8,
                               int64_t stem = 8) {
  models::DsCnnConfig cfg;
  cfg.input = Shape{12, 8, 1};
  cfg.num_classes = 4;
  cfg.stem_channels = stem;
  cfg.stem_kh = 3;
  cfg.stem_kw = 3;
  cfg.blocks = {{8, 1}};
  models::BuildOptions opt;
  opt.seed = seed;
  opt.qat = false;
  nn::Graph g = models::build_ds_cnn(cfg, opt);
  Rng rng(seed + 1);
  TensorF batch(Shape{2, 12, 8, 1});
  for (int64_t i = 0; i < batch.size(); ++i)
    batch[i] = static_cast<float>(rng.normal(0.0, 0.5));
  const rt::RangeMap ranges = rt::calibrate_ranges(g, batch);
  rt::ConvertOptions co;
  co.name = "serve_tiny";
  co.weight_bits = weight_bits;
  co.act_bits = weight_bits;
  return rt::convert(g, co, &ranges);
}

inline std::vector<TensorF> clean_inputs(int n, uint64_t seed = 9) {
  Rng rng(seed);
  std::vector<TensorF> v;
  for (int i = 0; i < n; ++i) {
    TensorF t(Shape{12, 8, 1});
    for (int64_t k = 0; k < t.size(); ++k)
      t[k] = static_cast<float>(rng.normal(0.0, 0.5));
    v.push_back(std::move(t));
  }
  return v;
}

inline serve::VariantSpec make_variant(serve::Tick service_ticks,
                                       int instances, uint64_t seed = 1,
                                       int bits = 8) {
  serve::VariantSpec v;
  v.model = tiny_model(seed, bits);
  v.service_ticks = service_ticks;
  v.instances = instances;
  return v;
}

}  // namespace mn::test
