// serve_fleet: the two-tenant serving fleet under a 5% chaos schedule. Open
// loop in virtual ticks, driven by one caller thread.
//
// Why this workload: each 12x8 DS-CNN invoke takes tens of microseconds, so
// the scheduler, the worker pool and dispatch are a large share of a tick.
// Chaos (weight bit-flips, arena soft errors, stalls, NaN inputs) keeps the
// runtime's construction path (quarantine re-plan and re-image) running in
// steady state beside the read path.
//
// A run is a series of fixed-length episodes, each on a freshly built engine
// (its build is the set-up). Every decision is made in virtual time, so every
// episode of a run must end with the same outcome fingerprint and counts.
//
// Host times are normalised per block of kCalibEvery ticks by calibration
// passes taken around the block (calib.hpp). Tick latency percentiles are
// over busy ticks, those that dispatch at least one request: the other half
// of the ticks only do ~1 us of bookkeeping, and the median of that moved by
// 15-20% from run to run with nothing changed.
//
// The pool runs with no workers: with two, tick times on a shared 4-vCPU host
// spread by 13-18% between runs, because thread wake-up latency does not
// follow the calibration loop; with none they stay within a few percent.
// Parallel regions still run, inline on the caller.
#include <cstdio>
#include <memory>

#include "calib.hpp"
#include "compile/compile.hpp"
#include "kernels/backend.hpp"
#include "models/backbones.hpp"
#include "nn/graph.hpp"
#include "runtime/rt_error.hpp"
#include "serve/engine.hpp"
#include "tensor/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace mn;

namespace {

constexpr int64_t kEpisodeTicks = 20000;
constexpr int64_t kRebuildEvery = 2000;  // traced: ticks between timed make_replica calls
constexpr int64_t kCalibEvery = 500;     // ticks per normalisation block

rt::ModelDef ds_cnn_12x8(uint64_t seed, int bits, int64_t stem,
                         std::vector<models::DsCnnBlock> blocks,
                         const std::string& name) {
  models::DsCnnConfig cfg;
  cfg.input = Shape{12, 8, 1};
  cfg.num_classes = 4;
  cfg.stem_channels = stem;
  cfg.stem_kh = 3;
  cfg.stem_kw = 3;
  cfg.blocks = std::move(blocks);
  models::BuildOptions bo;
  bo.seed = seed;
  bo.qat = false;
  nn::Graph g = models::build_ds_cnn(cfg, bo);
  return calibrated_model(g, cfg.input, name, bits, /*fuse_activations=*/true, 0xCA11B);
}

std::vector<TensorF> make_inputs(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<TensorF> inputs;
  for (int i = 0; i < n; ++i) {
    TensorF t(Shape{12, 8, 1});
    for (int64_t k = 0; k < t.size(); ++k) t[k] = static_cast<float>(rng.normal(0.0, 0.5));
    inputs.push_back(std::move(t));
  }
  return inputs;
}

serve::VariantSpec variant(rt::ModelDef model, serve::Tick service_ticks, int instances) {
  serve::VariantSpec v;
  v.model = std::move(model);
  v.service_ticks = service_ticks;
  v.instances = instances;
  v.backend = kernels::BackendConfig::fast();
  v.compile = compile::CompileConfig::all();
  return v;
}

serve::TenantConfig tenant(const std::string& name) {
  serve::TenantConfig tc;
  tc.name = name;
  tc.queue_capacity = 32;
  tc.deadline_ticks = 24;
  tc.max_retries = 2;
  tc.retry_backoff_ticks = 1;
  tc.breaker_threshold = 8;
  tc.breaker_cooldown_ticks = 16;
  return tc;
}

// The fleet: tenant 0 (drop-oldest) has an int8 primary and an int4
// fallback; tenant 1 (reject-newest) a smaller int8 primary.
std::unique_ptr<serve::ServingEngine> build_engine(uint64_t seed) {
  serve::EngineConfig ecfg;
  ecfg.canary_period_ticks = 8;
  ecfg.quarantine_cooldown_ticks = 4;
  ecfg.chaos.seed = 42;  // bench_serving's schedule; the seed varies models and inputs
  ecfg.chaos.fault_rate = 0.05;
  ecfg.chaos.stall_ticks = 8;
  ecfg.chaos.flip_bits = 4;
  ecfg.chaos.arena_soft_error_period = 7;
  auto engine = std::make_unique<serve::ServingEngine>(ecfg);

  serve::TenantConfig t0 = tenant("kws_dropoldest");
  t0.shed_policy = serve::ShedPolicy::kDropOldest;
  t0.degrade_queue_depth = 6;
  t0.degrade_hold_ticks = 8;
  engine->register_tenant(
      t0, variant(ds_cnn_12x8(seed, 8, 8, {{8, 1}, {12, 1}}, "kws_int8"), 4, 3),
      variant(ds_cnn_12x8(seed + 7, 4, 4, {{8, 1}}, "kws_int4"), 2, 2),
      make_inputs(8, seed + 100));

  serve::TenantConfig t1 = tenant("kws_reject");
  t1.shed_policy = serve::ShedPolicy::kRejectNewest;
  t1.deadline_ticks = 16;
  engine->register_tenant(t1, variant(ds_cnn_12x8(seed + 13, 8, 8, {{8, 1}}, "kws_b"), 4, 2),
                          std::nullopt, make_inputs(8, seed + 200));
  return engine;
}

// Arrivals: tenant 0 gets 1 req/tick against a capacity of 0.75, tenant 1
// gets 0.25 req/tick.
void submit_tick(serve::ServingEngine& e, int64_t tick) {
  (void)e.submit(0);
  if (tick % 4 == 0) (void)e.submit(1);
}

struct EpisodeResult {
  serve::ServeStats stats;
  uint64_t fingerprint = 0;
  int64_t slo_p99_ticks = 0;
  double run_ns = 0;        // ticks + drain, normalised
  double run_raw_ns = 0;
  double tick_ns = 0;        // normalised
  double submit_ns = 0, step_ns = 0;  // traced only
  double replica_invoke_us = 0;
  double rebuild_ns = 0, crc_ns = 0;
  int64_t rebuilds = 0, crcs = 0;
  int64_t invokes = 0, regions = 0, chunks = 0, stolen = 0;
  int64_t macs = 0, bytes_read = 0, bytes_written = 0, fast_ops = 0, ref_ops = 0;
  int64_t arena_bytes = 0, ops = 0;
};

EpisodeResult run_episode(serve::ServingEngine& engine, bool traced,
                          LogHistogram& busy_hist, LogHistogram& busy_raw, Report& r) {
  EpisodeResult ep;
  obs::set_tracing(traced);
  const CounterWindow counters;
  // Host time is normalised per block of kCalibEvery ticks by the mean of
  // the calibration medians taken just before and just after the block.
  struct TickSample {
    double ns;
    bool busy;  // dispatched at least one request
  };
  std::vector<TickSample> block_dt;
  block_dt.reserve(kCalibEvery);
  double block_submit = 0, block_step = 0, block_rebuild = 0, block_crc = 0;
  double cal_before = calib_median_ns(3), scale = 1.0, raw_ns = 0;
  auto flush_block = [&] {
    const double cal_after = calib_median_ns(3);
    scale = 2.0 * kNominalCalibNs / (cal_before + cal_after);
    cal_before = cal_after;
    for (const TickSample& t : block_dt) {
      if (t.busy) {
        busy_hist.add(t.ns * scale);
        busy_raw.add(t.ns);
      }
      ep.tick_ns += t.ns * scale;
      raw_ns += t.ns;
    }
    ep.submit_ns += block_submit * scale;
    ep.step_ns += block_step * scale;
    ep.rebuild_ns += block_rebuild * scale;
    ep.crc_ns += block_crc * scale;
    block_dt.clear();
    block_submit = block_step = block_rebuild = block_crc = 0;
  };
  std::vector<uint32_t> pristine_crc;  // faults must never reach the pristine images
  for (int v = 0; v < engine.pool().num_variants(); ++v)
    pristine_crc.push_back(engine.pool().pristine(v).weights_crc());
  auto dispatches = [&] {
    int64_t n = 0;
    for (int v = 0; v < engine.pool().num_variants(); ++v) n += engine.variant_dispatches(v);
    return n;
  };
  for (int64_t tick = 0; tick < kEpisodeTicks; ++tick) {
    const int64_t dispatched = dispatches();
    const int64_t t0 = now_ns();
    if (!traced) {
      submit_tick(engine, tick);
      engine.step();
    } else {
      { obs::SpanScope sp("serve.submit", obs::Cat::kBench, "tick", tick); submit_tick(engine, tick); }
      const int64_t t1 = now_ns();
      { obs::SpanScope sp("serve.step", obs::Cat::kBench, "tick", tick); engine.step(); }
      const int64_t t2 = now_ns();
      block_submit += static_cast<double>(t1 - t0);
      block_step += static_cast<double>(t2 - t1);
    }
    const double dt = static_cast<double>(now_ns() - t0);
    block_dt.push_back({dt, dispatches() != dispatched});
    if (traced && tick % kRebuildEvery == 0) {
      // Untimed by the tick clock: the construction path a quarantine takes
      // (pool().make_replica) and the weights CRC a canary scan computes.
      const int v = static_cast<int>((tick / kRebuildEvery) % engine.pool().num_variants());
      const int64_t a = now_ns();
      { obs::SpanScope sp("serve.make_replica", obs::Cat::kBench, "variant", v); (void)engine.pool().make_replica(v); }
      const int64_t b = now_ns();
      uint32_t crc = 0;
      { obs::SpanScope sp("reliability.weights_crc", obs::Cat::kBench, "variant", v); crc = engine.pool().pristine(v).weights_crc(); }
      block_rebuild += static_cast<double>(b - a);
      block_crc += static_cast<double>(now_ns() - b);
      r.check(crc == pristine_crc[static_cast<size_t>(v)],
              "serve_fleet: a pristine image changed under chaos");
      ++ep.rebuilds;
      ++ep.crcs;
    }
    if (static_cast<int64_t>(block_dt.size()) == kCalibEvery) flush_block();
  }
  if (!block_dt.empty()) flush_block();
  const int64_t d0 = now_ns();
  const bool drained = engine.drain(kEpisodeTicks * 4 + 1024) >= 0 && engine.idle();
  const double drain_ns = static_cast<double>(now_ns() - d0);
  ep.run_ns = ep.tick_ns + drain_ns * scale;
  ep.run_raw_ns = raw_ns + drain_ns;
  obs::set_tracing(false);
  ep.invokes = counters.delta(obs::Counter::kInterpreterInvokes);
  ep.regions = counters.delta(obs::Counter::kPoolRegions);
  ep.chunks = counters.delta(obs::Counter::kPoolChunks);
  ep.stolen = counters.delta(obs::Counter::kPoolStolenChunks);
  ep.macs = counters.delta(obs::Counter::kKernelMacs);
  ep.bytes_read = counters.delta(obs::Counter::kKernelBytesRead);
  ep.bytes_written = counters.delta(obs::Counter::kKernelBytesWritten);
  ep.fast_ops = counters.delta(obs::Counter::kBackendFastOps);
  ep.ref_ops = counters.delta(obs::Counter::kBackendReferenceOps);

  // Final integrity sweep: anything still poisoned is quarantined (rebuilt)
  // so that every replica ends healthy.
  serve::InterpreterPool& pool = engine.pool();
  for (int idx = 0; idx < pool.num_instances(); ++idx) {
    if (pool.health_check(idx)) pool.quarantine(idx, engine.now());
  }
  ep.stats = engine.stats();
  ep.fingerprint = engine.fingerprint();
  ep.slo_p99_ticks = engine.latency_histogram().percentile(0.99);
  ep.replica_invoke_us = engine.wall_latency_us().p50;
  ep.arena_bytes = pool.interp(0).memory_plan().arena_bytes;
  ep.ops = static_cast<int64_t>(pool.interp(0).model().ops.size());

  r.check(drained, "serve_fleet: engine did not drain");
  r.check(pool.all_healthy(), "serve_fleet: replicas unhealthy after the final sweep");
  r.check(ep.stats.admitted == ep.stats.completed(),
          "serve_fleet: admitted " + std::to_string(ep.stats.admitted) +
              " != completed " + std::to_string(ep.stats.completed()));
  r.check(ep.stats.quarantines > 0 && ep.stats.retries > 0 && ep.stats.served_degraded > 0,
          "serve_fleet: chaos did not exercise quarantine, retry and degrade");
  return ep;
}

}  // namespace

Report run_serve_fleet(const Options& opt) {
  Report r;
  obs::trace_reserve(1 << 16);
  LogHistogram busy_plain, busy_traced, raw_plain, raw_traced;
  SetupTimes setups;
  std::vector<EpisodeResult> plain, traced;
  double fleet_sram_bytes = 0;
  const int64_t t_end = now_ns() + static_cast<int64_t>(opt.seconds * 1e9);
  // At least two episodes (two of each kind when tracing), so that the
  // fingerprint is compared across repetitions.
  for (int i = 0; now_ns() < t_end || i < (opt.trace ? 4 : 2); ++i) {
    std::unique_ptr<serve::ServingEngine> engine;
    setups.run(1, [&](SetupClock&) { engine = build_engine(opt.seed); });
    const bool tr = opt.trace && i % 2 == 1;
    EpisodeResult ep = run_episode(*engine, tr, tr ? busy_traced : busy_plain,
                                   tr ? raw_traced : raw_plain, r);
    r.attempted += kEpisodeTicks;
    (tr ? traced : plain).push_back(ep);
    if (i == 0)
      for (int v = 0; v < engine->pool().num_variants(); ++v)
        fleet_sram_bytes += static_cast<double>(
            engine->pool().make_replica(v)->memory_report().model_sram());
  }

  const EpisodeResult& first = plain.front();
  for (const auto* eps : {&plain, &traced})
    for (const EpisodeResult& ep : *eps)
      r.check(ep.fingerprint == first.fingerprint && ep.slo_p99_ticks == first.slo_p99_ticks &&
                  ep.stats.total_served() == first.stats.total_served(),
              "serve_fleet: episode outcome fingerprint differs between repetitions");

  double served = 0, run_ns = 0, run_raw_ns = 0;
  for (const EpisodeResult& ep : plain) {
    served += static_cast<double>(ep.stats.total_served());
    run_ns += ep.run_ns;
    run_raw_ns += ep.run_raw_ns;
  }
  const serve::ServeStats& s = first.stats;
  const int64_t on_time = s.served + s.served_degraded + s.served_shadowed + s.served_rollback;
  const double fail_share = s.submitted ? 1.0 - static_cast<double>(on_time) / static_cast<double>(s.submitted) : 0.0;
  const std::string n = std::to_string(busy_plain.count()) + " busy ticks of " +
                        std::to_string(static_cast<int64_t>(plain.size()) * kEpisodeTicks) + ", " +
                        std::to_string(plain.size()) + " episodes";
  auto note = [&](double q) {
    return "raw " + std::to_string(raw_plain.percentile(q) / 1e3) + " us, " + n + ", " +
           std::to_string(busy_plain.beyond(q)) + " beyond";
  };
  const double rps = served / (run_ns * 1e-9);
  const double setup_s = median(setups.norm);

  r.add_e2e("setup_s", setup_s, "s", setups.note() + " engine builds");
  r.add_e2e("peak_rss_mb", peak_rss_mb(), "MB");
  r.add_e2e("p50_us", busy_plain.percentile(0.50) / 1e3, "us", note(0.50));
  r.add_e2e("p99_us", busy_plain.percentile(0.99) / 1e3, "us", note(0.99));
  const std::string rps_note = "raw " + std::to_string(served / (run_raw_ns * 1e-9)) + " req/s";
  r.add_e2e("ops_per_s", rps, "1/s", rps_note);

  r.add_detail("setup_s", setup_s, "s", setups.note() + " engine builds");
  r.add_detail("peak_rss_mb", peak_rss_mb(), "MB");
  r.add_detail("fail_share", fail_share, "ratio",
               "refused, shed, expired, failed or late over " + std::to_string(s.submitted) + " submitted");
  r.add_detail("serve_rps", rps, "req/s", rps_note);
  r.add_detail("serve_tick_p50_us", busy_plain.percentile(0.50) / 1e3, "us", note(0.50));
  r.add_detail("serve_tick_p99_us", busy_plain.percentile(0.99) / 1e3, "us", note(0.99));
  r.add_detail("serve_slo_p99_ticks", static_cast<double>(first.slo_p99_ticks), "ticks");
  char fp[32];
  std::snprintf(fp, sizeof(fp), "%016llx", static_cast<unsigned long long>(first.fingerprint));
  r.add_detail("episode_served", static_cast<double>(s.total_served()), "count",
               std::string("fingerprint ") + fp);

  r.add_e2e("mcu_sram_kb", fleet_sram_bytes / 1024.0, "KB",
            "sum over the fleet's 3 compiled variants");

  if (!opt.trace) return r;

  double ticks = 0, submit_ns = 0, step_ns = 0, invoke_us = 0, rebuild_ns = 0, crc_ns = 0;
  double rebuilds = 0, crcs = 0, invokes = 0, regions = 0, chunks = 0, stolen = 0;
  double macs = 0, br = 0, bw = 0, fast_ops = 0, ref_ops = 0;
  for (const EpisodeResult& ep : traced) {
    ticks += static_cast<double>(kEpisodeTicks);
    submit_ns += ep.submit_ns;
    step_ns += ep.step_ns;
    invoke_us += ep.replica_invoke_us;
    rebuild_ns += ep.rebuild_ns;
    crc_ns += ep.crc_ns;
    rebuilds += static_cast<double>(ep.rebuilds);
    crcs += static_cast<double>(ep.crcs);
    invokes += static_cast<double>(ep.invokes);
    regions += static_cast<double>(ep.regions);
    chunks += static_cast<double>(ep.chunks);
    stolen += static_cast<double>(ep.stolen);
    macs += static_cast<double>(ep.macs);
    br += static_cast<double>(ep.bytes_read);
    bw += static_cast<double>(ep.bytes_written);
    fast_ops += static_cast<double>(ep.fast_ops);
    ref_ops += static_cast<double>(ep.ref_ops);
  }
  const double eps = static_cast<double>(traced.size());
  const std::string tn = "mean per tick, " + std::to_string(traced.size()) + " traced episodes";
  r.add_layer("serve.submit_us", submit_ns / ticks / 1e3, "us", tn);
  r.add_layer("serve.step_us", step_ns / ticks / 1e3, "us", tn);
  r.add_layer("serve.invokes_per_tick", invokes / ticks, "count");
  r.add_layer("serve.replica_invoke_us", invoke_us / eps, "us", "engine's per-request invoke p50");
  r.add_layer("serve.rebuild_us", rebuild_ns / rebuilds / 1e3, "us", "pool().make_replica");
  r.add_layer("serve.quarantines", static_cast<double>(s.quarantines), "count", "per episode");
  r.add_layer("serve.retries", static_cast<double>(s.retries), "count", "per episode");
  r.add_layer("serve.canary_detections", static_cast<double>(s.canary_detections), "count", "per episode");
  r.add_layer("serve.shed", static_cast<double>(s.total_shed()), "count", "per episode");
  r.add_layer("serve.degraded", static_cast<double>(s.served_degraded), "count", "per episode");
  r.add_layer("parallel.regions_per_tick", regions / ticks, "count");
  r.add_layer("parallel.chunks_per_region", regions > 0 ? chunks / regions : 0.0, "count");
  r.add_layer("parallel.stolen_share", chunks > 0 ? stolen / chunks : 0.0, "ratio");
  r.add_layer("reliability.weights_crc_us", crc_ns / crcs / 1e3, "us", "ModelDef::weights_crc of a variant");
  r.add_layer("runtime.invoke_us", invoke_us / eps, "us", "engine's per-request invoke p50");
  r.add_layer("runtime.construct_us", rebuild_ns / rebuilds / 1e3, "us", "pool().make_replica");
  r.add_layer("runtime.invoke_errors", static_cast<double>(s.instance_faults), "count", "per episode");
  r.add_layer("runtime.ops", static_cast<double>(first.ops), "count", "replica 0");
  r.add_layer("runtime.arena_kb", static_cast<double>(first.arena_bytes) / 1024.0, "KB", "replica 0");
  r.add_layer("kernels.macs", invokes > 0 ? macs / invokes : 0.0, "count", "per invoke");
  r.add_layer("kernels.bytes_read", invokes > 0 ? br / invokes : 0.0, "B", "per invoke");
  r.add_layer("kernels.bytes_written", invokes > 0 ? bw / invokes : 0.0, "B", "per invoke");
  r.add_layer("kernels.fast_op_share", fast_ops + ref_ops > 0 ? fast_ops / (fast_ops + ref_ops) : 0.0, "ratio");
  double plain_tick_ns = 0, traced_tick_ns = 0;
  for (const EpisodeResult& ep : plain) plain_tick_ns += ep.tick_ns;
  for (const EpisodeResult& ep : traced) traced_tick_ns += ep.tick_ns;
  const double plain_mean = plain_tick_ns / static_cast<double>(plain.size() * kEpisodeTicks);
  r.add_layer("obs.trace_overhead", plain_mean > 0 ? traced_tick_ns / ticks / plain_mean - 1.0 : 0.0,
              "ratio", "traced mean tick / untraced mean tick - 1");
  return r;
}

}  // namespace perfbench
