// perfbench: the deployed-path benchmark program.
//
//   perfbench --workload <kws_stream|serve_fleet|model_deploy> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <path>]
//
// Configuration is fixed in code — fast kernel backend, every compile pass,
// and the worker count per workload through parallel::set_threads — so
// MN_BACKEND, MN_COMPILE and MN_THREADS in the environment cannot change what
// is measured. Prints one line per metric, then a `PERFBENCH_RESULT {json}`
// line that perfbench/run.py turns into the benchmark's result line. Exits 1
// when an output check fails.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "kernels/backend.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "parallel/pool.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <kws_stream|serve_fleet|"
               "model_deploy> --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]\n",
               msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty() || v[0] == '-') usage("bad --seed");
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0) || o.seconds > 600) usage("bad --seconds");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("bad --trace");
      o.trace = v == "1";
    } else if (flag == "--trace-out") {
      o.trace_out = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return o;
}

// Renders `{"name": {"value": v, "unit": "u", "note": "..."}, ...}`.
std::string json_metrics(const std::vector<Metric>& metrics, bool* finite) {
  auto quoted = [](const std::string& t) {
    std::string q = "\"";
    for (char c : t) {
      if (c == '"' || c == '\\') q += '\\';
      q += c;
    }
    return q + "\"";
  };
  std::string s = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    double v = m.value;
    if (!std::isfinite(v)) {
      *finite = false;
      v = 0.0;
    }
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", v);
    s += (i ? ", " : "") + quoted(m.name) + ": {\"value\": " + num +
         ", \"unit\": " + quoted(m.unit) + ", \"note\": " + quoted(m.note) + "}";
  }
  return s + "}";
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  if (metrics.empty()) return;
  std::printf("%s\n", title);
  for (const Metric& m : metrics)
    std::printf("  %-28s %16.6f %-7s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  Report (*run)(const Options&) = nullptr;
  // One thread for every workload: with pool workers, serve_fleet's tick
  // times on a shared host varied with thread wake-up latency, which the
  // calibration loop cannot normalise away (see serve_fleet.cpp).
  const int threads = 1;
  if (opt.workload == "kws_stream") {
    run = run_kws_stream;
  } else if (opt.workload == "serve_fleet") {
    run = run_serve_fleet;
  } else if (opt.workload == "model_deploy") {
    run = run_model_deploy;
  } else {
    usage(("unknown workload " + opt.workload).c_str());
  }
  mn::parallel::set_threads(threads);
  const auto env = [](const char* k) { const char* v = std::getenv(k); return v ? v : "(unset)"; };
  std::printf(
      "perfbench workload=%s seed=%llu seconds=%g trace=%d | backend=%s compile=all "
      "threads=%d (environment MN_BACKEND=%s MN_COMPILE=%s MN_THREADS=%s not used)\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), opt.seconds,
      opt.trace ? 1 : 0,
      mn::kernels::backend_name(mn::kernels::BackendConfig::fast().kind),
      mn::parallel::max_threads(), env("MN_BACKEND"), env("MN_COMPILE"), env("MN_THREADS"));
  std::fflush(stdout);

  Report r = run(opt);

  print_metrics("end-to-end (this workload's names):", r.detail);
  print_metrics("end-to-end (benchmark names):", r.e2e);
  print_metrics("per-layer (traced blocks):", r.layer);
  if (opt.trace && !opt.trace_out.empty()) {
    const bool ok = mn::obs::write_text_file(opt.trace_out, mn::obs::chrome_trace_json());
    std::printf("chrome trace: %s (%zu events in the ring, %lld dropped)%s\n",
                opt.trace_out.c_str(), mn::obs::trace_size(),
                static_cast<long long>(mn::obs::trace_dropped()), ok ? "" : " WRITE FAILED");
  }
  bool finite = true;
  const std::string e2e = json_metrics(r.e2e, &finite);
  const std::string detail = json_metrics(r.detail, &finite);
  const std::string layer = json_metrics(r.layer, &finite);
  r.check(finite, "a metric is not a finite number");
  for (const std::string& f : r.check_failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  std::printf(
      "PERFBENCH_RESULT {\"workload\": \"%s\", \"correct\": %s, \"attempted\": %lld, "
      "\"failed\": %lld, \"e2e\": %s, \"detail\": %s, \"layer\": %s}\n",
      opt.workload.c_str(), r.correct ? "true" : "false",
      static_cast<long long>(r.attempted), static_cast<long long>(r.failed), e2e.c_str(),
      detail.c_str(), layer.c_str());
  return r.correct ? 0 : 1;
}
