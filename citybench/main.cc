// citybench: one run of one workload. citybench/run.py builds this binary,
// passes the workload's parameters from citybench/workloads.json and turns
// the JSON line printed last into the benchmark's result.
//
//   citybench --workload=tick_basic_1000 --seed=1 --seconds=10 --trace=0
//             --areas=1000 --mode=basic --shards=1 --workers=1
//             --limit_us=40000 [--open_loop --rate=... --mix=1:12,64:6,1000:2
//             --feed_us=100000] [--trace_out=trace.json] [--doctor]
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "bench.h"
#include "nn/kernels.h"
#include "obs/obs.h"
#include "util/cli.h"
#include "util/thread_pool.h"

namespace deepsd {
namespace citybench {
namespace {

/// "a:b,c:d" → {(a, b), (c, d)}.
std::vector<std::pair<int, int>> ParsePairs(const std::string& text) {
  std::vector<std::pair<int, int>> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const size_t colon = item.find(':');
    if (colon == std::string::npos) continue;
    out.emplace_back(std::stoi(item.substr(0, colon)),
                     std::stoi(item.substr(colon + 1)));
  }
  return out;
}

/// VmHWM of this process, MiB.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

#ifdef __clang__
constexpr const char* kCompiler = "clang";
#else
constexpr const char* kCompiler = "gcc";
#endif

const char* KernelModeName() {
  switch (nn::kernels::kernel_mode()) {
    case nn::kernels::KernelMode::kNaive:
      return "naive";
    case nn::kernels::KernelMode::kBlocked:
      return "blocked";
    case nn::kernels::KernelMode::kQuant:
      return "quant";
  }
  return "unknown";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonMap(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ",";
    out += "\"" + k + "\":" + JsonNumber(v);
  }
  return out + "}";
}

int Main(int argc, char** argv) {
  util::CommandLine cli(argc, argv);
  util::Status st = cli.CheckKnown(
      {"workload", "seed", "seconds", "trace", "areas", "train_items", "mode",
       "shards", "workers", "open_loop", "limit_us", "rate", "mix", "feed_us",
       "setups", "checks", "decomps", "artifact", "trace_out", "doctor"});
  if (!st.ok()) {
    std::fprintf(stderr, "citybench: %s\n", st.ToString().c_str());
    return 2;
  }
  Spec spec;
  spec.workload = cli.GetString("workload", "unnamed");
  spec.seed = static_cast<uint64_t>(cli.GetInt("seed", 1));
  spec.seconds = cli.GetDouble("seconds", 10);
  spec.trace = cli.GetBool("trace", false);
  spec.areas = static_cast<int>(cli.GetInt("areas", spec.areas));
  spec.train_items =
      static_cast<int>(cli.GetInt("train_items", spec.train_items));
  spec.advanced = cli.GetString("mode", "basic") == "advanced";
  spec.shards = static_cast<int>(cli.GetInt("shards", spec.shards));
  spec.workers = static_cast<int>(cli.GetInt("workers", spec.workers));
  spec.open_loop = cli.GetBool("open_loop", false);
  spec.limit_us = cli.GetInt("limit_us", 0);
  spec.rate = cli.GetDouble("rate", 0);
  spec.mix = ParsePairs(cli.GetString("mix", ""));
  spec.feed_us = cli.GetInt("feed_us", 0);
  spec.setups = static_cast<int>(cli.GetInt("setups", spec.setups));
  spec.checks = static_cast<int>(cli.GetInt("checks", spec.checks));
  spec.decomps = static_cast<int>(cli.GetInt("decomps", spec.decomps));
  spec.trace_out = cli.GetString("trace_out", "");
  spec.doctor = cli.GetBool("doctor", false);
  const std::string artifact = cli.GetString("artifact", "citybench.dsar");
  if (spec.limit_us <= 0 || spec.setups < 1 ||
      (spec.open_loop && (spec.rate <= 0 || spec.mix.empty() ||
                          spec.feed_us <= 0 || spec.shards != 1))) {
    std::fprintf(stderr, "citybench: incomplete workload parameters\n");
    return 2;
  }
  // Every end-to-end figure is taken with telemetry off.
  obs::SetEnabled(false);

  // Set-up, several times: setup_s is the median. The last city serves.
  std::vector<double> setup_s;
  std::unique_ptr<City> city;
  for (int i = 0; i < (spec.trace ? 1 : spec.setups); ++i) {
    city.reset();
    const int64_t t0 = NowNs();
    city = BuildCity(spec, artifact);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    for (const auto& [name, s] : city->setup_phases) {
      std::fprintf(stderr, "  set-up %-10s %.3f s\n", name, s);
    }
  }
  std::printf("%s: set-up %.3f s (median of %zu)\n", spec.workload.c_str(),
              Median(setup_s), setup_s.size());

  Tracer tracer;
  Tracer* tr = spec.trace ? &tracer : nullptr;
  RunResult r = spec.open_loop ? RunOpenLoop(spec, city.get(), tr)
                               : RunClosedLoop(spec, city.get(), tr);
  if (spec.trace) {
    ProbeKernels(spec, city->params, &r);
    ProbeOpen(artifact, &r);
    r.self_us = tracer.SelfTimesUs();
    if (!spec.trace_out.empty()) {
      std::ofstream out(spec.trace_out);
      out << tracer.ToChromeJson();
      if (!out) {
        std::fprintf(stderr, "citybench: cannot write %s\n",
                     spec.trace_out.c_str());
        r.correct = false;
      }
    }
  }
  city.reset();
  r.metrics["setup_s"] = Median(setup_s);
  r.metrics["peak_rss_mb"] = PeakRssMb();

  auto json_list = [](const std::vector<double>& v) {
    std::string out = "[";
    for (size_t i = 0; i < v.size(); ++i) {
      if (i > 0) out += ",";
      out += JsonNumber(v[i]);
    }
    return out + "]";
  };
  std::printf(
      "{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,\"correct\":%s,"
      "\"attempted\":%llu,\"failed\":%llu,\"samples\":%llu,\"checked\":%llu,"
      "\"setup_s_samples\":%s,\"window_p50_us\":%s,\"metrics\":%s,\"self_us\":%s,"
      "\"build\":{\"compiler\":\"%s %s\",\"build_type\":\"%s\","
      "\"native_arch\":%s,\"kernel_mode\":\"%s\",\"pool_threads\":%d}}\n",
      spec.workload.c_str(), static_cast<unsigned long long>(spec.seed),
      spec.trace ? 1 : 0, r.correct ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed),
      static_cast<unsigned long long>(r.samples),
      static_cast<unsigned long long>(r.checked), json_list(setup_s).c_str(),
      json_list(r.window_p50_us).c_str(),
      JsonMap(r.metrics).c_str(), JsonMap(r.self_us).c_str(), kCompiler, __VERSION__,
      CITYBENCH_BUILD_TYPE, CITYBENCH_NATIVE_ARCH ? "true" : "false",
      KernelModeName(), util::ThreadPool::GlobalThreads());
  return r.correct ? 0 : 1;
}

}  // namespace
}  // namespace citybench
}  // namespace deepsd

int main(int argc, char** argv) { return deepsd::citybench::Main(argc, argv); }
