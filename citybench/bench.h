// Shared declarations of the city-tick serving benchmark (citybench).
//
// The benchmark drives the serving stack from outside: it builds a city
// (simulate → FeatureAssembler → brief training → DSAR1 artifact →
// VersionedModel → ShardedPredictor), replays the live feeds minute by
// minute, times calls into each layer's public functions and checks every
// sampled answer bitwise against an offline reference. Nothing here
// changes or instruments the library code.
#ifndef CITYBENCH_BENCH_H_
#define CITYBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "baselines/empirical_average.h"
#include "core/model.h"
#include "data/dataset.h"
#include "eval/online_accuracy.h"
#include "feature/feature_assembler.h"
#include "nn/parameter.h"
#include "serving/sharded_predictor.h"
#include "store/stored_model.h"
#include "store/versioned_model.h"

namespace deepsd {
namespace citybench {

/// Nanoseconds on the steady clock; the benchmark's only time base.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nanoseconds → microseconds.
inline double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// CPU time of the whole process (every thread), nanoseconds.
inline int64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Simulated reference days; the day after them is the one serve day,
/// whose events every workload replays.
constexpr int kTrainDays = 7;
constexpr int kServeDay = kTrainDays;
/// CitySim demand scale of every workload.
constexpr double kMeanScale = 0.2;
/// Closed loops replay minutes [kStartMinute, kEndMinute) of the serve day
/// over and over (a fixed hour, so every run ticks the same mix of minutes
/// however fast it is); the open loop's feeder starts at kStartMinute and
/// runs on.
constexpr int kStartMinute = 1080;
constexpr int kEndMinute = 1140;
/// Traced run: FC (k, n) shapes of the models whose kernels are timed at
/// M = 16 and M = areas.
constexpr std::pair<int, int> kKernelShapes[] = {
    {40, 64}, {64, 32}, {132, 64}, {96, 64}};

/// One workload's parameters. run.py fills them from workloads.json; the
/// program never derives a rate or a limit from a measurement.
struct Spec {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // City and model.
  int areas = 1000;
  int train_items = 1500;
  bool advanced = false;
  // Serving topology.
  int shards = 1;
  int workers = 1;
  // Load.
  bool open_loop = false;
  int64_t limit_us = 0;  ///< Fixed latency limit (and open-loop deadline).
  double rate = 0;       ///< Open loop: arrivals per second.
  /// Open loop: (request size, count per block of the fixed mix).
  std::vector<std::pair<int, int>> mix;
  int64_t feed_us = 0;  ///< Open loop: wall time per simulated minute.
  // Run shape.
  int setups = 3;
  int checks = 6;  ///< Sampled reference checks per run.
  int decomps = 8;  ///< Traced run: decomposition passes.
  bool doctor = false;
  std::string trace_out;
};

/// In-memory span recorder for the traced run. Spans come only from the
/// benchmark's own calls into the layers; they are written out as
/// chrome-trace JSON when the run ends.
class Tracer {
 public:
  struct Span {
    const char* name = nullptr;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t id = 0;
    int64_t parent = 0;  ///< 0 = root.
    int64_t req = -1;    ///< Tick or request id; -1 when unknown.
    int tid = 0;
  };

  Tracer();
  int64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Record(const Span& span);
  /// Chrome trace-event JSON ("X" events, µs since the tracer started).
  std::string ToChromeJson() const;
  /// Median self time (span minus the union of its children) per name, µs.
  std::map<std::string, double> SelfTimesUs() const;
  /// Durations (µs) of every span named `name`.
  std::vector<double> DurationsUs(const std::string& name) const;

 private:
  int64_t origin_ns_;
  std::atomic<int64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span; inert when `tracer` is null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t parent, int64_t req);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  Tracer::Span span_;
};

/// Benchmark-owned timing decorator around the online accuracy tracker's
/// prediction tap. With a tracer attached it records an "observe" span per
/// call, parented to whatever span the benchmark marked current.
class TimedObserver : public serving::PredictionObserver {
 public:
  explicit TimedObserver(eval::OnlineAccuracyTracker* inner) : inner_(inner) {}
  void OnPrediction(const std::vector<int>& area_ids,
                    const serving::PredictResult& result,
                    const std::vector<float>& activity,
                    int64_t now_abs) override;
  void set_tracer(Tracer* tracer) { tracer_.store(tracer); }
  void set_parent(int64_t parent, int64_t req) {
    parent_.store(parent);
    req_.store(req);
  }

 private:
  eval::OnlineAccuracyTracker* inner_;
  std::atomic<Tracer*> tracer_{nullptr};
  std::atomic<int64_t> parent_{0};
  std::atomic<int64_t> req_{-1};
};

/// One complete set-up: everything setup_s times. Not movable — the
/// predictor holds pointers into it. Members die in reverse order, so the
/// predictor goes first and the model versions it pins go last.
struct City {
  data::OrderDataset dataset;
  std::unique_ptr<feature::FeatureAssembler> assembler;
  nn::ParameterStore params;
  std::unique_ptr<core::DeepSDModel> model;  ///< The reference's model.
  baselines::EmpiricalAverage ea;
  std::shared_ptr<const store::StoredModel> stored;
  store::VersionedModel versions;
  uint64_t sequence = 0;  ///< Publish sequence every answer must carry.
  std::unique_ptr<eval::OnlineAccuracyTracker> tracker;
  std::unique_ptr<TimedObserver> observer;
  std::unique_ptr<serving::ShardedPredictor> sharded;
  std::vector<int> all_areas;
  int day = 0;  ///< Clock day: the buffers hold [minute - L, minute).
  int minute = 0;
  /// Seconds spent in each set-up phase, in order.
  std::vector<std::pair<const char*, double>> setup_phases;
};

/// Builds a city for `spec` and warms it. `artifact` is the DSAR1 path.
std::unique_ptr<City> BuildCity(const Spec& spec, const std::string& artifact);

/// Feeds every event of minute `ts` of the serve day into the predictor,
/// stamped with the clock day; returns the event count.
int64_t FeedMinute(const City& city, int ts);
/// Replays [kStartMinute - L, kStartMinute) of the serve day and sets the
/// clock to kStartMinute. The clock day is the serve day plus whole weeks,
/// the first such day after the current one, so the serve day can be
/// replayed again without the clock running backward.
void StartServeDay(City* city);

/// Offline reference for `areas` at the city's clock: FeatureAssembler
/// features on the simulated data, DeepSDModel::Predict under the naive
/// kernels. Call only while nothing else runs predictions (the kernel
/// mode is process-wide).
std::vector<float> Reference(const City& city, const std::vector<int>& areas);

/// Fails (returns false and prints why) unless `served` equals `want`
/// bitwise. `doctor` flips one bit of the served copy first — the
/// self-test's proof that the check rejects a wrong answer.
bool BitwiseEqual(const std::vector<float>& served,
                  const std::vector<float>& want, bool doctor,
                  const std::string& what);

/// Result of one run: counts, metrics (name → value) and per-span self
/// times.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t samples = 0;  ///< Latency samples behind the percentiles.
  uint64_t checked = 0;  ///< Answers compared bitwise with the reference.
  std::map<std::string, double> metrics;
  std::map<std::string, double> self_us;
  /// Median latency of each one-second window of the timed phase.
  std::vector<double> window_p50_us;
};

/// Samples of the decomposition pass (one entry per pass).
struct LayerSamples {
  std::vector<double> acquire_ns, assemble_serial_us, assemble_pool_us,
      hist_us, forward16_us, forward_whole_us, rows, observe_us,
      predict_batch_us, coverage;
};

/// Closed loop: one dispatcher client ticks the city for spec.seconds.
RunResult RunClosedLoop(const Spec& spec, City* city, Tracer* tracer);
/// Open loop: Poisson arrivals of mixed-size requests into one queue
/// while a feeder ingests live minutes on a fixed wall schedule.
RunResult RunOpenLoop(const Spec& spec, City* city, Tracer* tracer);

/// The decomposition pass at the city's current clock: times Acquire,
/// AssembleLive (serial, then ParallelFor chunks of 4 as served), the
/// historical gathers, DeepSDModel::Predict (16-row chunks, then one
/// batch), the observer tap and PredictBatch, per shard. Fails the run if
/// PredictBatch disagrees with the pieces.
void Decompose(City* city, Tracer* tracer, int64_t req, LayerSamples* out,
               RunResult* result);
/// Decomposition samples → the assemble/forward/pin/coverage metrics.
void FinishLayers(const LayerSamples& samples, RunResult* result);
/// Kernel GF/s (fp32 and int8) at kKernelShapes for M = 16 and
/// M = areas, plus flops and bytes per tick from the FC weights in
/// `params`.
void ProbeKernels(const Spec& spec, const nn::ParameterStore& params,
                  RunResult* result);
/// store.open_ms: median StoredModel::Open of `artifact`.
void ProbeOpen(const std::string& artifact, RunResult* result);

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample.
double Percentile(std::vector<double> v, double q);
double Median(std::vector<double> v);

}  // namespace citybench
}  // namespace deepsd

#endif  // CITYBENCH_BENCH_H_
