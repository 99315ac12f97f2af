// The two load shapes (closed-loop city tick, open-loop mixed requests)
// with the per-layer metrics each one measures in its traced run.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <future>
#include <thread>
#include <tuple>

#include "bench.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace deepsd {
namespace citybench {

namespace {

/// The request-size class a shed fraction is reported under.
const char* SizeClass(size_t n) {
  if (n <= 8) return "a1";
  if (n <= 256) return "a64";
  return "a1000";
}

bool AllFinite(const std::vector<float>& v) {
  for (float x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

/// Shape invariants of one served city answer. A breach invalidates the
/// run: it is a wrong answer, not a failed operation.
bool ValidCityAnswer(const City& city, const serving::CityPredictResult& r,
                     size_t n) {
  bool ok = r.gaps.size() == n && AllFinite(r.gaps) &&
            r.model_sequence == city.sequence;
  for (const serving::ShardOutcome& s : r.shards) {
    ok = ok && s.model_sequence == r.model_sequence;
  }
  if (!ok) {
    std::fprintf(stderr,
                 "citybench: city answer breaks an invariant (%zu of %zu "
                 "gaps, sequence %llu, want %llu)\n",
                 r.gaps.size(), n,
                 static_cast<unsigned long long>(r.model_sequence),
                 static_cast<unsigned long long>(city.sequence));
  }
  return ok;
}

/// admitted + shed == offered and completed == admitted, after Drain().
bool AccountingHolds(const serving::ServingQueueStats& q, uint64_t offered,
                     const char* what) {
  const bool ok = q.offered == q.admitted + q.shed_total() &&
                  q.completed == q.admitted && q.offered == offered;
  if (!ok) {
    std::fprintf(stderr,
                 "citybench: %s accounting broken: offered %llu (benchmark "
                 "sent %llu), admitted %llu, shed %llu, completed %llu\n",
                 what, static_cast<unsigned long long>(q.offered),
                 static_cast<unsigned long long>(offered),
                 static_cast<unsigned long long>(q.admitted),
                 static_cast<unsigned long long>(q.shed_total()),
                 static_cast<unsigned long long>(q.completed));
  }
  return ok;
}

/// Reads the thread pool's own registry counters (they count only while
/// telemetry is on).
struct PoolCounters {
  uint64_t tasks = 0;
  uint64_t busy_us = 0;
  int64_t at_ns = 0;
  static PoolCounters Read() {
    obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
    return {r.GetCounter("pool/tasks")->value(),
            r.GetCounter("pool/busy_us")->value(), NowNs()};
  }
};

/// Share of the pool's worker time spent in tasks between two reads, and
/// tasks per operation. The calling thread also runs chunks but is not
/// counted by the pool, so only the workers form the denominator.
void PoolMetrics(const PoolCounters& a, const PoolCounters& b, uint64_t ops,
                 RunResult* r) {
  const int workers = std::max(1, util::ThreadPool::GlobalThreads() - 1);
  const double wall_us = Us(b.at_ns - a.at_ns);
  r->metrics["pool.busy_frac"] =
      static_cast<double>(b.busy_us - a.busy_us) / (wall_us * workers);
  r->metrics["pool.tasks_per_tick"] =
      static_cast<double>(b.tasks - a.tasks) /
      static_cast<double>(std::max<uint64_t>(ops, 1));
}

/// Queue-layer metrics from per-request waits, services and verdicts.
struct QueueSamples {
  std::vector<double> wait_us, service_us;
  std::map<std::string, uint64_t> offered, shed;
  uint64_t admitted = 0, missed = 0;

  void Add(size_t size, bool admitted_now, int64_t wait, int64_t total,
           bool deadline_missed) {
    const char* c = SizeClass(size);
    ++offered[c];
    if (!admitted_now) {
      ++shed[c];
      return;
    }
    ++admitted;
    if (deadline_missed) ++missed;
    wait_us.push_back(static_cast<double>(wait));
    service_us.push_back(static_cast<double>(total - wait));
  }

  void Report(RunResult* r) const {
    r->metrics["queue.wait_p50_us"] = Percentile(wait_us, 0.5);
    r->metrics["queue.wait_p99_us"] = Percentile(wait_us, 0.99);
    r->metrics["queue.service_p50_us"] = Percentile(service_us, 0.5);
    for (const char* c : {"a1", "a64", "a1000"}) {
      auto o = offered.find(c);
      auto s = shed.find(c);
      const double off = o == offered.end() ? 0.0 : static_cast<double>(o->second);
      const double sh = s == shed.end() ? 0.0 : static_cast<double>(s->second);
      // A class the workload never offers reports 0: nothing was shed.
      r->metrics[std::string("queue.shed_frac.") + c] = off > 0 ? sh / off : 0.0;
    }
    r->metrics["queue.miss_frac"] =
        admitted > 0 ? static_cast<double>(missed) / static_cast<double>(admitted)
                     : 0.0;
  }
};

/// Scatter-gather metrics: the slowest shard, the merge (call wall minus
/// the slowest shard's own time) and the skew (slowest ÷ mean shard time).
struct ShardSamples {
  std::vector<double> slowest, merge, skew;

  void Add(const serving::CityPredictResult& res, double wall_us) {
    int64_t slow = 0, sum = 0;
    for (const serving::ShardOutcome& s : res.shards) {
      slow = std::max(slow, s.total_us);
      sum += s.total_us;
    }
    slowest.push_back(static_cast<double>(slow));
    merge.push_back(wall_us - static_cast<double>(slow));
    if (sum > 0) {
      skew.push_back(static_cast<double>(slow) *
                     static_cast<double>(res.shards.size()) /
                     static_cast<double>(sum));
    }
  }

  void Report(RunResult* r) const {
    r->metrics["shard.slowest_us"] = Median(slowest);
    r->metrics["shard.merge_us"] = Median(merge);
    r->metrics["shard.skew"] = Median(skew);
  }
};

/// One timed operation: when it ended (seconds into the timed phase; due
/// time for the open loop), its latency and the areas it answered fresh.
struct OpSample {
  double at_s = 0;
  double lat_us = 0;
  double fresh_areas = 0;
  double cpu_us = 0;  ///< Process CPU time the op took (closed loops).
};

/// Latency-side end-to-end metrics shared by both loops. The run is cut
/// into one-second windows. Interference from other tenants of a shared
/// host only ever slows a window, and on such hosts it has covered half a
/// run; so lat_p50_us is the lower quartile of the windows' medians, and
/// with `windowed_throughput` (the closed loops, whose rate is the
/// system's own) areas_per_s is the upper quartile of the windows' rates
/// and cpu_us_per_area is taken over the quarter of the windows with the
/// lowest median latency. Interference moves CPU per area either way (it
/// stalls lock holders and thins out the pool's parallelism), so those
/// windows are chosen by latency, which it only ever raises. A change that
/// slows every tick still moves all three in full. The open loop's rate is
/// set by its schedule, so it divides the fresh areas and the phase's CPU
/// time by the phase. lat_p99_us pools every sample.
void LatencyMetrics(const Spec& spec, const std::vector<OpSample>& ops,
                    uint64_t offered, uint64_t slo_met, double phase_s,
                    bool windowed_throughput, double phase_cpu_us,
                    RunResult* r) {
  const size_t windows = static_cast<size_t>(phase_s);
  struct Window {
    std::vector<double> lat;
    double first_s = 0, last_s = 0, areas_after_first = 0;
    double cpu_us = 0, areas = 0;
  };
  std::vector<Window> win(std::max<size_t>(windows, 1));
  std::vector<double> all;
  double fresh = 0;
  for (const OpSample& op : ops) {
    all.push_back(op.lat_us);
    fresh += op.fresh_areas;
    const size_t i = static_cast<size_t>(op.at_s);
    if (i >= windows) continue;
    Window& w = win[i];
    if (w.lat.empty()) {
      w.first_s = op.at_s;
    } else {
      w.areas_after_first += op.fresh_areas;
    }
    w.last_s = op.at_s;
    w.lat.push_back(op.lat_us);
    w.cpu_us += op.cpu_us;
    w.areas += op.fresh_areas;
  }
  r->window_p50_us.clear();
  std::vector<double> window_rate;
  // (median latency, CPU µs, fresh areas) of each window.
  std::vector<std::tuple<double, double, double>> by_latency;
  for (const Window& w : win) {
    if (w.lat.empty()) continue;
    const double p50 = Median(w.lat);
    r->window_p50_us.push_back(p50);
    by_latency.emplace_back(p50, w.cpu_us, w.areas);
    // Areas completed between the window's first and last completions,
    // over that span: a rate free of the one-op rounding of a count.
    if (w.last_s > w.first_s) {
      window_rate.push_back(w.areas_after_first / (w.last_s - w.first_s));
    }
  }
  const bool windowed = r->window_p50_us.size() >= 3;
  r->samples = all.size();
  r->metrics["lat_p50_us"] =
      windowed ? Percentile(r->window_p50_us, 0.25) : Median(all);
  r->metrics["lat_p99_us"] = Percentile(all, 0.99);
  r->metrics["areas_per_s"] = windowed && windowed_throughput
                                  ? Percentile(window_rate, 0.75)
                                  : fresh / phase_s;
  double quiet_cpu_us = 0, quiet_areas = 0;
  std::sort(by_latency.begin(), by_latency.end());
  for (size_t i = 0; i < std::max<size_t>(by_latency.size() / 4, 1) &&
                     i < by_latency.size();
       ++i) {
    quiet_cpu_us += std::get<1>(by_latency[i]);
    quiet_areas += std::get<2>(by_latency[i]);
  }
  r->metrics["cpu_us_per_area"] =
      windowed && windowed_throughput && quiet_areas > 0
          ? quiet_cpu_us / quiet_areas
          : phase_cpu_us / std::max(fresh, 1.0);
  r->metrics["slo_met_frac"] =
      static_cast<double>(slo_met) / static_cast<double>(std::max<uint64_t>(offered, 1));
  std::printf("%s: %llu ops, %llu latency samples, limit %lld us, %.2f s timed\n",
              spec.workload.c_str(), static_cast<unsigned long long>(offered),
              static_cast<unsigned long long>(all.size()),
              static_cast<long long>(spec.limit_us), phase_s);
}

/// One closed-loop tick: ingest the current minute, advance the clock,
/// answer the whole city. Spans go to `tracer` when non-null.
serving::CityPredictResult Tick(City* city, Tracer* tracer, int64_t tick,
                                int64_t* events) {
  serving::ShardedPredictor& sp = *city->sharded;
  ScopedSpan root(tracer, "tick", 0, tick);
  {
    ScopedSpan s(tracer, "stream.ingest", root.id(), tick);
    *events = FeedMinute(*city, city->minute);
  }
  {
    ScopedSpan s(tracer, "stream.advance", root.id(), tick);
    sp.AdvanceTo(city->day, city->minute + 1);
  }
  ++city->minute;
  ScopedSpan s(tracer, "shard.predict_city", root.id(), tick);
  city->observer->set_tracer(tracer);
  city->observer->set_parent(s.id(), tick);
  return sp.PredictCity(city->all_areas);
}

}  // namespace

RunResult RunClosedLoop(const Spec& spec, City* city, Tracer* tracer) {
  RunResult r;
  const size_t n = city->all_areas.size();
  const int64_t budget_ns = static_cast<int64_t>(spec.seconds * 1e9);
  const int64_t check_every_ns = budget_ns / std::max(spec.checks, 1);
  const int64_t decomp_every_ns = budget_ns / std::max(spec.decomps, 1);

  std::vector<OpSample> ops;
  std::vector<double> lat_traced, lat_plain, events, gen_lag;
  QueueSamples queue;
  ShardSamples shards;
  LayerSamples layers;
  uint64_t slo_met = 0;
  int64_t paused_ns = 0, next_check_ns = 0, next_decomp_ns = decomp_every_ns / 2;
  const int64_t start = NowNs();
  int64_t prev_end = start;
  int64_t tick = 0;
  // Work the timed phase does not count (reference checks, day changes,
  // decomposition passes) runs inside `pause`.
  auto pause = [&](auto&& fn) {
    const int64_t p0 = NowNs();
    fn();
    paused_ns += NowNs() - p0;
    prev_end = NowNs();
  };
  while (NowNs() - start - paused_ns < budget_ns) {
    if (city->minute >= kEndMinute) {
      pause([&] { StartServeDay(city); });
      continue;
    }
    Tracer* tt = tracer != nullptr && tick % 2 == 1 ? tracer : nullptr;
    const int64_t t0 = NowNs();
    const int64_t cpu0 = CpuNs();
    gen_lag.push_back(Us(t0 - prev_end));
    int64_t ev = 0;
    serving::CityPredictResult res = Tick(city, tt, tick, &ev);
    const int64_t t1 = NowNs();
    const double cpu_us = Us(CpuNs() - cpu0);
    const double lat = Us(t1 - t0);
    (tt != nullptr ? lat_traced : lat_plain).push_back(lat);
    events.push_back(static_cast<double>(ev));

    ++r.attempted;
    if (!ValidCityAnswer(*city, res, n)) r.correct = false;
    const bool fresh = res.gaps.size() == n &&
                       res.tier == serving::FallbackTier::kNone &&
                       res.fully_served && !res.deadline_expired;
    ops.push_back({static_cast<double>(t1 - start - paused_ns) / 1e9, lat,
                   fresh ? static_cast<double>(n) : 0.0, cpu_us});
    if (fresh) {
      if (lat <= static_cast<double>(spec.limit_us)) ++slo_met;
    } else {
      ++r.failed;
    }
    for (const serving::ShardOutcome& s : res.shards) {
      queue.Add(s.num_areas, s.verdict == serving::AdmitVerdict::kAdmitted,
                s.queue_wait_us, s.total_us, s.deadline_expired);
    }
    shards.Add(res, lat);

    const int64_t elapsed = t1 - start - paused_ns;
    if (elapsed >= next_check_ns) {
      pause([&] {
        std::vector<float> want = Reference(*city, city->all_areas);
        if (!BitwiseEqual(res.gaps, want, spec.doctor, "tick answer")) {
          r.correct = false;
        }
        r.checked += n;
      });
      next_check_ns += check_every_ns;
    }
    if (tt != nullptr && elapsed >= next_decomp_ns) {
      pause([&] { Decompose(city, tracer, tick, &layers, &r); });
      next_decomp_ns += decomp_every_ns;
    }
    prev_end = NowNs();
    ++tick;
  }
  const double phase_s = static_cast<double>(NowNs() - start - paused_ns) / 1e9;
  city->observer->set_tracer(nullptr);

  if (tracer != nullptr) {
    // The pool's counters only count with telemetry on, so they come from
    // a short extra stretch of ticks outside the timed phase.
    constexpr int kPoolTicks = 40;
    obs::SetEnabled(true);
    const PoolCounters before = PoolCounters::Read();
    for (int i = 0; i < kPoolTicks; ++i) {
      if (city->minute >= kEndMinute) StartServeDay(city);
      int64_t ev = 0;
      serving::CityPredictResult res = Tick(city, nullptr, tick++, &ev);
      if (!ValidCityAnswer(*city, res, n)) r.correct = false;
    }
    const PoolCounters after = PoolCounters::Read();
    obs::SetEnabled(false);
    PoolMetrics(before, after, kPoolTicks, &r);
  }

  // Every PredictCity call offers one slice to every shard: the ticks, the
  // pool stretch and the three warm-up calls of BuildCity.
  city->sharded->Drain();
  for (const serving::ServingQueueStats& q : city->sharded->stats().per_shard) {
    if (!AccountingHolds(q, static_cast<uint64_t>(tick) + 3, "shard queue")) {
      r.correct = false;
    }
  }

  LatencyMetrics(spec, ops, r.attempted, slo_met, phase_s, true, 0, &r);
  if (tracer != nullptr) {
    r.metrics["stream.ingest_us"] = Median(tracer->DurationsUs("stream.ingest"));
    r.metrics["stream.advance_us"] = Median(tracer->DurationsUs("stream.advance"));
    r.metrics["stream.events_per_tick"] = Median(events);
    shards.Report(&r);
    r.metrics["observe.us"] = Median(tracer->DurationsUs("observe"));
    r.metrics["gen.lag_p99_us"] = Percentile(gen_lag, 0.99);
    // One client sends each tick the moment the last one returns, so no
    // tick is ever due and unsent.
    r.metrics["gen.backlog_max"] = 0;
    r.metrics["obs.trace_overhead_frac"] =
        Median(lat_traced) / Median(lat_plain) - 1.0;
    queue.Report(&r);
    FinishLayers(layers, &r);
  }
  return r;
}

RunResult RunOpenLoop(const Spec& spec, City* city, Tracer* tracer) {
  RunResult r;
  DEEPSD_CHECK_MSG(city->sharded->num_shards() == 1,
                   "the open loop drives one serving queue");
  serving::ServingQueue& queue = city->sharded->shard_queue(0);
  const size_t n = city->all_areas.size();

  // ---- inputs, all drawn from the seed before the clock starts --------
  struct Request {
    std::vector<int> areas;
    int64_t due_ns = 0;  ///< Offset from the phase start.
    int64_t sent_ns = 0;
    std::future<serving::ServingResponse> future;
  };
  constexpr int64_t kSpinNs = 300'000;
  util::Rng rng(spec.seed * 0x9E3779B97F4A7C15ULL + 17);
  const size_t num = static_cast<size_t>(std::llround(spec.rate * spec.seconds));
  const int64_t span_ns = static_cast<int64_t>(spec.seconds * 1e9);
  // A Poisson process conditioned on its count over the window: arrival
  // instants are uniform order statistics, so every run offers exactly
  // rate × seconds requests.
  std::vector<int64_t> due(num);
  for (int64_t& d : due) {
    d = static_cast<int64_t>(rng.Uniform() * static_cast<double>(span_ns));
  }
  std::sort(due.begin(), due.end());
  // Sizes follow the fixed mix exactly, block by block, in seeded order.
  std::vector<int> block;
  for (const auto& [size, count] : spec.mix) block.insert(block.end(), count, size);
  std::vector<Request> reqs(num);
  std::vector<int> pool = city->all_areas;
  for (size_t i = 0; i < num; ++i) {
    if (i % block.size() == 0) {
      for (size_t j = block.size() - 1; j > 0; --j) {
        std::swap(block[j], block[rng.UniformInt(j + 1)]);
      }
    }
    const size_t size = std::min<size_t>(static_cast<size_t>(block[i % block.size()]), n);
    for (size_t j = 0; j < size && size < n; ++j) {
      std::swap(pool[j], pool[j + rng.UniformInt(n - j)]);
    }
    reqs[i].areas = size < n ? std::vector<int>(pool.begin(), pool.begin() + static_cast<long>(size))
                             : city->all_areas;
    reqs[i].due_ns = due[i];
  }

  // ---- load: feeder + scheduler threads, this thread collects -----------
  LayerSamples layers;
  std::vector<OpSample> ops;
  std::vector<double> events, gen_lag, lat_traced, lat_plain;
  QueueSamples qs;
  std::atomic<bool> stop_feed{false};
  std::atomic<bool> feed_ok{true};
  std::mutex mu;
  std::condition_variable cv;
  size_t sent = 0;  // guarded by mu
  size_t backlog_max = 0;
  const size_t pool_from = tracer != nullptr ? num * 4 / 5 : num;
  PoolCounters pool_before;

  city->observer->set_tracer(tracer);
  const int64_t start = NowNs();
  const int64_t cpu_start = CpuNs();
  std::thread feeder([&] {
    int64_t next = start;
    int64_t minute_id = 0;
    while (!stop_feed.load()) {
      next += spec.feed_us * 1000;
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(next)));
      if (stop_feed.load()) break;
      if (city->minute + 1 >= data::kMinutesPerDay) {
        feed_ok.store(false);
        break;
      }
      Tracer* tt = minute_id % 2 == 1 ? tracer : nullptr;
      ScopedSpan root(tt, "feed", 0, minute_id);
      {
        ScopedSpan s(tt, "stream.ingest", root.id(), minute_id);
        events.push_back(
            static_cast<double>(FeedMinute(*city, city->minute)));
      }
      {
        ScopedSpan s(tt, "stream.advance", root.id(), minute_id);
        city->sharded->AdvanceTo(city->day, city->minute + 1);
      }
      ++city->minute;
      ++minute_id;
    }
  });
  std::thread scheduler([&] {
    for (size_t i = 0; i < num; ++i) {
      Request& q = reqs[i];
      // Sleep to just short of the due time, then spin: the wake-up jitter
      // of a sleeping thread would otherwise land in every latency.
      const int64_t due_abs = start + q.due_ns;
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due_abs - kSpinNs)));
      while (NowNs() < due_abs) {
      }
      if (i == pool_from) {
        obs::SetEnabled(true);
        pool_before = PoolCounters::Read();
      }
      q.sent_ns = NowNs();
      // Requests already due but not yet sent: the generator's backlog.
      const size_t overdue = static_cast<size_t>(
          std::upper_bound(due.begin(), due.end(), q.sent_ns - start) -
          due.begin()) - (i + 1);
      backlog_max = std::max(backlog_max, overdue);
      Tracer* tt = i % 2 == 1 && i < pool_from ? tracer : nullptr;
      {
        ScopedSpan s(tt, "queue.submit", 0, static_cast<int64_t>(i));
        q.future = queue.Submit(
            q.areas, util::Deadline::AtSteadyUs((start + q.due_ns) / 1000 +
                                                spec.limit_us));
      }
      std::lock_guard<std::mutex> lock(mu);
      sent = i + 1;
      cv.notify_one();
    }
  });

  uint64_t slo_met = 0;
  int64_t last_done_ns = start;
  for (size_t i = 0; i < num; ++i) {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return sent > i; });
    }
    Request& q = reqs[i];
    const serving::ServingResponse resp = q.future.get();
    const size_t size = q.areas.size();
    ++r.attempted;
    qs.Add(size, resp.admitted(), resp.queue_wait_us, resp.total_us,
           resp.deadline_missed);
    bool fresh = false;
    if (resp.admitted()) {
      const serving::PredictResult& p = resp.result;
      if (p.gaps.size() != size || !AllFinite(p.gaps) ||
          p.model_sequence != city->sequence) {
        std::fprintf(stderr,
                     "citybench: request %zu answer breaks an invariant\n", i);
        r.correct = false;
      }
      // Due → completion: the wait a stall imposes on later requests
      // counts, not just the time inside the queue.
      const double lat = Us(q.sent_ns - (start + q.due_ns)) +
                         static_cast<double>(resp.total_us);
      last_done_ns = std::max(last_done_ns, q.sent_ns + resp.total_us * 1000);
      fresh = !resp.deadline_missed && !p.deadline_expired &&
              p.tier == serving::FallbackTier::kNone && p.gaps.size() == size;
      if (fresh && lat <= static_cast<double>(spec.limit_us)) ++slo_met;
      if (i < pool_from) {
        ops.push_back({static_cast<double>(q.due_ns) / 1e9, lat,
                       fresh ? static_cast<double>(size) : 0.0});
        (i % 2 == 1 && tracer != nullptr ? lat_traced : lat_plain).push_back(lat);
      }
      if (tracer != nullptr && i % 2 == 1 && i < pool_from) {
        // The request's life as the queue reports it, under one root.
        const int64_t due_abs = start + q.due_ns;
        const int64_t enq = q.sent_ns;
        Tracer::Span root{"request", due_abs,
                          enq + resp.total_us * 1000, tracer->NextId(), 0,
                          static_cast<int64_t>(i), 0};
        tracer->Record(root);
        tracer->Record({"queue.wait", enq, enq + resp.queue_wait_us * 1000,
                        tracer->NextId(), root.id, root.req, 0});
        tracer->Record({"serve", enq + resp.queue_wait_us * 1000,
                        enq + resp.total_us * 1000, tracer->NextId(), root.id,
                        root.req, 0});
      }
    }
    if (!fresh) ++r.failed;
    if (i < pool_from) gen_lag.push_back(Us(q.sent_ns - (start + q.due_ns)));
  }
  scheduler.join();
  const double phase_cpu_us = Us(CpuNs() - cpu_start);
  const PoolCounters pool_after = PoolCounters::Read();
  obs::SetEnabled(false);
  stop_feed.store(true);
  feeder.join();
  city->observer->set_tracer(nullptr);
  if (!feed_ok.load()) {
    std::fprintf(stderr, "citybench: feeder ran out of simulated minutes\n");
    r.correct = false;
  }
  const double phase_s = static_cast<double>(last_done_ns - start) / 1e9;

  // ---- after the load: bitwise checks at a quiet clock, then drain --------
  uint64_t offered = num;
  const int per_class_checks = std::max(1, spec.checks / 3);
  std::map<std::string, int> checked_class;
  for (const Request& q : reqs) {
    int& k = checked_class[SizeClass(q.areas.size())];
    if (k >= per_class_checks) continue;
    ++k;
    ++offered;
    // A finite deadline, as under load, so the sub-batched forward path
    // is the one checked.
    serving::ServingResponse resp =
        queue.Submit(q.areas, util::Deadline::After(10'000'000)).get();
    const std::vector<float> want = Reference(*city, q.areas);
    if (!resp.admitted() ||
        !BitwiseEqual(resp.result.gaps, want, spec.doctor, "request answer")) {
      r.correct = false;
    }
    r.checked += q.areas.size();
  }
  // This workload never scatter-gathers under load; the shard layer is
  // probed with whole-city calls on the idle queue.
  ShardSamples shards;
  if (tracer != nullptr) {
    for (int i = 0; i < spec.decomps; ++i) {
      Decompose(city, tracer, i, &layers, &r);
      const int64_t t0 = NowNs();
      serving::CityPredictResult res = city->sharded->PredictCity(city->all_areas);
      shards.Add(res, Us(NowNs() - t0));
      if (!ValidCityAnswer(*city, res, n)) r.correct = false;
      ++offered;
    }
  }
  city->sharded->Drain();
  // Warm-up calls in BuildCity went through the queue too.
  if (!AccountingHolds(city->sharded->stats().merged(), offered + 3, "queue")) {
    r.correct = false;
  }

  LatencyMetrics(spec, ops, num, slo_met, phase_s, false, phase_cpu_us, &r);
  if (tracer != nullptr) {
    PoolMetrics(pool_before, pool_after, num - pool_from, &r);
    r.metrics["stream.ingest_us"] = Median(tracer->DurationsUs("stream.ingest"));
    r.metrics["stream.advance_us"] = Median(tracer->DurationsUs("stream.advance"));
    r.metrics["stream.events_per_tick"] = Median(events);
    r.metrics["observe.us"] = Median(tracer->DurationsUs("observe"));
    r.metrics["gen.lag_p99_us"] = Percentile(gen_lag, 0.99);
    r.metrics["gen.backlog_max"] = static_cast<double>(backlog_max);
    r.metrics["obs.trace_overhead_frac"] =
        Median(lat_traced) / Median(lat_plain) - 1.0;
    qs.Report(&r);
    shards.Report(&r);
    FinishLayers(layers, &r);
  }
  return r;
}

}  // namespace citybench
}  // namespace deepsd
