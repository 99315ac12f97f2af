// Layer probes of the traced run: the decomposition pass at a fixed
// clock, kernel throughput at the model's FC shapes, and artifact open.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.h"
#include "core/drift.h"
#include "nn/kernels.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace deepsd {
namespace citybench {

namespace {

/// GF/s of one fused FC→LReL kernel call shape, fp32 (current kernel mode)
/// or int8, timed over at least 20 ms of back-to-back calls.
double KernelGflops(int m, int k, int n, bool quant, util::Rng* rng) {
  std::vector<float> a(static_cast<size_t>(m) * k), w(static_cast<size_t>(k) * n),
      bias(static_cast<size_t>(n)), y(static_cast<size_t>(m) * n);
  float absmax = 0;
  for (float& v : a) {
    v = static_cast<float>(rng->Uniform(-1, 1));
    absmax = std::max(absmax, std::fabs(v));
  }
  for (float& v : w) v = static_cast<float>(rng->Uniform(-0.5, 0.5));
  for (float& v : bias) v = static_cast<float>(rng->Uniform(-0.1, 0.1));
  nn::kernels::QuantizedWeights qw;
  if (quant) nn::kernels::QuantizeWeights(w.data(), k, n, &qw);
  auto call = [&] {
    if (quant) {
      nn::kernels::GemmBiasLRelQuant(a.data(), qw, bias.data(), y.data(), m, k,
                                     n, 0.001f, absmax);
    } else {
      nn::kernels::GemmBiasLRel(a.data(), w.data(), bias.data(), y.data(), m,
                                k, n, 0.001f);
    }
  };
  call();  // warm caches
  constexpr int64_t kMinNs = 20'000'000;
  int64_t iters = 0;
  const int64_t t0 = NowNs();
  int64_t elapsed = 0;
  do {
    call();
    ++iters;
    elapsed = NowNs() - t0;
  } while (elapsed < kMinNs);
  return 2.0 * m * k * n * static_cast<double>(iters) /
         static_cast<double>(elapsed);
}

}  // namespace

void Decompose(City* city, Tracer* tracer, int64_t req, LayerSamples* out,
               RunResult* result) {
  serving::ShardedPredictor& sp = *city->sharded;
  util::ThreadPool& pool = util::ThreadPool::Global();
  ScopedSpan root(tracer, "decomp", 0, req);
  double acquire_ns = 0, serial = 0, par = 0, hist = 0, f16 = 0, whole = 0,
         observe = 0, batch = 0, rows = 0;
  const int t = city->minute;
  for (int s = 0; s < sp.num_shards(); ++s) {
    std::vector<int> areas;
    for (int a : city->all_areas) {
      if (sp.ShardOf(a) == s) areas.push_back(a);
    }
    if (areas.empty()) continue;
    const serving::OnlinePredictor& p = sp.shard_predictor(s);
    const size_t n = areas.size();
    rows += static_cast<double>(n);

    constexpr int kPins = 256;
    int64_t t0 = NowNs();
    {
      ScopedSpan span(tracer, "decomp.pin", root.id(), req);
      for (int i = 0; i < kPins; ++i) {
        store::VersionedModel::Ref ref = city->versions.Acquire();
        if (!ref) result->correct = false;
      }
    }
    acquire_ns += static_cast<double>(NowNs() - t0) / kPins;

    std::vector<feature::ModelInput> inputs(n);
    t0 = NowNs();
    {
      ScopedSpan span(tracer, "decomp.assemble_serial", root.id(), req);
      for (size_t i = 0; i < n; ++i) inputs[i] = p.AssembleLive(areas[i]);
    }
    serial += Us(NowNs() - t0);

    t0 = NowNs();
    {
      ScopedSpan span(tracer, "decomp.assemble_pool", root.id(), req);
      pool.ParallelFor(0, n, 4, [&](size_t i0, size_t i1) {
        for (size_t i = i0; i < i1; ++i) inputs[i] = p.AssembleLive(areas[i]);
      });
    }
    par += Us(NowNs() - t0);

    t0 = NowNs();
    {
      ScopedSpan span(tracer, "decomp.hist", root.id(), req);
      size_t sink = 0;
      for (int area : areas) {
        for (int kind = 0; kind < 3; ++kind) {
          sink += city->assembler->HistoricalVectors(kind, area, t).size();
          sink += city->assembler
                      ->HistoricalVectors(kind, area, t + data::kGapWindow)
                      .size();
        }
      }
      if (sink == 0) result->correct = false;
    }
    hist += Us(NowNs() - t0);

    store::VersionedModel::Ref ref = city->versions.Acquire();
    const core::DeepSDModel& model = ref.version()->model();
    std::vector<float> preds;
    t0 = NowNs();
    {
      ScopedSpan span(tracer, "decomp.forward16", root.id(), req);
      preds = model.Predict(inputs, 16);
    }
    f16 += Us(NowNs() - t0);
    t0 = NowNs();
    {
      ScopedSpan span(tracer, "decomp.forward_whole", root.id(), req);
      std::vector<float> one = model.Predict(inputs, static_cast<int>(n));
      if (one != preds) {
        std::fprintf(stderr,
                     "citybench: one batch and 16-row chunks disagree\n");
        result->correct = false;
      }
    }
    whole += Us(NowNs() - t0);

    serving::PredictResult pr;
    pr.gaps = preds;
    pr.model_sequence = ref.sequence();
    t0 = NowNs();
    {
      ScopedSpan span(tracer, "decomp.observe", root.id(), req);
      std::vector<float> activity;
      activity.reserve(n);
      for (const feature::ModelInput& in : inputs) {
        activity.push_back(core::InputActivity(in));
      }
      city->tracker->OnPrediction(areas, pr, activity,
                                  p.buffer().now_abs());
    }
    observe += Us(NowNs() - t0);
    ref.Reset();

    t0 = NowNs();
    std::vector<float> served;
    {
      ScopedSpan span(tracer, "decomp.predict_batch", root.id(), req);
      city->observer->set_tracer(tracer);
      city->observer->set_parent(span.id(), req);
      served = p.PredictBatch(areas);
      city->observer->set_tracer(nullptr);
    }
    batch += Us(NowNs() - t0);
    if (served != preds) {
      std::fprintf(stderr,
                   "citybench: PredictBatch disagrees with its own stages\n");
      result->correct = false;
    }
  }
  out->acquire_ns.push_back(acquire_ns / sp.num_shards());
  out->assemble_serial_us.push_back(serial);
  out->assemble_pool_us.push_back(par);
  out->hist_us.push_back(hist);
  out->forward16_us.push_back(f16);
  out->forward_whole_us.push_back(whole);
  out->rows.push_back(rows);
  out->observe_us.push_back(observe);
  out->predict_batch_us.push_back(batch);
  const double pin_us = acquire_ns / 1e3;
  out->coverage.push_back((pin_us + par + f16 + observe) / batch);
}

void FinishLayers(const LayerSamples& s, RunResult* r) {
  r->metrics["store.acquire_ns"] = Median(s.acquire_ns);
  r->metrics["assemble.serial_us"] = Median(s.assemble_serial_us);
  r->metrics["assemble.pool_us"] = Median(s.assemble_pool_us);
  r->metrics["assemble.pool_speedup"] =
      Median(s.assemble_serial_us) / Median(s.assemble_pool_us);
  r->metrics["feature.hist_us"] = Median(s.hist_us);
  r->metrics["forward.chunk16_us"] = Median(s.forward16_us);
  r->metrics["forward.whole_us"] = Median(s.forward_whole_us);
  r->metrics["forward.us_per_row"] =
      Median(s.forward_whole_us) / std::max(1.0, Median(s.rows));
  r->metrics["decomp.coverage"] = Median(s.coverage);
}

void ProbeKernels(const Spec& spec, const nn::ParameterStore& params,
                  RunResult* r) {
  util::Rng rng(spec.seed);
  for (const auto& [k, n] : kKernelShapes) {
    for (int m : {16, spec.areas}) {
      // M = N (the city's area count) is named "mN" so the metric names
      // do not depend on the city size.
      const std::string shape = (m == 16 ? std::string("m16") : "mN") + "_k" +
                                std::to_string(k) + "_n" + std::to_string(n);
      r->metrics["kernels.gflops." + shape] = KernelGflops(m, k, n, false, &rng);
      r->metrics["kernels.quant_gflops." + shape] =
          KernelGflops(m, k, n, true, &rng);
    }
  }
  // Work one city tick hands the GEMMs: every FC weight [k, n] of the
  // served model applied to all areas; bytes count A, W, bias and Y once
  // (computed from the shapes, not measured).
  double flops = 0, bytes = 0;
  const double rows = spec.areas;
  for (const auto& p : params.parameters()) {
    const std::string& name = p->name;
    if (name.size() < 2 || name.compare(name.size() - 2, 2, ".w") != 0) continue;
    const double kk = p->value.rows(), nn_ = p->value.cols();
    flops += 2 * rows * kk * nn_;
    bytes += 4 * (rows * kk + kk * nn_ + nn_ + rows * nn_);
  }
  r->metrics["kernels.flops_per_tick"] = flops;
  r->metrics["kernels.bytes_per_tick"] = bytes;
}

void ProbeOpen(const std::string& artifact, RunResult* r) {
  std::vector<double> ms;
  for (int i = 0; i < 5; ++i) {
    std::shared_ptr<const store::StoredModel> m;
    const int64_t t0 = NowNs();
    util::Status st = store::StoredModel::Open(artifact, &m);
    ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    if (!st.ok()) {
      std::fprintf(stderr, "citybench: reopen failed: %s\n",
                   st.ToString().c_str());
      r->correct = false;
    }
  }
  r->metrics["store.open_ms"] = Median(ms);
}

}  // namespace citybench
}  // namespace deepsd
