// City set-up, live-feed replay and the offline reference check.
#include <algorithm>
#include <cstdio>
#include <cstring>

#include "bench.h"
#include "core/trainer.h"
#include "nn/kernels.h"
#include "sim/city_sim.h"
#include "store/pack.h"
#include "util/logging.h"

namespace deepsd {
namespace citybench {

namespace {

/// Every `stride`-th training item, so a 1000-area city trains on a fixed
/// small sample whatever its size.
std::vector<data::PredictionItem> Subsample(
    const std::vector<data::PredictionItem>& items, size_t want) {
  const size_t stride = std::max<size_t>(1, items.size() / std::max<size_t>(want, 1));
  std::vector<data::PredictionItem> out;
  for (size_t i = 0; i < items.size() && out.size() < want; i += stride) {
    out.push_back(items[i]);
  }
  return out;
}

}  // namespace

std::unique_ptr<City> BuildCity(const Spec& spec,
                                const std::string& artifact) {
  auto city = std::make_unique<City>();
  int64_t mark = NowNs();
  auto phase = [&](const char* name) {
    const int64_t now = NowNs();
    city->setup_phases.emplace_back(name, static_cast<double>(now - mark) / 1e9);
    mark = now;
  };

  sim::CityConfig cc;
  cc.num_areas = spec.areas;
  cc.num_days = kTrainDays + 1;
  cc.seed = spec.seed;
  cc.mean_scale = kMeanScale;
  city->dataset = sim::SimulateCity(cc);
  phase("simulate");

  feature::FeatureConfig fc;
  city->assembler = std::make_unique<feature::FeatureAssembler>(
      &city->dataset, fc, 0, kTrainDays);
  phase("assembler");

  core::DeepSDConfig config;
  config.num_areas = city->dataset.num_areas();
  config.use_weather = city->dataset.has_weather();
  config.use_traffic = city->dataset.has_traffic();
  const auto mode = spec.advanced ? core::DeepSDModel::Mode::kAdvanced
                                  : core::DeepSDModel::Mode::kBasic;
  util::Rng rng(spec.seed);
  city->model =
      std::make_unique<core::DeepSDModel>(config, mode, &city->params, &rng);
  const std::vector<data::PredictionItem> items = Subsample(
      data::MakeItems(city->dataset, 0, kTrainDays, 20, 1430, 10),
      static_cast<size_t>(spec.train_items));
  core::TrainConfig tc;
  tc.epochs = 1;
  tc.best_k = 0;
  tc.seed = spec.seed;
  core::AssemblerSource train(city->assembler.get(), items, spec.advanced);
  core::AssemblerSource eval(
      city->assembler.get(),
      std::vector<data::PredictionItem>(items.begin(),
                                        items.begin() + std::min<size_t>(
                                                            items.size(), 64)),
      spec.advanced);
  core::Trainer(tc).Train(city->model.get(), &city->params, train, eval);
  city->ea.Fit(items);
  phase("train");

  store::PackOptions po;
  po.version_id = "citybench";
  util::Status st = store::PackModelArtifact(*city->model, city->params,
                                             &city->ea, po, artifact);
  DEEPSD_CHECK_MSG(st.ok(), st.ToString());
  st = store::StoredModel::Open(artifact, &city->stored);
  DEEPSD_CHECK_MSG(st.ok(), st.ToString());
  st = city->versions.Publish(city->stored);
  DEEPSD_CHECK_MSG(st.ok(), st.ToString());
  city->sequence = city->versions.stats().current_sequence;
  phase("pack_open");

  eval::OnlineAccuracyConfig ac;
  ac.num_areas = city->dataset.num_areas();
  city->tracker = std::make_unique<eval::OnlineAccuracyTracker>(ac);
  city->observer = std::make_unique<TimedObserver>(city->tracker.get());

  serving::ShardedPredictorConfig sc;
  sc.ring.num_shards = spec.shards;
  sc.queue.num_workers = spec.workers;
  city->sharded = std::make_unique<serving::ShardedPredictor>(
      &city->versions, city->assembler.get(), sc);
  for (int s = 0; s < city->sharded->num_shards(); ++s) {
    serving::OnlinePredictor& p = city->sharded->shard_predictor(s);
    p.set_prediction_observer(city->observer.get());
    p.buffer().set_stream_observer(city->tracker.get());
  }
  for (int a = 0; a < city->dataset.num_areas(); ++a) {
    city->all_areas.push_back(a);
  }

  // Warm: fill the window, then let every pool thread build its graphs.
  StartServeDay(city.get());
  for (int i = 0; i < 3; ++i) city->sharded->PredictCity(city->all_areas);
  phase("serve_warm");
  return city;
}

int64_t FeedMinute(const City& city, int ts) {
  const data::OrderDataset& ds = city.dataset;
  serving::ShardedPredictor& sp = *city.sharded;
  int64_t events = 0;
  for (int a = 0; a < ds.num_areas(); ++a) {
    for (data::Order o : ds.OrdersAt(a, kServeDay, ts)) {
      o.day = city.day;
      sp.AddOrder(o);
      ++events;
    }
    if (ds.has_traffic()) {
      data::TrafficRecord tr = ds.TrafficAt(a, kServeDay, ts);
      tr.area = a;
      tr.day = city.day;
      tr.ts = ts;
      sp.AddTraffic(tr);
      ++events;
    }
  }
  if (ds.has_weather()) {
    data::WeatherRecord w = ds.WeatherAt(kServeDay, ts);
    w.day = city.day;
    w.ts = ts;
    sp.AddWeather(w);
    ++events;
  }
  return events;
}

void StartServeDay(City* city) {
  const int window = city->assembler->config().window;
  // Each pass over the serve day moves the clock on by whole weeks, so the
  // clock never runs backward and every clock day has the weekday of the
  // data it replays.
  int day = kServeDay;
  while (day <= city->day) day += data::kDaysPerWeek;
  city->day = day;
  city->sharded->AdvanceTo(day, kStartMinute - window);
  for (int ts = kStartMinute - window; ts < kStartMinute; ++ts) {
    FeedMinute(*city, ts);
  }
  city->sharded->AdvanceTo(day, kStartMinute);
  city->minute = kStartMinute;
}

std::vector<float> Reference(const City& city, const std::vector<int>& areas) {
  const bool advanced =
      city.model->mode() == core::DeepSDModel::Mode::kAdvanced;
  std::vector<feature::ModelInput> inputs;
  inputs.reserve(areas.size());
  for (int area : areas) {
    data::PredictionItem item;
    item.area = area;
    item.day = kServeDay;
    item.t = city.minute;
    item.week_id = city.dataset.WeekId(kServeDay);
    inputs.push_back(advanced ? city.assembler->AssembleAdvanced(item)
                              : city.assembler->AssembleBasic(item));
  }
  nn::kernels::ScopedKernelMode naive(nn::kernels::KernelMode::kNaive);
  return city.model->Predict(inputs);
}

bool BitwiseEqual(const std::vector<float>& served,
                  const std::vector<float>& want, bool doctor,
                  const std::string& what) {
  std::vector<float> got = served;
  if (doctor && !got.empty()) {
    uint32_t bits = 0;
    std::memcpy(&bits, &got[0], sizeof(bits));
    bits ^= 1u;
    std::memcpy(&got[0], &bits, sizeof(bits));
  }
  if (got.size() != want.size()) {
    std::fprintf(stderr, "citybench: %s: %zu answers, reference has %zu\n",
                 what.c_str(), got.size(), want.size());
    return false;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(float)) != 0) {
      std::fprintf(stderr,
                   "citybench: %s: answer %zu is %.9g, reference %.9g — not "
                   "bitwise equal\n",
                   what.c_str(), i, static_cast<double>(got[i]),
                   static_cast<double>(want[i]));
      return false;
    }
  }
  return true;
}

}  // namespace citybench
}  // namespace deepsd
