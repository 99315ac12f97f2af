// Span recording for the traced run, and the small statistics helpers.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>

#include "bench.h"

namespace deepsd {
namespace citybench {

namespace {

/// Small stable per-thread id for the chrome trace's "tid".
int ThreadTag() {
  static std::atomic<int> next{0};
  thread_local const int tag = next.fetch_add(1) + 1;
  return tag;
}

}  // namespace

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest value with at least q of the sample at or
  // below it.
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

Tracer::Tracer() : origin_ns_(NowNs()) { spans_.reserve(1 << 16); }

void Tracer::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<double> Tracer::DurationsUs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

std::string Tracer::ToChromeJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  char buf[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"citybench\",\"ph\":\"X\","
                  "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"span\":%lld,\"parent\":%lld,\"req\":%lld}}",
                  i == 0 ? "" : ",\n", s.name, s.tid,
                  static_cast<double>(s.start_ns - origin_ns_) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<long long>(s.id),
                  static_cast<long long>(s.parent),
                  static_cast<long long>(s.req));
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

std::map<std::string, double> Tracer::SelfTimesUs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<int64_t, std::vector<const Span*>> children;
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, std::vector<double>> self;
  for (const Span& s : spans_) {
    // Union of the children's intervals, clipped to the span.
    std::vector<std::pair<int64_t, int64_t>> cover;
    auto it = children.find(s.id);
    if (it != children.end()) {
      for (const Span* c : it->second) {
        const int64_t b = std::max(c->start_ns, s.start_ns);
        const int64_t e = std::min(c->end_ns, s.end_ns);
        if (e > b) cover.emplace_back(b, e);
      }
    }
    std::sort(cover.begin(), cover.end());
    int64_t covered = 0, reach = s.start_ns;
    for (const auto& [b, e] : cover) {
      const int64_t from = std::max(b, reach);
      if (e > from) covered += e - from;
      reach = std::max(reach, e);
    }
    self[s.name].push_back(
        static_cast<double>(s.end_ns - s.start_ns - covered) / 1e3);
  }
  std::map<std::string, double> out;
  for (auto& [name, v] : self) out[name] = Median(std::move(v));
  return out;
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, int64_t parent,
                       int64_t req)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  span_.name = name;
  span_.id = tracer_->NextId();
  span_.parent = parent;
  span_.req = req;
  span_.tid = ThreadTag();
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end_ns = NowNs();
  tracer_->Record(span_);
}

void TimedObserver::OnPrediction(const std::vector<int>& area_ids,
                                 const serving::PredictResult& result,
                                 const std::vector<float>& activity,
                                 int64_t now_abs) {
  ScopedSpan span(tracer_.load(), "observe", parent_.load(), req_.load());
  inner_->OnPrediction(area_ids, result, activity, now_abs);
}

}  // namespace citybench
}  // namespace deepsd
