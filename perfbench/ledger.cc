#include "ledger.h"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <numeric>
#include <unordered_map>

namespace perfbench {
namespace {

struct OpenSpan {
  const SpanLedger* ledger;
  SpanRecord record;
};

/// Spans open on this thread, innermost last.
thread_local std::vector<OpenSpan> t_open;

uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t index = next.fetch_add(1);
  return index;
}

uint64_t InnermostOpen(const SpanLedger* ledger) {
  for (auto it = t_open.rbegin(); it != t_open.rend(); ++it) {
    if (it->ledger == ledger) return it->record.id;
  }
  return 0;
}

}  // namespace

const char* SpanNameText(SpanName name) {
  switch (name) {
    case SpanName::kExclusiveWait:
      return "core.exclusive_wait";
    case SpanName::kPrepare:
      return "federation.prepare";
    case SpanName::kRoute:
      return "federation.route";
    case SpanName::kExecute:
      return "federation.execute";
    case SpanName::kAwait:
      return "core.await";
    case SpanName::kSimStep:
      return "sim.step";
    case SpanName::kAppendRows:
      return "storage.append_rows";
    case SpanName::kCheck:
      return "bench.check";
    case SpanName::kCount:
      break;
  }
  return "?";
}

uint64_t SpanLedger::Open(SpanName name, uint64_t query_id) {
  if (!enabled_) return 0;
  SpanRecord r;
  {
    std::lock_guard<std::mutex> lock(mu_);
    r.id = next_id_++;
  }
  r.parent = InnermostOpen(this);
  r.query_id = query_id;
  r.tid = ThreadIndex();
  r.name = name;
  r.start_ns = NowNs();
  t_open.push_back({this, r});
  return r.id;
}

void SpanLedger::Close(uint64_t token) {
  if (!enabled_ || token == 0) return;
  const int64_t end = NowNs();
  for (auto it = t_open.rbegin(); it != t_open.rend(); ++it) {
    if (it->ledger != this || it->record.id != token) continue;
    SpanRecord r = it->record;
    r.end_ns = end;
    t_open.erase(std::next(it).base());
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(r);
    return;
  }
}

void SpanLedger::Add(SpanName name, uint64_t query_id, int64_t start_ns,
                     int64_t end_ns) {
  if (!enabled_) return;
  SpanRecord r;
  r.parent = InnermostOpen(this);
  r.query_id = query_id;
  r.tid = ThreadIndex();
  r.name = name;
  r.start_ns = start_ns;
  r.end_ns = std::max(start_ns, end_ns);
  std::lock_guard<std::mutex> lock(mu_);
  r.id = next_id_++;
  spans_.push_back(r);
}

std::vector<int64_t> SpanLedger::SelfTimesNs() const {
  std::unordered_map<uint64_t, size_t> pos;
  pos.reserve(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) pos[spans_[i].id] = i;
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].duration_ns();
  }
  for (const SpanRecord& s : spans_) {
    if (s.parent == 0) continue;
    auto it = pos.find(s.parent);
    if (it != pos.end()) self[it->second] -= s.duration_ns();
  }
  for (int64_t& v : self) v = std::max<int64_t>(v, 0);
  return self;
}

std::string SpanLedger::ChromeTraceJson(
    const std::string& process_name) const {
  int64_t origin = std::numeric_limits<int64_t>::max();
  for (const SpanRecord& s : spans_) origin = std::min(origin, s.start_ns);
  std::string out = "{\"traceEvents\":[";
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
                "\"args\":{\"name\":\"%s\"}}",
                process_name.c_str());
  out += buf;
  for (const SpanRecord& s : spans_) {
    std::snprintf(
        buf, sizeof(buf),
        ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
        "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%llu,\"parent\":%llu,"
        "\"query_id\":%llu}}",
        SpanNameText(s.name), s.tid, NsToUs(s.start_ns - origin),
        NsToUs(s.duration_ns()), static_cast<unsigned long long>(s.id),
        static_cast<unsigned long long>(s.parent),
        static_cast<unsigned long long>(s.query_id));
    out += buf;
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

namespace {

/// Continued fraction of the incomplete beta function (modified Lentz).
double BetaContinuedFraction(double a, double b, double x) {
  constexpr double kTiny = 1e-300;
  auto guard = [](double v) { return std::fabs(v) < kTiny ? kTiny : v; };
  double c = 1.0;
  double d = 1.0 / guard(1.0 - (a + b) * x / (a + 1.0));
  double h = d;
  for (int m = 1; m <= 10000; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((a + m2 - 1.0) * (a + m2));
    d = 1.0 / guard(1.0 + aa * d);
    c = guard(1.0 + aa / c);
    h *= d * c;
    aa = -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0));
    d = 1.0 / guard(1.0 + aa * d);
    c = guard(1.0 + aa / c);
    h *= d * c;
    if (std::fabs(d * c - 1.0) < 1e-15) break;
  }
  return h;
}

/// Regularized incomplete beta function I_x(a, b).
double RegularizedBeta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double front =
      std::exp(std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
               a * std::log(x) + b * std::log1p(-x));
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * BetaContinuedFraction(a, b, x) / a;
  }
  return 1.0 - front * BetaContinuedFraction(b, a, 1.0 - x) / b;
}

}  // namespace

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  size_t m = n;  // finite samples; +inf sorts last
  while (m > 0 && !std::isfinite(values[m - 1])) --m;
  const double inf = std::numeric_limits<double>::infinity();
  // The p-quantile of all samples is the q-quantile of the finite ones.
  const double q = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(n) /
                   static_cast<double>(std::max<size_t>(m, 1));
  if (m == 0 || q > 1.0) return inf;
  if (q <= 0.0) return values.front();
  if (q == 1.0) return values[m - 1];
  // Harrell-Davis: a Beta-weighted average of every order statistic.
  const double a = q * static_cast<double>(m + 1);
  const double b = (1.0 - q) * static_cast<double>(m + 1);
  double estimate = 0.0;
  double below = 0.0;
  for (size_t i = 1; i <= m; ++i) {
    const double upto =
        RegularizedBeta(a, b, static_cast<double>(i) / static_cast<double>(m));
    estimate += (upto - below) * values[i - 1];
    below = upto;
  }
  return estimate;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double Slope(const std::vector<double>& x, const std::vector<double>& y) {
  const size_t n = std::min(x.size(), y.size());
  if (n < 2) return 0.0;
  const double mx = std::accumulate(x.begin(), x.begin() + n, 0.0) / n;
  const double my = std::accumulate(y.begin(), y.begin() + n, 0.0) / n;
  double sxy = 0.0;
  double sxx = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
  }
  return sxx > 0.0 ? sxy / sxx : 0.0;
}

double ProcStatusKiB(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::strtod(line.c_str() + len + 1, nullptr);
    }
  }
  return 0.0;
}

void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

}  // namespace perfbench
