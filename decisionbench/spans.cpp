#include "spans.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

namespace dbench {

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(Clock::now()) {
  if (enabled_) spans_.reserve(1 << 16);
}

int SpanRecorder::begin(const char* name) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = current_.load();
  s.decision = decision_.load();
  const std::lock_guard<std::mutex> lock(mu_);
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
                   .count();
  spans_.push_back(s);
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::end(int id) {
  if (id < 0) return;
  const std::int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               Clock::now() - origin_)
                               .count();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = now;
}

std::vector<Span> SpanRecorder::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanRecorder::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"parent\": %d, \"decision\": %d}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, s.decision);
  }
  return std::fclose(f) == 0;
}

SpanScope::SpanScope(SpanRecorder& rec, const char* name)
    : rec_(rec), id_(rec.begin(name)), previous_(rec.current_.load()) {
  if (id_ >= 0) rec_.current_.store(id_);
}

SpanScope::~SpanScope() {
  rec_.end(id_);
  if (id_ >= 0) rec_.current_.store(previous_);
}

namespace {

/// Continued fraction of the regularised incomplete beta function
/// (modified Lentz, as in Numerical Recipes' betacf).
double beta_fraction(double a, double b, double x) {
  constexpr double kTiny = 1e-300;
  const auto guard = [](double v) { return std::abs(v) < kTiny ? kTiny : v; };
  double c = 1.0;
  double d = 1.0 / guard(1.0 - (a + b) * x / (a + 1.0));
  double h = d;
  for (int m = 1; m <= 1000; ++m) {
    const double m2 = 2.0 * m;
    double num = m * (b - m) * x / ((a - 1.0 + m2) * (a + m2));
    d = 1.0 / guard(1.0 + num * d);
    c = guard(1.0 + num / c);
    h *= d * c;
    num = -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2));
    d = 1.0 / guard(1.0 + num * d);
    c = guard(1.0 + num / c);
    const double step = d * c;
    h *= step;
    if (std::abs(step - 1.0) < 1e-15) break;
  }
  return h;
}

/// I_x(a, b), the CDF of Beta(a, b) at x.
double beta_cdf(double x, double a, double b) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double front =
      std::exp(std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
               a * std::log(x) + b * std::log1p(-x));
  if (x < (a + 1.0) / (a + b + 2.0)) return front * beta_fraction(a, b, x) / a;
  return 1.0 - front * beta_fraction(b, a, 1.0 - x) / b;
}

}  // namespace

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  if (q <= 0.0) return values.front();
  if (q >= 1.0) return values.back();
  const double n = static_cast<double>(values.size());
  const double a = q * (n + 1.0);
  const double b = (1.0 - q) * (n + 1.0);
  double sum = 0.0;
  double below = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double upto = beta_cdf(static_cast<double>(i + 1) / n, a, b);
    sum += (upto - below) * values[i];
    below = upto;
  }
  return sum;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::vector<double> durations(const std::vector<Span>& spans,
                              const char* name, std::size_t from,
                              std::size_t to) {
  std::vector<double> out;
  for (std::size_t i = from; i < to && i < spans.size(); ++i) {
    if (std::strcmp(spans[i].name, name) == 0) {
      out.push_back(spans[i].seconds());
    }
  }
  return out;
}

double self_seconds(const std::vector<Span>& spans, int id,
                    const std::vector<const char*>& children) {
  const Span& parent = spans[static_cast<std::size_t>(id)];
  std::vector<std::pair<std::int64_t, std::int64_t>> covered;
  for (std::size_t i = static_cast<std::size_t>(id) + 1; i < spans.size();
       ++i) {
    const Span& s = spans[i];
    if (s.start_ns > parent.end_ns) break;  // Spans are in opening order.
    int up = s.parent;
    while (up > id) up = spans[static_cast<std::size_t>(up)].parent;
    if (up != id) continue;
    for (const char* child : children) {
      if (std::strcmp(s.name, child) == 0) {
        covered.emplace_back(std::max(s.start_ns, parent.start_ns),
                             std::min(s.end_ns, parent.end_ns));
        break;
      }
    }
  }
  std::sort(covered.begin(), covered.end());
  std::int64_t union_ns = 0;
  std::int64_t reach = parent.start_ns;
  for (const auto& [a, b] : covered) {
    const std::int64_t from = std::max(a, reach);
    if (b > from) {
      union_ns += b - from;
      reach = b;
    }
  }
  return static_cast<double>(parent.end_ns - parent.start_ns - union_ns) *
         1e-9;
}

}  // namespace dbench
