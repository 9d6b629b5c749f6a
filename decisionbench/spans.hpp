// In-memory span recorder and the small statistics helpers the decision
// benchmark reports with.
//
// A span is one timed call into a layer's public API, recorded from the
// benchmark's own wrappers: name, start, end, the span that caused it and
// the decision it belongs to. Spans stay in memory and are written as JSON
// lines when the run ends. A disabled recorder records nothing, so the
// untraced run pays only a branch per wrapper call.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace dbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;    ///< Index of the causing span, -1 for a root.
  int decision = -1;  ///< Decision the span belongs to, -1 outside one.

  [[nodiscard]] double seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Opens a span under the innermost open main-thread scope (see
  /// SpanScope); returns its id, or -1 when disabled. Thread-safe: trial
  /// spans open on Plan-stage worker threads.
  int begin(const char* name);
  void end(int id);

  /// The decision id stamped on spans opened from now on (-1 = none).
  void set_decision(int decision) noexcept { decision_.store(decision); }

  /// Copy of every span recorded so far, in opening order.
  [[nodiscard]] std::vector<Span> spans() const;

  /// Writes one JSON object per span; returns false on I/O error.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  friend class SpanScope;

  bool enabled_;
  Clock::time_point origin_;
  std::atomic<int> current_{-1};
  std::atomic<int> decision_{-1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// A span that becomes the parent of every span opened (on any thread)
/// until it closes. Only the benchmark's main thread opens scopes.
class SpanScope {
 public:
  SpanScope(SpanRecorder& rec, const char* name);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  /// The span's id, -1 when the recorder is disabled.
  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  SpanRecorder& rec_;
  int id_;
  int previous_;
};

/// Harrell-Davis quantile: a Beta(q(n+1), (1-q)(n+1))-weighted mean of
/// all order statistics. Where a sample has clusters (decision times do),
/// it moves smoothly as the mix shifts instead of jumping between
/// clusters the way a single order statistic does. Returns 0 for an empty
/// sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);

[[nodiscard]] double mean(const std::vector<double>& values);

/// Durations (seconds) of the spans called `name` among spans[from, to).
[[nodiscard]] std::vector<double> durations(const std::vector<Span>& spans,
                                            const char* name,
                                            std::size_t from = 0,
                                            std::size_t to = SIZE_MAX);

/// Seconds of span `id` not covered by the union of its descendants named
/// in `children` — a layer's self time.
[[nodiscard]] double self_seconds(const std::vector<Span>& spans, int id,
                                  const std::vector<const char*>& children);

}  // namespace dbench
