#include "fault/fault_injecting_backend.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "fault/fault_host.hpp"

namespace autra::fault {

namespace {
constexpr double kEps = 1e-9;
}

FaultInjectingBackend::FaultInjectingBackend(runtime::StreamingBackend& inner,
                                             FaultSchedule schedule)
    : inner_(inner), schedule_(std::move(schedule)) {
  mirror_metrics_ = schedule_.has_metric_faults();
  failure_budget_.reserve(schedule_.events().size());
  for (const FaultEvent& e : schedule_.events()) {
    failure_budget_.push_back(
        e.kind == FaultKind::kRescaleFailure && e.magnitude > 0.0
            ? static_cast<int>(e.magnitude)
            : -1);
  }
  deliver_host_faults();
  if (mirror_metrics_) sync_history();
}

void FaultInjectingBackend::deliver_host_faults() {
  if (!schedule_.has_host_faults()) return;
  auto* host = dynamic_cast<FaultHost*>(&inner_);
  if (host == nullptr) {
    throw std::invalid_argument(
        "FaultInjectingBackend: schedule contains engine-level faults but "
        "the inner backend does not implement fault::FaultHost");
  }
  for (const FaultEvent& e : schedule_.events()) {
    if (is_host_fault(e.kind)) host->host_fault(e);
  }
}

bool FaultInjectingBackend::dropped_at(double t) const noexcept {
  for (const FaultEvent& e : schedule_.events()) {
    if (e.kind == FaultKind::kMetricDropout && t >= e.at && t < e.end()) {
      return true;
    }
  }
  return false;
}

double FaultInjectingBackend::reveal_time(double t) const noexcept {
  double reveal = t;
  for (const FaultEvent& e : schedule_.events()) {
    if (e.kind == FaultKind::kMetricDelay && t >= e.at && t < e.end()) {
      reveal = std::max(reveal, t + e.magnitude);
    }
  }
  return reveal;
}

void FaultInjectingBackend::sync_history() {
  const runtime::MetricStore& source = inner_.history();
  const runtime::MetricRegistry& registry = source.registry();
  const double now = inner_.now();
  for (std::uint32_t s = 0; s < registry.size(); ++s) {
    const runtime::MetricId id(s);
    if (s >= cursor_.size()) {
      cursor_.push_back(0);
      mirror_ids_.push_back(mirror_.resolve(registry.name(id)));
    }
    const runtime::MetricStore::SeriesView view = source.series(id);
    std::size_t& cur = cursor_[s];
    // Points are revealed in timestamp order: a delayed point stalls
    // everything behind it in the same series, like a real backed-up
    // metrics pipeline. Dropped points are skipped for good.
    while (cur < view.times.size()) {
      const double t = view.times[cur];
      if (dropped_at(t)) {
        ++cur;
        continue;
      }
      if (reveal_time(t) > now + kEps) break;
      mirror_.record(mirror_ids_[s], t, view.values[cur]);
      ++cur;
    }
  }
}

void FaultInjectingBackend::run_for(double sec) {
  inner_.run_for(sec);
  if (mirror_metrics_) sync_history();
}

void FaultInjectingBackend::reconfigure(const runtime::Parallelism& p,
                                        runtime::RescaleMode mode) {
  // A no-op reconfigure (same config) cannot fail — forward it untouched
  // so the decorator keeps the inner backend's no-op semantics.
  if (p != inner_.parallelism()) {
    const double t = inner_.now();
    const std::vector<FaultEvent>& events = schedule_.events();
    for (std::size_t i = 0; i < events.size(); ++i) {
      const FaultEvent& e = events[i];
      if (e.kind != FaultKind::kRescaleFailure) continue;
      if (t < e.at || t >= e.end() || failure_budget_[i] == 0) continue;
      if (failure_budget_[i] > 0) --failure_budget_[i];
      ++failed_rescales_;
      throw runtime::RescaleFailed(
          "FaultInjectingBackend: injected transient rescale failure at t=" +
          std::to_string(t));
    }
  }
  inner_.reconfigure(p, mode);
}

}  // namespace autra::fault
