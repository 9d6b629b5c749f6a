#include "streamsim/fault_timeline.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace autra::sim {

namespace {

using fault::FaultKind;

void check_window(double from, double until, const char* what) {
  if (until <= from) {
    throw std::invalid_argument(std::string("FaultTimeline: ") + what +
                                ": until must be > from");
  }
}

}  // namespace

FaultTimeline::FaultTimeline(std::size_t num_machines)
    : num_machines_(num_machines),
      down_count_(num_machines, 0),
      slow_active_(num_machines) {}

void FaultTimeline::add(Event event) {
  events_.push_back(std::move(event));
  dirty_ = true;
}

void FaultTimeline::add_slowdown(std::size_t machine, double factor,
                                 double from, double until) {
  check_window(from, until, "slowdown");
  if (machine >= num_machines_ || factor <= 0.0) {
    throw std::invalid_argument("FaultTimeline: bad slowdown event");
  }
  add({.kind = FaultKind::kSlowNode,
       .from = from,
       .until = until,
       .index = machine,
       .factor = factor});
}

void FaultTimeline::add_machine_down(std::size_t machine, double from,
                                     double until) {
  check_window(from, until, "machine-down");
  if (machine >= num_machines_) {
    throw std::invalid_argument("FaultTimeline: bad machine index");
  }
  add({.kind = FaultKind::kMachineDown,
       .from = from,
       .until = until,
       .index = machine});
}

void FaultTimeline::add_ingest_stall(double from, double until) {
  check_window(from, until, "ingest-stall");
  add({.kind = FaultKind::kIngestStall, .from = from, .until = until});
}

void FaultTimeline::add_service_outage(std::string service, double from,
                                       double until) {
  check_window(from, until, "service-outage");
  if (service.empty()) {
    throw std::invalid_argument("FaultTimeline: empty service name");
  }
  add({.kind = FaultKind::kServiceOutage,
       .from = from,
       .until = until,
       .service = std::move(service)});
}

std::size_t FaultTimeline::add_partition(double from, double until) {
  check_window(from, until, "partition");
  add({.kind = FaultKind::kNetworkPartition,
       .from = from,
       .until = until,
       .index = num_partitions_});
  return num_partitions_++;
}

void FaultTimeline::rebuild() {
  order_.resize(events_.size());
  for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
  std::stable_sort(order_.begin(), order_.end(),
                   [&](std::size_t a, std::size_t b) {
                     return events_[a].from < events_[b].from;
                   });
  next_ = 0;
  expiry_ = {};
  std::fill(down_count_.begin(), down_count_.end(), 0);
  for (auto& active : slow_active_) active.clear();
  stall_count_ = 0;
  outage_count_.clear();
  part_active_.clear();
  dirty_ = false;
  started_ = false;
}

void FaultTimeline::toggle(std::size_t idx, bool open) {
  const Event& e = events_[idx];
  const int step = open ? 1 : -1;
  switch (e.kind) {
    case FaultKind::kSlowNode: {
      std::vector<std::size_t>& active = slow_active_[e.index];
      const auto pos = std::lower_bound(active.begin(), active.end(), idx);
      if (open) {
        active.insert(pos, idx);
      } else {
        active.erase(pos);
      }
      delta_.machines.push_back(e.index);
      break;
    }
    case FaultKind::kMachineDown:
      down_count_[e.index] += step;
      delta_.machines.push_back(e.index);
      break;
    case FaultKind::kIngestStall:
      stall_count_ += step;
      break;
    case FaultKind::kServiceOutage:
      outage_count_[e.service] += step;
      break;
    case FaultKind::kNetworkPartition: {
      const auto pos =
          std::lower_bound(part_active_.begin(), part_active_.end(), e.index);
      if (open) {
        part_active_.insert(pos, e.index);
      } else {
        part_active_.erase(pos);
      }
      break;
    }
    case FaultKind::kMetricDropout:
    case FaultKind::kMetricDelay:
    case FaultKind::kRescaleFailure:
    case FaultKind::kRackDown:
      break;  // Never registered: the add_* methods create none of these.
  }
}

const FaultTimeline::Delta& FaultTimeline::advance_to(double t) {
  delta_.machines.clear();
  delta_.rebuilt = false;
  if (dirty_ || (started_ && t < cursor_time_)) {
    rebuild();
    delta_.rebuilt = true;
  }
  cursor_time_ = t;
  started_ = true;

  // Activate windows that have opened, retire windows that have closed.
  // An event entirely in the past activates and retires in the same call
  // (net zero), which keeps the two phases order-independent. Machine
  // deltas are still reported for such events — a spurious entry costs the
  // caller one redundant refresh, a missed one would corrupt its caches.
  while (next_ < order_.size() && events_[order_[next_]].from <= t) {
    const std::size_t idx = order_[next_++];
    toggle(idx, true);
    expiry_.emplace(events_[idx].until, idx);
  }
  while (!expiry_.empty() && expiry_.top().first <= t) {
    const std::size_t idx = expiry_.top().second;
    expiry_.pop();
    toggle(idx, false);
  }
  // A rebuild already tells the caller to refresh everything; the machine
  // entries the catch-up loops above pushed would only duplicate that.
  if (delta_.rebuilt) delta_.machines.clear();
  return delta_;
}

double FaultTimeline::slowdown_factor(std::size_t machine) const noexcept {
  double factor = 1.0;
  for (std::size_t idx : slow_active_[machine]) factor *= events_[idx].factor;
  return factor;
}

bool FaultTimeline::service_out(const std::string& service) const noexcept {
  const auto it = outage_count_.find(service);
  return it != outage_count_.end() && it->second > 0;
}

bool FaultTimeline::machine_down_linear(std::size_t machine,
                                        double t) const noexcept {
  for (const Event& e : events_) {
    if (open_at(e, FaultKind::kMachineDown, t) && e.index == machine) {
      return true;
    }
  }
  return false;
}

double FaultTimeline::slowdown_factor_linear(std::size_t machine,
                                             double t) const noexcept {
  double factor = 1.0;
  for (const Event& e : events_) {
    if (open_at(e, FaultKind::kSlowNode, t) && e.index == machine) {
      factor *= e.factor;
    }
  }
  return factor;
}

bool FaultTimeline::ingest_stalled_linear(double t) const noexcept {
  for (const Event& e : events_) {
    if (open_at(e, FaultKind::kIngestStall, t)) return true;
  }
  return false;
}

bool FaultTimeline::service_out_linear(const std::string& service,
                                       double t) const noexcept {
  for (const Event& e : events_) {
    if (open_at(e, FaultKind::kServiceOutage, t) && e.service == service) {
      return true;
    }
  }
  return false;
}

std::vector<std::size_t> FaultTimeline::active_partitions_linear(
    double t) const {
  std::vector<std::size_t> active;
  for (const Event& e : events_) {
    if (open_at(e, FaultKind::kNetworkPartition, t)) {
      active.push_back(e.index);
    }
  }
  return active;
}

}  // namespace autra::sim
