// The fault event taxonomy and the optional capability interface through
// which engine-level fault events reach a backend.
//
// FaultInjectingBackend handles metric-path (dropout/delay) and
// Execute-path (transient rescale failure) faults itself; everything that
// must happen *inside* the engine — a machine dying, a node degrading, an
// external service going dark, Kafka ingest stalling, a rack crashing, a
// network partition — is delivered as the FaultEvent itself through this
// interface via dynamic_cast. A backend that cannot host such faults (e.g.
// runtime::ReplayBackend, which replays a fixed trace) simply does not
// implement it, and the decorator rejects schedules that need it.
//
// Header-only on purpose: the fluid simulator implements FaultHost and
// reuses FaultKind without linking against the fault library.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace autra::fault {

/// The failure classes the subsystem can create (StreamShield's taxonomy
/// for Flink-at-scale, adapted to this repository's observables).
enum class FaultKind {
  kMachineDown,     ///< Task-manager loss: instances gone until recovery.
  kSlowNode,        ///< Degraded machine (co-tenant burst, failing disk).
  kServiceOutage,   ///< External (Redis-like) service unreachable.
  kIngestStall,     ///< Source cannot fetch from Kafka; lag accumulates.
  kMetricDropout,   ///< Gauges in the window are lost, never delivered.
  kMetricDelay,     ///< Gauges arrive late (stalled metrics pipeline).
  kRescaleFailure,  ///< reconfigure() fails transiently (savepoint timeout).
  kRackDown,        ///< Correlated crash: a rack's machines die together.
  kNetworkPartition,  ///< Machines split; cross-cut operator edges stall.
};

/// True for the kinds that must happen inside the engine and so are
/// delivered to a FaultHost; the metric and Execute paths are not.
[[nodiscard]] constexpr bool is_host_fault(FaultKind kind) noexcept {
  return kind != FaultKind::kMetricDropout &&
         kind != FaultKind::kMetricDelay &&
         kind != FaultKind::kRescaleFailure;
}

/// One fault, active during [at, at + duration).
struct FaultEvent {
  FaultKind kind = FaultKind::kMachineDown;
  double at = 0.0;
  double duration = 0.0;
  /// kMachineDown / kSlowNode: which machine.
  std::size_t machine = 0;
  /// kSlowNode: speed factor in (0, 1); kMetricDelay: delay seconds;
  /// kRescaleFailure: number of attempts that fail (0 = every attempt in
  /// the window).
  double magnitude = 0.0;
  /// kMachineDown / kRackDown: seconds from the crash until the framework
  /// notices and forces a restart (one restart per event, even for a rack).
  double detection_delay_sec = 0.0;
  /// kServiceOutage: which service. An outage of a service the job never
  /// calls is unobservable.
  std::string service;
  /// kRackDown: the machines crashing together; kNetworkPartition: the
  /// island cut off from the rest of the cluster (operator edges spanning
  /// the cut stop transferring).
  std::vector<std::size_t> machines;

  [[nodiscard]] double end() const noexcept { return at + duration; }

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

class FaultHost {
 public:
  virtual ~FaultHost() = default;

  /// Hosts one engine-level event (is_host_fault(event.kind) holds) over
  /// [event.at, event.end()). A crash (kMachineDown, kRackDown) is noticed
  /// `detection_delay_sec` after it starts and forces one restart — full
  /// restart downtime, Kafka lag accumulating meanwhile — even for a whole
  /// rack. Throws std::invalid_argument on an event the host cannot apply.
  virtual void host_fault(const FaultEvent& event) = 0;
};

}  // namespace autra::fault
