// Sorted-window fault cursors.
//
// The engine used to answer "is machine m down at t?" and "how slow is
// machine m at t?" with a linear scan over every injected event, per
// instance, per tick. That is fine for the three canned schedules but
// quadratic-ish once chaos-mode generation produces thousands of events
// per run. FaultTimeline keeps every event, of every kind, in one store
// tagged by fault::FaultKind, sorted by start time in one stable order, and
// advances one cursor as simulation time moves forward: events are
// activated when their window opens (cursor walk over the sorted order)
// and retired through one min-heap keyed on window end, so a tick pays
// O(events that changed state this tick) instead of O(all events), and
// every query against the *current* time is an array/map lookup.
//
// Exactness contract: the cursor answers are bit-identical to the linear
// scans they replaced. In particular the slowdown factor is the product of
// the active factors *in insertion order* (the order the old scan
// multiplied them in), so replacing the scan cannot perturb a single ulp
// of a simulation. The linear_* methods keep the reference implementation
// alive for the property tests that pin this equivalence.
//
// Time may move backwards (an engine is rebuilt mid-run) and events may be
// injected after ticking has started; both mark the index dirty and the
// next advance_to() rebuilds cursor state from scratch — cold paths, paid
// per rescale rather than per tick.
#pragma once

#include <cstddef>
#include <map>
#include <queue>
#include <string>
#include <vector>

#include "fault/fault_host.hpp"

namespace autra::sim {

class FaultTimeline {
 public:
  explicit FaultTimeline(std::size_t num_machines);

  /// Event registration. Windows are [from, until); machine indices must be
  /// < num_machines and until > from (std::invalid_argument otherwise).
  void add_slowdown(std::size_t machine, double factor, double from,
                    double until);
  void add_machine_down(std::size_t machine, double from, double until);
  void add_ingest_stall(double from, double until);
  void add_service_outage(std::string service, double from, double until);
  /// Registers a partition *window*; what the partition cuts is the
  /// engine's business. Returns the dense partition index (0, 1, ...)
  /// that active_partitions() reports.
  std::size_t add_partition(double from, double until);

  /// What changed during one advance_to() call — the epoch-driven engine
  /// core invalidates its capacity caches from this instead of re-querying
  /// every machine every tick. A rebuild (backwards time, new events)
  /// reports `rebuilt` and callers must treat every machine as changed.
  struct Delta {
    bool rebuilt = false;
    /// Machines whose down or slowdown state flipped this advance (may
    /// contain duplicates); empty after a rebuild.
    std::vector<std::size_t> machines;
  };

  /// Moves the cursor to time `t` and reports which machine-affecting
  /// state changed. Monotone advances are amortised O(1) per event state
  /// change; going backwards or advancing after new events were added
  /// rebuilds the cursor state (cold path, reported as Delta::rebuilt).
  /// The returned reference is valid until the next advance_to() call.
  const Delta& advance_to(double t);

  // Queries at the advanced-to time (call advance_to first).
  [[nodiscard]] bool machine_down(std::size_t machine) const noexcept {
    return down_count_[machine] > 0;
  }
  [[nodiscard]] double slowdown_factor(std::size_t machine) const noexcept;
  [[nodiscard]] bool ingest_stalled() const noexcept {
    return stall_count_ > 0;
  }
  [[nodiscard]] bool service_out(const std::string& service) const noexcept;
  /// Indices of partitions whose window is open, ascending.
  [[nodiscard]] const std::vector<std::size_t>& active_partitions()
      const noexcept {
    return part_active_;
  }

  // Linear-scan reference implementations — the exact pre-cursor
  // semantics, kept for the equivalence property tests. O(events) each.
  [[nodiscard]] bool machine_down_linear(std::size_t machine,
                                         double t) const noexcept;
  [[nodiscard]] double slowdown_factor_linear(std::size_t machine,
                                              double t) const noexcept;
  [[nodiscard]] bool ingest_stalled_linear(double t) const noexcept;
  [[nodiscard]] bool service_out_linear(const std::string& service,
                                        double t) const noexcept;
  [[nodiscard]] std::vector<std::size_t> active_partitions_linear(
      double t) const;

  [[nodiscard]] std::size_t num_machines() const noexcept {
    return num_machines_;
  }
  [[nodiscard]] std::size_t num_events() const noexcept {
    return events_.size();
  }

 private:
  /// One registered window, tagged by kind (kSlowNode, kMachineDown,
  /// kIngestStall, kServiceOutage or kNetworkPartition).
  struct Event {
    fault::FaultKind kind = fault::FaultKind::kMachineDown;
    double from = 0.0;
    double until = 0.0;
    /// kSlowNode / kMachineDown: the machine; kNetworkPartition: the dense
    /// partition index.
    std::size_t index = 0;
    double factor = 1.0;  ///< kSlowNode.
    std::string service;  ///< kServiceOutage.
  };

  /// Min-heap of (window end, event index) — the retirement queue.
  using ExpiryHeap =
      std::priority_queue<std::pair<double, std::size_t>,
                          std::vector<std::pair<double, std::size_t>>,
                          std::greater<>>;

  void add(Event event);
  void rebuild();
  /// Applies event `idx`'s window opening (`open`) or closing to the
  /// active state, recording machine flips in delta_.
  void toggle(std::size_t idx, bool open);
  /// True if event `e` has `kind` and its window holds `t`.
  [[nodiscard]] static bool open_at(const Event& e, fault::FaultKind kind,
                                    double t) noexcept {
    return e.kind == kind && t >= e.from && t < e.until;
  }

  std::size_t num_machines_;
  Delta delta_;  ///< Scratch filled by advance_to(); reused across calls.
  bool dirty_ = false;
  double cursor_time_ = 0.0;
  bool started_ = false;  ///< advance_to() has been called at least once.

  /// Every event in insertion order.
  std::vector<Event> events_;
  std::size_t num_partitions_ = 0;

  // Indices sorted by `from` (stable), the activation cursor, and the
  // retirement heap.
  std::vector<std::size_t> order_;
  std::size_t next_ = 0;
  ExpiryHeap expiry_;

  // Active state.
  std::vector<int> down_count_;  ///< Per machine.
  /// Per machine: indices of active slowdown events, ascending (insertion
  /// order), so the factor product multiplies in scan order.
  std::vector<std::vector<std::size_t>> slow_active_;
  int stall_count_ = 0;
  std::map<std::string, int> outage_count_;
  std::vector<std::size_t> part_active_;
};

}  // namespace autra::sim
