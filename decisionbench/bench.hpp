// Shared types of the decision benchmark: instrumented Plan-stage trials,
// the workloads' decision loops and the replays behind the per-layer
// numbers. See RATIONALE.md for what each workload is for.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/steady_rate.hpp"
#include "core/throughput_opt.hpp"
#include "gp/gp_regressor.hpp"
#include "runtime/backend.hpp"
#include "spans.hpp"
#include "streamsim/job_runner.hpp"

namespace dbench {

using autra::runtime::Parallelism;

/// Latency target every decision plans for (the controller default the
/// resilience and arrival harnesses use).
inline constexpr double kTargetLatencyMs = 300.0;
/// Warm-up and measure window of every Plan-stage trial (policy running
/// time 120 s, split as plan_and_execute splits it).
inline constexpr double kTrialWarmupSec = 60.0;
inline constexpr double kTrialMeasureSec = 60.0;

/// One fresh-start trial, as the streamsim replays need it.
struct TrialRecord {
  int dag = 0;  ///< Index into Workload::dags().
  double rate = 0.0;
  Parallelism config;
  double latency_ms = 0.0;
  double throughput = 0.0;
};

/// Trial accounting shared by every instrumented evaluator of one run.
class TrialLedger {
 public:
  struct Totals {
    int trials = 0;
    double sim_sec = 0.0;        ///< Warm-up plus measure, all trials.
    double measured_sec = 0.0;   ///< Measure windows only.
    double violation_sec = 0.0;  ///< Measure windows below 0.9 x input.
    int nonfinite = 0;           ///< Trials that returned a non-finite metric.
  };

  void add(TrialRecord record, double warmup_sec, double measure_sec,
           bool violation, bool finite);
  [[nodiscard]] Totals totals() const;
  [[nodiscard]] std::vector<TrialRecord> records() const;

 private:
  mutable std::mutex mu_;
  Totals totals_;                     // guarded by mu_
  std::vector<TrialRecord> records_;  // guarded by mu_
};

struct RunContext {
  explicit RunContext(bool traced) : spans(traced) {}
  SpanRecorder spans;
  TrialLedger ledger;
};

/// Wraps a Plan-stage evaluator: one "streamsim.trial" span and one ledger
/// entry per call. Keeps the const-thread-safety contract of the wrapped
/// evaluator (the ledger and recorder lock internally).
[[nodiscard]] autra::runtime::Evaluator instrument(
    autra::runtime::Evaluator inner, RunContext& ctx, int dag, double rate,
    double warmup_sec, double measure_sec);

/// True when every field of a trial's metrics is finite.
[[nodiscard]] bool finite_metrics(const autra::runtime::JobMetrics& m);

/// to += now - was, counter by counter (`was` defaults to no updates).
void add_fit_stats(autra::gp::FitStats& to, const autra::gp::FitStats& now,
                   const autra::gp::FitStats& was = {});

/// Each operator within [lower_i, max_parallelism] (lower empty = 1).
[[nodiscard]] bool feasible(const Parallelism& config,
                            const Parallelism& lower, std::size_t operators,
                            int max_parallelism);

/// Alg. 1 parameters of every decision: the run_resilience settings.
[[nodiscard]] autra::core::SteadyRateParams plan_params(int threads,
                                                       int max_parallelism);

/// A from-scratch decision, as plan_and_execute runs it with an empty
/// library: throughput optimisation from all-ones, then Alg. 1 from k'.
struct ColdDecision {
  autra::core::ThroughputOptResult base;
  autra::core::SteadyRateResult steady;
};
[[nodiscard]] ColdDecision decide_cold(const autra::sim::Topology& topology,
                                       const autra::runtime::Evaluator& eval,
                                       int max_parallelism, int threads,
                                       SpanRecorder& spans);

/// A recorded surrogate training set (for the gp/linalg/bayesopt replays).
struct SampleSet {
  Parallelism base;
  int max_parallelism = 1;
  std::vector<autra::core::SamplePoint> samples;
};

/// A recorded Plan input (for the core/exec replay).
struct PlanInput {
  int dag = 0;
  double rate = 0.0;
};

/// A live session's gauge history (for the runtime replay).
struct LiveHistory {
  int dag = 0;
  autra::runtime::MetricStore store;
};

/// What one pass of a workload's decision loop produced.
struct LoopResult {
  std::vector<double> decision_s;  ///< Wall seconds, every decision.
  std::vector<int> decision_spans; ///< Span ids of the decisions (traced).
  int attempted = 0;
  int failed = 0;
  double wall_s = 0.0;  ///< Loop wall time.
  double sim_s = 0.0;   ///< Trial plus live simulated seconds.

  // Count metrics over the fixed decision prefix every run completes, so
  // they depend on the seed only.
  int prefix_decisions = 0;
  double prefix_evaluations = 0.0;
  double prefix_slots = 0.0;        ///< Sum (or time integral) of slots.
  double prefix_slot_weight = 0.0;  ///< Decisions (or live seconds).
  double prefix_violation_sec = 0.0;
  double prefix_job_sec = 0.0;      ///< Simulated seconds they are out of.
  std::vector<std::string> digest;  ///< One line per prefix decision.

  // Inputs of the per-layer replays.
  std::vector<int> bootstrap_trials;  ///< Per decision, where visible.
  std::vector<int> bo_trials;
  std::vector<SampleSet> sample_sets;
  std::vector<PlanInput> plan_inputs;
  std::vector<LiveHistory> histories;
  double live_sim_s = 0.0;
  bool has_fit_stats = false;
  autra::gp::FitStats fit_stats;  ///< Library models, over the loop.
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One pass of the closed decision loop from the post-set-up state:
  /// keeps deciding until `seconds` elapsed and, with `full_prefix`, the
  /// fixed decision prefix (digest and count metrics) is complete.
  [[nodiscard]] virtual LoopResult run(RunContext& ctx, double seconds,
                                       bool full_prefix) = 0;
  /// Job specs indexed by TrialRecord::dag / PlanInput::dag.
  [[nodiscard]] virtual const std::vector<autra::sim::JobSpec>& dags()
      const = 0;
  [[nodiscard]] virtual int plan_threads() const = 0;
  /// Surrogate settings of the workload's decisions.
  [[nodiscard]] virtual bool incremental() const { return false; }
  [[nodiscard]] virtual int window() const { return 0; }
};

[[nodiscard]] std::vector<std::string> workload_names();

/// Builds workload `name` and performs its set-up from `seed`; throws
/// std::invalid_argument on an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed);

struct Metric {
  std::string name;
  double value = 0.0;
  const char* unit = "";
};

/// Per-layer metrics from the traced loop pass `traced` (its spans in
/// `ctx`) plus replays of the inputs it recorded. Replay spans are added
/// to `ctx`.
void layer_metrics(const Workload& workload, const LoopResult& traced,
                   RunContext& ctx, std::uint64_t seed,
                   std::vector<Metric>& out);

}  // namespace dbench
