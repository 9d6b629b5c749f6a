// The three decision workloads. Each is a closed loop: a decision starts
// when the previous one returns. Everything a decision sees (DAG and rate
// picks, window sample configurations, arrival seeds) is generated from
// the run's --seed at set-up.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <stdexcept>
#include <utility>

#include "arrival/arrival.hpp"
#include "bench.hpp"
#include "core/controller.hpp"
#include "core/scoring.hpp"
#include "core/transfer.hpp"
#include "exec/exec.hpp"
#include "workloads/workloads.hpp"

namespace dbench {

namespace core = autra::core;
namespace runtime = autra::runtime;
namespace sim = autra::sim;

// --------------------------------------------------------------------------
// Shared pieces

void TrialLedger::add(TrialRecord record, double warmup_sec,
                      double measure_sec, bool violation, bool finite) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++totals_.trials;
  totals_.sim_sec += warmup_sec + measure_sec;
  totals_.measured_sec += measure_sec;
  if (violation) totals_.violation_sec += measure_sec;
  if (!finite) ++totals_.nonfinite;
  records_.push_back(std::move(record));
}

TrialLedger::Totals TrialLedger::totals() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return totals_;
}

std::vector<TrialRecord> TrialLedger::records() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

bool finite_metrics(const runtime::JobMetrics& m) {
  const double fields[] = {m.input_rate,     m.throughput,
                           m.latency_ms,     m.latency_p50_ms,
                           m.latency_p95_ms, m.latency_p99_ms,
                           m.event_latency_ms, m.kafka_lag,
                           m.lag_growth_per_sec, m.busy_cores,
                           m.memory_mb};
  return std::all_of(std::begin(fields), std::end(fields),
                     [](double v) { return std::isfinite(v); });
}

runtime::Evaluator instrument(runtime::Evaluator inner, RunContext& ctx,
                              int dag, double rate, double warmup_sec,
                              double measure_sec) {
  return [inner = std::move(inner), &ctx, dag, rate, warmup_sec,
          measure_sec](const Parallelism& p) {
    const int span = ctx.spans.begin("streamsim.trial");
    runtime::JobMetrics m = inner(p);
    ctx.spans.end(span);
    ctx.ledger.add({.dag = dag,
                    .rate = rate,
                    .config = p,
                    .latency_ms = m.latency_ms,
                    .throughput = m.throughput},
                   warmup_sec, measure_sec,
                   m.throughput < 0.9 * m.input_rate, finite_metrics(m));
    return m;
  };
}

void add_fit_stats(autra::gp::FitStats& to, const autra::gp::FitStats& now,
                   const autra::gp::FitStats& was) {
  to.full_fits += now.full_fits - was.full_fits;
  to.incremental_updates += now.incremental_updates - was.incremental_updates;
  to.window_evictions += now.window_evictions - was.window_evictions;
  to.hyperparam_refits += now.hyperparam_refits - was.hyperparam_refits;
  to.normalisation_refits +=
      now.normalisation_refits - was.normalisation_refits;
  to.jitter_refits += now.jitter_refits - was.jitter_refits;
}

bool feasible(const Parallelism& config, const Parallelism& lower,
              std::size_t operators, int max_parallelism) {
  if (config.size() != operators) return false;
  for (std::size_t i = 0; i < config.size(); ++i) {
    const int lo = lower.empty() ? 1 : std::max(1, lower[i]);
    if (config[i] < lo || config[i] > max_parallelism) return false;
  }
  return true;
}

core::SteadyRateParams plan_params(int threads, int max_parallelism) {
  core::SteadyRateParams sp;
  sp.target_latency_ms = kTargetLatencyMs;
  sp.target_throughput = 0.0;  // track the input rate
  sp.bootstrap_m = 4;
  sp.max_evaluations = 24;
  sp.threads = threads;
  sp.max_parallelism = max_parallelism;
  return sp;
}

ColdDecision decide_cold(const sim::Topology& topology,
                         const runtime::Evaluator& eval, int max_parallelism,
                         int threads, SpanRecorder& spans) {
  ColdDecision d;
  {
    const SpanScope scope(spans, "core.throughput_opt");
    const core::ThroughputOptimizer optimizer(
        topology, {.max_parallelism = max_parallelism});
    d.base = optimizer.optimize(
        eval, Parallelism(topology.num_operators(), 1));
  }
  const SpanScope scope(spans, "core.steady_rate");
  d.steady = core::run_steady_rate(eval, d.base.best,
                                   plan_params(threads, max_parallelism));
  return d;
}

namespace {

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Independent sub-seed for generator `stream` of a run seeded `seed`.
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  return splitmix(splitmix(seed) ^ splitmix(stream + 0x51ed27));
}

std::string cfg(const Parallelism& p) {
  std::string s = "(";
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (i > 0) s += ",";
    s += std::to_string(p[i]);
  }
  return s + ")";
}

int total(const Parallelism& p) {
  int sum = 0;
  for (const int k : p) sum += k;
  return sum;
}

std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

/// Loop exit test before decision (or episode) `i`: at least one ran,
/// the time is up, and the prefix is complete when it must be.
bool done(int i, int prefix, bool full_prefix, Clock::time_point start,
          double seconds) {
  return i >= 1 && (i >= prefix || !full_prefix) &&
         seconds_between(start, Clock::now()) >= seconds;
}

/// Adds one Plan-only decision to the prefix counters: its trials, the
/// slots it applied and its trials' QoS violation.
void count_prefix(const TrialLedger::Totals& before,
                  const TrialLedger::Totals& after, const Parallelism& applied,
                  LoopResult& out) {
  ++out.prefix_decisions;
  out.prefix_evaluations += after.trials - before.trials;
  out.prefix_slots += total(applied);
  out.prefix_slot_weight += 1.0;
  out.prefix_violation_sec += after.violation_sec - before.violation_sec;
  out.prefix_job_sec += after.measured_sec - before.measured_sec;
}

bool steady_finite(const core::SteadyRateResult& r) {
  return std::isfinite(r.best_score) && finite_metrics(r.best_metrics);
}

using MakeSpec = sim::JobSpec (*)(std::shared_ptr<const sim::RateSchedule>);

struct DagChoice {
  const char* name;
  MakeSpec make;
  double rate;  ///< Centre of the decision rate band (records/s).
};

// The six DAGs cold_decide cycles through, each at a rate band centred
// where the repository's benches run it. Yahoo sits above its Redis cap,
// so its decisions spend the full budget.
constexpr DagChoice kColdDags[] = {
    {"wordcount", autra::workloads::word_count, 350e3},
    {"yahoo", autra::workloads::yahoo_streaming, 100e3},
    {"nexmark_q5", autra::workloads::nexmark_q5, 30e3},
    {"join", autra::workloads::stream_stream_join, 150e3},
    {"session", autra::workloads::sessionization, 150e3},
    {"fanin", autra::workloads::fanin_tree, 200e3},
};
constexpr double kColdBand = 0.10;  ///< Rate drawn from centre x (1 +- band).
constexpr int kColdPrefix = 120;    ///< Twenty decisions per DAG.
constexpr int kColdThreads = 4;

// --------------------------------------------------------------------------
// cold_decide: from-scratch decisions, round-robin over six DAGs.

class ColdDecide final : public Workload {
 public:
  explicit ColdDecide(std::uint64_t seed) {
    for (const DagChoice& d : kColdDags) {
      specs_.push_back(d.make(std::make_shared<sim::ConstantRate>(d.rate)));
      trials_.push_back(sim::make_trial_service(specs_.back()));
    }
    std::mt19937_64 rng(derive(seed, 1));
    std::uniform_real_distribution<double> u(-kColdBand, kColdBand);
    rates_.resize(4096);
    for (std::size_t i = 0; i < rates_.size(); ++i) {
      rates_[i] = kColdDags[i % std::size(kColdDags)].rate * (1.0 + u(rng));
    }
    // Warm the process before timing: one trial per DAG, run serially so
    // set-up time does not hinge on thread scheduling, then the Plan
    // thread pool (created on first use) is brought up.
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      const Parallelism ones(specs_[i].topology.num_operators(), 1);
      if (!finite_metrics(trials_[i]->evaluator_at(
              rates_[i], kTrialWarmupSec, kTrialMeasureSec)(ones))) {
        throw std::runtime_error("cold_decide: warm-up trial not finite");
      }
    }
    autra::exec::parallel_for(autra::exec::ExecContext(kColdThreads),
                              kColdThreads, [](std::size_t) {});
  }

  LoopResult run(RunContext& ctx, double seconds,
                 bool full_prefix) override {
    LoopResult out;
    const Clock::time_point start = Clock::now();
    for (int i = 0; !done(i, kColdPrefix, full_prefix, start, seconds) &&
                    static_cast<std::size_t>(i) < rates_.size();
         ++i) {
      const std::size_t dag = static_cast<std::size_t>(i) % specs_.size();
      const double rate = rates_[static_cast<std::size_t>(i)];
      const int pmax = trials_[dag]->max_parallelism();
      const sim::Topology& topology = specs_[dag].topology;

      ctx.spans.set_decision(i);
      const TrialLedger::Totals before = ctx.ledger.totals();
      bool ok = true;
      ColdDecision d;
      const Clock::time_point t0 = Clock::now();
      int span = -1;
      try {
        const SpanScope scope(ctx.spans, "decision");
        span = scope.id();
        const runtime::Evaluator eval =
            instrument(trials_[dag]->evaluator_at(rate, kTrialWarmupSec,
                                                  kTrialMeasureSec),
                       ctx, static_cast<int>(dag), rate, kTrialWarmupSec,
                       kTrialMeasureSec);
        d = decide_cold(topology, eval, pmax, kColdThreads, ctx.spans);
      } catch (const std::exception&) {
        ok = false;
      }
      const Clock::time_point t1 = Clock::now();
      const TrialLedger::Totals after = ctx.ledger.totals();
      ok = ok && after.nonfinite == before.nonfinite &&
           feasible(d.base.best, {}, topology.num_operators(), pmax) &&
           feasible(d.steady.best, d.base.best, topology.num_operators(),
                    pmax) &&
           steady_finite(d.steady) && std::isfinite(d.base.best_throughput);

      out.decision_s.push_back(seconds_between(t0, t1));
      if (span >= 0) out.decision_spans.push_back(span);
      ++out.attempted;
      if (!ok) ++out.failed;
      out.bootstrap_trials.push_back(d.steady.bootstrap_evaluations);
      out.bo_trials.push_back(d.steady.bo_iterations);
      if (i < kColdPrefix) {
        count_prefix(before, after, d.steady.best, out);
        out.digest.push_back(
            "d=" + std::to_string(i) + " dag=" + kColdDags[dag].name +
            " rate=" + fmt("%.17g", rate) + " base=" + cfg(d.base.best) +
            " applied=" + cfg(d.steady.best) +
            " evals=" + std::to_string(after.trials - before.trials) +
            " boot=" + std::to_string(d.steady.bootstrap_evaluations) +
            " bo=" + std::to_string(d.steady.bo_iterations) +
            " score=" + fmt("%.17g", d.steady.best_score) +
            (ok ? "" : " FAILED"));
      }
      if (ok && out.sample_sets.size() < specs_.size()) {
        out.sample_sets.push_back({d.base.best, pmax, d.steady.history});
      }
      if (out.plan_inputs.size() < 3) {
        out.plan_inputs.push_back({static_cast<int>(dag), rate});
      }
    }
    ctx.spans.set_decision(-1);
    out.wall_s = seconds_between(start, Clock::now());
    out.sim_s = ctx.ledger.totals().sim_sec;
    return out;
  }

  const std::vector<sim::JobSpec>& dags() const override { return specs_; }
  int plan_threads() const override { return kColdThreads; }

 private:
  std::vector<sim::JobSpec> specs_;
  std::vector<std::shared_ptr<runtime::TrialService>> trials_;
  std::vector<double> rates_;
};

// --------------------------------------------------------------------------
// warm_window: the always-on controller's warm branch at W = 128.

constexpr double kWarmRates[] = {100e3, 120e3, 140e3};
constexpr int kWarmWindow = 128;
constexpr int kWarmPrefix = 3;  ///< One decision per model.
constexpr int kWarmThreads = 4;

class WarmWindow final : public Workload {
 public:
  explicit WarmWindow(std::uint64_t seed) {
    specs_.push_back(autra::workloads::yahoo_streaming(
        std::make_shared<sim::ConstantRate>(kWarmRates[0])));
    trials_ = sim::make_trial_service(specs_[0]);
    const int pmax = trials_->max_parallelism();
    const sim::Topology& topology = specs_[0].topology;
    const autra::exec::ExecContext exec_ctx(kWarmThreads);
    std::mt19937_64 rng(derive(seed, 2));
    for (const double rate : kWarmRates) {
      const runtime::Evaluator eval =
          trials_->evaluator_at(rate, kTrialWarmupSec, kTrialMeasureSec);
      const core::ThroughputOptimizer optimizer(
          topology, {.max_parallelism = pmax});
      const Parallelism base =
          optimizer.optimize(eval, Parallelism(topology.num_operators(), 1))
              .best;
      // W real trials at seeded configurations in the Alg. 1 box [k', P_max].
      std::vector<Parallelism> configs(kWarmWindow);
      for (Parallelism& c : configs) {
        for (const int lo : base) {
          c.push_back(std::uniform_int_distribution<int>(lo, pmax)(rng));
        }
      }
      const auto metrics = autra::exec::parallel_map(
          exec_ctx, configs.size(),
          [&](std::size_t i) { return eval(configs[i]); });
      core::BenefitModel model;
      model.rate = rate;
      model.base = base;
      model.threads = kWarmThreads;
      model.max_observations = kWarmWindow;
      const core::ScoreParams score{.target_latency_ms = kTargetLatencyMs,
                                    .alpha = 0.5,
                                    .base = base};
      for (std::size_t i = 0; i < configs.size(); ++i) {
        if (!finite_metrics(metrics[i])) {
          throw std::runtime_error("warm_window: set-up trial not finite");
        }
        model.samples.push_back(
            {.config = configs[i],
             .score = core::benefit_score(metrics[i], score),
             .metrics = metrics[i]});
      }
      model.fit();
      models_.push_back(std::move(model));
    }
  }

  LoopResult run(RunContext& ctx, double seconds,
                 bool full_prefix) override {
    LoopResult out;
    std::vector<core::BenefitModel> live = models_;
    const int pmax = trials_->max_parallelism();
    const std::size_t ops = specs_[0].topology.num_operators();
    core::SteadyRateParams sp = plan_params(kWarmThreads, pmax);
    sp.incremental = true;
    sp.max_observations = kWarmWindow;

    const Clock::time_point start = Clock::now();
    for (int i = 0; !done(i, kWarmPrefix, full_prefix, start, seconds); ++i) {
      core::BenefitModel& model = live[static_cast<std::size_t>(i) %
                                       live.size()];
      ctx.spans.set_decision(i);
      const TrialLedger::Totals before = ctx.ledger.totals();
      bool ok = true;
      core::SteadyRateResult r;
      const Clock::time_point t0 = Clock::now();
      int span = -1;
      try {
        const SpanScope scope(ctx.spans, "decision");
        span = scope.id();
        const runtime::Evaluator eval = instrument(
            trials_->evaluator_at(model.rate, kTrialWarmupSec,
                                  kTrialMeasureSec),
            ctx, 0, model.rate, kTrialWarmupSec, kTrialMeasureSec);
        const std::size_t seeds = model.samples.size();
        {
          const SpanScope steady(ctx.spans, "core.steady_rate");
          r = core::run_steady_rate(eval, model.base, sp, model.samples,
                                    /*skip_bootstrap=*/true);
        }
        for (std::size_t k = seeds; k < r.history.size(); ++k) {
          if (r.history[k].estimated()) continue;
          const SpanScope observe(ctx.spans, "gp.observe");
          model.observe(r.history[k]);
        }
      } catch (const std::exception&) {
        ok = false;
      }
      const Clock::time_point t1 = Clock::now();
      const TrialLedger::Totals after = ctx.ledger.totals();
      ok = ok && after.nonfinite == before.nonfinite &&
           feasible(r.best, model.base, ops, pmax) && steady_finite(r);

      out.decision_s.push_back(seconds_between(t0, t1));
      if (span >= 0) out.decision_spans.push_back(span);
      ++out.attempted;
      if (!ok) ++out.failed;
      out.bootstrap_trials.push_back(r.bootstrap_evaluations);
      out.bo_trials.push_back(r.bo_iterations);
      if (i < kWarmPrefix) {
        count_prefix(before, after, r.best, out);
        out.digest.push_back(
            "d=" + std::to_string(i) + " rate=" + fmt("%.17g", model.rate) +
            " base=" + cfg(model.base) + " applied=" + cfg(r.best) +
            " evals=" + std::to_string(after.trials - before.trials) +
            " bo=" + std::to_string(r.bo_iterations) +
            " score=" + fmt("%.17g", r.best_score) +
            " window=" + std::to_string(model.samples.size()) +
            (ok ? "" : " FAILED"));
      }
    }
    ctx.spans.set_decision(-1);
    out.wall_s = seconds_between(start, Clock::now());
    out.sim_s = ctx.ledger.totals().sim_sec;

    out.has_fit_stats = true;
    for (std::size_t k = 0; k < live.size(); ++k) {
      add_fit_stats(out.fit_stats, live[k].gp.fit_stats(),
                    models_[k].gp.fit_stats());
      out.sample_sets.push_back({live[k].base, pmax, live[k].samples});
    }
    for (const double rate : kWarmRates) out.plan_inputs.push_back({0, rate});
    return out;
  }

  const std::vector<sim::JobSpec>& dags() const override { return specs_; }
  int plan_threads() const override { return kWarmThreads; }
  bool incremental() const override { return true; }
  int window() const override { return kWarmWindow; }

 private:
  std::vector<sim::JobSpec> specs_;
  std::shared_ptr<runtime::TrialService> trials_;
  std::vector<core::BenefitModel> models_;
};

// --------------------------------------------------------------------------
// mape_live: the full controller on a live session under MMPP arrivals.

constexpr DagChoice kLiveDags[] = {
    {"join", autra::workloads::stream_stream_join, 150e3},
    {"session", autra::workloads::sessionization, 150e3},
};
constexpr double kLiveHorizonSec = 1800.0;  ///< run_resilience default.
constexpr double kLiveIntervalSec = 60.0;
constexpr int kLiveEpisodes = 32;  ///< Arrival pairs materialised at set-up.
constexpr int kLivePrefix = 8;     ///< Episode pairs every run completes.
constexpr int kLiveThreads = 1;

/// The trials the controller ran since the last clear(), so the k' its
/// Plan stage started from can be recomputed afterwards without re-running
/// them.
class TrialMemo {
 public:
  void clear() {
    const std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
  }
  void add(const Parallelism& config, const runtime::JobMetrics& m) {
    const std::lock_guard<std::mutex> lock(mu_);
    entries_.emplace_back(config, m);
  }
  /// Answers from the memo. Trials are deterministic, so a rerun of the
  /// same search asks only for configurations the memo holds.
  [[nodiscard]] runtime::Evaluator evaluator() const {
    return [this](const Parallelism& p) {
      const std::lock_guard<std::mutex> lock(mu_);
      for (const auto& [config, m] : entries_) {
        if (config == p) return m;
      }
      throw std::logic_error("k' rerun asked for an unrecorded trial");
    };
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::pair<Parallelism, runtime::JobMetrics>>
      entries_;  // guarded by mu_
};

/// TrialService decorator: every evaluator it hands out is instrumented,
/// and its trials are kept in `memo`.
class InstrumentedTrials final : public runtime::TrialService {
 public:
  InstrumentedTrials(std::shared_ptr<const runtime::TrialService> inner,
                     RunContext& ctx, int dag, TrialMemo& memo)
      : inner_(std::move(inner)), ctx_(ctx), dag_(dag), memo_(memo) {}

  runtime::Evaluator evaluator_at(double rate, double warmup_sec,
                                  double measure_sec) const override {
    return [eval = instrument(
                inner_->evaluator_at(rate, warmup_sec, measure_sec), ctx_,
                dag_, rate, warmup_sec, measure_sec),
            &memo = memo_](const Parallelism& p) {
      runtime::JobMetrics m = eval(p);
      memo.add(p, m);
      return m;
    };
  }
  int max_parallelism() const override { return inner_->max_parallelism(); }
  double scheduled_rate_at(double t) const override {
    return inner_->scheduled_rate_at(t);
  }

 private:
  std::shared_ptr<const runtime::TrialService> inner_;
  RunContext& ctx_;
  int dag_;
  TrialMemo& memo_;
};

/// StreamingBackend decorator: spans around Monitor (advancing the live
/// engine, which writes the gauges) and Execute (reconfigure).
class TracedBackend final : public runtime::StreamingBackend {
 public:
  TracedBackend(runtime::StreamingBackend& inner, SpanRecorder& spans)
      : inner_(inner), spans_(spans) {}

  void run_for(double sec) override {
    const SpanScope scope(spans_, "streamsim.monitor");
    inner_.run_for(sec);
  }
  void reconfigure(const Parallelism& p, runtime::RescaleMode mode) override {
    const SpanScope scope(spans_, "runtime.execute");
    inner_.reconfigure(p, mode);
  }
  double now() const override { return inner_.now(); }
  const Parallelism& parallelism() const override {
    return inner_.parallelism();
  }
  runtime::JobMetrics window_metrics() const override {
    return inner_.window_metrics();
  }
  void reset_window() override { inner_.reset_window(); }
  const runtime::MetricStore& history() const override {
    return inner_.history();
  }
  int restarts() const override { return inner_.restarts(); }

 private:
  runtime::StreamingBackend& inner_;
  SpanRecorder& spans_;
};

/// Seconds (1 Hz gauges) with throughput below 0.9 x the input rate — the
/// resilience harness's violation rule.
double violation_seconds(const runtime::MetricStore& db) {
  namespace mn = runtime::metric_names;
  const runtime::MetricId thr_id = db.find(mn::kThroughput);
  const runtime::MetricId rate_id = db.find(mn::kInputRate);
  if (!thr_id.valid() || !rate_id.valid()) return 0.0;
  const auto thr = db.series(thr_id);
  const auto rate = db.series(rate_id);
  const std::size_t n = std::min(thr.values.size(), rate.values.size());
  double sec = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (thr.values[i] < 0.9 * rate.values[i]) sec += 1.0;
  }
  return sec;
}

class MapeLive final : public Workload {
 public:
  explicit MapeLive(std::uint64_t seed) {
    for (const DagChoice& d : kLiveDags) {
      // Trial specs: the replays swap in a constant schedule.
      dag_specs_.push_back(
          d.make(std::make_shared<sim::ConstantRate>(d.rate)));
    }
    for (int e = 0; e < kLiveEpisodes; ++e) {
      for (std::size_t d = 0; d < std::size(kLiveDags); ++d) {
        const std::uint64_t arrival_seed =
            derive(seed, 1000 + static_cast<std::uint64_t>(e) * 8 + d);
        episodes_.push_back(kLiveDags[d].make(autra::arrival::make_arrival(
            "mmpp", kLiveDags[d].rate, arrival_seed, kLiveHorizonSec)));
      }
    }
    // Warm the process before timing: one trial per DAG at its mean rate.
    for (const sim::JobSpec& spec : dag_specs_) {
      const Parallelism ones(spec.topology.num_operators(), 1);
      if (!finite_metrics(sim::make_trial_service(spec)->evaluator_at(
              spec.initial_rate(), kTrialWarmupSec, kTrialMeasureSec)(ones))) {
        throw std::runtime_error("mape_live: warm-up trial not finite");
      }
    }
  }

  LoopResult run(RunContext& ctx, double seconds,
                 bool full_prefix) override {
    LoopResult out;
    int window_id = 0;
    const Clock::time_point start = Clock::now();
    for (int e = 0; !done(e, kLivePrefix, full_prefix, start, seconds); ++e) {
      for (std::size_t d = 0; d < std::size(kLiveDags); ++d) {
        const sim::JobSpec& spec =
            episodes_[(static_cast<std::size_t>(e) % kLiveEpisodes) *
                          std::size(kLiveDags) +
                      d];
        episode(ctx, spec, static_cast<int>(d), e, e < kLivePrefix,
                window_id, out);
      }
    }
    ctx.spans.set_decision(-1);
    out.wall_s = seconds_between(start, Clock::now());
    out.sim_s = ctx.ledger.totals().sim_sec + out.live_sim_s;
    return out;
  }

  const std::vector<sim::JobSpec>& dags() const override {
    return dag_specs_;
  }
  int plan_threads() const override { return kLiveThreads; }

 private:
  void episode(RunContext& ctx, const sim::JobSpec& spec, int dag, int e,
               bool prefix, int& window_id, LoopResult& out) {
    const std::size_t ops = spec.topology.num_operators();
    core::ControllerParams params;
    params.steady = plan_params(kLiveThreads, 1);  // P_max: the controller's.
    params.policy_interval_sec = kLiveIntervalSec;
    params.policy_running_time_sec = 2.0 * kLiveIntervalSec;
    params.resilience.metric_interval_sec = spec.engine.metric_interval_sec;
    params.resilience.failure_cooldown_sec = kLiveIntervalSec;

    sim::ScalingSession session(spec, Parallelism(ops, 1));
    TracedBackend backend(session, ctx.spans);
    TrialMemo memo;
    const auto trials = std::make_shared<InstrumentedTrials>(
        sim::make_trial_service(spec), ctx, dag, memo);
    const int pmax = trials->max_parallelism();
    // The controller's own throughput optimisation, to recompute k'.
    core::ThroughputOptParams topt = params.throughput;
    topt.max_parallelism = pmax;
    const core::ThroughputOptimizer optimizer(spec.topology, topt);
    core::AuTraScaleController controller(spec.topology, trials, params);
    controller.prime(backend);

    std::vector<core::ControlDecision> decisions;
    double slot_sec = 0.0;
    bool first_decision = true;
    while (backend.now() < kLiveHorizonSec) {
      backend.reset_window();
      const double t0 = backend.now();
      backend.run_for(std::min(kLiveIntervalSec, kLiveHorizonSec - t0));
      slot_sec += total(backend.parallelism()) * (backend.now() - t0);

      const std::size_t n0 = decisions.size();
      const TrialLedger::Totals before = ctx.ledger.totals();
      memo.clear();
      ctx.spans.set_decision(window_id++);
      bool ok = true;
      const Clock::time_point w0 = Clock::now();
      int span = -1;
      try {
        const SpanScope scope(ctx.spans, "window");
        span = scope.id();
        controller.observe_window(backend, t0, decisions);
      } catch (const std::exception&) {
        ok = false;
      }
      const Clock::time_point w1 = Clock::now();
      ctx.spans.set_decision(-1);
      if (ok && decisions.size() == n0) continue;  // Nothing to decide.

      const TrialLedger::Totals after = ctx.ledger.totals();
      ok = ok && after.nonfinite == before.nonfinite;
      for (std::size_t k = n0; k < decisions.size(); ++k) {
        const core::ControlDecision& c = decisions[k];
        Parallelism base;
        if (ok && !c.execute_failed && c.algorithm == "algorithm1") {
          // Alg. 1 must stay at or above the k' it started from: rerun
          // the controller's throughput optimisation over this window's
          // trials.
          base = optimizer.optimize(memo.evaluator(), Parallelism(ops, 1))
                     .best;
        }
        ok = ok && !c.execute_failed && feasible(c.applied, base, ops, pmax);
      }
      out.decision_s.push_back(seconds_between(w0, w1));
      if (span >= 0) out.decision_spans.push_back(span);
      ++out.attempted;
      if (!ok) ++out.failed;
      if (first_decision && after.trials > before.trials &&
          out.plan_inputs.size() < std::size(kLiveDags)) {
        out.plan_inputs.push_back(
            {dag, ctx.ledger.records()[static_cast<std::size_t>(
                                           before.trials)]
                      .rate});
        first_decision = false;
      }
      if (prefix) {
        ++out.prefix_decisions;
        out.prefix_evaluations += after.trials - before.trials;
        for (std::size_t k = n0; k < decisions.size(); ++k) {
          const core::ControlDecision& c = decisions[k];
          out.digest.push_back(
              "e=" + std::to_string(e) + " dag=" + kLiveDags[dag].name +
              " t=" + fmt("%.17g", c.time) +
              " trigger=" + core::to_string(c.trigger) +
              " alg=" + c.algorithm + " applied=" + cfg(c.applied) +
              " evals=" + std::to_string(c.evaluations) +
              (ok ? "" : " FAILED"));
        }
      }
    }

    out.live_sim_s += backend.now();
    if (prefix) {
      const double violation = violation_seconds(session.history());
      out.prefix_violation_sec += violation;
      out.prefix_job_sec += backend.now();
      out.prefix_slots += slot_sec;
      out.prefix_slot_weight += backend.now();
      out.digest.push_back("e=" + std::to_string(e) + " dag=" +
                           kLiveDags[dag].name +
                           " violation_s=" + fmt("%.17g", violation));
    }
    if (out.histories.size() < std::size(kLiveDags)) {
      out.histories.push_back({dag, session.history()});
    }
    for (const core::BenefitModel& m : controller.library().models()) {
      if (out.sample_sets.size() < 4 && !m.samples.empty()) {
        out.sample_sets.push_back({m.base, pmax, m.samples});
      }
    }
  }

  std::vector<sim::JobSpec> dag_specs_;
  std::vector<sim::JobSpec> episodes_;
};

}  // namespace

std::vector<std::string> workload_names() {
  return {"cold_decide", "warm_window", "mape_live"};
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "cold_decide") return std::make_unique<ColdDecide>(seed);
  if (name == "warm_window") return std::make_unique<WarmWindow>(seed);
  if (name == "mape_live") return std::make_unique<MapeLive>(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace dbench
