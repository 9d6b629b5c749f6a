// Per-layer numbers of the traced run. Where the decision loop calls a
// layer directly, its spans give the number; everything else replays
// inputs the loop recorded (trials, sample sets, Plan inputs, live gauge
// histories) through the layer's public functions.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>

#include "bayesopt/bayes_opt.hpp"
#include "bench.hpp"
#include "core/controller.hpp"
#include "linalg/cholesky.hpp"
#include "streamsim/latency.hpp"
#include "streamsim/rates.hpp"

namespace dbench {

namespace core = autra::core;
namespace runtime = autra::runtime;
namespace sim = autra::sim;
namespace linalg = autra::linalg;

namespace {

constexpr std::size_t kTickReplays = 8;     ///< Trials replayed per run.
constexpr std::size_t kLatencyStreams = 8;  ///< Trial-shaped add streams.
constexpr int kTicksPerTrial = 2400;        ///< 120 s at the 50 ms tick.
constexpr int kCohortsPerTick = 4;          ///< Sink cohorts per tick.
constexpr std::size_t kGpSets = 3;          ///< Sample sets replayed.
constexpr std::size_t kObserveTail = 8;     ///< Samples fed via observe().
constexpr int kSuggestReps = 3;
constexpr int kLinalgReps = 200;
constexpr double kWindowSec = 60.0;         ///< The policy interval.

/// Replayed results are folded in here so no timed call is optimised away.
double g_sink = 0.0;

double us(Clock::time_point a, Clock::time_point b) {
  return seconds_between(a, b) * 1e6;
}

bool named(const Span& s, const char* name) {
  return std::strcmp(s.name, name) == 0;
}

/// First child span of `parent` called `name`, -1 when none.
int child(const std::vector<Span>& spans, int parent, const char* name) {
  for (std::size_t i = static_cast<std::size_t>(parent) + 1; i < spans.size();
       ++i) {
    if (spans[i].parent == parent && named(spans[i], name)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

/// Wall time and summed trial time of the first `n` trials under `scope`
/// — the bootstrap fan-out of an Alg. 1 run.
struct Batch {
  double wall_s = 0.0;
  double busy_s = 0.0;
};
Batch bootstrap_batch(const std::vector<Span>& spans, int scope, int n) {
  std::vector<const Span*> trials;
  for (std::size_t i = static_cast<std::size_t>(scope) + 1; i < spans.size();
       ++i) {
    if (spans[i].parent == scope && named(spans[i], "streamsim.trial")) {
      trials.push_back(&spans[i]);
    }
  }
  std::sort(trials.begin(), trials.end(), [](const Span* a, const Span* b) {
    return a->start_ns < b->start_ns;
  });
  trials.resize(std::min(trials.size(), static_cast<std::size_t>(n)));
  Batch b;
  if (trials.empty()) return b;
  std::int64_t lo = trials.front()->start_ns;
  std::int64_t hi = trials.front()->end_ns;
  for (const Span* t : trials) {
    lo = std::min(lo, t->start_ns);
    hi = std::max(hi, t->end_ns);
    b.busy_s += t->seconds();
  }
  b.wall_s = static_cast<double>(hi - lo) * 1e-9;
  return b;
}

std::vector<TrialRecord> spread_pick(const std::vector<TrialRecord>& all,
                                     std::size_t n) {
  std::vector<TrialRecord> out;
  const std::size_t take = std::min(n, all.size());
  for (std::size_t k = 0; k < take; ++k) {
    out.push_back(all[k * all.size() / take]);
  }
  return out;
}

linalg::Matrix features(const std::vector<core::SamplePoint>& samples,
                        std::size_t from, std::size_t to) {
  const std::size_t dims = samples.front().config.size();
  linalg::Matrix x(to - from, dims);
  for (std::size_t i = from; i < to; ++i) {
    for (std::size_t j = 0; j < dims; ++j) {
      x(i - from, j) = samples[i].config[j];
    }
  }
  return x;
}

linalg::Vector targets(const std::vector<core::SamplePoint>& samples,
                       std::size_t from, std::size_t to) {
  linalg::Vector y;
  for (std::size_t i = from; i < to; ++i) y.push_back(samples[i].score);
  return y;
}

autra::gp::GpConfig gp_config(const Workload& w) {
  autra::gp::GpConfig cfg;
  cfg.threads = w.plan_threads();
  cfg.max_observations = w.window();
  return cfg;
}

// --- streamsim -----------------------------------------------------------

struct TickReplay {
  double ticks_per_trial = 0.0;
  double ops_per_tick = 0.0;
  double tick_ns = 0.0;
  std::vector<LiveHistory> stores;  ///< Each replayed trial's gauges.
};

TickReplay replay_ticks(const Workload& w,
                        const std::vector<TrialRecord>& picked) {
  TickReplay r;
  double ticks = 0.0;
  double ops = 0.0;
  double wall = 0.0;
  for (const TrialRecord& rec : picked) {
    sim::JobSpec spec = w.dags()[static_cast<std::size_t>(rec.dag)];
    spec.schedule = std::make_shared<sim::ConstantRate>(rec.rate);
    const Clock::time_point t0 = Clock::now();
    const auto engine = sim::make_engine(spec, rec.config, 0.0,
                                         runtime::trial_seed_salt(rec.config));
    engine->run_until(kTrialWarmupSec);
    engine->reset_counters();
    engine->run_until(kTrialWarmupSec + kTrialMeasureSec);
    wall += seconds_between(t0, Clock::now());
    ticks += static_cast<double>(engine->epoch_stats().ticks);
    ops += static_cast<double>(engine->epoch_stats().operators_touched);
    g_sink += engine->throughput();
    r.stores.push_back({rec.dag, engine->metrics()});
  }
  if (ticks > 0.0) {
    r.ticks_per_trial = ticks / static_cast<double>(picked.size());
    r.ops_per_tick = ops / ticks;
    r.tick_ns = wall * 1e9 / ticks;
  }
  return r;
}

/// ns per LatencyStats::add on fresh accumulators fed a stream shaped like
/// one trial's sink output: kCohortsPerTick cohorts per tick, mass around
/// the recorded throughput, lognormal latency around the recorded mean.
double replay_latency_add(const std::vector<TrialRecord>& picked,
                          std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::lognormal_distribution<double> dispersion(-0.125, 0.5);
  std::uniform_real_distribution<double> share(0.5, 1.5);
  const std::size_t n = static_cast<std::size_t>(kTicksPerTrial) *
                        static_cast<std::size_t>(kCohortsPerTick);
  std::vector<double> per_add;
  std::vector<double> latency(n);
  std::vector<double> mass(n);
  for (const TrialRecord& rec : picked) {
    const double mean_sec = std::max(rec.latency_ms, 1.0) * 1e-3;
    const double cohort = std::max(rec.throughput, 1.0) * 0.05 /
                          static_cast<double>(kCohortsPerTick);
    for (std::size_t i = 0; i < n; ++i) {
      latency[i] = mean_sec * dispersion(rng);
      mass[i] = cohort * share(rng);
    }
    sim::LatencyStats stats;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) stats.add(latency[i], mass[i]);
    per_add.push_back(seconds_between(t0, Clock::now()) * 1e9 /
                      static_cast<double>(n));
    g_sink += stats.mean();
  }
  return quantile(per_add, 0.5);
}

// --- runtime ---------------------------------------------------------------

struct AggregateReplay {
  double aggregate_us = 0.0;
  double history_points = 0.0;
};

AggregateReplay replay_aggregate(const Workload& w,
                                 const std::vector<LiveHistory>& stores) {
  namespace mn = runtime::metric_names;
  std::vector<double> calls;
  double points = 0.0;
  for (const LiveHistory& h : stores) {
    const sim::JobSpec& spec = w.dags()[static_cast<std::size_t>(h.dag)];
    for (const std::string& name : h.store.series_names()) {
      points += static_cast<double>(
          h.store.series(h.store.find(name)).values.size());
    }
    const auto last = h.store.last(h.store.find(mn::kThroughput));
    if (!last) continue;
    const core::MetricAggregator aggregator(spec.topology,
                                            spec.engine.metric_interval_sec);
    for (double t = 0.0; t + kWindowSec <= last->time + 1e-9;
         t += kWindowSec) {
      core::WindowHealth health;
      const Clock::time_point t0 = Clock::now();
      const core::AggregatedMetrics m =
          aggregator.aggregate(h.store, t, t + kWindowSec, &health);
      calls.push_back(us(t0, Clock::now()));
      g_sink += m.throughput;
    }
  }
  AggregateReplay r;
  r.aggregate_us = quantile(calls, 0.5);
  if (!stores.empty()) {
    r.history_points = points / static_cast<double>(stores.size());
  }
  return r;
}

// --- gp / linalg / bayesopt --------------------------------------------------

/// Fits each recorded set minus its last samples, then feeds those through
/// observe(); returns the summed update-path counters.
autra::gp::FitStats replay_gp(const Workload& w,
                              const std::vector<SampleSet>& sets,
                              SpanRecorder& spans) {
  autra::gp::FitStats stats;
  for (std::size_t k = 0; k < sets.size() && k < kGpSets; ++k) {
    const auto& samples = sets[k].samples;
    if (samples.size() < 4) continue;
    const std::size_t tail = std::min(kObserveTail, samples.size() / 2);
    const std::size_t head = samples.size() - tail;
    autra::gp::GpRegressor gp(gp_config(w));
    {
      const SpanScope scope(spans, "replay.gp.fit");
      gp.fit(features(samples, 0, head), targets(samples, 0, head));
    }
    for (std::size_t i = head; i < samples.size(); ++i) {
      const std::vector<double> x(samples[i].config.begin(),
                                  samples[i].config.end());
      const SpanScope scope(spans, "replay.gp.observe");
      gp.observe(x, samples[i].score);
    }
    add_fit_stats(stats, gp.fit_stats());
  }
  return stats;
}

struct LinalgReplay {
  double append_row_us = 0.0;
  double drop_first_us = 0.0;
  double solve_lower_us = 0.0;
  double solve_upper_us = 0.0;
};

/// Factor operations at n = the largest recorded set (the window W on
/// warm_window): the GP's own cached factor of that set, extended by its
/// last row, evicted at its first, and solved against.
LinalgReplay replay_linalg(const Workload& w,
                           const std::vector<SampleSet>& sets,
                           std::uint64_t seed) {
  LinalgReplay r;
  const SampleSet* largest = nullptr;
  for (const SampleSet& s : sets) {
    if (largest == nullptr || s.samples.size() > largest->samples.size()) {
      largest = &s;
    }
  }
  if (largest == nullptr || largest->samples.size() < 3) return r;
  const std::size_t n = largest->samples.size();
  autra::gp::GpRegressor gp(gp_config(w));
  gp.fit(features(largest->samples, 0, n), targets(largest->samples, 0, n));
  const linalg::Matrix l = gp.snapshot().l;

  linalg::Matrix lead(n - 1, n - 1);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) lead(i, j) = l(i, j);
  }
  // The bordered row of A = L L^T that extends `lead` back to `l`.
  linalg::Vector cross(n - 1, 0.0);
  for (std::size_t j = 0; j + 1 < n; ++j) {
    for (std::size_t k = 0; k <= j; ++k) cross[j] += l(n - 1, k) * l(j, k);
  }
  double diag = 0.0;
  for (std::size_t k = 0; k < n; ++k) diag += l(n - 1, k) * l(n - 1, k);
  const linalg::Cholesky base = linalg::Cholesky::from_lower(lead);
  const linalg::Cholesky full = linalg::Cholesky::from_lower(l);
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> normal;
  linalg::Vector b(n);
  for (double& v : b) v = normal(rng);

  std::vector<double> append, drop, lower, upper;
  for (int rep = 0; rep < kLinalgReps; ++rep) {
    linalg::Cholesky grow = base;
    Clock::time_point t0 = Clock::now();
    grow.append_row(cross, diag);
    append.push_back(us(t0, Clock::now()));

    linalg::Cholesky shrink = full;
    t0 = Clock::now();
    shrink.drop_first();
    drop.push_back(us(t0, Clock::now()));

    t0 = Clock::now();
    const linalg::Vector lo = full.solve_lower(b);
    lower.push_back(us(t0, Clock::now()));

    t0 = Clock::now();
    const linalg::Vector up = full.solve_upper(b);
    upper.push_back(us(t0, Clock::now()));
    g_sink += grow.size() + shrink.size() + lo[0] + up[0];
  }
  r.append_row_us = quantile(append, 0.5);
  r.drop_first_us = quantile(drop, 0.5);
  r.solve_lower_us = quantile(lower, 0.5);
  r.solve_upper_us = quantile(upper, 0.5);
  return r;
}

/// EI scoring over the 4096-candidate budget on each recorded set, with
/// the surrogate fitted before the timed suggest() calls.
void replay_suggest(const Workload& w, const std::vector<SampleSet>& sets,
                    SpanRecorder& spans) {
  for (std::size_t k = 0; k < sets.size() && k < kGpSets; ++k) {
    const SampleSet& set = sets[k];
    if (set.samples.size() < 2) continue;
    autra::bo::BayesOptConfig cfg;
    cfg.gp = gp_config(w);
    cfg.incremental = w.incremental();
    autra::bo::BayesOpt opt(
        autra::bo::SearchSpace(
            autra::bo::Config(set.base.begin(), set.base.end()),
            autra::bo::Config(set.base.size(), set.max_parallelism)),
        cfg);
    for (const core::SamplePoint& s : set.samples) {
      opt.observe(autra::bo::Config(s.config.begin(), s.config.end()),
                  s.score);
    }
    g_sink += opt.predict(autra::bo::Config(set.samples.front().config.begin(),
                                            set.samples.front().config.end()))
                  .mean;
    for (int rep = 0; rep < kSuggestReps; ++rep) {
      const SpanScope scope(spans, "replay.bayesopt.suggest");
      g_sink += opt.suggest().expected_improvement;
    }
  }
}

// --- core / exec -------------------------------------------------------------

struct PlanReplay {
  std::vector<int> bootstrap_trials;
  std::vector<int> bo_trials;
  std::vector<double> efficiency;
  std::vector<double> speedup;
};

/// Re-runs recorded Plan inputs from scratch (throughput optimisation, then
/// Alg. 1) at the workload's Plan threads, then Alg. 1 again from the same
/// k' at one thread, timing the bootstrap fan-out of both.
PlanReplay replay_plans(const Workload& w, const std::vector<PlanInput>& in,
                        RunContext& ctx) {
  PlanReplay r;
  const int threads = w.plan_threads();
  for (const PlanInput& p : in) {
    const sim::JobSpec& spec = w.dags()[static_cast<std::size_t>(p.dag)];
    const auto service = sim::make_trial_service(spec);
    const int pmax = service->max_parallelism();
    const auto eval = [&] {
      return instrument(
          service->evaluator_at(p.rate, kTrialWarmupSec, kTrialMeasureSec),
          ctx, p.dag, p.rate, kTrialWarmupSec, kTrialMeasureSec);
    };
    int plan_span = -1;
    ColdDecision d;
    {
      const SpanScope scope(ctx.spans, "replay.plan");
      plan_span = scope.id();
      d = decide_cold(spec.topology, eval(), pmax, threads, ctx.spans);
    }
    int serial_span = -1;
    {
      const SpanScope scope(ctx.spans, "replay.steady_rate_1t");
      serial_span = scope.id();
      g_sink += core::run_steady_rate(eval(), d.base.best,
                                      plan_params(1, pmax))
                    .best_score;
    }
    r.bootstrap_trials.push_back(d.steady.bootstrap_evaluations);
    r.bo_trials.push_back(d.steady.bo_iterations);
    const std::vector<Span> spans = ctx.spans.spans();
    const int steady = child(spans, plan_span, "core.steady_rate");
    if (steady < 0 || d.steady.bootstrap_evaluations == 0) continue;
    const Batch par =
        bootstrap_batch(spans, steady, d.steady.bootstrap_evaluations);
    const Batch ser =
        bootstrap_batch(spans, serial_span, d.steady.bootstrap_evaluations);
    if (par.wall_s > 0.0) {
      r.efficiency.push_back(par.busy_s / (par.wall_s * threads));
      r.speedup.push_back(ser.wall_s / par.wall_s);
    }
  }
  return r;
}

double per_decision(const std::vector<int>& counts) {
  return mean(std::vector<double>(counts.begin(), counts.end()));
}

}  // namespace

void layer_metrics(const Workload& w, const LoopResult& traced,
                   RunContext& ctx, std::uint64_t seed,
                   std::vector<Metric>& out) {
  const auto add = [&out](const char* name, double value, const char* unit) {
    out.push_back({name, value, unit});
  };
  const std::vector<Span> loop = ctx.spans.spans();
  const std::vector<TrialRecord> trials = ctx.ledger.records();

  // streamsim
  const std::vector<double> trial_s = durations(loop, "streamsim.trial");
  add("streamsim.trial_s.p50", quantile(trial_s, 0.5), "s");
  add("streamsim.trial_s.p90", quantile(trial_s, 0.9), "s");
  const TickReplay ticks = replay_ticks(w, spread_pick(trials, kTickReplays));
  add("streamsim.ticks_per_trial", ticks.ticks_per_trial, "count");
  add("streamsim.ops_touched_per_tick", ticks.ops_per_tick, "count");
  add("streamsim.tick_ns", ticks.tick_ns, "ns");
  add("streamsim.latency_add_ns",
      replay_latency_add(spread_pick(trials, kLatencyStreams), seed), "ns");
  double monitor_s = 0.0;
  for (const double d : durations(loop, "streamsim.monitor")) monitor_s += d;
  add("streamsim.monitor_s_per_sim_h",
      traced.live_sim_s > 0.0 ? monitor_s / (traced.live_sim_s / 3600.0)
                              : 0.0,
      "s/h");

  // core: the loop's own spans where it calls the layer, else the replay.
  const std::size_t loop_end = loop.size();
  const PlanReplay plans = replay_plans(w, traced.plan_inputs, ctx);
  const autra::gp::FitStats replayed =
      replay_gp(w, traced.sample_sets, ctx.spans);
  replay_suggest(w, traced.sample_sets, ctx.spans);
  const std::vector<Span> all = ctx.spans.spans();
  const auto loop_or_replay = [&](const char* name, const char* replay) {
    std::vector<double> v = durations(all, name, 0, loop_end);
    if (v.empty()) v = durations(all, replay, loop_end, all.size());
    return quantile(v, 0.5);
  };
  add("core.throughput_opt_s.p50",
      loop_or_replay("core.throughput_opt", "core.throughput_opt"), "s");
  add("core.steady_rate_s.p50",
      loop_or_replay("core.steady_rate", "core.steady_rate"), "s");
  std::vector<double> self;
  for (const int id : traced.decision_spans) {
    self.push_back(self_seconds(
        all, id,
        {"streamsim.trial", "runtime.execute", "streamsim.monitor"}));
  }
  add("core.plan_self_s.p50", quantile(self, 0.5), "s");
  const bool loop_counts = !traced.bootstrap_trials.empty();
  add("core.bootstrap_trials",
      per_decision(loop_counts ? traced.bootstrap_trials
                               : plans.bootstrap_trials),
      "count");
  add("core.bo_trials",
      per_decision(loop_counts ? traced.bo_trials : plans.bo_trials), "count");

  // exec
  add("exec.fanout_efficiency", quantile(plans.efficiency, 0.5), "ratio");
  add("exec.fanout_speedup", quantile(plans.speedup, 0.5), "x");

  // gp
  add("gp.observe_s.p50", loop_or_replay("gp.observe", "replay.gp.observe"),
      "s");
  add("gp.fit_s.p50",
      quantile(durations(all, "replay.gp.fit", loop_end, all.size()), 0.5),
      "s");
  const autra::gp::FitStats& fs =
      traced.has_fit_stats ? traced.fit_stats : replayed;
  const double observes =
      static_cast<double>(fs.incremental_updates + fs.hyperparam_refits +
                          fs.normalisation_refits + fs.jitter_refits);
  add("gp.full_fits", static_cast<double>(fs.full_fits), "count");
  add("gp.incremental_updates", static_cast<double>(fs.incremental_updates),
      "count");
  add("gp.window_evictions", static_cast<double>(fs.window_evictions),
      "count");
  add("gp.normalisation_refits", static_cast<double>(fs.normalisation_refits),
      "count");
  add("gp.observe_calls", observes, "count");
  add("gp.incremental_share",
      observes > 0.0 ? static_cast<double>(fs.incremental_updates) / observes
                     : 0.0,
      "ratio");

  // linalg
  const LinalgReplay la = replay_linalg(w, traced.sample_sets, seed);
  add("linalg.append_row_us", la.append_row_us, "us");
  add("linalg.drop_first_us", la.drop_first_us, "us");
  add("linalg.solve_lower_us", la.solve_lower_us, "us");
  add("linalg.solve_upper_us", la.solve_upper_us, "us");

  // bayesopt
  add("bayesopt.suggest_s.p50",
      quantile(durations(all, "replay.bayesopt.suggest", loop_end,
                            all.size()),
               0.5),
      "s");

  // runtime: live histories where the workload has a live job, else the
  // gauge stores of the replayed trials.
  const AggregateReplay agg = replay_aggregate(
      w, traced.histories.empty() ? ticks.stores : traced.histories);
  add("runtime.aggregate_us", agg.aggregate_us, "us");
  add("runtime.history_points", agg.history_points, "count");
}

}  // namespace dbench
