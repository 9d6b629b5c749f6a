#include "streamsim/job_runner.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

namespace autra::sim {

double JobSpec::initial_rate() const {
  if (!schedule) {
    throw std::logic_error("JobSpec: no rate schedule");
  }
  return schedule->rate_at(0.0);
}

namespace {

/// The one engine construction path: `spec`'s topology, cluster and
/// external services over `kafka`, starting at `start_time` with the
/// spec's seed offset by `seed_offset`.
std::unique_ptr<Engine> build_engine(const JobSpec& spec, const Parallelism& p,
                                     std::unique_ptr<KafkaLog> kafka,
                                     double start_time,
                                     std::uint64_t seed_offset) {
  EngineParams params = spec.engine;
  params.start_time = start_time;
  params.seed += seed_offset;
  auto engine = std::make_unique<Engine>(spec.topology, Cluster(spec.cluster),
                                         p, std::move(kafka), params);
  for (const ExternalServiceSpec& svc : spec.services) {
    engine->add_external_service(
        ExternalService(svc.name, svc.max_calls_per_sec, svc.burst_sec,
                        svc.call_latency_ms));
  }
  return engine;
}

/// Registers one hosted fault event with `engine` (which validates it).
/// A rack crash is every member machine down over the same window.
void inject(Engine& engine, const fault::FaultEvent& e) {
  switch (e.kind) {
    case fault::FaultKind::kMachineDown:
      engine.inject_machine_down(e.machine, e.at, e.end());
      break;
    case fault::FaultKind::kSlowNode:
      engine.inject_slowdown(e.machine, e.magnitude, e.at, e.end());
      break;
    case fault::FaultKind::kServiceOutage:
      engine.inject_service_outage(e.service, e.at, e.end());
      break;
    case fault::FaultKind::kIngestStall:
      engine.inject_ingest_stall(e.at, e.end());
      break;
    case fault::FaultKind::kRackDown:
      for (std::size_t m : e.machines) {
        engine.inject_machine_down(m, e.at, e.end());
      }
      break;
    case fault::FaultKind::kNetworkPartition:
      engine.inject_network_partition(e.machines, e.at, e.end());
      break;
    case fault::FaultKind::kMetricDropout:
    case fault::FaultKind::kMetricDelay:
    case fault::FaultKind::kRescaleFailure:
      throw std::invalid_argument(
          "ScalingSession: not an engine-level fault");
  }
}

bool is_crash(fault::FaultKind kind) noexcept {
  return kind == fault::FaultKind::kMachineDown ||
         kind == fault::FaultKind::kRackDown;
}

}  // namespace

std::unique_ptr<Engine> make_engine(const JobSpec& spec, const Parallelism& p,
                                    double start_time,
                                    std::uint64_t seed_salt) {
  if (!spec.schedule) {
    throw std::invalid_argument("make_engine: spec has no rate schedule");
  }
  // seed_salt decorrelates reruns.
  return build_engine(spec, p, std::make_unique<KafkaLog>(spec.schedule),
                      start_time, seed_salt * 7919);
}

JobMetrics snapshot(const Engine& engine) {
  JobMetrics m;
  m.parallelism = engine.parallelism();
  m.throughput = engine.throughput();
  m.input_rate = engine.kafka().rate_at(engine.now());
  const LatencyStats& lat = engine.processing_latency();
  m.latency_ms = lat.mean() * 1000.0;
  m.latency_p50_ms = lat.quantile(0.5) * 1000.0;
  m.latency_p95_ms = lat.quantile(0.95) * 1000.0;
  m.latency_p99_ms = lat.quantile(0.99) * 1000.0;
  m.event_latency_ms = engine.event_latency().mean() * 1000.0;
  m.kafka_lag = engine.kafka().lag();
  m.lag_growth_per_sec = engine.lag_growth_per_sec();
  m.busy_cores = engine.busy_cores();
  m.memory_mb = engine.memory_mb();
  for (std::size_t i = 0; i < engine.topology().num_operators(); ++i) {
    m.operators.push_back(engine.rates(i));
  }
  return m;
}

JobRunner::JobRunner(JobSpec spec, RunnerParams params)
    : spec_(std::move(spec)), params_(params) {
  spec_.topology.validate();
  if (params_.warmup_sec < 0.0 || params_.measure_sec <= 0.0) {
    throw std::invalid_argument("JobRunner: bad window lengths");
  }
}

int JobRunner::max_parallelism() const {
  return Cluster(spec_.cluster).max_parallelism();
}

JobMetrics JobRunner::measure(const Parallelism& p,
                              std::uint64_t seed_salt) const {
  auto engine = make_engine(spec_, p, 0.0, seed_salt);
  engine->run_until(params_.warmup_sec);
  engine->reset_counters();
  engine->run_until(params_.warmup_sec + params_.measure_sec);
  JobMetrics m = snapshot(*engine);
  ++evaluations_;
  return m;
}

runtime::Evaluator make_rerun_evaluator(
    std::shared_ptr<const JobRunner> runner) {
  struct Reruns {
    std::mutex mu;
    std::map<Parallelism, std::uint64_t> counts;
  };
  auto reruns = std::make_shared<Reruns>();
  return [runner = std::move(runner), reruns](const Parallelism& p) {
    std::uint64_t rerun = 0;
    {
      const std::lock_guard<std::mutex> lock(reruns->mu);
      rerun = reruns->counts[p]++;
    }
    return runner->measure(p, runtime::trial_seed_salt(p) + rerun);
  };
}

ScalingSession::ScalingSession(JobSpec spec, Parallelism initial,
                               SessionParams params)
    : spec_(std::move(spec)), params_(params) {
  spec_.topology.validate();
  engine_ = make_engine(spec_, initial, 0.0, 0);
  engine_->set_external_metrics(&history_);
}

void ScalingSession::run_for(double sec) { run_to(engine_->now() + sec); }

void ScalingSession::run_to(double until_sec) {
  const double target = until_sec;
  // Machine and rack crashes force framework-style restarts: run up to the
  // moment the crash is detected, then rebuild the engine at the current
  // parallelism with the full restart downtime. A rack crash costs ONE
  // restart for the whole group (the framework notices the correlated loss
  // as one incident). The crash window usually extends past the restart,
  // so the successor engine (faults re-applied) still sees the machines
  // down until they recover.
  for (;;) {
    HostedFault* pending = nullptr;
    double restart_at = 0.0;
    for (HostedFault& f : faults_) {
      if (!is_crash(f.event.kind) || f.restarted) continue;
      const double at = f.event.at + f.event.detection_delay_sec;
      if (at > target) continue;
      if (pending == nullptr || at < restart_at) {
        pending = &f;
        restart_at = at;
      }
    }
    if (pending == nullptr) break;
    engine_->run_until(std::max(restart_at, engine_->now()));
    pending->restarted = true;
    ++failure_restarts_;
    const Parallelism p = engine_->parallelism();
    rebuild_engine(p, params_.restart_downtime_sec);
  }
  engine_->run_until(target);
}

void ScalingSession::reconfigure(const Parallelism& p, RescaleMode mode) {
  if (p == engine_->parallelism()) return;
  if (mode == RescaleMode::kHotScaleOut) {
    const Parallelism& current = engine_->parallelism();
    for (std::size_t i = 0; i < p.size() && i < current.size(); ++i) {
      if (p[i] < current[i]) {
        throw std::invalid_argument(
            "ScalingSession: hot scale-out cannot shrink an operator");
      }
    }
  }
  rebuild_engine(p, mode == RescaleMode::kHotScaleOut
                        ? params_.hot_downtime_sec
                        : params_.restart_downtime_sec);
}

void ScalingSession::set_external_machine_load(
    const std::vector<double>& load) {
  engine_->set_external_machine_load(load);  // validates
  external_machine_load_ = load;
}

void ScalingSession::set_external_uplink_load(
    const std::vector<double>& records_per_sec) {
  engine_->set_external_uplink_load(records_per_sec);  // validates
  external_uplink_load_ = records_per_sec;
}

std::vector<double> ScalingSession::uplink_consumed_records() const {
  std::vector<double> total = engine_->network().consumed_records();
  for (std::size_t r = 0;
       r < total.size() && r < uplink_consumed_base_.size(); ++r) {
    total[r] += uplink_consumed_base_[r];
  }
  return total;
}

void ScalingSession::rebuild_engine(const Parallelism& p, double downtime) {
  const double t = engine_->now();
  // Uplink consumption accounting survives the rebuild: fold the outgoing
  // engine's cumulative counters into the base before discarding it.
  const std::vector<double>& consumed = engine_->network().consumed_records();
  if (!consumed.empty()) {
    uplink_consumed_base_.resize(consumed.size(), 0.0);
    for (std::size_t r = 0; r < consumed.size(); ++r) {
      uplink_consumed_base_[r] += consumed[r];
    }
  }
  auto next = build_engine(spec_, p, engine_->release_kafka(), t,
                           ++reconfig_salt_ * 104729);
  for (const HostedFault& f : faults_) inject(*next, f.event);
  next->set_external_metrics(&history_);
  // Co-tenant interference survives the rebuild too (empty vectors are
  // no-ops, so the single-tenant path is untouched).
  if (!external_machine_load_.empty()) {
    next->set_external_machine_load(external_machine_load_);
  }
  if (!external_uplink_load_.empty()) {
    next->set_external_uplink_load(external_uplink_load_);
  }
  next->suspend_until(t + downtime);
  engine_ = std::move(next);
  ++restarts_;
}

void ScalingSession::host_fault(const fault::FaultEvent& e) {
  if (is_crash(e.kind) && e.detection_delay_sec < 0.0) {
    throw std::invalid_argument(
        "ScalingSession: negative crash detection delay");
  }
  // Validate a rack group before touching the engine so a bad group
  // leaves no partial crash behind.
  if (e.kind == fault::FaultKind::kRackDown) {
    if (e.machines.empty() || e.end() <= e.at) {
      throw std::invalid_argument("ScalingSession: bad rack-down group");
    }
    for (std::size_t m : e.machines) {
      if (m >= engine_->cluster().num_machines()) {
        throw std::invalid_argument(
            "ScalingSession: bad rack-down machine index");
      }
    }
  }
  inject(*engine_, e);  // validates
  faults_.push_back({e, false});
}

JobMetrics ScalingSession::window_metrics() const {
  return snapshot(*engine_);
}

void ScalingSession::reset_window() { engine_->reset_counters(); }

SimTrialService::SimTrialService(JobSpec spec) : spec_(std::move(spec)) {
  spec_.topology.validate();
  if (!spec_.schedule) {
    throw std::invalid_argument("SimTrialService: spec has no rate schedule");
  }
}

runtime::Evaluator SimTrialService::evaluator_at(double rate,
                                                 double warmup_sec,
                                                 double measure_sec) const {
  JobSpec trial_spec = spec_;
  trial_spec.schedule = std::make_shared<ConstantRate>(rate);
  auto runner = std::make_shared<JobRunner>(
      std::move(trial_spec),
      RunnerParams{.warmup_sec = warmup_sec, .measure_sec = measure_sec});
  return make_rerun_evaluator(std::move(runner));
}

int SimTrialService::max_parallelism() const {
  return Cluster(spec_.cluster).max_parallelism();
}

double SimTrialService::scheduled_rate_at(double t) const {
  return spec_.schedule->rate_at(t);
}

std::shared_ptr<runtime::TrialService> make_trial_service(JobSpec spec) {
  return std::make_shared<SimTrialService>(std::move(spec));
}

}  // namespace autra::sim
