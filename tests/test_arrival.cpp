// Tests of the generative arrival subsystem (DESIGN.md §13): statistical
// sanity of each process against its closed-form mean, Hawkes clustering
// versus a Poisson control, bit-exact trace round-trips, the
// determinism/bit-identity contract (seeds, clone(), exec thread counts,
// engine cores), mass conservation through the production DAGs, and the
// fan-in tree's cross-rack shuffle footprint.
#include "arrival/arrival.hpp"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "exec/exec.hpp"
#include "fault/chaos.hpp"
#include "streamsim/engine.hpp"
#include "streamsim/job_runner.hpp"
#include "streamsim/network.hpp"
#include "workloads/workloads.hpp"

namespace autra {
namespace {

using arrival::DiurnalParams;
using arrival::DiurnalRate;
using arrival::HawkesParams;
using arrival::HawkesRate;
using arrival::MmppParams;
using arrival::MmppRate;
using arrival::TabulatedRate;
using arrival::TraceInterp;
using arrival::TraceRate;

double table_mean(const std::vector<double>& table) {
  double sum = 0.0;
  for (double v : table) sum += v;
  return table.empty() ? 0.0 : sum / static_cast<double>(table.size());
}

// ---------------------------------------------------------------- MMPP --

TEST(Mmpp, LadderAveragesToTheRequestedMean) {
  const MmppParams p = MmppRate::ladder(150e3);
  ASSERT_EQ(p.state_rates.size(), 4u);
  const MmppRate r(p, 1);
  EXPECT_NEAR(r.stationary_rate(), 150e3, 1e-6);
}

TEST(Mmpp, EmpiricalMeanMatchesStationaryRate) {
  // ~600 sojourns: the sample mean of a uniform-stationary chain lands
  // within a few percent of the ladder average.
  const MmppParams p = MmppRate::ladder(100e3, 4, 0.6, 60.0, 36000.0);
  const MmppRate r(p, 42);
  EXPECT_NEAR(table_mean(r.table()), r.stationary_rate(),
              0.10 * r.stationary_rate());
}

TEST(Mmpp, TableStaysInsideTheLadderEnvelope) {
  // Every per-second entry is a sojourn-time mixture of ladder rates, so
  // it can never leave [min, max] of the ladder.
  const MmppParams p = MmppRate::ladder(100e3, 4, 0.6, 30.0, 3600.0);
  const MmppRate r(p, 7);
  const double lo = 100e3 * 0.4;
  const double hi = 100e3 * 1.6;
  for (double v : r.table()) {
    EXPECT_GE(v, lo - 1e-6);
    EXPECT_LE(v, hi + 1e-6);
  }
}

TEST(Mmpp, RejectsDegenerateParameters) {
  EXPECT_THROW(MmppRate({.state_rates = {}}, 1), std::invalid_argument);
  EXPECT_THROW(MmppRate({.state_rates = {1.0}, .mean_holding_sec = 0.0}, 1),
               std::invalid_argument);
  EXPECT_THROW(MmppRate({.state_rates = {-5.0}}, 1), std::invalid_argument);
}

// -------------------------------------------------------------- Hawkes --

TEST(Hawkes, SamplerValidatesArguments) {
  std::mt19937_64 rng(1);
  EXPECT_THROW(arrival::sample_hawkes_event_times(-1.0, 0.5, 0.1, 10.0, rng),
               std::invalid_argument);
  EXPECT_THROW(arrival::sample_hawkes_event_times(1.0, 1.0, 0.1, 10.0, rng),
               std::invalid_argument);
  EXPECT_THROW(arrival::sample_hawkes_event_times(1.0, 0.5, 0.0, 10.0, rng),
               std::invalid_argument);
}

TEST(Hawkes, BranchingInflatesTheEventCount) {
  // E[N] = mu * horizon / (1 - branching): branching 0.5 doubles the
  // Poisson count.
  std::mt19937_64 rng(11);
  const double mu = 0.2;
  const double horizon = 20000.0;
  const auto poisson =
      arrival::sample_hawkes_event_times(mu, 0.0, 0.1, horizon, rng);
  std::mt19937_64 rng2(11);
  const auto hawkes =
      arrival::sample_hawkes_event_times(mu, 0.5, 0.1, horizon, rng2);
  EXPECT_NEAR(static_cast<double>(poisson.size()), mu * horizon,
              0.10 * mu * horizon);
  EXPECT_NEAR(static_cast<double>(hawkes.size()), 2.0 * mu * horizon,
              0.15 * 2.0 * mu * horizon);
}

TEST(Hawkes, ClustersMoreThanPoisson) {
  // Index of dispersion (var/mean of per-window counts): ~1 for Poisson,
  // well above for a self-exciting process at the same event rate.
  const auto dispersion = [](const std::vector<double>& times,
                             double horizon, double window) {
    const std::size_t bins = static_cast<std::size_t>(horizon / window);
    std::vector<double> counts(bins, 0.0);
    for (double t : times) {
      const std::size_t b = static_cast<std::size_t>(t / window);
      if (b < bins) counts[b] += 1.0;
    }
    const double mean = table_mean(counts);
    double var = 0.0;
    for (double c : counts) var += (c - mean) * (c - mean);
    var /= static_cast<double>(bins);
    return mean > 0.0 ? var / mean : 0.0;
  };

  const double horizon = 30000.0;
  std::mt19937_64 rng_p(5);
  // Matched event rates: Poisson mu is scaled up by 1/(1 - branching).
  const auto poisson =
      arrival::sample_hawkes_event_times(0.4, 0.0, 0.1, horizon, rng_p);
  std::mt19937_64 rng_h(5);
  const auto hawkes =
      arrival::sample_hawkes_event_times(0.1, 0.75, 0.1, horizon, rng_h);

  const double d_poisson = dispersion(poisson, horizon, 60.0);
  const double d_hawkes = dispersion(hawkes, horizon, 60.0);
  EXPECT_LT(d_poisson, 1.5);
  EXPECT_GT(d_hawkes, 2.0 * d_poisson);
}

TEST(Hawkes, TableMeanMatchesClosedForm) {
  HawkesParams p;
  p.base_rate = 50e3;
  p.burst_onsets_per_sec = 1.0 / 60.0;
  p.branching = 0.5;
  p.decay_per_sec = 1.0 / 30.0;
  p.records_per_burst = 1.5e6;
  p.horizon_sec = 36000.0;
  const HawkesRate r(p, 3);
  EXPECT_NEAR(r.mean_rate(),
              p.base_rate + p.records_per_burst * p.burst_onsets_per_sec /
                                (1.0 - p.branching),
              1e-6);
  EXPECT_NEAR(table_mean(r.table()), r.mean_rate(), 0.15 * r.mean_rate());
  // The sampled onsets are exposed, strictly increasing, in-horizon.
  ASSERT_FALSE(r.event_times().empty());
  for (std::size_t i = 1; i < r.event_times().size(); ++i) {
    EXPECT_LT(r.event_times()[i - 1], r.event_times()[i]);
  }
  EXPECT_LT(r.event_times().back(), p.horizon_sec);
}

// ------------------------------------------------------------- Diurnal --

TEST(Diurnal, EnvelopePeaksAndDipsWhereConfigured) {
  DiurnalParams p;
  p.base_rate = 100e3;
  p.daily_amplitude = 0.5;
  p.weekend_factor = 0.7;
  p.day_sec = 1000.0;
  p.flash_crowds_per_day = 0.0;  // pure envelope
  p.horizon_sec = 7000.0;        // one full "week"
  const DiurnalRate r(p, 1);
  // Peak of day 0 sits at peak_frac into the day and reaches ~1.5x base;
  // the trough reaches ~0.5x. Days 5 and 6 are scaled by weekend_factor.
  const double peak = r.rate_at(p.peak_frac * p.day_sec);
  const double trough =
      r.rate_at(std::fmod(p.peak_frac + 0.5, 1.0) * p.day_sec);
  EXPECT_NEAR(peak, 1.5 * p.base_rate, 0.02 * p.base_rate);
  EXPECT_NEAR(trough, 0.5 * p.base_rate, 0.02 * p.base_rate);
  const double weekday_peak = peak;
  const double weekend_peak =
      r.rate_at((5.0 + p.peak_frac) * p.day_sec);
  EXPECT_NEAR(weekend_peak, p.weekend_factor * weekday_peak,
              0.03 * weekday_peak);
}

TEST(Diurnal, FlashCrowdsAddMassAboveTheEnvelope) {
  DiurnalParams with;
  with.day_sec = 1200.0;
  with.horizon_sec = 3600.0;
  with.flash_crowds_per_day = 2.0;
  with.flash_magnitude = 2.0;
  with.flash_duration_sec = 120.0;
  DiurnalParams without = with;
  without.flash_crowds_per_day = 0.0;
  const DiurnalRate crowded(with, 99);
  const DiurnalRate quiet(without, 99);
  ASSERT_EQ(crowded.table().size(), quiet.table().size());
  double extra = 0.0;
  for (std::size_t s = 0; s < quiet.table().size(); ++s) {
    EXPECT_GE(crowded.table()[s], quiet.table()[s] - 1e-9);
    extra += crowded.table()[s] - quiet.table()[s];
  }
  EXPECT_GT(extra, 0.0);
}

// --------------------------------------------------------------- Trace --

TEST(Trace, HoldAndLinearInterpolation) {
  const std::vector<std::pair<double, double>> pts = {
      {0.0, 100.0}, {10.0, 200.0}, {20.0, 50.0}};
  const TraceRate hold(pts, TraceInterp::kHold);
  EXPECT_DOUBLE_EQ(hold.rate_at(0.0), 100.0);
  EXPECT_DOUBLE_EQ(hold.rate_at(9.5), 100.0);
  EXPECT_DOUBLE_EQ(hold.rate_at(10.5), 200.0);
  EXPECT_DOUBLE_EQ(hold.rate_at(1000.0), 50.0);  // held tail

  const TraceRate linear(pts, TraceInterp::kLinear);
  // Per-second buckets hold the bucket-average of the interpolant, so the
  // midpoint bucket of a linear ramp is the ramp's midpoint value.
  EXPECT_NEAR(linear.rate_at(5.0), 150.0, 11.0);
  EXPECT_GT(linear.rate_at(5.0), linear.rate_at(1.0));
  EXPECT_DOUBLE_EQ(linear.rate_at(1000.0), 50.0);
}

TEST(Trace, RoundTripIsBitIdentical) {
  // Awkward doubles on purpose: %.17g must reproduce them exactly.
  std::vector<std::pair<double, double>> pts;
  std::mt19937_64 rng(1234);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  double t = 0.0;
  for (int i = 0; i < 50; ++i) {
    t += 1e-3 + 100.0 * unit(rng);
    pts.emplace_back(t, 1e6 * unit(rng) / 3.0);
  }
  const TraceRate original(pts, TraceInterp::kLinear);

  const std::string path = testing::TempDir() + "/roundtrip.trace";
  ASSERT_TRUE(original.save(path));
  const TraceRate reloaded = TraceRate::load(path);
  ASSERT_EQ(reloaded.points().size(), original.points().size());
  EXPECT_EQ(reloaded.interpolation(), original.interpolation());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    // Bit-exact, not NEAR: the format contract.
    EXPECT_EQ(reloaded.points()[i].first, original.points()[i].first) << i;
    EXPECT_EQ(reloaded.points()[i].second, original.points()[i].second) << i;
  }

  // Save -> load -> save is a fixed point of the text format too.
  const std::string path2 = testing::TempDir() + "/roundtrip2.trace";
  ASSERT_TRUE(reloaded.save(path2));
  std::ifstream f1(path);
  std::ifstream f2(path2);
  std::stringstream s1;
  std::stringstream s2;
  s1 << f1.rdbuf();
  s2 << f2.rdbuf();
  EXPECT_EQ(s1.str(), s2.str());
}

TEST(Trace, ParseErrorsNameTheLine) {
  std::istringstream bad("0 100\n5 not-a-number\n");
  try {
    (void)TraceRate::parse(bad, "inline.trace");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("inline.trace"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("2"), std::string::npos);
  }
  std::istringstream shuffled("10 100\n5 200\n");
  EXPECT_THROW((void)TraceRate::parse(shuffled, "x"), std::runtime_error);

  // A huge breakpoint time must not size the table: 1e13 seconds would
  // exhaust memory, 1e300 overflows the double -> size_t cast.
  for (const char* last : {"1e13", "1e300"}) {
    std::istringstream huge(std::string("0 100\n") + last + " 200\n");
    try {
      (void)TraceRate::parse(huge, "huge.trace");
      FAIL() << "expected std::runtime_error for " << last;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind("huge.trace: ", 0), 0u) << what;
      EXPECT_NE(what.find("spans more than"), std::string::npos) << what;
    }
  }
}

// -------------------------------------------------- determinism sweeps --

const TabulatedRate& as_table(const sim::RateSchedule& s) {
  const auto* t = dynamic_cast<const TabulatedRate*>(&s);
  EXPECT_NE(t, nullptr);
  return *t;
}

TEST(ArrivalDeterminism, SameSeedSameTableAcross250Seeds) {
  // The subsystem contract: (name, mean, seed, horizon) fully determines
  // the table, and clone() shares it bit-for-bit (same allocation).
  for (const std::string& name : arrival::arrival_names()) {
    if (name == "constant") continue;  // no table to compare
    for (std::uint64_t seed = 0; seed < 250; ++seed) {
      const auto a = arrival::make_arrival(name, 120e3, seed, 60.0);
      const auto b = arrival::make_arrival(name, 120e3, seed, 60.0);
      const std::vector<double>& ta = as_table(*a).table();
      const std::vector<double>& tb = as_table(*b).table();
      ASSERT_EQ(ta, tb) << name << " seed=" << seed;

      const auto c = a->clone();
      ASSERT_EQ(&as_table(*c).table(), &ta) << name << " seed=" << seed;
    }
  }
}

TEST(ArrivalDeterminism, DifferentSeedsDecorrelate) {
  for (const std::string& name : arrival::arrival_names()) {
    if (name == "constant") continue;
    const auto a = arrival::make_arrival(name, 120e3, 1, 600.0);
    const auto b = arrival::make_arrival(name, 120e3, 2, 600.0);
    EXPECT_NE(as_table(*a).table(), as_table(*b).table()) << name;
  }
}

TEST(ArrivalDeterminism, RateAtIsBitIdenticalAcrossThreadCounts) {
  // rate_at is a pure table lookup; fanning queries over the exec pool at
  // 1, 2 and 8 threads must reproduce the serial answer bitwise.
  const auto schedule = arrival::make_arrival("hawkes", 200e3, 13, 1800.0);
  constexpr std::size_t kSamples = 10000;
  const auto sample = [&schedule](std::size_t i) {
    return schedule->rate_at(0.2 * static_cast<double>(i));
  };
  std::vector<double> serial(kSamples);
  for (std::size_t i = 0; i < kSamples; ++i) serial[i] = sample(i);
  for (const int threads : {1, 2, 8}) {
    const auto out =
        exec::parallel_map(exec::ExecContext(threads), kSamples, sample);
    EXPECT_EQ(out, serial) << "threads=" << threads;
  }
}

TEST(ArrivalDeterminism, EngineCoresAgreeOnGenerativeInput) {
  // The engine bit-identity contract must hold for generative schedules
  // exactly as it does for the hand-built ones: at load_epsilon 0 the
  // event core replays the tick core bitwise.
  const auto run_core = [](sim::EngineCore core) {
    sim::JobSpec spec = workloads::stream_stream_join(
        arrival::make_arrival("mmpp", 60e3, 21, 300.0));
    spec.engine.measurement_noise = 0.0;
    spec.engine.core = core;
    auto e = sim::make_engine(spec, sim::Parallelism(5, 4));
    e->run_until(120.0);
    return e;
  };
  const auto event = run_core(sim::EngineCore::kEventDriven);
  const auto tick = run_core(sim::EngineCore::kTickDriven);
  for (std::size_t i = 0; i < event->topology().num_operators(); ++i) {
    ASSERT_EQ(event->counters(i).processed, tick->counters(i).processed) << i;
    ASSERT_EQ(event->counters(i).records_out, tick->counters(i).records_out)
        << i;
  }
  ASSERT_EQ(event->kafka().lag(), tick->kafka().lag());
  ASSERT_EQ(event->throughput(), tick->throughput());
}

// --------------------------------------------------- chaos integration --

TEST(ChaosClustering, ClusteredProfileIsDeterministicAndValid) {
  const sim::Cluster cluster{sim::uniform_cluster(8, 4)};
  fault::ChaosProfile profile =
      fault::ChaosProfile::for_cluster(cluster, 1800.0, 2.0);
  profile.burst_clustering = 0.6;
  const fault::ChaosGenerator gen(profile);
  const fault::FaultSchedule a = gen.generate(17);
  const fault::FaultSchedule b = gen.generate(17);
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].at, b.events()[i].at) << i;
  }
  // Clustering changes placement, not validity: a different seed still
  // yields a non-empty, in-horizon schedule.
  const fault::FaultSchedule c = gen.generate(18);
  ASSERT_FALSE(c.events().empty());
  for (const fault::FaultEvent& ev : c.events()) {
    EXPECT_GE(ev.at, 0.0);
    EXPECT_LT(ev.at, profile.horizon_sec);
  }
}

TEST(ChaosClustering, RejectsSupercriticalBranching) {
  const sim::Cluster cluster{sim::uniform_cluster(4, 4)};
  fault::ChaosProfile profile = fault::ChaosProfile::for_cluster(cluster);
  profile.burst_clustering = 1.0;
  EXPECT_THROW(fault::ChaosGenerator{profile}, std::invalid_argument);
}

// -------------------------------------------------------- the new DAGs --

TEST(Dags, TopologiesValidateAndExposeTheirShapes) {
  const auto rate = std::make_shared<sim::ConstantRate>(1000.0);
  const sim::JobSpec join = workloads::stream_stream_join(rate);
  EXPECT_NO_THROW(join.topology.validate());
  ASSERT_EQ(join.topology.num_operators(), 5u);
  EXPECT_EQ(join.topology.op(0).kind, sim::OperatorKind::kSource);
  EXPECT_EQ(join.topology.op(1).kind, sim::OperatorKind::kSource);

  const sim::JobSpec session = workloads::sessionization(rate);
  EXPECT_NO_THROW(session.topology.validate());
  ASSERT_EQ(session.topology.num_operators(), 4u);
  EXPECT_GT(session.topology.op(1).key_skew, 0.0);

  const sim::JobSpec fanin = workloads::fanin_tree(rate);
  EXPECT_NO_THROW(fanin.topology.validate());
  ASSERT_EQ(fanin.topology.num_operators(), 12u);
}

TEST(Dags, MassIsConservedThroughEveryOperator) {
  // Overprovisioned run at a modest rate: each operator's emitted mass
  // must equal its ingested mass times its selectivity, and the sources
  // together must account for everything consumed from the log.
  for (const auto& make :
       {workloads::stream_stream_join, workloads::sessionization,
        workloads::fanin_tree}) {
    sim::JobSpec spec = make(std::make_shared<sim::ConstantRate>(20e3));
    spec.engine.measurement_noise = 0.0;
    const std::size_t n = spec.topology.num_operators();
    auto e = sim::make_engine(spec, sim::Parallelism(static_cast<int>(n), 8));
    e->run_until(120.0);

    double source_in = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const sim::OperatorCounters& c = e->counters(i);
      const double sel = spec.topology.op(i).selectivity;
      if (spec.topology.op(i).kind == sim::OperatorKind::kSource) {
        source_in += c.records_in;
      }
      // Emitted == processed x selectivity, up to the in-flight tail.
      EXPECT_NEAR(c.records_out, c.processed * sel,
                  0.01 * c.processed + 1e3)
          << "op " << i;
      // Nothing processed that never arrived.
      EXPECT_LE(c.processed, c.records_in + 1e-6) << "op " << i;
    }
    EXPECT_NEAR(source_in, e->kafka().total_consumed(),
                0.01 * source_in + 1e3);
  }
}

TEST(FaninTree, EveryTreeEdgeCrossesRacksUnderSpreadPlacement) {
  // 4 machines, 2 per rack, uplink constrained, one instance of every
  // operator on each machine: every endpoint splits 50/50 across the two
  // racks, so all 11 tree edges carry cross-rack weight 0.5 per rack.
  sim::ClusterSpec cspec = sim::uniform_cluster(4, 2);
  cspec.rack_uplink_records_per_sec = 1e6;
  const sim::Cluster cluster{std::move(cspec)};
  const sim::JobSpec spec =
      workloads::fanin_tree(std::make_shared<sim::ConstantRate>(1000.0));
  const sim::Parallelism p(12, 4);
  const sim::NetworkModel nm(spec.topology, cluster, p);

  std::size_t edges = 0;
  for (std::size_t op = 0; op < spec.topology.num_operators(); ++op) {
    const auto& down = spec.topology.downstream(op);
    for (std::size_t di = 0; di < down.size(); ++di) {
      ++edges;
      const auto& w = nm.edge_rack_weights(op, di);
      ASSERT_EQ(w.size(), 2u) << "op " << op;
      EXPECT_DOUBLE_EQ(w[0].second, 0.5);
      EXPECT_DOUBLE_EQ(w[1].second, 0.5);
    }
  }
  EXPECT_EQ(edges, 11u);

  // Single-rack placement keeps the whole tree off the uplinks.
  sim::ClusterSpec one_rack = sim::uniform_cluster(4, 4);
  one_rack.rack_uplink_records_per_sec = 1e6;
  const sim::Cluster flat{std::move(one_rack)};
  const sim::NetworkModel nm_flat(spec.topology, flat, p);
  for (std::size_t op = 0; op < spec.topology.num_operators(); ++op) {
    for (std::size_t di = 0; di < spec.topology.downstream(op).size(); ++di) {
      EXPECT_TRUE(nm_flat.edge_rack_weights(op, di).empty()) << "op " << op;
    }
  }
}

}  // namespace
}  // namespace autra
