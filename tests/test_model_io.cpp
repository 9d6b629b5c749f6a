// Tests for benefit-model library persistence.
#include "core/model_io.hpp"

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/controller.hpp"
#include "workloads/workloads.hpp"

#include <gtest/gtest.h>

namespace autra::core {
namespace {

SamplePoint real_sample(runtime::Parallelism config, double score) {
  SamplePoint s;
  s.config = std::move(config);
  s.score = score;
  s.metrics = runtime::JobMetrics{};
  return s;
}

ModelLibrary two_model_library() {
  ModelLibrary lib;
  BenefitModel a;
  a.rate = 20000.0;
  a.base = {1, 3};
  a.samples = {real_sample({1, 3}, 1.0), real_sample({1, 9}, 0.8),
               real_sample({4, 3}, 0.7)};
  a.fit();
  lib.add(std::move(a));
  BenefitModel b;
  b.rate = 50000.0;
  b.base = {2, 7};
  b.samples = {real_sample({2, 7}, 0.95), real_sample({2, 12}, 0.85),
               real_sample({5, 7}, 0.6)};
  b.fit();
  lib.add(std::move(b));
  return lib;
}

TEST(ModelIo, RoundTripPreservesModels) {
  const ModelLibrary lib = two_model_library();
  std::stringstream buffer;
  save_library(lib, buffer);
  const ModelLibrary restored = load_library(buffer);

  ASSERT_EQ(restored.size(), 2u);
  const BenefitModel* m20 = restored.closest(20000.0);
  ASSERT_NE(m20, nullptr);
  EXPECT_DOUBLE_EQ(m20->rate, 20000.0);
  EXPECT_EQ(m20->base, (runtime::Parallelism{1, 3}));
  EXPECT_EQ(m20->samples.size(), 3u);
  EXPECT_TRUE(m20->gp.is_fitted());

  // Predictions of the restored model reproduce the original's ordering.
  const BenefitModel* orig = lib.closest(20000.0);
  EXPECT_NEAR(m20->predict_mean({1, 3}), orig->predict_mean({1, 3}), 1e-9);
  EXPECT_NEAR(m20->predict_mean({4, 3}), orig->predict_mean({4, 3}), 1e-9);
}

TEST(ModelIo, GpStateRoundTripsBitExactly) {
  // A windowed model grown through observe() must survive save/load with
  // bit-identical predictions *and* keep behaving identically afterwards:
  // the factor, the raw window, the normalisation box, and the eviction
  // counter all have to round-trip exactly.
  ModelLibrary lib;
  BenefitModel m;
  m.rate = 20000.0;
  m.base = {1, 3};
  m.max_observations = 4;
  m.samples = {real_sample({1, 3}, 1.0), real_sample({1, 9}, 0.8),
               real_sample({4, 3}, 0.7)};
  m.fit();
  m.observe(real_sample({2, 5}, 0.85));
  m.observe(real_sample({3, 4}, 0.75));  // Cap 4: evicts the oldest sample.
  ASSERT_EQ(m.samples.size(), 4u);
  ASSERT_GE(m.gp.fit_stats().window_evictions, 1u);
  lib.add(std::move(m));

  std::stringstream buffer;
  save_library(lib, buffer);
  ModelLibrary restored = load_library(buffer);

  BenefitModel* orig = lib.find_for(20000.0);
  BenefitModel* copy = restored.find_for(20000.0);
  ASSERT_NE(orig, nullptr);
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(copy->samples.size(), orig->samples.size());
  EXPECT_EQ(copy->max_observations, orig->max_observations);
  const std::vector<runtime::Parallelism> probes = {
      {1, 3}, {2, 6}, {3, 4}, {5, 5}};
  for (const auto& p : probes) {
    EXPECT_EQ(copy->predict_mean(p), orig->predict_mean(p));
  }

  // Both sides continue through the incremental path in lockstep.
  orig->observe(real_sample({2, 8}, 0.82));
  copy->observe(real_sample({2, 8}, 0.82));
  for (const auto& p : probes) {
    EXPECT_EQ(copy->predict_mean(p), orig->predict_mean(p));
  }
  EXPECT_EQ(copy->samples.size(), orig->samples.size());
}

TEST(ModelIo, RestartedWindowedControllerReproducesDecisions) {
  // The always-on promise: a windowed incremental controller whose library
  // is saved to disk and loaded into a fresh process must take the same
  // decisions as one handed the live in-memory library. Phase 1 trains
  // models at two rates; phase 2 replays an identical scenario through a
  // fresh controller per library and compares the full decision streams.
  using sim::PiecewiseRate;
  const auto quiet = [](sim::JobSpec spec) {
    spec.engine.measurement_noise = 0.0;
    return spec;
  };
  ControllerParams params;
  params.steady.target_latency_ms = 400.0;
  params.steady.target_throughput = 0.0;  // Track the input rate.
  params.steady.bootstrap_m = 4;
  params.steady.max_evaluations = 20;
  params.steady.incremental = true;
  params.steady.max_observations = 8;
  params.policy_interval_sec = 30.0;
  params.policy_running_time_sec = 60.0;

  auto train_spec = quiet(autra::workloads::synthetic_chain(
      3,
      std::make_shared<PiecewiseRate>(
          std::vector<std::pair<double, double>>{{0.0, 220000.0},
                                                 {300.0, 330000.0}}),
      10.0));
  sim::ScalingSession train_session(train_spec, {1, 1, 1},
                                    {.restart_downtime_sec = 10.0});
  AuTraScaleController trained(train_spec.topology,
                               sim::make_trial_service(train_spec), params);
  (void)trained.run(train_session, 700.0);
  ASSERT_GE(trained.library().size(), 2u);
  for (const BenefitModel& model : trained.library().models()) {
    EXPECT_TRUE(model.gp.is_fitted());
  }

  std::stringstream buffer;
  save_library(trained.library(), buffer);

  const auto replay = [&](ModelLibrary library) {
    auto spec = quiet(autra::workloads::synthetic_chain(
        3,
        std::make_shared<PiecewiseRate>(
            std::vector<std::pair<double, double>>{{0.0, 220000.0},
                                                   {240.0, 270000.0}}),
        10.0));
    sim::ScalingSession session(spec, {1, 1, 1},
                                {.restart_downtime_sec = 10.0});
    AuTraScaleController controller(spec.topology,
                                    sim::make_trial_service(spec), params);
    controller.set_library(std::move(library));
    return controller.run(session, 540.0);
  };

  const std::vector<ControlDecision> live = replay(trained.library());
  const std::vector<ControlDecision> restarted =
      replay(load_library(buffer));

  ASSERT_FALSE(live.empty());
  bool saw_warm_algorithm1 = false, saw_transfer = false;
  for (const auto& d : live) {
    if (d.algorithm == "algorithm1") saw_warm_algorithm1 = true;
    if (d.algorithm == "algorithm2") saw_transfer = true;
  }
  EXPECT_TRUE(saw_warm_algorithm1);
  EXPECT_TRUE(saw_transfer);
  EXPECT_EQ(live, restarted);
}

TEST(ModelIo, EstimatedSamplesAreNotPersisted) {
  ModelLibrary lib;
  BenefitModel m;
  m.rate = 1000.0;
  m.base = {1};
  m.samples = {real_sample({1}, 0.9), real_sample({2}, 0.8)};
  SamplePoint estimated;
  estimated.config = {3};
  estimated.score = 0.7;  // no metrics -> estimated
  m.samples.push_back(estimated);
  m.fit();
  lib.add(std::move(m));

  std::stringstream buffer;
  save_library(lib, buffer);
  const ModelLibrary restored = load_library(buffer);
  EXPECT_EQ(restored.models().front().samples.size(), 2u);
}

TEST(ModelIo, CommentsAndBlankLinesIgnored) {
  std::stringstream in(
      "# header\n"
      "\n"
      "model 1000 2 1 2\n"
      "sample 1 2 0.9\n"
      "sample 3 4 0.5\n"
      "end\n");
  const ModelLibrary lib = load_library(in);
  ASSERT_EQ(lib.size(), 1u);
  EXPECT_EQ(lib.models().front().samples.size(), 2u);
}

TEST(ModelIo, MalformedInputThrows) {
  // Every rejection is the typed parse error naming the line.
  const auto expect_bad = [](const std::string& text) {
    std::stringstream in(text);
    try {
      (void)load_library(in);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("load_library: line ", 0), 0u)
          << e.what();
    }
  };
  expect_bad("sample 1 2 0.5\n");                    // sample before model
  expect_bad("model 0 1 1\nsample 1 0.5\nend\n");    // non-positive rate
  expect_bad("model 1000 2 1 2\nend\n");             // no samples
  expect_bad("model 1000 2 1 2\nsample 1 0.5\nend\n");  // short config
  expect_bad("model 1000 1 1\nmodel 2000 1 1\n");    // nested model
  expect_bad("model 1000 1 1\nsample 1 0.5\n");      // unterminated
  expect_bad("bogus 1 2 3\n");                       // unknown record
  expect_bad("model 1000 1 0\nsample 1 0.5\nend\n"); // base below 1
  expect_bad("model 100 1000000000000\n");           // huge operator count

  // GP-block grammar violations.
  const std::string open = "model 1000 1 2\nsample 2 0.5\n";
  expect_bad("gp 1 0.5 0.1 0 0 0 1 1\n");            // gp outside model
  expect_bad(open + "gplo 1\nend\n");                // gplo outside gp
  expect_bad(open + "gpo 2 0.5\nend\n");             // gpo outside gp
  expect_bad(open + "gpl 1\nend\n");                 // gpl outside gp
  expect_bad(open + "gp 1 0.5\nend\n");              // short gp header
  expect_bad(open + "gp 1 0.5 0.1 0 0 0 0 1\nend\n");  // zero rows
  expect_bad(open +
             "gp 1 0.5 0.1 0 0 0 1000000000000 1\n"
             "gplo 1\ngphi 3\ngpo 2 0.5\ngpl 1\nend\n");  // huge row count
  expect_bad(open + "gp 1 0.5 0.1 0 0 0 1 1\nend\n");  // incomplete block
  expect_bad(open +
             "gp 1 0.5 0.1 0 0 0 1 1\n"
             "gp 1 0.5 0.1 0 0 0 1 1\n");            // duplicate gp
  expect_bad(open +
             "gp 1 0.5 0.1 0 0 0 1 1\n"
             "gplo 1\ngphi 3\ngpo 2 0.5\ngpl 1\n"
             "gpo 2 0.5\nend\n");                    // too many gpo rows
  expect_bad(open +
             "gp 1 0.5 0.1 0 0 0 1 1\n"
             "gplo 1\ngphi 3\ngpo 2\ngpl 1\nend\n"); // gpo missing target
  expect_bad(open +
             "gp 1 0.5 0.1 0 0 0 1 1\n"
             "gplo 1\ngphi 3\ngpo 2 0.5\ngpl\nend\n");  // short gpl row
  expect_bad(open +
             "gp 1 0.5 0.1 0 0 0 1 1\n"
             "gplo 1\ngphi 3\ngpo 2 0.5\ngpl 0\nend\n");  // factor diag <= 0
}

TEST(ModelIo, FileHelpersRoundTrip) {
  const ModelLibrary lib = two_model_library();
  const std::string path = testing::TempDir() + "/autra_models.txt";
  save_library_file(lib, path);
  const ModelLibrary restored = load_library_file(path);
  EXPECT_EQ(restored.size(), 2u);
  EXPECT_THROW((void)load_library_file("/nonexistent/dir/x.txt"),
               std::runtime_error);
  EXPECT_THROW(save_library_file(lib, "/nonexistent/dir/x.txt"),
               std::runtime_error);
}

}  // namespace
}  // namespace autra::core
