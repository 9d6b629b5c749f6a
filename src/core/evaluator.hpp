// Evaluation abstraction shared by every auto-scaling policy.
//
// An Evaluator runs a job with one parallelism configuration and reports
// the QoS observed after the policy running time — the "run" of the
// paper's recommend-run-judge loop. The type itself lives in the
// backend-agnostic runtime layer; policies never include a concrete
// engine header, so the same algorithm code drives a fresh-start
// JobRunner, a live session, or a test double.
#pragma once

#include "runtime/backend.hpp"

namespace autra::sim {
class JobRunner;
}  // namespace autra::sim

namespace autra::core {

using Evaluator = runtime::Evaluator;

/// sim::make_rerun_evaluator over `runner`, which must outlive the
/// returned evaluator: per-config rerun-salted fresh-start measurements,
/// safe for concurrent use from the Plan stage.
[[nodiscard]] Evaluator make_runner_evaluator(const sim::JobRunner& runner);

}  // namespace autra::core
