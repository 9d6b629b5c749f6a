#include "core/evaluator.hpp"

#include <memory>

#include "streamsim/job_runner.hpp"

namespace autra::core {

Evaluator make_runner_evaluator(const sim::JobRunner& runner) {
  // Non-owning aliasing pointer: the caller keeps `runner` alive.
  return sim::make_rerun_evaluator(
      std::shared_ptr<const sim::JobRunner>(
          std::shared_ptr<const sim::JobRunner>(), &runner));
}

}  // namespace autra::core
