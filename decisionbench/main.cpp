// decision_bench: what one AuTraScale control decision costs, end to end
// and per layer.
//
//   decision_bench --workload NAME --seed N --seconds S --trace 0|1
//                  [--digest PATH] [--trace-out PATH]
//
// --trace 0 sets the workload up several times (setup_s is the median),
// runs its closed decision loop for S seconds untraced and prints the
// end-to-end metrics. --trace 1 runs the loop four times on the same
// inputs, S/4 seconds each (untraced, traced, traced, untraced), and
// prints the per-layer metrics plus trace.overhead (median over decisions
// of traced / untraced time of the same decision, minus one). The last
// stdout line is one JSON object. The decision digest (the fixed decision
// prefix, at %.17g) goes to --digest when given, its FNV-1a hash into the
// JSON.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "bench.hpp"

namespace {

using namespace dbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string digest_path;
  std::string trace_path;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "decision_bench: %s\nusage: decision_bench --workload "
               "{cold_decide|warm_window|mape_live} --seed N --seconds S "
               "--trace 0|1 [--digest PATH] [--trace-out PATH]\n",
               msg);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) usage("bad --seed");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0.0)) usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--digest") {
      a.digest_path = value;
    } else if (flag == "--trace-out") {
      a.trace_path = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

std::uint64_t fnv1a(const std::vector<std::string>& lines) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::string& line : lines) {
    for (const char c : line + "\n") {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

/// True when the shorter digest is a prefix of the longer one.
bool same_prefix(const std::vector<std::string>& a,
                 const std::vector<std::string>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  return std::equal(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(n),
                    b.begin());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void end_to_end(const LoopResult& r, double setup_s,
                std::vector<Metric>& out) {
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  out.push_back({"setup_s", setup_s, "s"});
  out.push_back({"decision_s.p50", quantile(r.decision_s, 0.5), "s"});
  out.push_back({"decision_s.p90", quantile(r.decision_s, 0.9), "s"});
  out.push_back({"decisions_per_s",
                 ratio(static_cast<double>(r.decision_s.size()), r.wall_s),
                 "1/s"});
  out.push_back({"sim_s_per_wall_s", ratio(r.sim_s, r.wall_s), "s/s"});
  out.push_back({"evaluations_per_decision",
                 ratio(r.prefix_evaluations, r.prefix_decisions), "count"});
  out.push_back({"allocated_slots",
                 ratio(r.prefix_slots, r.prefix_slot_weight), "slots"});
  out.push_back({"qos_violation_s",
                 ratio(r.prefix_violation_sec, r.prefix_job_sec) * 3600.0,
                 "s/h"});
  out.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  out.push_back({"success_share",
                 ratio(r.attempted - r.failed, r.attempted), "ratio"});
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  bool known = false;
  for (const std::string& name : workload_names()) {
    known |= name == args.workload;
  }
  if (!known) usage(("unknown workload " + args.workload).c_str());

  try {
    // Set-up is repeated and its median reported, so work moved into
    // set-up shows without one slow repetition deciding the number.
    const int setup_reps = args.workload == "warm_window" ? 3 : 5;
    std::vector<double> setup_s;
    std::unique_ptr<Workload> workload;
    for (int rep = 0; rep < setup_reps; ++rep) {
      workload.reset();
      const Clock::time_point t0 = Clock::now();
      workload = make_workload(args.workload, args.seed);
      setup_s.push_back(seconds_between(t0, Clock::now()));
    }

    std::vector<Metric> metrics;
    LoopResult result;
    int attempted = 0;
    int failed = 0;
    bool correct = true;
    if (!args.trace) {
      RunContext ctx(false);
      result = workload->run(ctx, args.seconds, true);
      attempted = result.attempted;
      failed = result.failed;
      end_to_end(result, quantile(setup_s, 0.5), metrics);
    } else {
      // Untraced, traced, traced, untraced over the same inputs: comparing
      // the traced passes with the untraced ones around them cancels drift
      // along the run. The per-layer numbers come from the first traced
      // pass.
      const double quarter = args.seconds / 4.0;
      RunContext before_ctx(false);
      RunContext ctx(true);
      RunContext again_ctx(true);
      RunContext after_ctx(false);
      const LoopResult before = workload->run(before_ctx, quarter, false);
      result = workload->run(ctx, quarter, false);
      const LoopResult again = workload->run(again_ctx, quarter, false);
      const LoopResult after = workload->run(after_ctx, quarter, false);
      attempted = before.attempted + result.attempted + again.attempted +
                  after.attempted;
      failed = before.failed + result.failed + again.failed + after.failed;
      // Tracing must not change a single decision.
      correct = same_prefix(before.digest, result.digest) &&
                same_prefix(again.digest, result.digest) &&
                same_prefix(after.digest, result.digest);
      layer_metrics(*workload, result, ctx, args.seed, metrics);
      std::vector<double> ratios;
      for (std::size_t i = 0;
           i < std::min({before.decision_s.size(), result.decision_s.size(),
                         again.decision_s.size(), after.decision_s.size()});
           ++i) {
        ratios.push_back((result.decision_s[i] + again.decision_s[i]) /
                         (before.decision_s[i] + after.decision_s[i]));
      }
      metrics.push_back(
          {"trace.overhead", quantile(ratios, 0.5) - 1.0, "ratio"});
      if (!args.trace_path.empty() && !ctx.spans.write(args.trace_path)) {
        std::fprintf(stderr, "decision_bench: cannot write %s\n",
                     args.trace_path.c_str());
        return 1;
      }
    }

    correct = correct && failed == 0 && attempted > 0 &&
              !result.digest.empty();
    for (Metric& m : metrics) {
      if (!std::isfinite(m.value)) {
        correct = false;
        m.value = 0.0;
      }
    }
    if (!args.digest_path.empty()) {
      std::FILE* f = std::fopen(args.digest_path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "decision_bench: cannot write %s\n",
                     args.digest_path.c_str());
        return 1;
      }
      for (const std::string& line : result.digest) {
        std::fprintf(f, "%s\n", line.c_str());
      }
      std::fclose(f);
    }
    const std::uint64_t digest = fnv1a(result.digest);
    std::printf("digest %016llx over %zu lines\n",
                static_cast<unsigned long long>(digest), result.digest.size());

    std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
                "\"digest\": \"%016llx\", \"metrics\": {",
                correct ? "true" : "false", attempted, failed,
                static_cast<unsigned long long>(digest));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i > 0 ? ", " : "", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit);
    }
    std::printf("}}\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "decision_bench: %s\n", e.what());
    return 1;
  }
}
