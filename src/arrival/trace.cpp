#include "arrival/trace.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace autra::arrival {

namespace {

std::vector<double> materialise(
    const std::vector<std::pair<double, double>>& points, TraceInterp interp,
    double horizon_sec) {
  if (points.empty()) {
    throw std::invalid_argument("TraceRate: no breakpoints");
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& [t, r] = points[i];
    if (!std::isfinite(t) || t < 0.0 || !std::isfinite(r) || r < 0.0) {
      throw std::invalid_argument(
          "TraceRate: breakpoint times and rates must be finite and "
          "non-negative");
    }
    if (i > 0 && !(t > points[i - 1].first)) {
      throw std::invalid_argument(
          "TraceRate: breakpoint times must be strictly increasing");
    }
  }
  if (!(horizon_sec >= 0.0)) {
    throw std::invalid_argument("TraceRate: horizon_sec must be >= 0");
  }

  const double span =
      std::max(horizon_sec, std::floor(points.back().first) + 1.0);
  if (span > TraceRate::kMaxSpanSec) {
    throw std::invalid_argument(
        "TraceRate: trace spans more than kMaxSpanSec (30 days)");
  }
  const std::size_t horizon = static_cast<std::size_t>(std::max(span, 1.0));
  std::vector<double> table(horizon, 0.0);

  std::size_t next = 0;  // first breakpoint with time > t
  for (std::size_t s = 0; s < horizon; ++s) {
    const double t = static_cast<double>(s);
    while (next < points.size() && points[next].first <= t) ++next;
    if (next == 0) {
      table[s] = points.front().second;  // before the trace starts
    } else if (next == points.size()) {
      table[s] = points.back().second;  // past the end: hold
    } else if (interp == TraceInterp::kHold) {
      table[s] = points[next - 1].second;
    } else {
      const auto& [t0, r0] = points[next - 1];
      const auto& [t1, r1] = points[next];
      table[s] = r0 + (r1 - r0) * (t - t0) / (t1 - t0);
    }
  }
  return table;
}

}  // namespace

TraceRate::TraceRate(std::vector<std::pair<double, double>> points,
                     TraceInterp interp, double horizon_sec)
    : TabulatedRate(materialise(points, interp, horizon_sec)),
      points_(std::move(points)),
      interp_(interp) {}

TraceRate TraceRate::parse(std::istream& in, const std::string& origin) {
  std::vector<std::pair<double, double>> points;
  TraceInterp interp = TraceInterp::kHold;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    // Strip trailing CR (windows traces) and skip blanks/comments.
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const std::size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;

    std::istringstream fields(line);
    std::string head;
    fields >> head;
    if (head == "interp") {
      std::string mode;
      fields >> mode;
      if (mode == "hold") {
        interp = TraceInterp::kHold;
      } else if (mode == "linear") {
        interp = TraceInterp::kLinear;
      } else {
        throw std::runtime_error(origin + ":" + std::to_string(lineno) +
                                 ": unknown interpolation '" + mode + "'");
      }
      continue;
    }
    double t = 0.0;
    double r = 0.0;
    std::istringstream pair(line);
    if (!(pair >> t >> r)) {
      throw std::runtime_error(origin + ":" + std::to_string(lineno) +
                               ": expected '<time> <rate>', got '" + line +
                               "'");
    }
    std::string extra;
    if (pair >> extra) {
      throw std::runtime_error(origin + ":" + std::to_string(lineno) +
                               ": trailing junk '" + extra + "'");
    }
    points.emplace_back(t, r);
  }
  try {
    return TraceRate(std::move(points), interp);
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(origin + ": " + e.what());
  }
}

TraceRate TraceRate::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("TraceRate: cannot open '" + path + "'");
  }
  return parse(in, path);
}

bool TraceRate::save(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "# autra-trace v1\n");
  std::fprintf(f, "interp %s\n",
               interp_ == TraceInterp::kHold ? "hold" : "linear");
  for (const auto& [t, r] : points_) {
    // %.17g round-trips IEEE doubles exactly, so load(save()) is
    // bit-identical.
    std::fprintf(f, "%.17g %.17g\n", t, r);
  }
  return std::fclose(f) == 0;
}

}  // namespace autra::arrival
