// Trace-driven rates: replay a recorded (time, rate) series from a
// small line-oriented text format, with hold or linear interpolation
// between breakpoints. The format is designed to round-trip exactly:
// save() prints every breakpoint with %.17g, so load(save(load(f)))
// is bit-identical to load(f).
//
//   # autra-trace v1          <- comment lines start with '#'
//   interp linear             <- or "interp hold" (default when absent)
//   0 100000                  <- "<time_sec> <records_per_sec>"
//   600 250000
//   1200 80000
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "arrival/tabulated.hpp"

namespace autra::arrival {

enum class TraceInterp : std::uint8_t {
  kHold,    ///< step function: rate of the latest breakpoint at or before t
  kLinear,  ///< linear between breakpoints, held flat beyond the ends
};

class TraceRate final : public TabulatedRate {
 public:
  /// Longest table a trace may span (30 days of per-second rates), so a
  /// hostile breakpoint time cannot size the table.
  static constexpr double kMaxSpanSec = 30.0 * 86400.0;

  /// Breakpoints must be non-empty, strictly increasing in time, with
  /// finite non-negative times and rates; throws std::invalid_argument
  /// otherwise. The table spans max(horizon_sec, last breakpoint + 1)
  /// seconds (horizon_sec == 0 means "just cover the trace"), which must
  /// not exceed kMaxSpanSec.
  explicit TraceRate(std::vector<std::pair<double, double>> points,
                     TraceInterp interp = TraceInterp::kHold,
                     double horizon_sec = 0.0);

  /// Parses the text format above. Throws std::runtime_error naming the
  /// offending line on malformed input or an unreadable file.
  [[nodiscard]] static TraceRate load(const std::string& path);
  [[nodiscard]] static TraceRate parse(std::istream& in,
                                       const std::string& origin);

  /// Writes the trace back out; load(save(x)) reproduces x's
  /// breakpoints bit-for-bit. Returns false if the file can't be
  /// written.
  [[nodiscard]] bool save(const std::string& path) const;

  [[nodiscard]] const std::vector<std::pair<double, double>>& points()
      const noexcept {
    return points_;
  }
  [[nodiscard]] TraceInterp interpolation() const noexcept {
    return interp_;
  }

  [[nodiscard]] std::unique_ptr<sim::RateSchedule> clone() const override {
    return std::unique_ptr<sim::RateSchedule>(new TraceRate(*this));
  }

  /// Copies are cheap (the table is shared) and value-semantics friendly
  /// — load() returns by value.
  TraceRate(const TraceRate&) = default;

 private:
  std::vector<std::pair<double, double>> points_;
  TraceInterp interp_;
};

}  // namespace autra::arrival
