//===- launchbench/Stats.h - Percentiles and ratios -------------*- C++ -*-===//
///
/// \file
/// Summary helpers of the launch benchmark. A percentile is reported only
/// when at least ten samples lie beyond it, so a p90 needs 100 launches;
/// a ratio always travels with its base, so a reader can tell 0 of 0
/// from 0 of 1589.
///
//===----------------------------------------------------------------------===//

#ifndef LAUNCHBENCH_STATS_H
#define LAUNCHBENCH_STATS_H

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace launchbench {

/// Fewest samples that must lie beyond a reported percentile.
inline constexpr size_t MinSamplesBeyond = 10;

/// Nearest-rank \p Percent-th percentile (1..100) of \p Samples, or
/// nullopt when fewer than MinSamplesBeyond samples rank above it.
std::optional<double> percentile(std::vector<double> Samples,
                                 unsigned Percent);

/// Median (mean of the middle two for an even count); 0 when empty.
double median(std::vector<double> Samples);

double mean(const std::vector<double> &Samples);

/// A ratio reported together with its base (denominator).
struct Ratio {
  double Num = 0;
  double Base = 0;
  /// Num / Base, or 0 when the base is 0 (nothing was attempted).
  double value() const { return Base > 0 ? Num / Base : 0; }
};

/// Checks the helpers above (and the span self-time computation) on
/// fixed inputs. Returns a description of the first failure, or "".
std::string selfTest();

} // namespace launchbench

#endif // LAUNCHBENCH_STATS_H
