//===- launchbench/Stats.cpp ----------------------------------------------===//

#include "Stats.h"
#include "Tracing.h"

#include <algorithm>
#include <cmath>
#include <numeric>

using namespace launchbench;

std::optional<double> launchbench::percentile(std::vector<double> Samples,
                                              unsigned Percent) {
  const size_t N = Samples.size();
  if (N == 0 || Percent == 0 || Percent > 100)
    return std::nullopt;
  const size_t Rank = (static_cast<size_t>(Percent) * N + 99) / 100;
  if (N - Rank < MinSamplesBeyond)
    return std::nullopt;
  std::nth_element(Samples.begin(), Samples.begin() + (Rank - 1),
                   Samples.end());
  return Samples[Rank - 1];
}

double launchbench::median(std::vector<double> Samples) {
  if (Samples.empty())
    return 0;
  std::sort(Samples.begin(), Samples.end());
  const size_t N = Samples.size();
  return N % 2 ? Samples[N / 2] : (Samples[N / 2 - 1] + Samples[N / 2]) / 2;
}

double launchbench::mean(const std::vector<double> &Samples) {
  if (Samples.empty())
    return 0;
  return std::accumulate(Samples.begin(), Samples.end(), 0.0) /
         static_cast<double>(Samples.size());
}

std::string launchbench::selfTest() {
  auto Near = [](double A, double B) { return std::fabs(A - B) < 1e-12; };

  std::vector<double> Hundred(100);
  for (size_t I = 0; I != Hundred.size(); ++I)
    Hundred[I] = static_cast<double>((I * 37) % 100 + 1); // 1..100, shuffled
  if (percentile(Hundred, 90) != 90.0)
    return "p90 of 1..100 is not 90";
  if (percentile(Hundred, 50) != 50.0)
    return "p50 of 1..100 is not 50";
  if (percentile(Hundred, 91).has_value())
    return "p91 of 100 samples has only 9 beyond it but was reported";
  std::vector<double> NinetyNine(Hundred.begin(), Hundred.begin() + 99);
  if (percentile(NinetyNine, 90).has_value())
    return "p90 of 99 samples has only 9 beyond it but was reported";
  if (percentile({7, 1, 3, 5, 2, 9, 4, 8, 6, 10, 11, 12, 13, 14, 15, 16,
                  17, 18, 19, 20},
                 50) != 10.0)
    return "p50 of 1..20 is not 10";
  if (percentile({}, 50).has_value() || percentile(Hundred, 0).has_value())
    return "percentile of an empty set or of rank 0 was reported";

  if (median({3, 1, 2}) != 2.0 || median({4, 1, 3, 2}) != 2.5 ||
      median({}) != 0.0)
    return "median of fixed inputs is wrong";
  if (!Near(mean({1, 2, 3, 4}), 2.5))
    return "mean of 1..4 is not 2.5";

  Ratio Waste{330, 1589};
  if (!Near(Waste.value(), 330.0 / 1589.0) || Waste.Base != 1589)
    return "ratio 330/1589 lost its value or base";
  if (Ratio{5, 0}.value() != 0.0)
    return "ratio over a zero base is not 0";

  // Spans on one thread: launch [0,100) holds a [10,40) and b [50,90);
  // b holds c [60,70). A span on another thread with no parent keeps
  // all of its time.
  std::vector<SpanEvent> Spans = {
      {"launch", 1, 0, 1, 1, 0, 100}, {"x.a", 2, 1, 1, 1, 10, 40},
      {"x.b", 3, 1, 1, 1, 50, 90},    {"x.c", 4, 3, 1, 1, 60, 70},
      {"x.d", 5, 0, 0, 2, 20, 80}};
  std::vector<int64_t> Self = selfTimesNs(Spans);
  if (Self != std::vector<int64_t>{30, 30, 30, 10, 60})
    return "span self times of a fixed tree are wrong";
  if (layerOf("persist.store.open") != "persist.store" ||
      layerOf("launch") != "launch")
    return "layer of a span name is wrong";
  return "";
}
