//===- support/Histogram.cpp - Simple statistics accumulator --------------===//

#include "support/Histogram.h"

#include <cassert>
#include <cmath>

using namespace gdp;

void Stats::add(double X) {
  if (Count == 0) {
    Min = Max = X;
  } else {
    Min = std::min(Min, X);
    Max = std::max(Max, X);
  }
  ++Count;
  Sum += X;
  if (X > 0)
    LogSum += std::log(X);
  else
    AnyNonPositive = true;
}

double Stats::mean() const {
  assert(Count > 0 && "mean of empty series");
  return Sum / static_cast<double>(Count);
}

double Stats::geomean() const {
  assert(Count > 0 && "geomean of empty series");
  assert(!AnyNonPositive && "geomean requires positive samples");
  return std::exp(LogSum / static_cast<double>(Count));
}
