// Wall-clock timer for the real (host) measurements reported alongside the
// modeled Summit times in the benchmark harnesses.
#pragma once

#include <chrono>

namespace frosch {

/// Simple monotonic stopwatch.
class Timer {
 public:
  Timer() { reset(); }
  void reset() { start_ = Clock::now(); }
  /// Seconds elapsed since construction or last reset().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace frosch
