// Wall-clock stopwatch for benchmark reporting. Load (tuples received) is
// the paper's cost measure; wall time is reported alongside for context.

#ifndef PARJOIN_COMMON_STOPWATCH_H_
#define PARJOIN_COMMON_STOPWATCH_H_

#include <chrono>

namespace parjoin {

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace parjoin

#endif  // PARJOIN_COMMON_STOPWATCH_H_
