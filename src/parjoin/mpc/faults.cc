#include "parjoin/mpc/faults.h"

#include <sstream>

#include "parjoin/common/logging.h"
#include "parjoin/common/random.h"

namespace parjoin {
namespace mpc {

FaultPlan FaultPlan::Generate(const FaultConfig& config, int p) {
  CHECK_GT(p, 0);
  CHECK_GE(config.horizon, 1);
  CHECK_LE(config.straggle_min, config.straggle_max);
  FaultPlan plan;
  Rng rng(config.seed);
  for (int i = 0; i < config.crashes; ++i) {
    FaultEvent e;
    e.kind = FaultKind::kCrash;
    if (static_cast<size_t>(i) < config.crash_rounds.size()) {
      CHECK_GE(config.crash_rounds[static_cast<size_t>(i)], 1);
      e.round = config.crash_rounds[static_cast<size_t>(i)];
    } else {
      e.round = static_cast<int>(rng.Uniform(1, config.horizon));
    }
    e.server = static_cast<int>(rng.Uniform(0, p - 1));
    plan.events_.push_back(e);
  }
  for (int i = 0; i < config.stragglers; ++i) {
    FaultEvent e;
    e.kind = FaultKind::kStraggler;
    e.round = static_cast<int>(rng.Uniform(1, config.horizon));
    e.server = static_cast<int>(rng.Uniform(0, p - 1));
    e.factor = config.straggle_min +
               rng.UniformDouble() * (config.straggle_max -
                                      config.straggle_min);
    plan.events_.push_back(e);
  }
  for (int i = 0; i < config.corruptions; ++i) {
    FaultEvent e;
    e.kind = FaultKind::kCorruption;
    e.round = static_cast<int>(rng.Uniform(1, config.horizon));
    e.server = static_cast<int>(rng.Uniform(0, p - 1));
    e.corruption_mask = rng.Next() | 1;  // nonzero: some bit flips
    plan.events_.push_back(e);
  }
  return plan;
}

std::string RoundAbort::ToString() const {
  std::ostringstream os;
  if (reason == Reason::kServerCrash) {
    os << "server " << server << " crashed at round " << round;
  } else {
    os << "round " << round << " load " << round_load
       << " exceeded budget " << budget;
  }
  return os.str();
}

}  // namespace mpc
}  // namespace parjoin
