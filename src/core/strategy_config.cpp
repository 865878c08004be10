#include "src/core/strategy_config.h"

#include <stdexcept>

namespace s2c2::core {

ClusterSpec ClusterSpec::uniform(std::size_t n, double speed) {
  ClusterSpec spec;
  spec.traces.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    spec.traces.push_back(sim::SpeedTrace::constant(speed));
  }
  return spec;
}

const char* strategy_name(StrategyKind s) {
  switch (s) {
    case StrategyKind::kS2C2:
      return "s2c2";
    case StrategyKind::kS2C2Basic:
      return "s2c2-basic";
    case StrategyKind::kMds:
      return "mds";
    case StrategyKind::kPoly:
      return "poly";
    case StrategyKind::kPolyConventional:
      return "poly-conventional";
    case StrategyKind::kReplication:
      return "replication";
    case StrategyKind::kOverDecomp:
      return "overdecomp";
    case StrategyKind::kLt:
      return "lt";
    case StrategyKind::kAgc:
      return "agc";
  }
  return "unknown";
}

StrategyKind parse_strategy(const std::string& name) {
  for (const StrategyKind s : all_strategy_kinds()) {
    if (name == strategy_name(s)) return s;
  }
  throw std::invalid_argument("unknown strategy: " + name);
}

std::vector<StrategyKind> all_strategy_kinds() {
  return {StrategyKind::kS2C2,        StrategyKind::kS2C2Basic,
          StrategyKind::kMds,         StrategyKind::kPoly,
          StrategyKind::kPolyConventional, StrategyKind::kReplication,
          StrategyKind::kOverDecomp,  StrategyKind::kLt,
          StrategyKind::kAgc};
}

bool strategy_uses_predictions(StrategyKind s) {
  switch (s) {
    case StrategyKind::kS2C2:
    case StrategyKind::kS2C2Basic:
    case StrategyKind::kPoly:
    case StrategyKind::kOverDecomp:
    case StrategyKind::kAgc:
      return true;
    case StrategyKind::kMds:
    case StrategyKind::kPolyConventional:
    case StrategyKind::kReplication:
    case StrategyKind::kLt:
      return false;
  }
  return false;
}

bool strategy_is_coded(StrategyKind s) {
  switch (s) {
    case StrategyKind::kS2C2:
    case StrategyKind::kS2C2Basic:
    case StrategyKind::kMds:
    case StrategyKind::kPoly:
    case StrategyKind::kPolyConventional:
    case StrategyKind::kLt:
    case StrategyKind::kAgc:
      return true;
    case StrategyKind::kReplication:
    case StrategyKind::kOverDecomp:
      return false;
  }
  return false;
}

bool strategy_uses_recovery(StrategyKind s) {
  switch (s) {
    case StrategyKind::kS2C2:
    case StrategyKind::kS2C2Basic:
    case StrategyKind::kPoly:
    case StrategyKind::kAgc:
      return true;
    case StrategyKind::kMds:
    case StrategyKind::kPolyConventional:
    case StrategyKind::kReplication:
    case StrategyKind::kOverDecomp:
    case StrategyKind::kLt:
      return false;
  }
  return false;
}

bool strategy_tolerates_byzantine(StrategyKind s) {
  // Redundant coded responses are what the residual check verifies
  // against — but the rateless code stops at a bare symbol threshold
  // with no over-provisioned verification margin, so it opts out.
  return strategy_is_coded(s) && s != StrategyKind::kLt;
}

bool strategy_supports_block_rounds(StrategyKind s) {
  switch (s) {
    case StrategyKind::kS2C2:
    case StrategyKind::kS2C2Basic:
    case StrategyKind::kMds:
    case StrategyKind::kReplication:
    case StrategyKind::kOverDecomp:
    case StrategyKind::kLt:
    case StrategyKind::kAgc:
      return true;
    case StrategyKind::kPoly:
    case StrategyKind::kPolyConventional:
      return false;
  }
  return false;
}

}  // namespace s2c2::core
