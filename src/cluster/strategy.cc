#include "src/cluster/strategy.h"

#include "src/common/knobs.h"

namespace oasis {
namespace {

struct RegistryEntry {
  const char* name;
  std::unique_ptr<ConsolidationStrategy> (*make)();
};

// Registration order is also the order bench/ablation_policy compares in.
const RegistryEntry kRegistry[] = {
    {"oasis-greedy", &MakeOasisGreedyStrategy},
    {"first-fit-decreasing", &MakeFirstFitDecreasingStrategy},
    {"local-threshold", &MakeLocalThresholdStrategy},
    {"predictive", &MakePredictiveStrategy},
};

}  // namespace

const std::vector<std::string>& RegisteredStrategyNames() {
  static const std::vector<std::string>* names = [] {
    auto* v = new std::vector<std::string>();
    for (const RegistryEntry& entry : kRegistry) {
      v->push_back(entry.name);
    }
    return v;
  }();
  return *names;
}

std::string RegisteredStrategyNamesJoined() {
  std::string joined;
  for (const RegistryEntry& entry : kRegistry) {
    if (!joined.empty()) {
      joined += ", ";
    }
    joined += entry.name;
  }
  return joined;
}

bool IsRegisteredStrategyName(const std::string& name) {
  for (const RegistryEntry& entry : kRegistry) {
    if (name == entry.name) {
      return true;
    }
  }
  return false;
}

std::unique_ptr<ConsolidationStrategy> MakeStrategy(const std::string& name) {
  for (const RegistryEntry& entry : kRegistry) {
    if (name == entry.name) {
      return entry.make();
    }
  }
  return nullptr;
}

void ApplyPolicyOverride(ClusterConfig* config) {
  std::string name = knobs::String(knobs::Knob::kPolicy);
  if (name.empty()) {
    return;
  }
  if (!IsRegisteredStrategyName(name)) {
    knobs::Reject(knobs::Knob::kPolicy, name,
                  "a registered strategy (" + RegisteredStrategyNamesJoined() + ")");
  }
  config->strategy_name = name;
}

}  // namespace oasis
