#include "model.hpp"

namespace txlint {

const char* rule_name(Rule r) {
  switch (r) {
    case Rule::kPersistInTx:
      return "persist-in-tx";
    case Rule::kAllocInTx:
      return "alloc-in-tx";
    case Rule::kRetireBeforeCommit:
      return "retire-before-commit";
    case Rule::kIrrevocableInTx:
      return "irrevocable-in-tx";
    case Rule::kUnbalancedEpochOp:
      return "unbalanced-epoch-op";
    case Rule::kFallbackStripeOrder:
      return "fallback-stripe-order";
    case Rule::kIpcClientNvm:
      return "ipc-client-nvm";
    case Rule::kNoObsInTx:
      return "no-obs-in-tx";
    case Rule::kPublishBeforePersist:
      return "publish-before-persist";
    case Rule::kEscapeUnpersistedStack:
      return "escape-unpersisted-stack";
    default:
      return "?";
  }
}

bool rule_from_name(std::string_view s, Rule* out) {
  for (int i = 0; i < kNumRules; ++i) {
    if (s == rule_name(static_cast<Rule>(i))) {
      *out = static_cast<Rule>(i);
      return true;
    }
  }
  return false;
}

bool is_suppressed(const FileModel& fm, int line, Rule r) {
  for (int l : {line, line - 1}) {
    auto it = fm.allow.find(l);
    if (it == fm.allow.end()) continue;
    if (it->second.count(-1) || it->second.count(static_cast<int>(r))) {
      return true;
    }
  }
  return false;
}

}  // namespace txlint
