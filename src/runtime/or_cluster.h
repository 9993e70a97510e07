// OrCluster -- hosts OR-model processes (see core/or_model.h) on the
// discrete-event simulator (through SimHost), with a global-knowledge
// oracle: a blocked process is deadlocked iff no active process is
// reachable through dependent sets.
#pragma once

#include <set>
#include <vector>

#include "core/or_model.h"
#include "runtime/sim_host.h"

namespace cmh::runtime {

class OrCluster final : public SimHost<core::OrProcess> {
 public:
  OrCluster(std::uint32_t n, std::uint64_t seed = 1,
            sim::DelayModel delays = {})
      : SimHost(n, seed, delays, /*shards=*/1) {}

  /// Blocks p on `dependents` (drives the underlying computation).
  void block(ProcessId p, const std::set<ProcessId>& dependents) {
    process(p).block_on(dependents);
  }

  /// p (active) signals `to`, releasing it if blocked.
  void signal(ProcessId p, ProcessId to) { process(p).signal(to); }

  /// Ground truth: p is deadlocked iff it is blocked and every process
  /// reachable through dependent sets is blocked too (OR semantics: one
  /// active helper anywhere suffices to eventually release p).
  [[nodiscard]] bool oracle_deadlocked(ProcessId p) const;

  [[nodiscard]] std::vector<ProcessId> oracle_deadlocked_set() const;
};

}  // namespace cmh::runtime
