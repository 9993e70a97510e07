// OrCluster -- hosts OR-model processes (see core/or_model.h) on the
// discrete-event simulator, with a global-knowledge oracle: a blocked
// process is deadlocked iff no active process is reachable through
// dependent sets.
#pragma once

#include <memory>
#include <vector>

#include "core/or_model.h"
#include "sim/simulator.h"

namespace cmh::runtime {

struct OrDetection {
  ProbeTag tag;
  ProcessId process;
  SimTime at;
};

class OrCluster {
 public:
  OrCluster(std::uint32_t n, std::uint64_t seed = 1,
            sim::DelayModel delays = {});

  [[nodiscard]] std::uint32_t size() const {
    return static_cast<std::uint32_t>(processes_.size());
  }
  [[nodiscard]] core::OrProcess& process(ProcessId id) {
    return *processes_.at(id.value());
  }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

  /// Blocks p on `dependents` (drives the underlying computation).
  void block(ProcessId p, const std::set<ProcessId>& dependents);

  /// p (active) signals `to`, releasing it if blocked.
  void signal(ProcessId p, ProcessId to);

  [[nodiscard]] const std::vector<OrDetection>& detections() const {
    return detections_;
  }

  using DetectionCallback = std::function<void(const OrDetection&)>;
  void set_detection_callback(DetectionCallback cb) {
    on_detection_ = std::move(cb);
  }

  /// Ground truth: p is deadlocked iff it is blocked and every process
  /// reachable through dependent sets is blocked too (OR semantics: one
  /// active helper anywhere suffices to eventually release p).
  [[nodiscard]] bool oracle_deadlocked(ProcessId p) const;

  [[nodiscard]] std::vector<ProcessId> oracle_deadlocked_set() const;

  [[nodiscard]] core::OrStats total_stats() const;

  void run() { sim_.run(); }

 private:
  sim::Simulator sim_;
  std::vector<std::unique_ptr<core::OrProcess>> processes_;
  std::vector<OrDetection> detections_;
  DetectionCallback on_detection_;
};

}  // namespace cmh::runtime
