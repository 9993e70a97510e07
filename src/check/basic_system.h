// Basic-model harness for the exhaustive interleaving checker.
//
// Hosts N BasicProcess instances over explicit per-channel FIFO deques that
// the explorer drains in any order, with the InvariantAuditor (accumulate
// mode) embedded so every schedule is checked against G1-G4/P1-P4 and
// QRP1/QRP2.  Workload comes from per-process scripts: each process executes
// its ops in order, an op becoming schedulable when the model allows it
// (a request needs the edge absent, a reply needs the request held and the
// replier active).  Scripts may also inject raw frames -- the seeded-bug
// tests use this to forge probes and illegal requests/replies -- and a
// FaultPlan can drop or reorder transport frames to break P4/P2.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "check/explore.h"
#include "check/invariant_auditor.h"
#include "core/basic_process.h"

namespace cmh::check {

struct ScriptOp {
  enum class Kind : std::uint8_t { kRequest, kReply, kInject };

  Kind kind{Kind::kRequest};
  ProcessId peer{};
  /// kInject only: raw frame pushed onto channel (self, peer) as if sent.
  Bytes payload{};

  static ScriptOp request(ProcessId to) { return {Kind::kRequest, to, {}}; }
  static ScriptOp reply(ProcessId to) { return {Kind::kReply, to, {}}; }
  static ScriptOp inject(ProcessId to, Bytes frame) {
    return {Kind::kInject, to, std::move(frame)};
  }
};

/// Transport faults for the seeded-bug tests.
struct FaultPlan {
  /// Drop every reply frame this process sends: the auditor records the
  /// send, the channel never carries it (lost message -> P4 at quiescence).
  std::optional<ProcessId> drop_replies_from;
  /// Swap the two oldest frames of this channel the first time it holds two
  /// (FIFO break -> P2 at delivery).
  std::optional<std::pair<ProcessId, ProcessId>> reorder_channel;
  /// Swallow every probe frame this process sends *before* the auditor sees
  /// it -- a detector whose probes vanish without trace.  Deadlocks it
  /// should have found go undeclared -> QRP1 at quiescence (P4 stays quiet:
  /// as far as the message history shows, nothing was ever sent).
  std::optional<ProcessId> swallow_probes_from;
};

struct BasicScenario {
  std::string name;
  std::uint32_t n{0};
  /// Exploration is timer-free: kDelayed at T = 0 (the default) or kManual;
  /// BasicSystem rejects a positive T at construction.
  core::Options options{};
  /// scripts[i] = ordered ops of process i (may be shorter than n entries).
  std::vector<std::vector<ScriptOp>> scripts;
  FaultPlan faults{};
};

class BasicSystem final : public System, private core::ProcessHost {
 public:
  explicit BasicSystem(BasicScenario scenario);

  void reset() override;
  [[nodiscard]] std::vector<Transition> enabled() override;
  void execute(const Transition& t) override;
  [[nodiscard]] std::uint64_t fingerprint() override;
  void check_final() override;
  [[nodiscard]] const std::vector<Violation>& violations() const override {
    return auditor_->violations();
  }
  [[nodiscard]] std::string describe(const Transition& t) const override;

  [[nodiscard]] const InvariantAuditor& auditor() const { return *auditor_; }

 private:
  [[nodiscard]] SimTime now() const { return SimTime::us(steps_); }
  // The processes' host: send() applies the FaultPlan and queues the frame
  // on its channel; schedule() throws; on_deadlock() tells the auditor.
  void send(ProcessId from, ProcessId to, BytesView payload) override;
  void schedule(ProcessId who, SimTime delay,
                std::function<void()> fn) override;
  void on_deadlock(ProcessId who, const ProbeTag& tag) override;

  [[nodiscard]] bool script_op_enabled(std::uint32_t p) const;

  BasicScenario scenario_;
  std::unique_ptr<InvariantAuditor> auditor_;
  std::vector<std::unique_ptr<core::BasicProcess>> processes_;
  std::map<std::pair<ProcessId, ProcessId>, std::deque<Bytes>> channels_;
  std::vector<std::size_t> script_pos_;
  std::int64_t steps_{0};
  bool reordered_{false};
};

}  // namespace cmh::check
