#include "check/basic_system.h"

#include <algorithm>
#include <stdexcept>

#include "core/messages.h"

namespace cmh::check {

BasicSystem::BasicSystem(BasicScenario scenario)
    : scenario_(std::move(scenario)) {
  if (scenario_.scripts.size() > scenario_.n) {
    throw std::invalid_argument("BasicSystem: more scripts than processes");
  }
  if (scenario_.options.initiation == core::InitiationMode::kDelayed &&
      scenario_.options.initiation_delay > SimTime::zero()) {
    throw std::invalid_argument(
        "BasicSystem: a positive initiation delay needs timers; exploration "
        "is timer-free (use T = 0 or kManual)");
  }
  scenario_.scripts.resize(scenario_.n);
  reset();
}

void BasicSystem::reset() {
  auditor_ = std::make_unique<InvariantAuditor>(AuditorConfig{
      // Accumulate: the explorer polls violations() and stops itself, which
      // keeps the replay machinery exception-free.
      .abort_on_violation = false,
      .check_qrp1 =
          scenario_.options.initiation != core::InitiationMode::kManual});
  channels_.clear();
  script_pos_.assign(scenario_.n, 0);
  steps_ = 0;
  reordered_ = false;
  processes_.clear();
  processes_.reserve(scenario_.n);
  for (std::uint32_t i = 0; i < scenario_.n; ++i) {
    processes_.push_back(std::make_unique<core::BasicProcess>(
        ProcessId{i}, static_cast<core::ProcessHost&>(*this),
        scenario_.options));
  }
}

void BasicSystem::schedule(ProcessId, SimTime, std::function<void()>) {
  throw std::logic_error(
      "BasicSystem: a process scheduled a timer in a timer-free exploration");
}

void BasicSystem::on_deadlock(ProcessId who, const ProbeTag&) {
  auditor_->on_declare(who, now());
}

void BasicSystem::send(ProcessId from, ProcessId to, BytesView payload) {
  if (scenario_.faults.swallow_probes_from == from && !payload.empty() &&
      payload[0] == core::wire::kProbe) {
    return;  // vanishes before any bookkeeping -- not even the auditor knows
  }
  auditor_->on_send(from, to, payload, now());
  if (scenario_.faults.drop_replies_from == from && !payload.empty() &&
      payload[0] == core::wire::kReply) {
    return;  // lost in transit; the auditor's P4 oracle will notice
  }
  auto& ch = channels_[{from, to}];
  ch.emplace_back(payload.begin(), payload.end());
  if (!reordered_ && scenario_.faults.reorder_channel &&
      scenario_.faults.reorder_channel->first == from &&
      scenario_.faults.reorder_channel->second == to && ch.size() == 2) {
    std::swap(ch[0], ch[1]);
    reordered_ = true;
  }
}

bool BasicSystem::script_op_enabled(std::uint32_t p) const {
  const auto& script = scenario_.scripts[p];
  if (script_pos_[p] >= script.size()) return false;
  const ScriptOp& op = script[script_pos_[p]];
  const core::BasicProcess& process = *processes_[p];
  switch (op.kind) {
    case ScriptOp::Kind::kRequest:
      // One outstanding request per peer (G1); churn scripts wait for the
      // previous edge to clear.
      return !process.waits_for().contains(op.peer);
    case ScriptOp::Kind::kReply:
      // G3: only an active process holding the request may reply.
      return process.held_requests().contains(op.peer) && !process.blocked();
    case ScriptOp::Kind::kInject:
      return true;
  }
  return false;
}

std::vector<Transition> BasicSystem::enabled() {
  std::vector<Transition> ts;
  for (const auto& [key, ch] : channels_) {
    if (!ch.empty()) {
      ts.push_back(Transition{Transition::Kind::kDeliver, key.first.value(),
                              key.second.value()});
    }
  }
  for (std::uint32_t p = 0; p < scenario_.n; ++p) {
    if (script_op_enabled(p)) {
      ts.push_back(Transition{Transition::Kind::kScript, p, p});
    }
  }
  return ts;
}

void BasicSystem::execute(const Transition& t) {
  ++steps_;
  if (t.kind == Transition::Kind::kDeliver) {
    const ProcessId from{t.a};
    const ProcessId to{t.b};
    auto& ch = channels_.at({from, to});
    const Bytes frame = std::move(ch.front());
    ch.pop_front();
    auditor_->on_deliver(from, to, frame, now());
    const auto st = processes_[t.b]->on_message(from, frame);
    if (!st.ok()) {
      throw std::logic_error("BasicSystem: on_message: " + st.to_string());
    }
    auditor_->check_local_view(*processes_[t.b], now());
    return;
  }
  const ScriptOp& op = scenario_.scripts[t.a][script_pos_[t.a]++];
  switch (op.kind) {
    case ScriptOp::Kind::kRequest:
      processes_[t.a]->send_request(op.peer);
      break;
    case ScriptOp::Kind::kReply:
      processes_[t.a]->send_reply(op.peer);
      break;
    case ScriptOp::Kind::kInject:
      send(ProcessId{t.a}, op.peer, op.payload);
      break;
  }
}

std::uint64_t BasicSystem::fingerprint() {
  std::uint64_t h = 0x243F6A8885A308D3ULL;  // pi, nothing-up-my-sleeve
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  for (std::uint32_t p = 0; p < scenario_.n; ++p) {
    mix(script_pos_[p]);
    processes_[p]->mix_state_hash(h);
  }
  for (const auto& [key, ch] : channels_) {
    if (ch.empty()) continue;
    mix(key.first.value());
    mix(key.second.value());
    for (const Bytes& frame : ch) {
      for (const std::uint8_t byte : frame) mix(byte);
      mix(0xF1);
    }
    mix(0xF2);
  }
  for (const ProcessId p : auditor_->declared()) mix(p.value());
  mix(static_cast<std::uint64_t>(reordered_));
  return h;
}

void BasicSystem::check_final() { auditor_->finalize(now()); }

std::string BasicSystem::describe(const Transition& t) const {
  if (t.kind == Transition::Kind::kDeliver) {
    return "deliver " + ProcessId{t.a}.to_string() + "->" +
           ProcessId{t.b}.to_string();
  }
  // Called in the pre-state (see explore.cpp): script_pos_ names the op
  // about to execute.
  const std::size_t pos = script_pos_[t.a];
  const auto& script = scenario_.scripts[t.a];
  std::string op = "script " + ProcessId{t.a}.to_string();
  if (pos >= script.size()) return op;
  const ScriptOp& next = script[pos];
  switch (next.kind) {
    case ScriptOp::Kind::kRequest:
      return op + " request->" + next.peer.to_string();
    case ScriptOp::Kind::kReply:
      return op + " reply->" + next.peer.to_string();
    case ScriptOp::Kind::kInject:
      return op + " inject->" + next.peer.to_string();
  }
  return op;
}

}  // namespace cmh::check
