#include "check/ddb_system.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>

namespace cmh::check {

DdbSystem::DdbSystem(DdbScenario scenario) : scenario_(std::move(scenario)) {
  if (scenario_.scripts.size() > scenario_.n_sites) {
    throw std::invalid_argument("DdbSystem: more scripts than sites");
  }
  scenario_.scripts.resize(scenario_.n_sites);
  if (scenario_.options.initiation == ddb::DdbInitiation::kDelayed &&
      scenario_.options.initiation_delay > SimTime::zero()) {
    throw std::invalid_argument(
        "DdbSystem: a positive delay needs timers; exploration is timer-free "
        "(use kDelayed at T = 0, or kManual)");
  }
  reset();
}

void DdbSystem::reset() {
  channels_.clear();
  script_pos_.assign(scenario_.n_sites, 0);
  steps_ = 0;
  event_seq_ = 0;
  declared_.clear();
  violations_.clear();
  controllers_.clear();
  controllers_.reserve(scenario_.n_sites);
  for (std::uint32_t s = 0; s < scenario_.n_sites; ++s) {
    controllers_.push_back(std::make_unique<ddb::Controller>(
        SiteId{s}, scenario_.n_sites, static_cast<ddb::SiteHost&>(*this),
        scenario_.options));
  }
  // Each transaction is homed where its script runs.  Ledger ids are
  // dense: an id no script names is begun too, and never acts.
  std::map<TransactionId, SiteId> homes;
  for (std::uint32_t s = 0; s < scenario_.n_sites; ++s) {
    for (const DdbOp& op : scenario_.scripts[s]) homes[op.txn] = SiteId{s};
  }
  ledger_ = {};
  for (const auto& [txn, home] : homes) {
    while (ledger_.size() <= txn.value()) (void)ledger_.begin(home);
  }
}

void DdbSystem::send(SiteId from, SiteId to, BytesView payload) {
  ++event_seq_;
  channels_[{from, to}].emplace_back(payload.begin(), payload.end());
}

SiteId DdbSystem::owner_of(ResourceId resource) const {
  return scenario_.resource_owner.at(resource.value());
}

void DdbSystem::schedule(SimTime, std::function<void()>) {
  throw std::logic_error(
      "DdbSystem: a controller scheduled a timer in a timer-free "
      "exploration");
}

void DdbSystem::on_grant(SiteId, TransactionId txn, ResourceId resource) {
  ledger_.grant(txn, resource);
}

void DdbSystem::on_abort(SiteId, TransactionId) {}

void DdbSystem::on_deadlock(SiteId, TransactionId victim,
                            const ddb::DdbProbeTag&) {
  declared_.insert(victim);
  const auto oracle = ledger_.deadlocked(
      controllers_, static_cast<const ddb::SiteHost&>(*this));
  if (std::find(oracle.begin(), oracle.end(), victim) == oracle.end()) {
    record(Axiom::kQRP2, victim,
           "controller declared " + victim.to_string() +
               " deadlocked, but the transaction-wait oracle has it on no "
               "cycle (false deadlock)");
  }
}

void DdbSystem::record(Axiom axiom, TransactionId txn, std::string detail) {
  // Channel endpoints are meaningless for transaction-level findings; stash
  // the transaction id in both slots of the shared Violation shape.
  violations_.push_back(Violation{axiom, event_seq_,
                                  ProcessId{txn.value()},
                                  ProcessId{txn.value()}, now(),
                                  std::move(detail)});
}

bool DdbSystem::script_op_enabled(std::uint32_t s) const {
  const auto& script = scenario_.scripts[s];
  if (script_pos_[s] >= script.size()) return false;
  const DdbOp& op = script[script_pos_[s]];
  // The transaction's agent acts sequentially: no new step while a lock of
  // its is outstanding, none once it ended, and none ever again once it was
  // declared deadlocked (a deadlocked agent never proceeds).
  return ledger_.status(op.txn) == ddb::TxnStatus::kActive &&
         ledger_.all_granted(op.txn) && !declared_.contains(op.txn);
}

std::vector<Transition> DdbSystem::enabled() {
  std::vector<Transition> ts;
  for (const auto& [key, ch] : channels_) {
    if (!ch.empty()) {
      ts.push_back(Transition{Transition::Kind::kDeliver, key.first.value(),
                              key.second.value()});
    }
  }
  for (std::uint32_t s = 0; s < scenario_.n_sites; ++s) {
    if (script_op_enabled(s)) {
      ts.push_back(Transition{Transition::Kind::kScript, s, s});
    }
  }
  return ts;
}

void DdbSystem::execute(const Transition& t) {
  ++steps_;
  ++event_seq_;
  if (t.kind == Transition::Kind::kDeliver) {
    const SiteId from{t.a};
    const SiteId to{t.b};
    auto& ch = channels_.at({from, to});
    const Bytes frame = std::move(ch.front());
    ch.pop_front();
    const auto st = controllers_[t.b]->on_message(from, frame);
    if (!st.ok()) {
      throw std::logic_error("DdbSystem: on_message: " + st.to_string());
    }
    return;
  }
  const DdbOp& op = scenario_.scripts[t.a][script_pos_[t.a]++];
  ddb::Controller& home = *controllers_[t.a];
  if (op.kind == DdbOp::Kind::kLock) {
    ledger_.request(op.txn, op.resource, op.mode, home.lock_count(op.txn));
    home.lock(op.txn, op.resource, op.mode);  // a grant reaches on_grant()
  } else {
    ledger_.end(op.txn, ddb::TxnStatus::kCommitted);
    home.finish(op.txn);
  }
}

std::uint64_t DdbSystem::fingerprint() {
  std::uint64_t h = 0x13198A2E03707344ULL;  // pi again, distinct seed
  const auto mix = [&h](std::uint64_t v) { hash_mix(h, v); };
  for (std::uint32_t s = 0; s < scenario_.n_sites; ++s) {
    mix(script_pos_[s]);
    controllers_[s]->mix_state_hash(h);
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
  ledger_.mix_state_hash(h);
  mix(0xF4);
  for (const TransactionId t : declared_) mix(t.value());
  return h;
}

void DdbSystem::check_final() {
  // Quiescence (leaves have empty channels by construction): some
  // deadlocked transaction must have been declared.  The paper guarantees
  // one declaration per cycle -- the computation of the *last* process to
  // close it -- not one per member: a transaction that blocked early
  // initiates before the cycle exists and that computation legitimately
  // dies.  The canonical scenarios hold a single cycle, so "some declared"
  // is exactly the per-cycle guarantee there.
  std::uint64_t early_closures = 0;
  for (const auto& c : controllers_) {
    early_closures += c->stats().early_closures;
  }
  tally_.early_closures += early_closures;
  if (early_closures > 0) ++tally_.with_early_closure;
  const auto oracle = ledger_.deadlocked(
      controllers_, static_cast<const ddb::SiteHost&>(*this));
  if (oracle.empty()) return;
  ++tally_.deadlocked;
  for (const TransactionId t : oracle) {
    if (declared_.contains(t)) return;
  }
  record(Axiom::kQRP1, oracle.front(),
         std::to_string(oracle.size()) +
             " transaction(s) are deadlocked per the transaction-wait oracle "
             "but no controller declared any of them (missed deadlock)");
}

std::string DdbSystem::describe(const Transition& t) const {
  if (t.kind == Transition::Kind::kDeliver) {
    return "deliver " + SiteId{t.a}.to_string() + "->" +
           SiteId{t.b}.to_string();
  }
  // Pre-state call (see explore.cpp): script_pos_ names the op about to run.
  const std::size_t pos = script_pos_[t.a];
  const auto& script = scenario_.scripts[t.a];
  std::string prefix = "script " + SiteId{t.a}.to_string();
  if (pos >= script.size()) return prefix;
  const DdbOp& op = script[pos];
  std::ostringstream os;
  os << prefix << ' ';
  if (op.kind == DdbOp::Kind::kLock) {
    os << "lock " << op.txn << ' ' << op.resource << ' '
       << ddb::to_string(op.mode);
  } else {
    os << "finish " << op.txn;
  }
  return os.str();
}

}  // namespace cmh::check
