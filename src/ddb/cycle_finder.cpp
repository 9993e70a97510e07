// cmh:hot-path -- steady-state detection path; lint enforces zero-alloc.
#include "ddb/cycle_finder.h"

#include <algorithm>

namespace cmh::ddb {

namespace {
// A transaction's lock list is sorted by resource.
template <typename Locks>
auto lower_lock(Locks& locks, ResourceId resource) {
  return std::lower_bound(
      locks.begin(), locks.end(), resource,
      [](const auto& l, ResourceId r) { return l.resource < r; });
}
}  // namespace

std::span<const TransactionId> CycleFinder::on_cycle(
    std::vector<WaitEdge>& edges) {
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  nodes_.clear();
  for (const auto& [w, b] : edges) {
    nodes_.push_back(w);
    nodes_.push_back(b);
  }
  std::sort(nodes_.begin(), nodes_.end());
  nodes_.erase(std::unique(nodes_.begin(), nodes_.end()), nodes_.end());
  const auto index_of = [this](TransactionId t) {
    return static_cast<std::uint32_t>(
        std::lower_bound(nodes_.begin(), nodes_.end(), t) - nodes_.begin());
  };

  // A transaction is deadlocked iff it can reach itself: one breadth-first
  // search per node, with generation stamps instead of a cleared set.
  seen_.assign(nodes_.size(), 0);
  result_.clear();
  for (std::uint32_t t = 0; t < nodes_.size(); ++t) {
    const std::uint32_t generation = t + 1;
    frontier_.clear();
    frontier_.push_back(t);
    bool cycle = false;
    for (std::size_t head = 0; head < frontier_.size() && !cycle; ++head) {
      const TransactionId u = nodes_[frontier_[head]];
      // Sorted edges: u's out-edges are one contiguous run.
      auto e = std::lower_bound(edges.begin(), edges.end(), WaitEdge{u, {}});
      for (; e != edges.end() && e->first == u; ++e) {
        const std::uint32_t v = index_of(e->second);
        if (v == t) {
          cycle = true;
          break;
        }
        if (seen_[v] != generation) {
          seen_[v] = generation;
          frontier_.push_back(v);
        }
      }
    }
    if (cycle) result_.push_back(nodes_[t]);
  }
  return result_;
}

void append_grey_waits(const LockManager& owner, TransactionId txn,
                       ResourceId resource, LockMode mode, LockCount held,
                       std::vector<WaitEdge>& edges) {
  if (owner.waiting(resource, txn)) return;  // already queued
  // A grant in flight only if the holding covers the requested mode.
  const std::optional<LockMode> held_mode = owner.held_mode(resource, txn);
  if (held_mode.has_value() &&
      (*held_mode == LockMode::kWrite || mode == LockMode::kRead)) {
    return;
  }
  for (const TransactionId blocker :
       owner.blockers(resource, txn, mode, held)) {
    edges.emplace_back(txn, blocker);
  }
}

TransactionId TxnLedger::begin(SiteId home) {
  const TransactionId txn{size()};
  txns_.push_back(Txn{home, TxnStatus::kActive, {}});
  return txn;
}

void TxnLedger::request(TransactionId txn, ResourceId resource, LockMode mode,
                        LockCount held) {
  auto& locks = txns_.at(txn.value()).locks;
  const auto it = lower_lock(locks, resource);
  if (it == locks.end() || it->resource != resource) {
    locks.insert(it, Lock{resource, mode, false, held});
  } else if (mode == LockMode::kWrite && it->mode == LockMode::kRead) {
    // Upgrade: not granted again until the write lock is actually held.
    it->mode = mode;
    it->granted = false;
    it->held = held;
  }
}

void TxnLedger::grant(TransactionId txn, ResourceId resource) {
  if (txn.value() >= txns_.size()) return;
  auto& locks = txns_[txn.value()].locks;
  const auto it = lower_lock(locks, resource);
  if (it != locks.end() && it->resource == resource) it->granted = true;
}

bool TxnLedger::end(TransactionId txn, TxnStatus outcome) {
  TxnStatus& status = txns_.at(txn.value()).status;
  if (status != TxnStatus::kActive) return false;
  status = outcome;
  return true;
}

bool TxnLedger::granted(TransactionId txn, ResourceId resource) const {
  const auto& locks = txns_.at(txn.value()).locks;
  const auto it = lower_lock(locks, resource);
  return it != locks.end() && it->resource == resource && it->granted;
}

bool TxnLedger::all_granted(TransactionId txn) const {
  const auto& locks = txns_.at(txn.value()).locks;
  return std::all_of(locks.begin(), locks.end(),
                     [](const Lock& l) { return l.granted; });
}

void TxnLedger::mix_state_hash(std::uint64_t& h) const {
  const auto mix = [&h](std::uint64_t v) { hash_mix(h, v); };
  for (std::uint32_t t = 0; t < txns_.size(); ++t) {
    const Txn& s = txns_[t];
    mix(t);
    mix(s.home.value());
    for (const Lock& l : s.locks) {
      mix(l.resource.value());
      mix(static_cast<std::uint64_t>(l.mode));
      mix(l.granted);
    }
    mix(static_cast<std::uint64_t>(s.status));
    mix(0xF3);
  }
}

}  // namespace cmh::ddb
