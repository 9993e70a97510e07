// Flat-table lock manager: one sorted row per resource ever touched, inline
// holder lists and queues, and a per-transaction index of rows (see
// lock_manager.h).
// cmh:hot-path -- steady-state detection path; lint enforces zero-alloc.
#include "ddb/lock_manager.h"

#include <algorithm>

namespace cmh::ddb {

const LockManager::Holder* LockManager::ResourceState::lower_holder(
    TransactionId txn) const {
  return std::lower_bound(
      holders.begin(), holders.end(), txn,
      [](const Holder& h, TransactionId t) { return h.txn < t; });
}

const LockManager::Holder* LockManager::ResourceState::holder(
    TransactionId txn) const {
  const Holder* it = lower_holder(txn);
  return it != holders.end() && it->txn == txn ? it : nullptr;
}

LockManager::Holder* LockManager::ResourceState::holder(TransactionId txn) {
  return const_cast<Holder*>(std::as_const(*this).holder(txn));
}

const LockManager::ResourceState* LockManager::find(
    ResourceId resource) const {
  const auto it = std::lower_bound(
      table_.begin(), table_.end(), resource,
      [](const ResourceState& rs, ResourceId r) { return rs.id < r; });
  return it != table_.end() && it->id == resource ? &*it : nullptr;
}

LockManager::ResourceState* LockManager::find(ResourceId resource) {
  return const_cast<ResourceState*>(std::as_const(*this).find(resource));
}

LockManager::ResourceState& LockManager::row(ResourceId resource) {
  const auto it = std::lower_bound(
      table_.begin(), table_.end(), resource,
      [](const ResourceState& rs, ResourceId r) { return rs.id < r; });
  if (it != table_.end() && it->id == resource) return *it;
  ResourceState fresh;
  fresh.id = resource;
  return *table_.insert(it, std::move(fresh));
}

const LockManager::TxnRows* LockManager::rows_of(TransactionId txn) const {
  return txn.value() < index_.size() ? &index_[txn.value()] : nullptr;
}

std::size_t LockManager::insertion_point(const ResourceState& rs,
                                        LockCount held) {
  std::size_t pos = rs.queue.size();
  while (pos > 0 && rs.queue[pos - 1].held < held) --pos;
  return pos;
}

template <typename F>
bool LockManager::for_each_conflict(const ResourceState& rs, TransactionId txn,
                                    LockMode mode, std::size_t pos, F&& f) {
  for (const Holder& h : rs.holders) {
    if (h.txn != txn && conflicts(h.holding.mode, mode) && !f(h.txn)) {
      return false;
    }
  }
  for (std::size_t i = 0; i < pos && i < rs.queue.size(); ++i) {
    const LockRequest& ahead = rs.queue[i];
    if (ahead.txn != txn && conflicts(ahead.mode, mode) && !f(ahead.txn)) {
      return false;
    }
  }
  return true;
}

bool LockManager::grantable(const ResourceState& rs, const LockRequest& req,
                            std::size_t pos) {
  return for_each_conflict(rs, req.txn, req.mode, pos,
                           [](TransactionId) { return false; });
}

AcquireResult LockManager::acquire(ResourceId resource, TransactionId txn,
                                   LockMode mode, SiteId origin,
                                   LockCount held) {
  if (txn.value() >= index_.size()) index_.resize(txn.value() + std::size_t{1});
  TxnRows& own_rows = index_[txn.value()];
  ResourceState& rs = row(resource);
  const LockRequest req{txn, mode, held, origin};

  if (Holder* own = rs.holder(txn)) {
    if (own->holding.mode == LockMode::kWrite || mode == LockMode::kRead) {
      return AcquireResult::kRedundant;
    }
    // Upgrade read -> write: in place iff sole holder.  The original
    // acquisition's origin is kept.
    if (rs.holders.size() == 1) {
      own->holding.mode = LockMode::kWrite;
      return AcquireResult::kGranted;
    }
    rs.queue.push_back(req);
    ++own_rows.queued;
    return AcquireResult::kQueued;
  }

  own_rows.resources.insert(resource);
  // Grantability is judged at the insertion point, not at the end.  A
  // request queued where nothing blocks it would have no wait edge, yet
  // wait until some release here rescans the queue; a holder that waits on
  // its transaction never releases, a wedge no detector can see.
  const std::size_t pos = insertion_point(rs, held);
  if (grantable(rs, req, pos)) {
    rs.holders.insert(rs.lower_holder(txn), Holder{txn, Holding{mode, origin}});
    return AcquireResult::kGranted;
  }
  rs.queue.insert(rs.queue.begin() + pos, req);
  ++own_rows.queued;
  return AcquireResult::kQueued;
}

template <typename F>
void LockManager::grant_eligible(ResourceState& rs, F&& on_grant) {
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (std::size_t i = 0; i < rs.queue.size(); ++i) {
      const LockRequest req = rs.queue[i];
      if (!grantable(rs, req, i)) continue;
      rs.queue.erase(rs.queue.begin() + i);
      Holder* held = rs.holder(req.txn);
      if (held != nullptr) {
        // A queued upgrade completes.
        if (req.mode == LockMode::kWrite) held->holding.mode = LockMode::kWrite;
      } else {
        rs.holders.insert(rs.lower_holder(req.txn),
                          Holder{req.txn, Holding{req.mode, req.origin}});
      }
      --index_[req.txn.value()].queued;
      on_grant(req, /*upgrade=*/held != nullptr);
      progressed = true;
      break;  // holders changed; rescan from the front
    }
  }
}

GrantList LockManager::abort(TransactionId txn) {
  GrantList granted;
  if (txn.value() >= index_.size()) return granted;
  // Grants to other transactions touch their entries only: nothing here
  // grows the index, and txn, holding and queued nowhere, gets none.
  TxnRows& own = index_[txn.value()];
  for (const ResourceId resource : own.resources) {
    ResourceState& rs = *find(resource);
    if (const Holder* held = rs.holder(txn)) rs.holders.erase(held);
    rs.queue.erase_if([txn](const LockRequest& r) { return r.txn == txn; });
    grant_eligible(rs, [&](const LockRequest& r, bool upgrade) {
      granted.push_back(Grant{rs.id, r, upgrade});
    });
  }
  own.resources.clear();
  own.queued = 0;
  return granted;
}

bool LockManager::holds(ResourceId resource, TransactionId txn) const {
  const ResourceState* rs = find(resource);
  return rs != nullptr && rs->holder(txn) != nullptr;
}

std::optional<LockMode> LockManager::held_mode(ResourceId resource,
                                               TransactionId txn) const {
  const ResourceState* rs = find(resource);
  const Holder* held = rs != nullptr ? rs->holder(txn) : nullptr;
  if (held == nullptr) return std::nullopt;
  return held->holding.mode;
}

bool LockManager::waiting(ResourceId resource, TransactionId txn) const {
  const ResourceState* rs = find(resource);
  return rs != nullptr &&
         std::any_of(rs->queue.begin(), rs->queue.end(),
                     [&](const LockRequest& r) { return r.txn == txn; });
}

std::uint32_t LockManager::queued(TransactionId txn) const {
  const TxnRows* rows = rows_of(txn);
  return rows != nullptr ? rows->queued : 0;
}

bool LockManager::queued_from(TransactionId txn, SiteId origin) const {
  if (queued(txn) == 0) return false;
  for (const ResourceId resource : rows_of(txn)->resources) {
    for (const LockRequest& r : find(resource)->queue) {
      if (r.txn == txn && r.origin == origin) return true;
    }
  }
  return false;
}

std::vector<ResourceId> LockManager::held_by(TransactionId txn) const {
  std::vector<ResourceId> result;
  if (const TxnRows* rows = rows_of(txn)) {
    for (const ResourceId resource : rows->resources) {
      if (find(resource)->holder(txn) != nullptr) result.push_back(resource);
    }
  }
  return result;
}

void LockManager::wait_edges(std::vector<WaitEdge>& out) const {
  out.clear();
  for (const ResourceState& rs : table_) {
    for (std::size_t i = 0; i < rs.queue.size(); ++i) {
      const LockRequest& w = rs.queue[i];
      for_each_conflict(rs, w.txn, w.mode, i, [&](TransactionId blocker) {
        out.emplace_back(w.txn, blocker);
        return true;
      });
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

void LockManager::waits_of(TransactionId txn,
                           FlatSet<TransactionId, 8>& out) const {
  out.clear();
  if (queued(txn) == 0) return;
  for (const ResourceId resource : rows_of(txn)->resources) {
    const ResourceState& rs = *find(resource);
    for (std::size_t i = 0; i < rs.queue.size(); ++i) {
      if (rs.queue[i].txn != txn) continue;
      for_each_conflict(rs, txn, rs.queue[i].mode, i,
                        [&out](TransactionId blocker) {
                          out.insert(blocker);
                          return true;
                        });
    }
  }
}

FlatSet<SiteId, 8> LockManager::holding_origins(TransactionId txn) const {
  FlatSet<SiteId, 8> origins;
  if (const TxnRows* rows = rows_of(txn)) {
    for (const ResourceId resource : rows->resources) {
      if (const Holder* held = find(resource)->holder(txn)) {
        origins.insert(held->holding.origin);
      }
    }
  }
  return origins;
}

std::vector<std::pair<ResourceId, LockRequest>> LockManager::queued_requests()
    const {
  std::vector<std::pair<ResourceId, LockRequest>> result;
  for_each_queued([&](ResourceId resource, const LockRequest& r) {
    result.emplace_back(resource, r);
  });
  return result;
}

std::size_t LockManager::queue_depth(ResourceId resource) const {
  const ResourceState* rs = find(resource);
  return rs == nullptr ? 0 : rs->queue.size();
}

FlatSet<TransactionId, 8> LockManager::blockers(ResourceId resource,
                                                TransactionId txn,
                                                LockMode mode,
                                                LockCount held) const {
  FlatSet<TransactionId, 8> result;
  const ResourceState* rs = find(resource);
  if (rs == nullptr) return result;
  // A contended upgrade queues at the end (acquire()).
  const std::size_t pos = rs->holder(txn) != nullptr
                              ? rs->queue.size()
                              : insertion_point(*rs, held);
  for_each_conflict(*rs, txn, mode, pos, [&result](TransactionId blocker) {
    result.insert(blocker);
    return true;
  });
  return result;
}

TxnList LockManager::waiters(ResourceId resource) const {
  TxnList result;
  const ResourceState* rs = find(resource);
  if (rs == nullptr) return result;
  for (const LockRequest& r : rs->queue) result.push_back(r.txn);
  return result;
}

TxnList LockManager::waiters_behind(ResourceId resource,
                                    LockCount held) const {
  TxnList result;
  const ResourceState* rs = find(resource);
  if (rs == nullptr) return result;
  for (std::size_t i = insertion_point(*rs, held); i < rs->queue.size(); ++i) {
    result.push_back(rs->queue[i].txn);
  }
  return result;
}

void LockManager::mix_state_hash(std::uint64_t& h) const {
  const auto mix = [&h](std::uint64_t v) { hash_mix(h, v); };
  for (const ResourceState& rs : table_) {
    // Idle rows (everything released) are behaviorally identical to absent
    // ones; skip them so equivalent states hash equal.
    if (rs.idle()) continue;
    mix(rs.id.value());
    for (const Holder& holder : rs.holders) {
      mix(holder.txn.value());
      mix(static_cast<std::uint64_t>(holder.holding.mode));
      mix(holder.holding.origin.value());
    }
    mix(0xD1);  // holders/queue separator
    for (const LockRequest& r : rs.queue) {
      mix(r.txn.value());
      mix(static_cast<std::uint64_t>(r.mode));
      mix(r.held);
      mix(r.origin.value());
    }
    mix(0xD2);
  }
}

}  // namespace cmh::ddb
