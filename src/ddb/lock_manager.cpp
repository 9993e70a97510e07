// Flat-table lock manager: one sorted row per resource ever touched, inline
// holder lists and queues (see lock_manager.h).
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

bool LockManager::grantable(const ResourceState& rs, const LockRequest& req,
                            std::size_t pos) {
  for (const Holder& h : rs.holders) {
    if (h.txn == req.txn) continue;  // self-held (upgrade) never self-blocks
    if (conflicts(h.holding.mode, req.mode)) return false;
  }
  for (std::size_t i = 0; i < pos && i < rs.queue.size(); ++i) {
    const LockRequest& ahead = rs.queue[i];
    if (ahead.txn == req.txn) continue;
    if (conflicts(ahead.mode, req.mode)) return false;
  }
  return true;
}

AcquireResult LockManager::acquire(ResourceId resource, TransactionId txn,
                                   LockMode mode, SiteId origin) {
  ResourceState& rs = row(resource);
  const LockRequest req{txn, mode, origin};

  if (Holder* held = rs.holder(txn)) {
    if (held->holding.mode == LockMode::kWrite || mode == LockMode::kRead) {
      return AcquireResult::kRedundant;
    }
    // Upgrade read -> write: in place iff sole holder.  The original
    // acquisition's origin is kept.
    if (rs.holders.size() == 1) {
      held->holding.mode = LockMode::kWrite;
      return AcquireResult::kGranted;
    }
    rs.queue.push_back(req);
    return AcquireResult::kQueued;
  }

  if (grantable(rs, req, rs.queue.size())) {
    rs.holders.insert(rs.lower_holder(txn), Holder{txn, Holding{mode, origin}});
    return AcquireResult::kGranted;
  }
  rs.queue.push_back(req);
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
      on_grant(req, /*upgrade=*/held != nullptr);
      progressed = true;
      break;  // holders changed; rescan from the front
    }
  }
}

RequestList LockManager::release(ResourceId resource, TransactionId txn) {
  RequestList granted;
  ResourceState* rs = find(resource);
  const Holder* held = rs != nullptr ? rs->holder(txn) : nullptr;
  if (held == nullptr) return granted;
  rs->holders.erase(held);
  grant_eligible(*rs,
                 [&](const LockRequest& r, bool) { granted.push_back(r); });
  return granted;
}

GrantList LockManager::abort(TransactionId txn) {
  GrantList granted;
  for (ResourceState& rs : table_) {
    bool changed = false;
    if (const Holder* held = rs.holder(txn)) {
      rs.holders.erase(held);
      changed = true;
    }
    const auto own = [txn](const LockRequest& r) { return r.txn == txn; };
    if (rs.queue.erase_if(own) > 0) changed = true;
    if (changed) {
      grant_eligible(rs, [&](const LockRequest& r, bool upgrade) {
        granted.push_back(Grant{rs.id, r, upgrade});
      });
    }
  }
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

bool LockManager::queued(TransactionId txn) const {
  for (const ResourceState& rs : table_) {
    for (const LockRequest& r : rs.queue) {
      if (r.txn == txn) return true;
    }
  }
  return false;
}

bool LockManager::queued_from(TransactionId txn, SiteId origin) const {
  for (const ResourceState& rs : table_) {
    for (const LockRequest& r : rs.queue) {
      if (r.txn == txn && r.origin == origin) return true;
    }
  }
  return false;
}

std::vector<ResourceId> LockManager::held_by(TransactionId txn) const {
  std::vector<ResourceId> result;
  for (const ResourceState& rs : table_) {
    if (rs.holder(txn) != nullptr) result.push_back(rs.id);
  }
  return result;
}

void LockManager::wait_edges(std::vector<WaitEdge>& out) const {
  out.clear();
  for (const ResourceState& rs : table_) {
    for (std::size_t i = 0; i < rs.queue.size(); ++i) {
      const LockRequest& w = rs.queue[i];
      for (const Holder& h : rs.holders) {
        if (h.txn != w.txn && conflicts(h.holding.mode, w.mode)) {
          out.emplace_back(w.txn, h.txn);
        }
      }
      for (std::size_t j = 0; j < i; ++j) {
        const LockRequest& ahead = rs.queue[j];
        if (ahead.txn != w.txn && conflicts(ahead.mode, w.mode)) {
          out.emplace_back(w.txn, ahead.txn);
        }
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

FlatSet<SiteId, 8> LockManager::holding_origins(TransactionId txn) const {
  FlatSet<SiteId, 8> origins;
  for (const ResourceState& rs : table_) {
    if (const Holder* held = rs.holder(txn)) {
      origins.insert(held->holding.origin);
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
                                                LockMode mode) const {
  FlatSet<TransactionId, 8> result;
  const ResourceState* rs = find(resource);
  if (rs == nullptr) return result;
  for (const Holder& h : rs->holders) {
    if (h.txn != txn && conflicts(h.holding.mode, mode)) result.insert(h.txn);
  }
  for (const LockRequest& r : rs->queue) {
    if (r.txn != txn && conflicts(r.mode, mode)) result.insert(r.txn);
  }
  return result;
}

TxnList LockManager::waiters(ResourceId resource) const {
  TxnList result;
  const ResourceState* rs = find(resource);
  if (rs == nullptr) return result;
  for (const LockRequest& r : rs->queue) result.push_back(r.txn);
  return result;
}

void LockManager::mix_state_hash(std::uint64_t& h) const {
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
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
      mix(r.origin.value());
    }
    mix(0xD2);
  }
}

}  // namespace cmh::ddb
