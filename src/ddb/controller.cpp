// Controller: the DDB model's per-site lock service and the section-6
// detector (see controller.h).  State lives in flat tables and the graph
// queries reuse owned scratch buffers, so the warmed-up request, grant and
// probe paths make no heap allocations (tests/core/test_zero_alloc.cpp).
// cmh:hot-path -- steady-state detection path; lint enforces zero-alloc.
#include "ddb/controller.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/logging.h"

namespace cmh::ddb {

namespace {
// Transaction ids are handed out densely; one this far past the highest id
// seen is a corrupt frame, not a transaction, and must not size the table.
constexpr std::uint64_t kMaxTxnIdGap = std::uint64_t{1} << 20;

// One more lock granted, saturating at the wire field's range.
void count_grant(LockCount& held) {
  if (held < std::numeric_limits<LockCount>::max()) ++held;
}

// Position of `key` in a vector of (key, value) pairs sorted by key.
template <typename Pairs, typename Key>
auto lower_bound_key(Pairs& pairs, const Key& key) {
  return std::lower_bound(
      pairs.begin(), pairs.end(), key,
      [](const auto& entry, const Key& k) { return entry.first < k; });
}
}  // namespace

ControllerStats& ControllerStats::operator+=(const ControllerStats& o) {
  local_requests += o.local_requests;
  remote_requests_sent += o.remote_requests_sent;
  remote_requests_received += o.remote_requests_received;
  grants_sent += o.grants_sent;
  grants_received += o.grants_received;
  probes_sent += o.probes_sent;
  probes_received += o.probes_received;
  meaningful_probes += o.meaningful_probes;
  computations_initiated += o.computations_initiated;
  reaches_followed += o.reaches_followed;
  eager_initiations += o.eager_initiations;
  early_closures += o.early_closures;
  local_cycle_detections += o.local_cycle_detections;
  deadlocks_declared += o.deadlocks_declared;
  purges_sent += o.purges_sent;
  aborts_executed += o.aborts_executed;
  return *this;
}

Controller::Controller(SiteId id, std::uint32_t n_sites, SiteHost& host,
                       DdbOptions options)
    : id_(id), n_sites_(n_sites), host_(host), options_(options) {
  for (std::uint32_t s = 0; s < n_sites; ++s) floor_seen_.push_back(0);
}

// ---- flat tables ------------------------------------------------------------

const Controller::TxnSlot* Controller::slot(TransactionId txn) const {
  return txn.value() < txns_.size() ? &txns_[txn.value()] : nullptr;
}

bool Controller::admit(TransactionId txn) {
  if (txn.value() >= id_horizon_ + kMaxTxnIdGap) return false;
  id_horizon_ = std::max<std::uint64_t>(id_horizon_, txn.value() + 1ULL);
  return true;
}

Controller::TxnSlot& Controller::slot_for(TransactionId txn) {
  if (txn.value() >= txns_.size()) {
    if (!admit(txn)) {
      throw std::out_of_range("Controller: transaction id " + txn.to_string() +
                              " far outside the dense id range");
    }
    txns_.resize(std::size_t{txn.value()} + 1);
  }
  return txns_[txn.value()];
}

Controller::Computation& Controller::computation(const DdbProbeTag& tag,
                                                TransactionId target,
                                                std::uint64_t floor) {
  const auto it = lower_bound_key(comp_index_, tag);
  if (it != comp_index_.end() && it->first == tag) {
    return comp_pool_[it->second];
  }
  std::uint32_t idx = 0;
  if (comp_free_.empty()) {
    idx = static_cast<std::uint32_t>(comp_pool_.size());
    comp_pool_.emplace_back();
  } else {
    idx = comp_free_.back();
    comp_free_.pop_back();
  }
  comp_index_.insert(it, {tag, idx});
  Computation& c = comp_pool_[idx];
  c.probes_sent.clear();
  c.floor = floor;
  c.target = target;
  c.closed_early = false;
  return c;
}

Controller::Computation* Controller::find_computation(const DdbProbeTag& tag) {
  const auto it = lower_bound_key(comp_index_, tag);
  return it != comp_index_.end() && it->first == tag ? &comp_pool_[it->second]
                                                      : nullptr;
}

void Controller::prune_computations(SiteId initiator, std::uint64_t floor) {
  std::erase_if(comp_index_, [&](const auto& entry) {
    const DdbProbeTag& tag = entry.first;
    if (tag.initiator != initiator || tag.sequence >= floor) return false;
    comp_free_.push_back(entry.second);
    return true;
  });
}

void Controller::retire_own(std::uint64_t seq) {
  if (seq == 0) return;
  const DdbProbeTag tag{id_, seq};
  const auto it = lower_bound_key(comp_index_, tag);
  if (it == comp_index_.end() || it->first != tag) return;  // pruned
  comp_free_.push_back(it->second);
  comp_index_.erase(it);
}

// ---- client API -------------------------------------------------------------

bool Controller::lock(TransactionId txn, ResourceId resource, LockMode mode) {
  TxnSlot& s = slot_for(txn);
  if (s.aborted) {
    // This controller already aborted txn but the client's home site has
    // not heard yet; accepting the request would recreate zombie state.
    // The abort notification is on its way; the client will retry.
    return false;
  }
  s.home = true;
  const SiteId owner = host_.owner_of(resource);
  if (owner == id_) {
    ++stats_.local_requests;
    const bool upgrade =
        mode == LockMode::kWrite && locks_.holds(resource, txn);
    const LockCount held = s.held;
    const AcquireResult r = locks_.acquire(resource, txn, mode, id_, held);
    if (r != AcquireResult::kQueued) {
      if (r == AcquireResult::kGranted && !upgrade) count_grant(s.held);
      rearm_after_grant(resource, mode, r);
      host_.on_grant(id_, txn, resource);
      return true;
    }
    follow_reaches(txn);
    schedule_block_check(txn);
    rearm_overtaken(resource, held);
    return false;
  }
  // Remote resource: forward to the owning controller.  This creates the
  // inter-controller edge ((txn, here), (txn, owner)) -- grey while the
  // request is in flight (section 6.4, G3).
  auto& pending = s.pending;
  const auto it = std::lower_bound(
      pending.begin(), pending.end(), owner,
      [](const PendingRemote& p, SiteId s) { return p.site < s; });
  if (it != pending.end() && it->site == owner) {
    ++it->count;
  } else {
    pending.insert(it, PendingRemote{owner, 1});
  }
  ++stats_.remote_requests_sent;
  host_.send(
      id_, owner,
      encode_small(RemoteLockRequestMsg{txn, resource, s.held, mode}).view());
  // The follow-up probes travel behind the request on the same channel.
  follow_reaches(txn);
  schedule_block_check(txn);
  return false;
}

void Controller::purge_local(TransactionId txn) {
  dispatch_grants(locks_.abort(txn));
  if (txn.value() < txns_.size()) {
    TxnSlot& s = txns_[txn.value()];
    s.pending.clear();
    s.remote_holdings.clear();
    s.reaches.clear();
    // txn has ended here: its own computations' walks are over.
    retire_own(s.own_latest);
    retire_own(s.own_previous);
    s.own_latest = 0;
    s.own_previous = 0;
    s.own_in_floor = false;
    s.held = 0;
  }
}

void Controller::finish(TransactionId txn) {
  // The committing home knows its transaction's participants: the sites
  // that granted it a lock through this controller and those it still has
  // requests outstanding at.  Only they hold state to release.
  FlatSet<SiteId, 8> participants;
  if (const TxnSlot* s = slot(txn)) {
    participants.insert(s->remote_holdings.begin(), s->remote_holdings.end());
    for (const PendingRemote& p : s->pending) participants.insert(p.site);
  }
  purge_local(txn);
  for (const SiteId site : participants) {
    ++stats_.purges_sent;
    host_.send(id_, site,
               encode_small(PurgeTxnMsg{txn, /*aborted=*/false}).view());
  }
}

void Controller::abort(TransactionId txn) {
  ++stats_.aborts_executed;
  slot_for(txn).aborted = true;
  purge_local(txn);
  host_.on_abort(id_, txn);
  // The victim may hold state at any site (it can be another site's home
  // transaction caught on our cycle, whose participants this site does not
  // know); broadcast the purge.
  for (std::uint32_t s = 0; s < n_sites_; ++s) {
    if (SiteId{s} == id_) continue;
    ++stats_.purges_sent;
    host_.send(id_, SiteId{s},
               encode_small(PurgeTxnMsg{txn, /*aborted=*/true}).view());
  }
}

// ---- transport --------------------------------------------------------------

Status Controller::on_message(SiteId from, BytesView payload) {
  auto decoded = decode(payload);
  if (!decoded.ok()) return decoded.status();
  // The highest transaction id the frame names.
  const TransactionId txn = std::visit(
      [](const auto& m) {
        if constexpr (std::is_same_v<std::decay_t<decltype(m)>, DdbProbeMsg>) {
          return std::max({m.txn, m.candidate, m.target});
        } else {
          return m.txn;
        }
      },
      *decoded);
  if (!admit(txn)) {
    return Status{StatusCode::kInvalidArgument,
                  "transaction id far outside the dense id range"};
  }
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, RemoteLockRequestMsg>) {
          handle_lock_request(from, m);
        } else if constexpr (std::is_same_v<T, RemoteLockGrantMsg>) {
          handle_grant(from, m);
        } else if constexpr (std::is_same_v<T, PurgeTxnMsg>) {
          handle_purge(from, m);
        } else if constexpr (std::is_same_v<T, DdbProbeMsg>) {
          handle_probe(from, m);
        }
      },
      *decoded);
  return Status::Ok();
}

void Controller::handle_lock_request(SiteId from,
                                     const RemoteLockRequestMsg& msg) {
  ++stats_.remote_requests_received;
  if (const TxnSlot* s = slot(msg.txn); s != nullptr && s->aborted) {
    // Zombie request from a transaction whose abort purge overtook it on a
    // different channel; granting it would wedge the resource forever.
    return;
  }
  // The inter-controller edge ((txn, from), (txn, here)) blackened on
  // receipt (section 6.4, G4).
  const bool adds_lock = !locks_.holds(msg.resource, msg.txn);
  const AcquireResult r =
      locks_.acquire(msg.resource, msg.txn, msg.mode, from, msg.held);
  if (r != AcquireResult::kQueued) {
    rearm_after_grant(msg.resource, msg.mode, r);
    // Granted at once: the edge whitens as the grant is sent (G5).
    ++stats_.grants_sent;
    const RemoteLockGrantMsg grant{msg.txn, msg.resource, adds_lock};
    host_.send(id_, from, encode_small(grant).view());
    return;
  }
  // The forwarded request is queued: agent (txn, here) is now blocked on
  // local holders, i.e. new intra edges appeared.  txn waits on it, so the
  // count it carries stays txn's count as long as it is queued.
  slot_for(msg.txn).held = msg.held;
  schedule_block_check(msg.txn);
  rearm_overtaken(msg.resource, msg.held);
}

void Controller::handle_grant(SiteId from, const RemoteLockGrantMsg& msg) {
  ++stats_.grants_received;
  TxnSlot& s = slot_for(msg.txn);
  // The grant crossed this site's abort of txn: purge_local() already
  // dropped its pending requests, and the purge broadcast releases the lock
  // at `from`.  Recording the holding or reporting the grant would make an
  // aborted transaction look like a lock holder.
  if (s.aborted) return;
  if (msg.adds_lock) count_grant(s.held);
  s.remote_holdings.insert(from);
  const auto it = std::find_if(
      s.pending.begin(), s.pending.end(),
      [from](const PendingRemote& p) { return p.site == from; });
  if (it != s.pending.end() && --it->count == 0) s.pending.erase(it);
  host_.on_grant(id_, msg.txn, msg.resource);
}

void Controller::handle_purge(SiteId /*from*/, const PurgeTxnMsg& msg) {
  if (msg.aborted) slot_for(msg.txn).aborted = true;
  purge_local(msg.txn);
  if (msg.aborted) host_.on_abort(id_, msg.txn);
}

void Controller::dispatch_grants(const GrantList& grants) {
  // Every count is settled before the first callback can re-enter.
  for (const Grant& g : grants) {
    if (g.request.origin == id_ && !g.upgrade) {
      count_grant(txns_[g.request.txn.value()].held);
    }
  }
  for (const Grant& g : grants) {
    const LockRequest& req = g.request;
    if (req.origin == id_) {
      host_.on_grant(id_, req.txn, g.resource);
    } else {
      ++stats_.grants_sent;
      const RemoteLockGrantMsg grant{req.txn, g.resource, !g.upgrade};
      host_.send(id_, req.origin, encode_small(grant).view());
    }
  }
  // A grant reshuffles the waits-for relation: transactions still queued on
  // a granted resource now wait on the *new* holders -- an intra-controller
  // edge created without any block event.  Re-arm detection for them, or a
  // cycle closed by this reshuffle would never be probed.
  FlatSet<ResourceId, 8> touched;
  for (const Grant& g : grants) touched.insert(g.resource);
  for (const ResourceId resource : touched) rearm_waiters(resource);
}

void Controller::rearm_waiters(ResourceId resource) {
  for (const TransactionId waiter : locks_.waiters(resource)) {
    schedule_block_check(waiter);
  }
}

void Controller::rearm_overtaken(ResourceId resource, LockCount held) {
  // A request that queues ahead of lower-count waiters gives them a new
  // transaction to wait on without any block event of theirs: the same
  // case as a grant reshuffle.
  for (const TransactionId waiter : locks_.waiters_behind(resource, held)) {
    schedule_block_check(waiter);
  }
}

void Controller::rearm_after_grant(ResourceId resource, LockMode mode,
                                   AcquireResult r) {
  // A request is granted only where no waiter is ahead of it (every queued
  // request is blocked, so one ahead would block it too): a grant that
  // found waiters overtook them all, and they now wait on a new holder.
  // An in-place read->write upgrade can conflict with every waiter too.
  if (r == AcquireResult::kGranted || mode == LockMode::kWrite) {
    rearm_waiters(resource);
  }
}

// ---- detection ----------------------------------------------------------------

bool Controller::blocked(TransactionId txn) const {
  const TxnSlot* s = slot(txn);
  return (s != nullptr && !s->pending.empty()) || locks_.queued(txn) > 0;
}

LockCount Controller::lock_count(TransactionId txn) const {
  const TxnSlot* s = slot(txn);
  return s != nullptr ? s->held : 0;
}

void Controller::incoming_black_processes(
    std::vector<TransactionId>& out) const {
  out.clear();
  // A queued request forwarded from another site is precisely an incoming
  // black acquisition edge (the request was received, no grant sent).
  locks_.for_each_queued([&](ResourceId, const LockRequest& req) {
    if (req.origin != id_) out.push_back(req.txn);
  });
  // A blocked local process whose transaction holds resources elsewhere
  // (acquired through this controller) has incoming release-wait edges.
  for (std::uint32_t t = 0; t < txns_.size(); ++t) {
    const TransactionId txn{t};
    if (!txns_[t].remote_holdings.empty() && blocked(txn)) out.push_back(txn);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

FlatSet<SiteId, 8> Controller::pending_remote_sites(TransactionId txn) const {
  FlatSet<SiteId, 8> result;
  if (const TxnSlot* s = slot(txn)) {
    for (const PendingRemote& p : s->pending) result.insert(p.site);
  }
  return result;
}

VictimKey Controller::extend(const VictimKey& best, TransactionId txn) const {
  // Where txn waits, its count is frozen (DESIGN.md section 4f): at its
  // home it blocks on its request, and elsewhere the request that queued
  // here carried the home's count.
  if (!blocked(txn)) return best;
  const VictimKey key{txn, txns_[txn.value()].held};
  return better_victim(key, best) ? key : best;
}

std::optional<TransactionId> Controller::intra_reachable(TransactionId txn,
                                                         VictimKey best) {
  paths_.clear();
  if (++bfs_epoch_ == 0) {
    // The stamp wrapped: clear the old marks so none matches by accident.
    for (TxnSlot& s : txns_) s.visit = 0;
    bfs_epoch_ = 1;
  }
  bfs_visit(txn, best);
  std::optional<VictimKey> cycle;
  TxnSet waits;
  for (std::size_t head = 0; head < paths_.size(); ++head) {
    const PathBest u = paths_[head];
    locks_.waits_of(u.txn, waits);
    for (const TransactionId v : waits) {
      if (v == txn && (!cycle || better_victim(u.best, *cycle))) {
        cycle = u.best;
      }
      bfs_visit(v, u.best);
    }
  }
  if (!cycle) return std::nullopt;
  return cycle->txn;
}

void Controller::bfs_visit(TransactionId txn, const VictimKey& before) {
  // Every agent the BFS reaches is in this site's lock table, so its id has
  // been admitted; a holder granted at once on a forwarded request gets its
  // (empty) slot here.
  TxnSlot& s = slot_for(txn);
  if (s.visit == bfs_epoch_) return;
  s.visit = bfs_epoch_;
  s.path = static_cast<std::uint32_t>(paths_.size());
  paths_.push_back({txn, before, extend(before, txn)});
}

const Controller::PathBest* Controller::reached(TransactionId txn) const {
  const TxnSlot* s = slot(txn);
  return s != nullptr && bfs_epoch_ != 0 && s->visit == bfs_epoch_
             ? &paths_[s->path]
             : nullptr;
}

bool Controller::declare_local_cycle(TransactionId txn, TxnSet* declared) {
  const std::optional<TransactionId> victim =
      intra_reachable(txn, VictimKey{txn, lock_count(txn)});
  if (!victim) return false;
  if (declared != nullptr && !declared->insert(*victim)) return true;
  // Step A0: black cycle of intra-controller edges, no probes needed.
  ++stats_.local_cycle_detections;
  close_walk(*victim, txn, DdbProbeTag{id_, ++next_sequence_});
  return true;
}

std::uint64_t Controller::current_floor() {
  std::uint64_t floor = next_sequence_;
  for (auto it = lower_bound_key(comp_index_, DdbProbeTag{id_, 0});
       it != comp_index_.end() && it->first.initiator == id_; ++it) {
    const TransactionId target = comp_pool_[it->second].target;
    TxnSlot& s = txns_[target.value()];
    if (it->first.sequence != s.own_latest) continue;
    // A target that stopped waiting releases the floor for good: its
    // latest computation's walk is gone.
    s.own_in_floor = s.own_in_floor && blocked(target);
    if (s.own_in_floor) floor = std::min(floor, it->first.sequence);
  }
  return floor;
}

std::optional<DdbProbeTag> Controller::initiate_for(TransactionId txn) {
  if (!blocked(txn)) return std::nullopt;
  if (declare_local_cycle(txn)) return std::nullopt;

  // paths_ still holds the BFS of the A0 check.
  const DdbProbeTag tag{id_, ++next_sequence_};
  ++stats_.computations_initiated;
  // The previous computation's probes may still be in flight and close the
  // cycle; the one before it is superseded twice over.
  TxnSlot& s = slot_for(txn);
  retire_own(s.own_previous);
  s.own_previous = s.own_latest;
  s.own_latest = tag.sequence;
  s.own_in_floor = true;
  Computation& comp = computation(tag, txn, current_floor());
  CMH_LOG(kDebug, "ddb") << id_ << " initiates " << tag << " for " << txn;
  // The target's own release-wait edges are suppressed here for the same
  // reason as in handle_probe; cycles genuinely passing through the
  // target's holdings are entered via another transaction's intra wait.
  record_reaches(tag, comp);
  send_probes(tag, comp, paths_, txn);
  return tag;
}

std::size_t Controller::check_all() {
  // The blocked constituent processes, ascending: those awaiting a remote
  // grant and those queued here.
  processes_.clear();
  for (std::uint32_t t = 0; t < txns_.size(); ++t) {
    if (blocked(TransactionId{t})) processes_.push_back(TransactionId{t});
  }
  if (options_.q_optimization) {
    // Section 6.7: a free local-cycle sweep -- step A0 for every blocked
    // process, each elected victim declared once (with victims kept alive,
    // every process of a cycle would declare it) -- then Q computations,
    // one per process with an incoming black inter-controller edge.
    swept_.clear();
    for (const TransactionId txn : processes_) {
      declare_local_cycle(txn, &swept_);
    }
    incoming_black_processes(processes_);
  }
  // One computation per listed process: the Q set, or (naive) every
  // blocked process.  Each initiate_for() runs A0 first.
  std::size_t initiated = 0;
  for (const TransactionId txn : processes_) {
    if (initiate_for(txn)) ++initiated;
  }
  return initiated;
}

void Controller::send_probes(
    const DdbProbeTag& tag, Computation& comp,
    const std::vector<PathBest>& processes,
    std::optional<TransactionId> skip_release_wait_for) {
  for (const PathBest& path : processes) {
    const TransactionId txn = path.txn;
    const VictimKey best = path.best;
    // Acquisition edges: (txn, here) awaits grants from remote controllers.
    if (const TxnSlot* s = slot(txn)) {
      for (const PendingRemote& p : s->pending) {
        if (!comp.probes_sent.insert(AgentId{txn, p.site})) continue;
        ++stats_.probes_sent;
        CMH_LOG(kDebug, "ddb") << id_ << " probe " << tag << " acq " << txn
                               << " to " << p.site;
        host_.send(id_, p.site,
                   encode_small(DdbProbeMsg{tag, comp.floor, txn, false,
                                            best.txn, best.held, comp.target})
                       .view());
      }
    }
    // Release-wait edges: (txn, here) holds resources acquired on behalf of
    // (txn, origin) and follows that agent's computation.  Without these
    // the agent graph has a gap at every remote holding and transaction-
    // level cycles spanning several sites would be undetectable.
    if (skip_release_wait_for == txn) continue;
    for (const SiteId origin : locks_.holding_origins(txn)) {
      if (origin == id_) continue;
      if (!comp.probes_sent.insert(AgentId{txn, origin})) continue;
      ++stats_.probes_sent;
      CMH_LOG(kDebug, "ddb") << id_ << " probe " << tag << " rel " << txn
                             << " to " << origin;
      host_.send(id_, origin,
                 encode_small(DdbProbeMsg{tag, comp.floor, txn, true, best.txn,
                                          best.held, comp.target})
                     .view());
    }
  }
}

void Controller::handle_probe(SiteId from, const DdbProbeMsg& msg) {
  ++stats_.probes_received;
  if (msg.tag.initiator.value() >= n_sites_) return;  // no such controller

  // Stale-computation pruning (section 4.3 generalized; see messages.h).
  std::uint64_t& seen = floor_seen_[msg.tag.initiator.value()];
  if (msg.floor > seen) {
    seen = msg.floor;
    prune_computations(msg.tag.initiator, msg.floor);
  }
  if (msg.tag.sequence < seen) return;

  // Meaningful iff the edge ((txn, from), (txn, here)) the probe travelled
  // is black at receipt (section 6.5).  Release-wait edge: the sender holds
  // for (txn, here); the holding persists at least as long as txn is
  // blocked here (it cannot commit while blocked, and aborts purge labels
  // anyway), so "blocked here" certifies the edge.  Acquisition edge:
  // still-queued request forwarded from the sender (the paper's check).
  const TransactionId txn = msg.txn;
  const bool black =
      msg.via_release_wait ? blocked(txn) : locks_.queued_from(txn, from);
  if (!black) return;
  ++stats_.meaningful_probes;
  CMH_LOG(kDebug, "ddb") << id_ << " meaningful probe " << msg.tag
                         << (msg.via_release_wait ? " rel " : " acq ") << txn
                         << " from " << from;

  // An own computation's record is made when it starts; if it is gone,
  // the computation was retired (its walk closed, it was superseded twice,
  // or its target ended) and must stay so.
  Computation* comp = msg.tag.initiator == id_
                          ? find_computation(msg.tag)
                          : &computation(msg.tag, msg.target, msg.floor);
  if (comp == nullptr) return;
  advance(msg.tag, *comp, txn, VictimKey{msg.candidate, msg.candidate_held});
}

void Controller::advance(const DdbProbeTag& tag, Computation& comp,
                         TransactionId txn, VictimKey candidate) {
  // Steps A1/A2: label (txn, here) and everything intra-reachable.
  //
  // The label is the *fresh* reachable set of this receipt; nothing from
  // an earlier receipt is kept.  Labels from an earlier receipt may be
  // stale -- the intra paths that justified them can legally dissolve once
  // the probe chain's pin (the G2/G5 target-has-outgoing-edge argument) has
  // moved past this site -- and acting on them would declare wait chains
  // that never coexisted (a false deadlock).  probes_sent keeps each edge
  // to one probe per computation.
  //
  // The candidate so far is the best victim on the walk up to txn; each
  // newly reachable agent that waits here extends it along its BFS-tree
  // path, so the candidate always names a transaction on the walk the probe
  // follows, never one that is merely reachable from it.
  intra_reachable(txn, candidate);

  Computation* c = &comp;
  if (tag.initiator == id_) {
    if (const PathBest* closing = reached(c->target)) {
      retire_own(tag.sequence);
      close_walk(closing->best.txn, closing->txn, tag);
      return;
    }
  } else if (!c->closed_early && c->target != txn) {
    // Deadlock is a property of transactions: an intra edge into any agent
    // of the target closes the cycle here, one hop or more before the walk
    // would return to the initiator (DESIGN.md section 4b, note 6).  Entering
    // the target's agent along its own inter edge (txn == target) is not a
    // cycle.  The walk goes on, so the initiator still closes it and runs
    // close_walk()'s floor release and re-arm.
    if (const PathBest* closing = reached(c->target)) {
      c->closed_early = true;
      ++stats_.early_closures;
      declare(closing->best.txn, tag);
      // The abort can re-enter the controller (its grants re-arm block
      // checks, which start computations): the pool may have grown and
      // paths_ been rebuilt.  Continue as a probe arriving now would.
      c = find_computation(tag);
      if (c == nullptr || !blocked(txn)) return;
      intra_reachable(txn, candidate);
    }
  }
  record_reaches(tag, *c);

  // Forward along every un-probed outgoing inter edge of the freshly
  // reachable set.  The initiating controller forwards too: a cycle may
  // thread through this site several times before closing on the target.
  // The entry transaction's own release-wait edges are suppressed: a probe
  // may only ride txn's release-wait after reaching txn through another
  // transaction's wait (an intra edge), otherwise it loops between txn's
  // own agents without any deadlock (acquisition and holding concern
  // different resources).
  send_probes(tag, *c, paths_, txn);
}

void Controller::record_reaches(const DdbProbeTag& tag,
                                const Computation& comp) {
  // Under kManual the harness owns every detection step, and a re-block
  // continues nothing (follow_reaches), so there is nothing to record.
  if (options_.initiation == DdbInitiation::kManual) return;
  for (const PathBest& path : paths_) {
    const TransactionId txn = path.txn;
    // The target's own walk is empty: following it from the target would
    // "close" at once.  At every site: elsewhere the walk reaches the
    // target's agent either through an intra edge, and has closed there,
    // or along the target's own inter edge, which is no wait on it.
    if (comp.target == txn) continue;
    if (txn.value() >= txns_.size() || !txns_[txn.value()].home) continue;
    auto& reaches = txns_[txn.value()].reaches;
    const auto same = std::find_if(
        reaches.begin(), reaches.end(),
        [&tag](const Reach& r) { return r.tag.initiator == tag.initiator; });
    if (same != reaches.end()) {
      if (same->tag.sequence > tag.sequence) continue;  // keep the newest
      reaches.erase(same);
    } else if (reaches.size() == kReachesPerTxn) {
      reaches.erase(reaches.begin());  // the oldest recorded
    }
    reaches.push_back(Reach{tag, path.before});
  }
}

void Controller::follow_reaches(TransactionId txn) {
  if (options_.initiation == DdbInitiation::kManual) return;
  // A copy (inline, no heap): a follow that closes a walk may abort txn,
  // which clears the list, or grow the table.
  const SmallVector<Reach, kReachesPerTxn> reaches = txns_[txn.value()].reaches;
  for (const Reach& r : reaches) {
    // An earlier follow may have elected txn and aborted it.
    if (!blocked(txn)) return;
    // Live: its record is still here (not pruned below its initiator's
    // floor, and not an own walk that has closed), and an own computation's
    // target still waits.  A release-wait reach's holding needs no check:
    // the probe arrived behind the grant on the same FIFO channel, and only
    // purge_local() drops the holding, with the reaches.
    Computation* comp = find_computation(r.tag);
    if (comp == nullptr) continue;
    if (r.tag.initiator == id_ && !blocked(comp->target)) continue;
    // The new request is a new edge instance: a site txn asked before is
    // probed again.
    for (const PendingRemote& p : txns_[txn.value()].pending) {
      comp->probes_sent.erase(AgentId{txn, p.site});
    }
    ++stats_.reaches_followed;
    // The walk resumes from the candidate it had before txn: advance()
    // keys txn afresh, with the locks it was granted before blocking again.
    advance(r.tag, *comp, txn, r.before);
  }
}

void Controller::close_walk(TransactionId victim, TransactionId target,
                            const DdbProbeTag& tag) {
  // target's latest computation no longer holds the floor down.
  if (target.value() < txns_.size()) {
    txns_[target.value()].own_in_floor = false;
  }
  declare(victim, tag);
  if (victim != target && options_.abort_victim) schedule_block_check(target);
}

void Controller::declare(TransactionId victim, const DdbProbeTag& tag) {
  ++stats_.deadlocks_declared;
  CMH_LOG(kInfo, "ddb") << id_ << " declares " << victim << " deadlocked ("
                        << tag << ")";
  host_.on_deadlock(id_, victim, tag);
  // A repeat declaration (another computation elected the same victim
  // before this site's purge reached it) must not abort twice.
  const TxnSlot* s = slot(victim);
  if (options_.abort_victim && (s == nullptr || !s->aborted)) abort(victim);
}

void Controller::schedule_block_check(TransactionId txn) {
  switch (options_.initiation) {
    case DdbInitiation::kManual:
      return;
    case DdbInitiation::kDelayed:
      if (options_.initiation_delay <= SimTime::zero()) {
        initiate_for(txn);
        return;
      }
      // A0 sends no messages, so it runs at once; T only holds back the
      // probe computation, whose messages it exists to save.
      if (blocked(txn)) {
        if (declare_local_cycle(txn)) return;
        // T skips computations for waits that end on their own.  A wait
        // that reaches a transaction blocked here or homed elsewhere may
        // close a cycle, so it starts at once, as T = 0 does (paths_ still
        // holds A0's BFS; its first entry is txn).  Whether another site's
        // transaction waits at its home is not observable here, so a wait
        // on its agent counts as a wait on a blocked transaction.  Only a
        // wait on transactions running at their home here waits T.
        const bool may_close = std::any_of(
            paths_.begin() + 1, paths_.end(), [this](const PathBest& p) {
              return blocked(p.txn) || !txns_[p.txn.value()].home;
            });
        if (may_close) {
          if (initiate_for(txn)) ++stats_.eager_initiations;
          return;
        }
      }
      host_.schedule(options_.initiation_delay, [this, txn] {
        if (blocked(txn)) initiate_for(txn);
      });
      return;
  }
}

void Controller::mix_state_hash(std::uint64_t& h) const {
  const auto mix = [&h](std::uint64_t v) { hash_mix(h, v); };
  const auto mix_agent = [&](const AgentId& a) {
    mix(a.transaction.value());
    mix(a.site.value());
  };
  mix(id_.value());
  locks_.mix_state_hash(h);
  mix(0xC1);  // separators between variable-length sections

  // The slot table iterates in transaction order, so every section below
  // is canonical without sorting.
  for (std::uint32_t t = 0; t < txns_.size(); ++t) {
    if (txns_[t].aborted) mix(t);
  }
  mix(0xC2);

  for (std::uint32_t t = 0; t < txns_.size(); ++t) {
    if (txns_[t].held == 0) continue;
    mix(t);
    mix(txns_[t].held);
  }
  mix(0xC9);

  for (std::uint32_t t = 0; t < txns_.size(); ++t) {
    if (txns_[t].pending.empty()) continue;
    mix(t);
    for (const PendingRemote& p : txns_[t].pending) {
      mix(p.site.value());
      mix(p.count);
    }
  }
  mix(0xC3);

  for (std::uint32_t t = 0; t < txns_.size(); ++t) {
    if (txns_[t].remote_holdings.empty()) continue;
    mix(t);
    for (const SiteId site : txns_[t].remote_holdings) mix(site.value());
  }
  mix(0xC4);

  for (std::uint32_t t = 0; t < txns_.size(); ++t) {
    if (!txns_[t].home && txns_[t].reaches.empty()) continue;
    mix(t);
    mix(static_cast<std::uint64_t>(txns_[t].home));
    for (const Reach& r : txns_[t].reaches) {
      mix(r.tag.initiator.value());
      mix(r.tag.sequence);
      mix(r.before.txn.value());
      mix(r.before.held);
    }
  }
  mix(0xC8);

  mix(next_sequence_);
  for (std::uint32_t t = 0; t < txns_.size(); ++t) {
    const TxnSlot& s = txns_[t];
    if (s.own_latest == 0) continue;
    mix(t);
    mix(s.own_latest);
    mix(s.own_previous);
    mix(static_cast<std::uint64_t>(s.own_in_floor));
  }
  mix(0xC5);

  for (const auto& [tag, idx] : comp_index_) {
    const Computation& comp = comp_pool_[idx];
    mix(tag.initiator.value());
    mix(tag.sequence);
    mix(0xC6);
    for (const AgentId& a : comp.probes_sent) mix_agent(a);
    mix(comp.floor);
    mix(comp.target.value());
    mix(static_cast<std::uint64_t>(comp.closed_early));
  }
  mix(0xC7);

  for (std::uint32_t s = 0; s < floor_seen_.size(); ++s) {
    if (floor_seen_[s] == 0) continue;
    mix(s);
    mix(floor_seen_[s]);
  }
}

}  // namespace cmh::ddb
