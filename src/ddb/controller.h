// Controller C_j of the Menasce-Muntz DDB model with the Chandy-Misra-Haas
// probe computation of section 6 built in.
//
// Responsibilities (section 6.2):
//   * manage local resources through a LockManager,
//   * forward lock requests for remote resources to the owning controller,
//   * answer forwarded requests and ship grants back,
//   * run the deadlock detection algorithm A0/A1/A2 of section 6.6 over the
//     local intra-controller graph and the inter-controller edges,
//   * optionally abort detected victims (resolution) -- the paper defers
//     "how deadlocks should be broken" to [3,6].  Probes elect the victim:
//     each carries the best victim among the transactions waiting on the
//     path it has travelled -- the one holding the fewest locks, ties to
//     the youngest (highest dense id) -- and that transaction is declared
//     when the walk closes, so every computation that closes the same
//     cycle aborts the same one (DESIGN.md section 4f).
//   * declare a computation's cycle at the first site where its probe's
//     intra-controller BFS reaches any agent of the target transaction,
//     one hop or more before the walk returns to the initiator; the walk
//     goes on, so the initiator still closes it (DESIGN.md section 4b,
//     note 6).
//   * continue the computations that reached a transaction's home agent
//     along its next request the moment it blocks again (DESIGN.md section
//     4b, note 4).
//   * start a blocked agent's computation at once, too, when its wait
//     reaches a transaction blocked at this site, or one homed at another
//     site, whose wait this site cannot see: only such a wait can close a
//     cycle, so the initiation delay T gates only waits on transactions
//     running at their home here (DESIGN.md section 4b, note 7).
//
// Like BasicProcess, the controller is a transport-agnostic state machine;
// callers must serialize calls per instance (the paper's atomic-step note).
// It reaches the world only through its SiteHost, whose send() and
// schedule() must queue rather than call back into the controller
// synchronously.
//
// Local knowledge is exactly the DDB P3: intra-controller edges and incoming
// *black* inter-controller edges are derived from the lock queues; outgoing
// inter-controller edges are known to exist (pending remote requests) but
// their color is not locally observable.  A probe names only its entry
// transaction: the edge it travelled runs from the sender that on_message()
// is given to this controller.
//
// Each fact is kept once.  A computation's floor and target live in its
// record (Computation), which every other structure refers to by tag; an
// own record is retired when its walk closes, and a missing record means a
// dead computation.  A transaction's own-computation bookkeeping lives in
// its TxnSlot.  What it holds and where and on whom it waits here live in
// the LockManager only.
#pragma once

#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/block_pool.h"
#include "common/flat_set.h"
#include "common/ids.h"
#include "common/small_vector.h"
#include "common/time.h"
#include "ddb/lock_manager.h"
#include "ddb/messages.h"

namespace cmh::ddb {

enum class DdbInitiation {
  kManual,  // harness calls initiate_for()/check_all()
  // Run A0 the instant a local process blocks; start its probe computation
  // T later, if it is still blocked -- or at once when the block may close
  // a cycle: A0's BFS reaches another transaction that is blocked here or
  // homed at another site.  Only a wait on transactions running at their
  // home here waits T.  At T = 0 the computation starts the instant the
  // process blocks (section 4.2), and no timer is needed.
  kDelayed,
};

struct DdbOptions {
  DdbInitiation initiation{DdbInitiation::kDelayed};
  /// T; only a positive T schedules timers through the host.
  SimTime initiation_delay{SimTime::ms(5)};

  /// Section 6.7: when checking all constituent processes, initiate only Q
  /// computations (one per process with an incoming black inter-controller
  /// edge) after a free local-cycle check, instead of one per blocked
  /// process.  bench_t4 toggles this.
  bool q_optimization{true};

  /// Abort the victim transaction (everywhere) upon detection.
  bool abort_victim{true};
};

struct ControllerStats {
  std::uint64_t local_requests{0};
  std::uint64_t remote_requests_sent{0};
  std::uint64_t remote_requests_received{0};
  std::uint64_t grants_sent{0};
  std::uint64_t grants_received{0};
  std::uint64_t probes_sent{0};
  std::uint64_t probes_received{0};
  std::uint64_t meaningful_probes{0};
  std::uint64_t computations_initiated{0};
  /// Computations continued along a re-blocked transaction's new request.
  std::uint64_t reaches_followed{0};
  /// kDelayed computations started at block time, without waiting T,
  /// because the blocked agent waits on a transaction blocked here or
  /// homed at another site.
  std::uint64_t eager_initiations{0};
  /// Walks of other sites' computations declared here, where the BFS of a
  /// probe reached an agent of the computation's target.
  std::uint64_t early_closures{0};
  std::uint64_t local_cycle_detections{0};
  std::uint64_t deadlocks_declared{0};
  std::uint64_t purges_sent{0};
  std::uint64_t aborts_executed{0};

  ControllerStats& operator+=(const ControllerStats& o);
};

/// Everything a controller asks of the world: its channels, the data
/// placement, a timer and three reports.  One host can serve every
/// controller of a process, so each call names the calling site.  A
/// controller borrows its host, which must outlive it.  send() and
/// schedule() must queue, not call back into the controller; the reports
/// may re-enter it.
class SiteHost {
 public:
  /// Sends `payload` on channel (from, to).  The view is valid only for
  /// the duration of the call.
  virtual void send(SiteId from, SiteId to, BytesView payload) = 0;
  /// The site managing `resource` (static data placement).
  [[nodiscard]] virtual SiteId owner_of(ResourceId resource) const = 0;
  /// Runs `fn` `delay` from now, as a step of its own.  A controller
  /// calls it only under kDelayed with a positive T.
  virtual void schedule(SimTime delay, std::function<void()> fn) = 0;
  /// A lock requested through `site`'s controller was acquired.
  virtual void on_grant(SiteId site, TransactionId txn,
                        ResourceId resource) = 0;
  /// `site` aborted `txn` (a deadlock victim, or a purge from its home).
  virtual void on_abort(SiteId site, TransactionId txn) = 0;
  /// `site` declared `victim` deadlocked.
  virtual void on_deadlock(SiteId site, TransactionId victim,
                           const DdbProbeTag& tag) = 0;

 protected:
  ~SiteHost() = default;
};

class Controller {
 public:
  Controller(SiteId id, std::uint32_t n_sites, SiteHost& host,
             DdbOptions options);

  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  [[nodiscard]] SiteId id() const { return id_; }
  [[nodiscard]] const ControllerStats& stats() const { return stats_; }
  [[nodiscard]] const LockManager& locks() const { return locks_; }

  // ---- client API (called by the transaction layer at this site) ---------

  /// Transaction `txn` (home = this site) requests `mode` on `resource`.
  /// Returns true if granted synchronously; otherwise the grant (or an
  /// abort) reaches the host later, and the live probe computations that
  /// reached txn's agent here continue along the new request.
  bool lock(TransactionId txn, ResourceId resource, LockMode mode);

  /// Commit/finish: release all of txn's locks everywhere.
  void finish(TransactionId txn);

  /// Abort txn everywhere (also used internally for deadlock victims).
  void abort(TransactionId txn);

  // ---- transport ----------------------------------------------------------

  /// `from` is the sending controller: the transport's channel end, which a
  /// probe's meaningfulness check relies on.
  Status on_message(SiteId from, BytesView payload);

  // ---- detection ----------------------------------------------------------

  /// Step A0 for local process (txn, this site).  Returns the tag if a
  /// probe computation started, nullopt if txn is not blocked here or a
  /// local (intra-controller) cycle was declared directly (its best victim
  /// is declared).
  std::optional<DdbProbeTag> initiate_for(TransactionId txn);

  /// "Controller wishes to determine if any of its processes are
  /// deadlocked" (section 6.7): step A0 on every blocked process, each
  /// elected victim declared once, then Q probe computations (or one
  /// initiate_for() per blocked process when q_optimization is off).
  /// Returns the number of probe computations initiated.
  std::size_t check_all();

  // ---- introspection (used by harness oracle and tests) ------------------

  /// True iff (txn, this site) is blocked: it has a queued local request or
  /// an outstanding remote request.
  [[nodiscard]] bool blocked(TransactionId txn) const;

  /// The lock count victim election reads for txn here: at its home, the
  /// distinct resources granted through this controller; elsewhere, the
  /// count its latest queued forwarded request carried.
  [[nodiscard]] LockCount lock_count(TransactionId txn) const;

  /// Transactions with an incoming black inter-controller edge here (the Q
  /// of section 6.7), i.e. with a queued forwarded request or a remote
  /// holding while blocked.  Replaces `out` with them, ascending.
  void incoming_black_processes(std::vector<TransactionId>& out) const;

  /// Remote sites this txn has outstanding requests toward (outgoing
  /// inter-controller edges from (txn, this site)), ascending.
  [[nodiscard]] FlatSet<SiteId, 8> pending_remote_sites(
      TransactionId txn) const;

  /// Folds the protocol-relevant controller state into `h` (canonical
  /// iteration order; stats excluded).  Used by the exhaustive interleaving
  /// checker to fingerprint global states.
  void mix_state_hash(std::uint64_t& h) const;

 private:
  using TxnSet = FlatSet<TransactionId, 8>;

  // No default member initializers: SmallVector needs the type to be
  // default-constructible while Controller is still incomplete.
  struct PendingRemote {
    SiteId site;
    std::uint32_t count;  // outstanding (unanswered) requests, > 0
  };

  /// A live probe computation that reached (txn, here), txn's home agent:
  /// `tag`, and `before`, the best victim on its walk up to txn's home
  /// agent, txn excluded.  A follow keys txn afresh: txn is the only member
  /// of the walk whose count can have grown since.  Everything else the
  /// follow needs is in the computation's record.
  struct Reach {
    DdbProbeTag tag;
    VictimKey before;
  };
  static_assert(sizeof(Reach) == 24);
  /// Reaches kept per home agent, newest per initiator; beyond this the
  /// oldest is dropped, so the list never leaves its inline storage.
  static constexpr std::size_t kReachesPerTxn = 4;

  // The controller's per-transaction state lives in one table indexed by
  // transaction id (ids are dense and never reused), so every lookup on the
  // request, grant and probe paths is an index, and the table is one heap
  // block however many transactions pass through.
  struct TxnSlot {
    // Outstanding remote requests per owning site, ascending by site.
    SmallVector<PendingRemote, 2> pending;
    // Sites where txn holds resources acquired through this controller --
    // i.e. this site's agent has *incoming* release-wait edges from those
    // holdings.  Feeds the section-6.7 Q set.
    FlatSet<SiteId, 2> remote_holdings;
    // Computations that reached this home agent; lock() continues them
    // along txn's next request (see follow_reaches).  Dropped at commit and
    // abort.
    SmallVector<Reach, kReachesPerTxn> reaches;
    // This controller's computations for txn as target: the sequences of
    // the latest and of the one before it (0: none), whose probes may still
    // close the cycle.  Older ones are retired, so each target keeps at
    // most two records, both retired when txn ends here.
    std::uint64_t own_latest{0};
    std::uint64_t own_previous{0};
    // The latest holds the floor down: txn has waited since it began, and
    // its walk has not closed.
    bool own_in_floor{false};
    // Tombstone: a purge broadcast can overtake a victim's in-flight lock
    // request on a different channel; without it the zombie request would
    // occupy the resource forever.  Ids are never reused, so tombstones are
    // monotone-correct.
    bool aborted{false};
    // txn's transaction layer runs here: lock() has been called for it.
    // Elsewhere its agent's wait is not observable, so a block check that
    // reaches the agent starts at once.
    bool home{false};
    // Victim election's lock count (DESIGN.md section 4f).  At txn's home:
    // distinct resources granted through this controller (upgrades add
    // nothing).  Elsewhere: the count txn's latest queued forwarded request
    // carried.  Read only while txn waits here, when neither can change.
    LockCount held{0};
    // BFS visit mark: txn is in paths_ at `path` iff `visit` equals the
    // controller's bfs_epoch_, so reached() is one index.
    std::uint32_t visit{0};
    std::uint32_t path{0};
  };

  /// A computation's record at this site.  An own computation's record is
  /// made when it starts and retired when its walk closes here; every
  /// reader treats a missing record as a dead computation.
  struct Computation {
    // The inter edges this computation has probed, by destination agent
    // (the source is always (txn, here)): each is probed once.
    FlatSet<AgentId, 4> probes_sent;
    /// The stale-computation floor its probes carry: stamped by the
    /// initiator at initiation, copied from the first probe elsewhere, so
    /// constant per computation.  It belongs to the *initiator's* sequence
    /// space -- stamping a forwarder's floor would corrupt the initiator's
    /// numbering at downstream receivers.
    std::uint64_t floor{0};
    /// The transaction whose agent at the initiator the computation checks
    /// (the (T_i, S_j) of A0/A1): set at initiation for own computations,
    /// from the first probe's frame for the others.
    TransactionId target;
    /// Others' computations: a walk reached the target here and was
    /// declared; at most once per site, and the walk goes on.
    bool closed_early{false};
  };

  /// A transaction intra-reachable from a BFS root, with the best victim
  /// among the transactions waiting here on its BFS-tree path (root and the
  /// path before the root included): `before` up to its agent, `best` with
  /// it.
  struct PathBest {
    TransactionId txn;
    VictimKey before;
    VictimKey best;
  };

  void handle_lock_request(SiteId from, const RemoteLockRequestMsg& msg);
  void handle_grant(SiteId from, const RemoteLockGrantMsg& msg);
  void handle_purge(SiteId from, const PurgeTxnMsg& msg);
  void handle_probe(SiteId from, const DdbProbeMsg& msg);

  /// Dispatches grants produced by the lock manager (the host's on_grant() or
  /// RemoteLockGrantMsg to the origin site).
  void dispatch_grants(const GrantList& grants);
  /// Re-arms the block check of every transaction queued on `resource`:
  /// its holders changed, so their wait edges did too.
  void rearm_waiters(ResourceId resource);
  /// Re-arms the waiters on `resource` that a request holding `held` locks
  /// just went ahead of (LockManager::waiters_behind()).
  void rearm_overtaken(ResourceId resource, LockCount held);
  /// The re-arms after acquire() returned `r` (not kQueued) for a request
  /// in `mode`.
  void rearm_after_grant(ResourceId resource, LockMode mode, AcquireResult r);

  /// Drops txn's locks, queued requests and remote bookkeeping after a
  /// commit or an abort, dispatching the grants that frees.
  void purge_local(TransactionId txn);

  /// Replaces paths_ with the agents intra-reachable from `txn`
  /// (reflexive), in BFS order, each with the best victim on its BFS-tree
  /// path from `txn`; `best` is the best victim on the path that led to
  /// `txn`.  Only agents that wait here (blocked()) are keyed: a
  /// transaction that merely holds here joins the walk's candidate at its
  /// waiting agent, one hop on.  If txn reaches itself through at least one
  /// edge (a local cycle), returns the best victim on such a cycle.
  std::optional<TransactionId> intra_reachable(TransactionId txn,
                                               VictimKey best);
  /// `best` extended by agent (txn, here): txn's key if txn waits here and
  /// is the better victim.
  [[nodiscard]] VictimKey extend(const VictimKey& best,
                                 TransactionId txn) const;
  /// Appends `txn` to paths_, `before` the best victim on the path that led
  /// to it, unless this BFS has reached it already.
  void bfs_visit(TransactionId txn, const VictimKey& before);
  /// The entry of `txn` in paths_, or null if the last BFS missed it.
  [[nodiscard]] const PathBest* reached(TransactionId txn) const;

  /// Steps A1/A2 of `comp` at agent (txn, here), entered with `candidate`
  /// as the best victim on the walk so far: labels the freshly
  /// intra-reachable set, then closes the walk (retiring the record) if it
  /// reached the computation's target, or records the home agents it
  /// reached and probes their un-probed outgoing inter edges.  At another
  /// site than the initiator, reaching an agent of the target through an
  /// intra edge declares the walk's candidate first (once per site), and
  /// the walk goes on.  `comp` may be gone once this returns (a declaration
  /// can re-enter the controller and grow the pool).
  void advance(const DdbProbeTag& tag, Computation& comp, TransactionId txn,
               VictimKey candidate);
  /// Records `tag` at every home agent in paths_ but `comp`'s own target.
  void record_reaches(const DdbProbeTag& tag, const Computation& comp);
  /// txn (home here) has just blocked on a new request: continues each
  /// live computation that reached its home agent along the new edge, as
  /// a probe arriving at this instant would.
  void follow_reaches(TransactionId txn);

  /// Step A0 for (txn, here): if txn is on an intra-controller cycle,
  /// declares the cycle's best victim and returns true.  With a
  /// `declared` set, a victim already in it is not declared again, and a
  /// new one is added.
  bool declare_local_cycle(TransactionId txn, TxnSet* declared = nullptr);

  /// Sends probes of `comp` along all un-probed outgoing inter edges of
  /// `processes`, each carrying its process's path best as the victim
  /// candidate.  Only *currently* intra-reachable processes may be passed:
  /// forwarding from stale labels would manufacture wait chains that never
  /// coexisted and break QRP2 (see handle_probe).
  ///
  /// `skip_release_wait_for`: when the probe entered agent (t, here) along
  /// t's own acquisition edge, t's release-wait edge would bounce the probe
  /// straight back to the agent it came from -- the two edges connect the
  /// same agent pair in opposite directions but concern *different
  /// resources*, so the bounce is not a deadlock cycle.  The entry
  /// transaction's release-wait edges are suppressed in that case.
  void send_probes(const DdbProbeTag& tag, Computation& comp,
                   const std::vector<PathBest>& processes,
                   std::optional<TransactionId> skip_release_wait_for =
                       std::nullopt);

  /// A walk from `target` closed on itself with `victim` the best victim
  /// on it: ends target's computation and declares the victim.
  /// If the victim is another transaction and victims are aborted, target's
  /// block check is re-armed: the walk may have been stale (the victim
  /// already gone) while target still sits on another cycle.
  void close_walk(TransactionId victim, TransactionId target,
                  const DdbProbeTag& tag);
  /// Records the declaration and aborts the victim, unless this site has
  /// already aborted it.
  void declare(TransactionId victim, const DdbProbeTag& tag);
  /// Under kDelayed: A0 at once, then txn's probe computation at once if
  /// A0's BFS reaches another transaction blocked here or homed at another
  /// site, else T later.
  void schedule_block_check(TransactionId txn);

  /// Lowest still-live sequence of this controller's own computations, the
  /// one just begun (next_sequence_) included: walks the own records.
  [[nodiscard]] std::uint64_t current_floor();

  // ---- flat tables ----------------------------------------------------------

  /// Records `txn` as seen; false (and nothing recorded) for an id so far
  /// past every id seen that it cannot be a transaction -- ids are dense,
  /// and a corrupt frame must not size the table.
  [[nodiscard]] bool admit(TransactionId txn);
  [[nodiscard]] const TxnSlot* slot(TransactionId txn) const;
  /// The slot of `txn`, growing the table on first sight of a new id.
  [[nodiscard]] TxnSlot& slot_for(TransactionId txn);

  /// The record of `tag`, created (from a recycled pool entry) for
  /// `target` with `floor` if absent.
  [[nodiscard]] Computation& computation(const DdbProbeTag& tag,
                                         TransactionId target,
                                         std::uint64_t floor);
  /// The record of `tag`, or null if it was pruned or never existed.
  [[nodiscard]] Computation* find_computation(const DdbProbeTag& tag);
  /// Drops the records of `initiator`'s computations below `floor`.
  void prune_computations(SiteId initiator, std::uint64_t floor);

  /// Drops the record of own computation `seq` (0: none), if still present.
  void retire_own(std::uint64_t seq);

  SiteId id_;
  std::uint32_t n_sites_;
  SiteHost& host_;
  DdbOptions options_;

  LockManager locks_;
  // The tables below are pooled (common/block_pool.h): they grow past 1 KiB
  // in an episode, and the next controller on the thread reuses the blocks.
  PooledVector<TxnSlot> txns_;  // indexed by transaction id
  std::uint64_t id_horizon_{0};  // one past the highest id admitted

  std::uint64_t next_sequence_{0};
  // Computation records live in a recycled pool (their edge sets keep
  // their capacity); comp_index_ maps tags to pool slots, ascending, so the
  // own records are one contiguous range.
  PooledVector<Computation> comp_pool_;
  PooledVector<std::uint32_t> comp_free_;
  PooledVector<std::pair<DdbProbeTag, std::uint32_t>> comp_index_;
  // Highest floor seen per initiator, indexed by site (section 4.3); 0:
  // none seen (sequences start at 1).  Probes below it are stale.  Inline
  // up to 8 sites, so constructing a controller allocates nothing.
  SmallVector<std::uint64_t, 8> floor_seen_;

  // Scratch buffers of the graph queries, reused so the warmed-up
  // detection path allocates nothing.  check_all() walks processes_ while
  // its declarations may re-enter initiate_for(), which only touches
  // paths_.
  std::vector<PathBest> paths_;            // intra_reachable() BFS queue
                                           // and result
  std::uint32_t bfs_epoch_{0};             // paths_'s stamp in TxnSlot::visit
  std::vector<TransactionId> processes_;   // check_all(): blocked, then Q
  TxnSet swept_;                           // check_all(): victims declared

  ControllerStats stats_;
};

}  // namespace cmh::ddb
