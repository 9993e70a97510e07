// BasicProcess -- a basic-model vertex with the Chandy-Misra probe
// computation (paper sections 2-5) built in.
//
// The class is a pure message-driven state machine: it consumes messages
// via on_message() and reaches the world only through a borrowed
// ProcessHost (sends, the section-4.3 timer, declarations), so the
// simulator, the threaded transports and the exhaustive checker all host
// it unchanged.  Callers must serialize calls per instance (the
// transports' per-node delivery threads already do), which realizes the
// paper's atomic-step note under A0-A2.
//
// Local knowledge is exactly what P3 allows:
//   * the set of outgoing wait-for edges (it created them; colors unknown),
//   * the set of incoming *black* edges (requests received, replies unsent).
//
// Hot-path layout: the edge sets are sorted flat sets (contiguous memory,
// probe fan-out is a linear scan), probes/requests/replies are encoded on
// the stack, and variable-size WFGD frames reuse one scratch buffer -- so
// steady-state probe traffic performs zero heap allocations.
#pragma once

#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "common/flat_set.h"
#include "common/ids.h"
#include "common/time.h"
#include "core/messages.h"
#include "core/options.h"
#include "core/process_host.h"

namespace cmh::core {

/// Raised on misuse of the model (e.g. a blocked process trying to reply).
class ModelViolation : public std::logic_error {
  using std::logic_error::logic_error;
};

/// Per-process counters for tests and benchmarks.
struct ProcessStats {
  std::uint64_t requests_sent{0};
  std::uint64_t replies_sent{0};
  std::uint64_t probes_sent{0};
  std::uint64_t probes_received{0};
  std::uint64_t meaningful_probes{0};
  std::uint64_t computations_initiated{0};
  std::uint64_t deadlocks_declared{0};
  std::uint64_t wfgd_messages_sent{0};
  std::uint64_t wfgd_messages_received{0};

  ProcessStats& operator+=(const ProcessStats& o) {
    requests_sent += o.requests_sent;
    replies_sent += o.replies_sent;
    probes_sent += o.probes_sent;
    probes_received += o.probes_received;
    meaningful_probes += o.meaningful_probes;
    computations_initiated += o.computations_initiated;
    deadlocks_declared += o.deadlocks_declared;
    wfgd_messages_sent += o.wfgd_messages_sent;
    wfgd_messages_received += o.wfgd_messages_received;
    return *this;
  }
};

class BasicProcess {
 public:
  using EdgeSet = FlatSet<ProcessId, 8>;
  using WfgdEdgeSet = FlatSet<graph::Edge, 8>;

  /// Borrows `host`, which must outlive it.
  BasicProcess(ProcessId id, ProcessHost& host, Options options = {});

  BasicProcess(const BasicProcess&) = delete;
  BasicProcess& operator=(const BasicProcess&) = delete;

  [[nodiscard]] ProcessId id() const { return id_; }

  // ---- underlying computation --------------------------------------------

  /// Sends a request to `to`, creating wait-for edge (this, to).  Fires the
  /// initiation policy: at T = 0 the computation starts before this returns.
  /// Requires the edge not to exist already.
  void send_request(ProcessId to);

  /// Sends the reply for `to`'s pending request.  Per G3 only an *active*
  /// process may reply, so this throws ModelViolation while this process has
  /// outgoing edges.
  void send_reply(ProcessId to);

  /// Feeds one raw message from the transport: decodes it and handles it.
  /// Returns non-OK only for undecodable payloads.
  Status on_message(ProcessId from, BytesView payload);

  /// Handles one decoded message from `from`.  A host that decodes each
  /// frame to watch the traffic hands it over here, decoded once.
  void handle(ProcessId from, const Message& message);

  // ---- detection ----------------------------------------------------------

  /// Step A0: starts a new probe computation tagged (id, next-sequence).
  /// Returns the tag (useful in tests), or nullopt if the process has no
  /// outgoing edges (an active process cannot be on a cycle).
  std::optional<ProbeTag> initiate();

  // ---- introspection -------------------------------------------------------

  /// True once this process has declared itself on a black cycle, or has
  /// learnt of its deadlock via a WFGD message.
  [[nodiscard]] bool deadlocked() const { return deadlocked_; }

  /// True iff this process declared via step A1 (is a detecting initiator).
  [[nodiscard]] bool declared_deadlock() const { return declared_; }

  /// The S_j of section 5: edges on permanent black paths leading from this
  /// process, as learnt so far.
  [[nodiscard]] const WfgdEdgeSet& wfgd_edges() const { return wfgd_edges_; }

  /// Locally-known outgoing wait-for edges (targets of unanswered requests
  /// we sent).
  [[nodiscard]] const EdgeSet& waits_for() const { return out_edges_; }

  /// Locally-known incoming black edges (peers whose request we hold).
  [[nodiscard]] const EdgeSet& held_requests() const { return in_black_; }

  [[nodiscard]] bool blocked() const { return !out_edges_.empty(); }

  [[nodiscard]] const ProcessStats& stats() const { return stats_; }
  [[nodiscard]] const Options& options() const { return options_; }

  /// Folds the protocol-relevant state into `h` (order-insensitive for the
  /// unordered containers: iteration is sorted first).  Used by the
  /// exhaustive interleaving checker (src/check) to fingerprint global
  /// states; excludes stats and the delayed-initiation epochs, which do not
  /// affect future behavior under timer-free exploration.
  void mix_state_hash(std::uint64_t& h) const;

 private:
  struct ComputationState {
    std::uint64_t sequence{0};
    bool engaged{false};  // reacted to a meaningful probe of this computation
  };

  void receive(ProcessId from, const RequestMsg& request);
  void receive(ProcessId from, const ReplyMsg& reply);
  void receive(ProcessId from, const ProbeMsg& probe);
  void receive(ProcessId from, const WfgdMsg& msg);

  void send_probes_on_outgoing(const ProbeTag& tag);
  void declare_deadlock(const ProbeTag& tag);
  void start_wfgd();
  void propagate_wfgd();
  void send_wfgd_set(ProcessId to, const WfgdEdgeSet& edges);

  ProcessId id_;
  ProcessHost& host_;
  Options options_;

  EdgeSet out_edges_;
  EdgeSet in_black_;
  // Bumped every time an outgoing edge to the key is (re)created; lets the
  // delayed-initiation timer detect "existed continuously for T" (§4.3).
  std::unordered_map<ProcessId, std::uint64_t> out_edge_epoch_;

  std::uint64_t next_sequence_{0};
  // Latest computation seen per initiator (§4.3: older tags are ignored).
  std::unordered_map<ProcessId, ComputationState> computations_;

  bool declared_{false};
  bool deadlocked_{false};

  WfgdEdgeSet wfgd_edges_;
  // Last WFGD edge set sent per predecessor ("never send the same message
  // twice", §5.2).  Sets only grow, so remembering sizes would do, but we
  // keep the full set for clarity and assertion strength.
  std::unordered_map<ProcessId, WfgdEdgeSet> wfgd_sent_;

  // Reusable encode buffer for the variable-size WFGD frames.
  Bytes scratch_;

  ProcessStats stats_;
};

}  // namespace cmh::core
