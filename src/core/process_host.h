// ProcessHost -- everything a basic-model or OR-model process does outside
// itself: a simulator cluster, a threaded transport cluster, the exhaustive
// checker or a test's fake, borrowed by the process.  Every call names the
// calling process, so a host serving N processes implements it once.
#pragma once

#include <functional>

#include "common/ids.h"
#include "common/serialize.h"
#include "common/time.h"

namespace cmh::core {

class ProcessHost {
 public:
  /// Sends `payload` on channel (from, to).  The view is valid only for the
  /// duration of the call; a host that defers delivery copies it.
  virtual void send(ProcessId from, ProcessId to, BytesView payload) = 0;
  /// Runs `fn` `delay` from now, as a step of `who`'s own (serialized with
  /// its deliveries).  A BasicProcess calls it only under kDelayed with a
  /// positive T; an OrProcess never does.
  virtual void schedule(ProcessId who, SimTime delay,
                        std::function<void()> fn) = 0;
  /// `who` declared deadlock via computation `tag` (the declaration itself
  /// is already in `who`'s state).
  virtual void on_deadlock(ProcessId who, const ProbeTag& tag) = 0;

 protected:
  ~ProcessHost() = default;
};

}  // namespace cmh::core
