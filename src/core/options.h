// Tunables of the basic-model detector, including the section-4 initiation
// rule and the ablation switches exercised by bench_a1 / bench_a2.
#pragma once

#include "common/time.h"

namespace cmh::core {

enum class InitiationMode {
  /// Section 4.3: initiate only if the outgoing edge has existed
  /// continuously for T time units (a timer on the host's schedule()).  At
  /// T = 0 this is section 4.2's rule: the computation starts inside
  /// send_request(), with no timer.
  kDelayed,
  /// The application calls initiate() explicitly (tests, examples).
  kManual,
};

struct Options {
  InitiationMode initiation{InitiationMode::kDelayed};

  /// The T of section 4.3 (only used with kDelayed).  A positive T calls
  /// ProcessHost::schedule() once per request, which the timer-free
  /// exploration host rejects; the default 0 initiates on every request.
  SimTime initiation_delay{SimTime::zero()};

  /// Run the section-5 WFGD computation after declaring deadlock.
  bool propagate_wfgd{true};

  // ---- ablation switches (paper-faithful when left at defaults) ----------

  /// Paper step A2 forwards only the *first* meaningful probe per
  /// computation.  Setting this to true forwards every meaningful probe;
  /// bench_a1 measures the resulting message blowup.
  bool forward_every_meaningful_probe{false};

  /// Paper section 4.3 ignores computations (i,k) with k < n once (i,n) has
  /// been seen.  Setting this to false processes stale tags too; bench_a2
  /// measures the effect.
  bool ignore_stale_computations{true};
};

}  // namespace cmh::core
