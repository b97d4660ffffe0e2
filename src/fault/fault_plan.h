// Deterministic fault-injection plans for the simulated wire.
//
// A FaultPlan describes network pathologies the idealized simulated wire
// (StatelessSimTransport) cannot express — probe loss, token-bucket ICMP rate limiting, transient
// outage windows, and spurious ICMPv6 errors — as pure data. The plan is
// applied by FaultyTransport (faulty_transport.h), a ProbeTransport
// decorator, so every fault draw comes from its own seeded RNG stream and
// a fixed (plan, seed) pair replays bit-identically at any --jobs count.
//
// Plans are scoped by prefix: every rule carries a net::Prefix and only
// applies to probes whose destination falls inside it (`::/0`, spelled
// `any` in specs, matches everything). docs/ROBUSTNESS.md describes the
// fault model and its determinism guarantees in full.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/prefix.h"

namespace v6::fault {

/// Drops probes to `scope` with probability `drop_prob`, independently
/// per packet. Multiple overlapping rules compose: a packet survives only
/// if it survives every matching rule (pass probabilities multiply).
struct LossRule {
  v6::net::Prefix scope;
  double drop_prob = 0.0;

  friend bool operator==(const LossRule&, const LossRule&) = default;
};

/// Token-bucket rate limiter guarding `scope`, modeled after per-router
/// ICMP error/echo rate limiting: replies drain a bucket refilled at
/// `replies_per_second` up to `burst` tokens. `bucket_prefix_len` splits
/// the scope into independent buckets, one per distinct /len sub-prefix —
/// a single `any`-scoped rule with bucket_prefix_len=32 models one
/// limiter per routed /32. -1 means one bucket for the whole scope.
struct RateLimitRule {
  v6::net::Prefix scope;
  double replies_per_second = 0.0;
  double burst = 1.0;
  int bucket_prefix_len = -1;

  friend bool operator==(const RateLimitRule&, const RateLimitRule&) = default;
};

/// Blackholes `scope` during [start_s, start_s + duration_s) on the fault
/// plane's virtual clock. `period_s > 0` repeats the window every
/// period_s seconds (flapping link); 0 is a one-shot outage.
struct OutageRule {
  v6::net::Prefix scope;
  double start_s = 0.0;
  double duration_s = 0.0;
  double period_s = 0.0;

  friend bool operator==(const OutageRule&, const OutageRule&) = default;
};

/// Answers probes into `scope` with ICMPv6 Destination Unreachable with
/// probability `error_prob` (an on-path router rejecting traffic), which
/// the scanner classifies as an unreachable, never a hit.
struct ErrorRule {
  v6::net::Prefix scope;
  double error_prob = 0.0;

  friend bool operator==(const ErrorRule&, const ErrorRule&) = default;
};

/// A complete, seedless description of what the network does to probes.
/// Default-constructed plans are disabled: FaultyTransport forwards every
/// packet untouched and consumes zero randomness, so a disabled plan in
/// the chain is byte-identical to no decorator at all (ctest-asserted).
struct FaultPlan {
  /// Scope-free packet loss applied to every probe (composes with
  /// per-prefix LossRules).
  double base_loss = 0.0;
  std::vector<LossRule> loss_rules;
  std::vector<RateLimitRule> rate_limits;
  std::vector<OutageRule> outages;
  std::vector<ErrorRule> errors;
  /// Wire packet rate driving the fault plane's virtual clock: each
  /// probe advances it by 1/wire_pps seconds (plus any explicit
  /// ProbeTransport::advance calls from scanner backoff waits).
  double wire_pps = 10'000.0;

  /// True when any fault can fire. A plan whose rules all have zero
  /// probability still counts as enabled but never draws randomness.
  bool enabled() const {
    return base_loss > 0.0 || !loss_rules.empty() || !rate_limits.empty() ||
           !outages.empty() || !errors.empty();
  }

  /// All probabilities in [0,1], rates/bursts positive, times
  /// non-negative, bucket lengths in [-1, 128].
  bool valid() const;

  /// Canonical spec string; parse(to_string()) reproduces the plan
  /// exactly (fuzz-asserted fixpoint).
  std::string to_string() const;

  /// Parses the `sos --faults` spec grammar: comma-separated items of
  ///   loss=P                      scope-free loss probability
  ///   loss=PFX:P                  per-prefix loss
  ///   rlimit=PFX:RATE[:BURST[:BUCKETLEN]]
  ///   outage=PFX:START:DUR[:PERIOD]
  ///   error=PFX:P
  ///   pps=RATE                    fault-plane wire rate
  /// where PFX is CIDR notation or the word `any` (= ::/0). Returns
  /// nullopt on malformed or invalid() input; an empty spec is the
  /// disabled plan.
  static std::optional<FaultPlan> parse(std::string_view spec);

  FaultPlan& with_base_loss(double p) { base_loss = p; return *this; }
  FaultPlan& with_loss(const v6::net::Prefix& scope, double p) {
    loss_rules.push_back({scope, p});
    return *this;
  }
  FaultPlan& with_rate_limit(const v6::net::Prefix& scope, double rate,
                             double burst, int bucket_prefix_len = -1) {
    rate_limits.push_back({scope, rate, burst, bucket_prefix_len});
    return *this;
  }
  FaultPlan& with_outage(const v6::net::Prefix& scope, double start_s,
                         double duration_s, double period_s = 0.0) {
    outages.push_back({scope, start_s, duration_s, period_s});
    return *this;
  }
  FaultPlan& with_error(const v6::net::Prefix& scope, double p) {
    errors.push_back({scope, p});
    return *this;
  }
  FaultPlan& with_wire_pps(double pps) { wire_pps = pps; return *this; }

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;
};

}  // namespace v6::fault
