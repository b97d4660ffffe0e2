// FaultyTransport: applies a FaultPlan to every probe crossing a
// ProbeTransport.
//
// Slots between the simulated wire and the observability decorators
// (CountingTransport / TracingTransport), so the instrumented layers see
// exactly what a scanner on a lossy network would: dropped probes come
// back as kTimeout without ever reaching the universe.
//
// Determinism: fault randomness comes from a private RNG derived from
// (seed, 0xFA17) — separate from the wire's per-probe reply engines — so
// enabling a fault never perturbs the universe's own reply draws,
// and a fixed (plan, seed) pair replays bit-identically regardless of
// --jobs. A disabled plan forwards every packet untouched and consumes
// zero randomness: the decorated chain is byte-identical to the bare one.
//
// Time model: the fault plane keeps a virtual clock that advances by
// 1/wire_pps per packet plus any explicit advance() calls (scanner
// backoff waits). Token buckets and outage windows are keyed to this
// clock, which is how adaptive backoff actually recovers replies: a
// cool-down wait refills the remote limiter's bucket.
#pragma once

#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "fault/fault_plan.h"
#include "net/ipv6.h"
#include "net/rng.h"
#include "net/service.h"
#include "probe/transport.h"

namespace v6::fault {

class FaultyTransport final : public v6::probe::ProbeTransport {
 public:
  /// `inner` and `plan` are borrowed and must outlive the transport.
  FaultyTransport(v6::probe::ProbeTransport& inner, const FaultPlan& plan,
                  std::uint64_t seed)
      : inner_(&inner),
        plan_(&plan),
        rng_(v6::net::make_rng(seed, /*tag=*/0xFA17)),
        buckets_(plan.rate_limits.size()) {}

  v6::net::ProbeReply send(const v6::net::Ipv6Addr& addr,
                           v6::net::ProbeType type) override {
    ++packets_;
    now_ += 1.0 / plan_->wire_pps;
    // Until a probe reaches the inner transport, the last reply (if any)
    // was synthesized here and carries no modeled wire time.
    last_local_ = true;
    if (!plan_->enabled()) {
      last_local_ = false;
      return inner_->send(addr, type);
    }

    // Outage windows: purely clock-driven, no randomness.
    for (const OutageRule& rule : plan_->outages) {
      if (!rule.scope.contains(addr)) continue;
      double t = now_ - rule.start_s;
      if (t < 0.0) continue;
      if (rule.period_s > 0.0) t = std::fmod(t, rule.period_s);
      if (t < rule.duration_s) {
        ++dropped_outage_;
        return v6::net::ProbeReply::kTimeout;
      }
    }

    // Token buckets: one per distinct masked sub-prefix per rule. A probe
    // that finds its bucket empty is answered by silence — the rate
    // limiter suppressed the reply.
    for (std::size_t i = 0; i < plan_->rate_limits.size(); ++i) {
      const RateLimitRule& rule = plan_->rate_limits[i];
      if (!rule.scope.contains(addr)) continue;
      const int bucket_len = rule.bucket_prefix_len < 0
                                 ? rule.scope.length()
                                 : rule.bucket_prefix_len;
      Bucket& bucket =
          buckets_[i]
              .try_emplace(addr.masked(bucket_len), Bucket{rule.burst, now_})
              .first->second;
      bucket.tokens = std::min(
          rule.burst, bucket.tokens + (now_ - bucket.last_refill) *
                                          rule.replies_per_second);
      bucket.last_refill = now_;
      if (bucket.tokens < 1.0) {
        ++dropped_rate_limit_;
        return v6::net::ProbeReply::kTimeout;
      }
      bucket.tokens -= 1.0;
    }

    // Spurious ICMPv6 errors from on-path routers.
    for (const ErrorRule& rule : plan_->errors) {
      if (rule.error_prob > 0.0 && rule.scope.contains(addr) &&
          v6::net::chance(rng_, rule.error_prob)) {
        ++injected_errors_;
        return v6::net::ProbeReply::kDestUnreachable;
      }
    }

    // Random loss: matching rules compose multiplicatively, one draw per
    // packet (and none at all when every matching probability is zero).
    double pass = 1.0 - plan_->base_loss;
    for (const LossRule& rule : plan_->loss_rules) {
      if (rule.scope.contains(addr)) pass *= 1.0 - rule.drop_prob;
    }
    if (pass < 1.0 && !v6::net::chance(rng_, pass)) {
      ++dropped_loss_;
      return v6::net::ProbeReply::kTimeout;
    }

    last_local_ = false;
    return inner_->send(addr, type);
  }

  /// Swallowed probes and injected errors consumed no modeled wire time
  /// (drops time out — the scanner charges its timeout via advance());
  /// forwarded probes report the inner transport's RTT.
  std::uint64_t last_wire_nanos() const override {
    return last_local_ ? 0 : inner_->last_wire_nanos();
  }

  /// Sender-side packet count: includes probes the faults swallowed (the
  /// scanner did transmit them), so packet budgets stay honest.
  std::uint64_t packets_sent() const override { return packets_; }

  void advance(double seconds) override {
    now_ += seconds;
    inner_->advance(seconds);
  }

  double virtual_now() const { return now_; }
  std::uint64_t dropped_loss() const { return dropped_loss_; }
  std::uint64_t dropped_outage() const { return dropped_outage_; }
  std::uint64_t dropped_rate_limit() const { return dropped_rate_limit_; }
  std::uint64_t injected_errors() const { return injected_errors_; }

 private:
  struct Bucket {
    double tokens = 0.0;
    double last_refill = 0.0;
  };

  v6::probe::ProbeTransport* inner_;
  const FaultPlan* plan_;
  v6::net::Rng rng_;
  double now_ = 0.0;
  bool last_local_ = false;
  std::uint64_t packets_ = 0;
  std::uint64_t dropped_loss_ = 0;
  std::uint64_t dropped_outage_ = 0;
  std::uint64_t dropped_rate_limit_ = 0;
  std::uint64_t injected_errors_ = 0;
  /// Parallel to plan_->rate_limits: per-rule bucket maps keyed by the
  /// masked sub-prefix address.
  std::vector<std::unordered_map<v6::net::Ipv6Addr, Bucket,
                                 v6::net::Ipv6AddrHash>>
      buckets_;
};

}  // namespace v6::fault
