// The simulated wire: a ProbeTransport over a simnet::Universe whose
// every reply is a pure function of the probe itself.
//
// Each send() builds a fresh counter-based engine keyed by
// (seed, addr, attempt), and the universe draws from it only for the
// few regions that are stochastic (rate-limited aliases, lossy hosts).
// So a reply never depends on the probes sent before it: ordering,
// interleaving and shard count cannot change it, which is what lets the
// scanner shard its walk (docs/SCANNER.md) and what keeps the online
// dealiaser's verdicts independent of the scan traffic beside it.
//
// `attempt` is tracked by counting consecutive sends to the same
// address — exactly the retransmission pattern the scanner and the
// dealiaser emit — so a rate-limited region that dropped the first
// probe can still answer the retry with an independent coin, matching
// live-scan semantics. Call reset() between scans so attempt numbering
// can never leak across scans (shard-invariance depends on it).
//
// A retry whose previous attempt drew nothing from its engine returns
// that attempt's reply without asking the universe again: with no draw,
// the reply depends on (addr, type) alone. Most retries go to addresses
// with no host, so this skips most of their lookups.
#pragma once

#include <cstdint>

#include "net/ipv6.h"
#include "net/rng.h"
#include "probe/transport.h"
#include "simnet/universe.h"

namespace v6::probe {

/// Key of the stateless engine for one (addr, attempt) under `base`.
inline std::uint64_t stateless_key(std::uint64_t base,
                                   const v6::net::Ipv6Addr& addr,
                                   std::uint64_t attempt) {
  return v6::net::splitmix64(v6::net::splitmix64(base ^ addr.hi()) ^
                             addr.lo()) ^
         attempt;
}

class StatelessSimTransport final : public ProbeTransport {
 public:
  StatelessSimTransport(const v6::simnet::Universe& universe,
                        std::uint64_t seed)
      : universe_(&universe),
        base_(v6::net::derive_seed(seed, /*tag=*/0x57A7E)) {}

  v6::net::ProbeReply send(const v6::net::Ipv6Addr& addr,
                           v6::net::ProbeType type) override {
    if (has_last_ && addr == last_addr_) {
      ++attempt_;
    } else {
      attempt_ = 0;
    }
    has_last_ = true;
    ++packets_;
    if (attempt_ > 0 && type == last_type_ && !last_drew_) {
      return last_reply_;
    }
    // Engine keyed by the probe identity; the universe draws from it
    // only for the few regions that are actually stochastic.
    DrawTracker rng{
        v6::net::SplitMixRng(stateless_key(base_, addr, attempt_))};
    const v6::net::ProbeReply reply = universe_->probe(addr, type, rng);
    last_addr_ = addr;
    last_type_ = type;
    last_reply_ = reply;
    last_drew_ = rng.drew;
    return reply;
  }

  std::uint64_t packets_sent() const override { return packets_; }

  std::uint64_t last_wire_nanos() const override {
    return last_reply_ != v6::net::ProbeReply::kTimeout
               ? v6::simnet::Universe::rtt_nanos(last_addr_)
               : 0;
  }

  /// Clears the consecutive-send attempt tracking (not the packet
  /// counter). Must be called at the start of each scan.
  void reset() {
    attempt_ = 0;
    has_last_ = false;
    last_reply_ = v6::net::ProbeReply::kTimeout;
  }

 private:
  /// The per-probe engine, noting whether the universe drew from it.
  struct DrawTracker : v6::net::SplitMixRng {
    result_type operator()() {
      drew = true;
      return SplitMixRng::operator()();
    }
    bool drew = false;
  };

  const v6::simnet::Universe* universe_;
  std::uint64_t base_;
  std::uint64_t packets_ = 0;
  std::uint64_t attempt_ = 0;
  v6::net::Ipv6Addr last_addr_;
  v6::net::ProbeType last_type_{};
  v6::net::ProbeReply last_reply_ = v6::net::ProbeReply::kTimeout;
  bool has_last_ = false;
  bool last_drew_ = false;
};

}  // namespace v6::probe
