// FaultyTransport fault semantics and the scan engine's robust path:
// timeout charging, exponential backoff + jitter, adaptive per-prefix
// backoff, and monotonic hit recovery as loss drops.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "fault/fault_plan.h"
#include "fault/faulty_transport.h"
#include "net/prefix.h"
#include "net/rng.h"
#include "net/service.h"
#include "probe/stateless_transport.h"
#include "probe/stream_scanner.h"
#include "testutil/fixtures.h"

namespace v6::fault {
namespace {

using v6::net::Ipv6Addr;
using v6::net::Prefix;
using v6::net::ProbeReply;
using v6::net::ProbeType;
using v6::probe::ScanOptions;
using v6::probe::ScanStats;
using v6::probe::StreamScanner;

/// A wire where every host answers: isolates the fault plane's behavior
/// from universe reply logic.
class AlwaysUpTransport final : public v6::probe::ProbeTransport {
 public:
  ProbeReply send(const Ipv6Addr&, ProbeType type) override {
    ++packets_;
    return v6::net::positive_reply(type);
  }
  std::uint64_t packets_sent() const override { return packets_; }

 private:
  std::uint64_t packets_ = 0;
};

/// A wire where nothing ever answers.
class AlwaysDownTransport final : public v6::probe::ProbeTransport {
 public:
  ProbeReply send(const Ipv6Addr&, ProbeType) override {
    ++packets_;
    return ProbeReply::kTimeout;
  }
  std::uint64_t packets_sent() const override { return packets_; }

 private:
  std::uint64_t packets_ = 0;
};

Ipv6Addr addr_n(std::uint64_t n) {
  return Ipv6Addr(0x20010db800000000ULL, n);
}

std::vector<Ipv6Addr> targets_n(std::uint64_t count) {
  std::vector<Ipv6Addr> targets;
  for (std::uint64_t i = 0; i < count; ++i) targets.push_back(addr_n(i + 1));
  return targets;
}

/// A wire, optionally behind a fault injector, owned as one lane
/// transport: what the robust-scanner cases install in place of the
/// simulated universe.
template <typename Wire>
class FaultedWire final : public v6::probe::ProbeTransport {
 public:
  FaultedWire(const FaultPlan* plan, std::uint64_t seed) {
    if (plan != nullptr) {
      faulty_ = std::make_unique<FaultyTransport>(wire_, *plan, seed);
    }
  }
  ProbeReply send(const Ipv6Addr& addr, ProbeType type) override {
    return top().send(addr, type);
  }
  std::uint64_t packets_sent() const override {
    return faulty_ ? faulty_->packets_sent() : wire_.packets_sent();
  }
  void advance(double seconds) override { top().advance(seconds); }

 private:
  v6::probe::ProbeTransport& top() {
    if (faulty_) return *faulty_;
    return wire_;
  }
  Wire wire_;
  std::unique_ptr<FaultyTransport> faulty_;
};

/// Scans `targets` on ICMP with a one-shard scanner whose lane is a
/// fresh `Wire`, behind `plan`'s injector when a plan is given.
template <typename Wire>
ScanStats scan_through(std::size_t targets, const ScanOptions& options,
                       const FaultPlan* plan = nullptr,
                       std::uint64_t fault_seed = 0) {
  StreamScanner scanner(
      v6::testutil::small_universe(), nullptr,
      v6::probe::StreamScanOptions{}.with_scan(options).with_decorator(
          [plan, fault_seed](v6::probe::ProbeTransport&, unsigned) {
            return std::make_unique<FaultedWire<Wire>>(plan, fault_seed);
          }));
  return scanner.scan(targets_n(targets), ProbeType::kIcmp, nullptr);
}

// ---------------------------------------------------------------------
// FaultyTransport unit semantics
// ---------------------------------------------------------------------

TEST(FaultyTransport, OutageWindowDropsThenHeals) {
  AlwaysUpTransport inner;
  // wire_pps=1: each packet advances the fault clock a full second.
  const FaultPlan plan =
      FaultPlan{}.with_outage(Prefix{}, 0.0, 2.5).with_wire_pps(1.0);
  FaultyTransport transport(inner, plan, /*seed=*/1);
  // Sends land at t=1, 2, 3: the first two fall inside [0, 2.5).
  EXPECT_EQ(transport.send(addr_n(1), ProbeType::kIcmp), ProbeReply::kTimeout);
  EXPECT_EQ(transport.send(addr_n(1), ProbeType::kIcmp), ProbeReply::kTimeout);
  EXPECT_EQ(transport.send(addr_n(1), ProbeType::kIcmp),
            ProbeReply::kEchoReply);
  EXPECT_EQ(transport.dropped_outage(), 2u);
  EXPECT_EQ(transport.packets_sent(), 3u);
  EXPECT_EQ(inner.packets_sent(), 1u);  // dropped probes never hit the wire
}

TEST(FaultyTransport, PeriodicOutageFlaps) {
  AlwaysUpTransport inner;
  const FaultPlan plan =
      FaultPlan{}.with_outage(Prefix{}, 0.0, 2.0, /*period_s=*/5.0)
          .with_wire_pps(1.0);
  FaultyTransport transport(inner, plan, /*seed=*/1);
  // t=1..10; outage when (t mod 5) < 2: t=1, 5, 6, 10 drop.
  int drops = 0;
  for (int t = 1; t <= 10; ++t) {
    if (transport.send(addr_n(1), ProbeType::kIcmp) == ProbeReply::kTimeout) {
      ++drops;
    }
  }
  EXPECT_EQ(drops, 4);
  EXPECT_EQ(transport.dropped_outage(), 4u);
}

TEST(FaultyTransport, OutageOnlyAffectsItsScope) {
  AlwaysUpTransport inner;
  const FaultPlan plan =
      FaultPlan{}
          .with_outage(Prefix::must_parse("2001:db8::/32"), 0.0, 1000.0)
          .with_wire_pps(1.0);
  FaultyTransport transport(inner, plan, /*seed=*/1);
  EXPECT_EQ(transport.send(addr_n(1), ProbeType::kIcmp), ProbeReply::kTimeout);
  const Ipv6Addr outside(0x2002000000000000ULL, 1);
  EXPECT_EQ(transport.send(outside, ProbeType::kIcmp),
            ProbeReply::kEchoReply);
}

TEST(FaultyTransport, TokenBucketBurstsThenStarves) {
  AlwaysUpTransport inner;
  // Practically frozen clock (1e9 pps): only burst tokens are available.
  const FaultPlan plan =
      FaultPlan{}.with_rate_limit(Prefix{}, /*rate=*/1.0, /*burst=*/3.0)
          .with_wire_pps(1e9);
  FaultyTransport transport(inner, plan, /*seed=*/1);
  int replies = 0;
  for (int i = 0; i < 5; ++i) {
    if (transport.send(addr_n(1), ProbeType::kIcmp) != ProbeReply::kTimeout) {
      ++replies;
    }
  }
  EXPECT_EQ(replies, 3);
  EXPECT_EQ(transport.dropped_rate_limit(), 2u);

  // Waiting refills the bucket (this is what scanner backoff leans on).
  transport.advance(2.0);
  EXPECT_EQ(transport.send(addr_n(1), ProbeType::kIcmp),
            ProbeReply::kEchoReply);
  EXPECT_EQ(transport.send(addr_n(1), ProbeType::kIcmp),
            ProbeReply::kEchoReply);
  EXPECT_EQ(transport.send(addr_n(1), ProbeType::kIcmp), ProbeReply::kTimeout);
}

TEST(FaultyTransport, BucketsAreIndependentPerSubPrefix) {
  AlwaysUpTransport inner;
  const FaultPlan plan =
      FaultPlan{}
          .with_rate_limit(Prefix{}, /*rate=*/1.0, /*burst=*/2.0,
                           /*bucket_prefix_len=*/64)
          .with_wire_pps(1e9);
  FaultyTransport transport(inner, plan, /*seed=*/1);
  const Ipv6Addr a(0x20010db800000000ULL, 1);
  const Ipv6Addr b(0x20010db800000001ULL, 1);  // different /64
  // Each /64 gets its own 2-token burst.
  EXPECT_NE(transport.send(a, ProbeType::kIcmp), ProbeReply::kTimeout);
  EXPECT_NE(transport.send(a, ProbeType::kIcmp), ProbeReply::kTimeout);
  EXPECT_EQ(transport.send(a, ProbeType::kIcmp), ProbeReply::kTimeout);
  EXPECT_NE(transport.send(b, ProbeType::kIcmp), ProbeReply::kTimeout);
  EXPECT_NE(transport.send(b, ProbeType::kIcmp), ProbeReply::kTimeout);
  EXPECT_EQ(transport.send(b, ProbeType::kIcmp), ProbeReply::kTimeout);
}

TEST(FaultyTransport, InjectsIcmpErrors) {
  AlwaysUpTransport inner;
  const FaultPlan plan = FaultPlan{}.with_error(Prefix{}, 1.0);
  FaultyTransport transport(inner, plan, /*seed=*/1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(transport.send(addr_n(1), ProbeType::kIcmp),
              ProbeReply::kDestUnreachable);
  }
  EXPECT_EQ(transport.injected_errors(), 10u);
  EXPECT_EQ(inner.packets_sent(), 0u);
}

TEST(FaultyTransport, LossRulesComposeAndRespectScope) {
  AlwaysUpTransport inner;
  const FaultPlan all_loss = FaultPlan{}.with_base_loss(1.0);
  FaultyTransport lossy(inner, all_loss, /*seed=*/1);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(lossy.send(addr_n(1), ProbeType::kIcmp), ProbeReply::kTimeout);
  }
  EXPECT_EQ(lossy.dropped_loss(), 5u);

  const FaultPlan scoped =
      FaultPlan{}.with_loss(Prefix::must_parse("2001:db8::/32"), 1.0);
  FaultyTransport scoped_lossy(inner, scoped, /*seed=*/1);
  EXPECT_EQ(scoped_lossy.send(addr_n(1), ProbeType::kIcmp),
            ProbeReply::kTimeout);
  const Ipv6Addr outside(0x2002000000000000ULL, 1);
  EXPECT_EQ(scoped_lossy.send(outside, ProbeType::kIcmp),
            ProbeReply::kEchoReply);
}

TEST(FaultyTransport, DisabledPlanIsBytePerfectPassThrough) {
  // At the transport level, a FaultPlan{} decorator must reproduce the
  // bare wire's replies exactly — same replies, same packet count.
  const auto& universe = v6::testutil::small_universe();
  std::vector<Ipv6Addr> probes;
  for (const auto& host : universe.hosts()) {
    probes.push_back(host.addr);
    if (probes.size() == 500) break;
  }
  const FaultPlan disabled;
  ASSERT_FALSE(disabled.enabled());

  v6::probe::StatelessSimTransport bare(universe, /*seed=*/9);
  v6::probe::StatelessSimTransport inner(universe, /*seed=*/9);
  FaultyTransport decorated(inner, disabled, /*seed=*/9);
  for (const Ipv6Addr& addr : probes) {
    EXPECT_EQ(bare.send(addr, ProbeType::kIcmp),
              decorated.send(addr, ProbeType::kIcmp));
  }
  EXPECT_EQ(bare.packets_sent(), decorated.packets_sent());
}

// ---------------------------------------------------------------------
// Robust scanner path
// ---------------------------------------------------------------------

TEST(RobustScanner, ProbeTimeoutChargesVirtualTime) {
  const ScanStats stats = scan_through<AlwaysDownTransport>(
      4, ScanOptions{}.with_retries(0).with_max_pps(1000.0).with_probe_timeout(
             0.5));
  EXPECT_EQ(stats.timeouts, 4u);
  // Each probe waits 0.5 s for the reply that never comes, on top of the
  // 1/1000 s emission time per packet.
  EXPECT_GE(stats.virtual_seconds, 4 * 0.5);
  EXPECT_NEAR(stats.virtual_seconds, 4 * 0.5, 0.01);
}

TEST(RobustScanner, ExponentialBackoffAccounting) {
  const ScanStats stats = scan_through<AlwaysDownTransport>(
      2, ScanOptions{}.with_retries(3).with_retry_backoff(1.0));
  // Per target: waits of 1, 2, 4 seconds before retries 1..3.
  EXPECT_EQ(stats.retransmissions, 6u);
  EXPECT_EQ(stats.backoffs, 6u);
  EXPECT_NEAR(stats.backoff_seconds, 2 * (1.0 + 2.0 + 4.0), 1e-9);
  EXPECT_EQ(stats.packets, 8u);  // 2 targets x 4 attempts
}

TEST(RobustScanner, JitterIsDeterministicPerSeed) {
  const auto run = [](std::uint64_t seed) {
    return scan_through<AlwaysDownTransport>(
               8, ScanOptions{}
                      .with_seed(seed)
                      .with_retries(2)
                      .with_retry_backoff(1.0, /*jitter=*/0.5))
        .backoff_seconds;
  };
  EXPECT_DOUBLE_EQ(run(9), run(9));  // same seed: bit-identical waits
  EXPECT_NE(run(9), run(10));        // jitter actually draws per seed
  // Jittered waits stay within [1-j, 1+j] of the nominal schedule.
  const double nominal = 8 * (1.0 + 2.0);
  EXPECT_GE(run(9), nominal * 0.5);
  EXPECT_LE(run(9), nominal * 1.5);
}

TEST(RobustScanner, AdaptiveBackoffRecoversRateLimitedPrefix) {
  const FaultPlan plan =
      FaultPlan{}.with_rate_limit(Prefix{}, /*rate=*/50.0, /*burst=*/5.0)
          .with_wire_pps(10'000.0);
  const auto run = [&](const ScanOptions& options) {
    return scan_through<AlwaysUpTransport>(100, options, &plan,
                                           /*fault_seed=*/3)
        .hits;
  };
  const std::uint64_t naive = run(ScanOptions{}.with_retries(0));
  const std::uint64_t adaptive = run(ScanOptions{}
                                         .with_retries(0)
                                         .with_adaptive_backoff(
                                             /*threshold=*/3, /*wait_s=*/1.0));
  // Without cool-downs only the 5-token burst answers (plus a trickle);
  // adaptive waits refill the bucket and recover most of the prefix.
  EXPECT_LE(naive, 10u);
  EXPECT_GE(adaptive, 3 * naive);
}

TEST(RobustScanner, RetriesMonotonicallyRecoverHitsAsLossDrops) {
  // Sweep the loss grid under both retry policies; hits must not
  // decrease as loss drops, and the retrying scanner must dominate at
  // every nonzero loss point.
  const auto run = [](double loss, int retries) {
    const FaultPlan plan = FaultPlan{}.with_base_loss(loss);
    return scan_through<AlwaysUpTransport>(
               2000, ScanOptions{}.with_seed(5).with_retries(retries), &plan,
               /*fault_seed=*/5)
        .hits;
  };
  const std::vector<double> losses = {0.6, 0.3, 0.1, 0.0};
  std::uint64_t prev_naive = 0, prev_robust = 0;
  for (const double loss : losses) {
    const std::uint64_t naive = run(loss, 0);
    const std::uint64_t robust = run(loss, 3);
    EXPECT_GE(naive, prev_naive) << "loss=" << loss;
    EXPECT_GE(robust, prev_robust) << "loss=" << loss;
    if (loss > 0.0) {
      EXPECT_GT(robust, naive) << "loss=" << loss;
    } else {
      EXPECT_EQ(naive, 2000u);
      EXPECT_EQ(robust, 2000u);
    }
    prev_naive = naive;
    prev_robust = robust;
  }
}

TEST(RobustScanner, DefaultOptionsDrawNoExtraRandomness) {
  // A scanner constructed with the robust knobs all explicitly zero must
  // replay a default one exactly: the robust path may not perturb the
  // reply or jitter streams when disabled.
  const auto& universe = v6::testutil::small_universe();
  std::vector<Ipv6Addr> probes;
  for (const auto& host : universe.hosts()) {
    probes.push_back(host.addr);
    if (probes.size() == 400) break;
  }
  const auto run = [&](const ScanOptions& options) {
    StreamScanner scanner(universe, nullptr,
                          v6::probe::StreamScanOptions{}.with_scan(options));
    return scanner.scan_hits(probes, ProbeType::kIcmp).hits;
  };
  const auto plain = run(ScanOptions{}.with_seed(11));
  const auto robust_zeroed = run(ScanOptions{}
                                     .with_seed(11)
                                     .with_probe_timeout(0.0)
                                     .with_retry_backoff(0.0, 0.0)
                                     .with_adaptive_backoff(0, 0.0));
  EXPECT_EQ(plain, robust_zeroed);
}

}  // namespace
}  // namespace v6::fault
