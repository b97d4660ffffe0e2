// The scan engine (probe/stream_scanner.h). The `Scanner` cases pin its
// per-scan semantics against a scripted wire: reply classification and
// the paper's hit rules, dedup, retries, the blocklist and the virtual
// clock. The `StreamScannerTest` cases pin its determinism contract: the
// shard-merged ScanResult is bit-identical across shard counts and
// seeds, reply callbacks fire in the canonical cycle-position order, and
// stateless probe validation (probe_auth.h) never rejects a legitimate
// simulated reply. Labeled shard + concurrency so the tsan preset
// exercises the sharded probers.
#include "probe/stream_scanner.h"

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "net/ipv6.h"
#include "net/prefix.h"
#include "net/rng.h"
#include "obs/telemetry.h"
#include "obs/watchdog.h"
#include "probe/probe_auth.h"
#include "probe/transport.h"
#include "testutil/fixtures.h"
#include "testutil/generators.h"

namespace {

using v6::net::Ipv6Addr;
using v6::net::ProbeReply;
using v6::net::ProbeType;
using v6::probe::ScanOptions;
using v6::probe::ScanResult;
using v6::probe::ScanStats;
using v6::probe::StreamScanner;
using v6::probe::StreamScanOptions;

/// A target mix with guaranteed hits (real universe hosts), guaranteed
/// duplicates, and random addresses (~20% repeats) from the generator.
std::vector<Ipv6Addr> mixed_targets(std::uint64_t seed, std::size_t count) {
  const auto& universe = v6::testutil::small_universe();
  const auto hosts = universe.hosts();
  std::vector<Ipv6Addr> targets;
  targets.reserve(count + count / 2);
  for (std::size_t i = 0; i < count / 2; ++i) {
    targets.push_back(hosts[i % hosts.size()].addr);
  }
  v6::net::Rng rng = v6::net::make_rng(seed, /*tag=*/0x7E57);
  const v6::net::Prefix scope(hosts[0].addr, 40);
  const auto random_part =
      v6::testutil::random_probe_schedule(rng, scope, count / 2);
  targets.insert(targets.end(), random_part.begin(), random_part.end());
  // Deterministic duplicates of the host section on top of the
  // generator's own repeats.
  for (std::size_t i = 0; i < count / 4; ++i) {
    targets.push_back(targets[i * 2]);
  }
  return targets;
}

void expect_stats_eq(const ScanStats& a, const ScanStats& b,
                     const std::string& context) {
  EXPECT_EQ(a.targets, b.targets) << context;
  EXPECT_EQ(a.deduped, b.deduped) << context;
  EXPECT_EQ(a.blocked, b.blocked) << context;
  EXPECT_EQ(a.probed, b.probed) << context;
  EXPECT_EQ(a.packets, b.packets) << context;
  EXPECT_EQ(a.hits, b.hits) << context;
  EXPECT_EQ(a.rsts, b.rsts) << context;
  EXPECT_EQ(a.unreachables, b.unreachables) << context;
  EXPECT_EQ(a.timeouts, b.timeouts) << context;
  EXPECT_EQ(a.virtual_seconds, b.virtual_seconds) << context;
  EXPECT_EQ(a.retransmissions, b.retransmissions) << context;
  EXPECT_EQ(a.backoffs, b.backoffs) << context;
  EXPECT_EQ(a.backoff_seconds, b.backoff_seconds) << context;
}

ScanResult run_stream(const ScanOptions& scan, unsigned shards,
                      std::size_t batch, const v6::probe::Blocklist* blocklist,
                      std::span<const Ipv6Addr> targets,
                      std::uint64_t* invalid = nullptr) {
  StreamScanner scanner(v6::testutil::small_universe(), blocklist,
                        StreamScanOptions{}
                            .with_shards(shards)
                            .with_batch(batch)
                            .with_scan(scan));
  ScanResult result = scanner.scan_hits(targets, ProbeType::kIcmp);
  if (invalid != nullptr) *invalid = scanner.invalid_replies();
  return result;
}

/// Scripted wire: replies from a per-address script, with optional
/// leading timeouts to exercise retry behaviour.
class ScriptedTransport final : public v6::probe::ProbeTransport {
 public:
  struct Behaviour {
    ProbeReply reply = ProbeReply::kTimeout;
    int timeouts_before_reply = 0;
  };

  void set(const Ipv6Addr& addr, ProbeReply reply, int timeouts_first = 0) {
    behaviour_[addr] = {reply, timeouts_first};
  }

  ProbeReply send(const Ipv6Addr& addr, ProbeType) override {
    ++packets_;
    ++per_addr_sends_[addr];
    const auto it = behaviour_.find(addr);
    if (it == behaviour_.end()) return ProbeReply::kTimeout;
    if (it->second.timeouts_before_reply > 0) {
      --it->second.timeouts_before_reply;
      return ProbeReply::kTimeout;
    }
    return it->second.reply;
  }

  std::uint64_t packets_sent() const override { return packets_; }
  int sends_to(const Ipv6Addr& addr) const {
    const auto it = per_addr_sends_.find(addr);
    return it == per_addr_sends_.end() ? 0 : it->second;
  }

 private:
  std::map<Ipv6Addr, Behaviour> behaviour_;
  std::map<Ipv6Addr, int> per_addr_sends_;
  std::uint64_t packets_ = 0;
};

/// A one-shard scanner whose lane talks to a copy of `script` instead of
/// the simulated universe (installed through the decorator hook).
struct ScriptedScanner {
  ScriptedScanner(const ScriptedTransport& script, const ScanOptions& scan,
                  const v6::probe::Blocklist* blocklist = nullptr)
      : scanner(v6::testutil::small_universe(), blocklist,
                StreamScanOptions{}.with_scan(scan).with_decorator(
                    [this, &script](v6::probe::ProbeTransport&, unsigned) {
                      auto owned = std::make_unique<ScriptedTransport>(script);
                      wire = owned.get();
                      return owned;
                    })) {}

  ScriptedTransport* wire = nullptr;
  StreamScanner scanner;
};

Ipv6Addr addr_n(std::uint64_t n) {
  return Ipv6Addr(0x20010db800000000ULL, n);
}

TEST(Scanner, ClassifiesReplies) {
  ScriptedTransport script;
  script.set(addr_n(1), ProbeReply::kEchoReply);
  script.set(addr_n(2), ProbeReply::kRst);
  script.set(addr_n(3), ProbeReply::kDestUnreachable);
  // addr 4: timeout.
  ScriptedScanner s(script, {.max_retries = 0, .seed = 1});
  const std::vector<Ipv6Addr> targets = {addr_n(1), addr_n(2), addr_n(3),
                                         addr_n(4)};
  const ScanStats stats = s.scanner.scan(targets, ProbeType::kIcmp, nullptr);
  EXPECT_EQ(stats.probed, 4u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.rsts, 1u);
  EXPECT_EQ(stats.unreachables, 1u);
  EXPECT_EQ(stats.timeouts, 1u);
}

TEST(Scanner, RstIsNotAHit) {
  ScriptedTransport script;
  script.set(addr_n(1), ProbeReply::kRst);
  ScriptedScanner s(script, {.seed = 1});
  const std::vector<Ipv6Addr> targets = {addr_n(1)};
  EXPECT_TRUE(s.scanner.scan_hits(targets, ProbeType::kTcp80).hits.empty());
}

TEST(Scanner, DestUnreachableIsNotAHit) {
  ScriptedTransport script;
  script.set(addr_n(1), ProbeReply::kDestUnreachable);
  ScriptedScanner s(script, {.seed = 1});
  const std::vector<Ipv6Addr> targets = {addr_n(1)};
  EXPECT_TRUE(s.scanner.scan_hits(targets, ProbeType::kIcmp).hits.empty());
}

TEST(Scanner, MismatchedPositiveReplyIsNotAHit) {
  // A SYN-ACK in response to an ICMP echo is a verification failure.
  ScriptedTransport script;
  script.set(addr_n(1), ProbeReply::kSynAck);
  ScriptedScanner s(script, {.seed = 1});
  const std::vector<Ipv6Addr> targets = {addr_n(1)};
  EXPECT_TRUE(s.scanner.scan_hits(targets, ProbeType::kIcmp).hits.empty());
}

TEST(Scanner, DeduplicatesTargets) {
  ScriptedTransport script;
  script.set(addr_n(1), ProbeReply::kEchoReply);
  ScriptedScanner s(script, {.max_retries = 0, .seed = 1});
  const std::vector<Ipv6Addr> targets = {addr_n(1), addr_n(1), addr_n(1)};
  const ScanStats stats = s.scanner.scan(targets, ProbeType::kIcmp, nullptr);
  EXPECT_EQ(stats.targets, 3u);
  EXPECT_EQ(stats.deduped, 2u);
  EXPECT_EQ(stats.probed, 1u);
  EXPECT_EQ(s.wire->sends_to(addr_n(1)), 1);
}

TEST(Scanner, RetriesRecoverLostReplies) {
  ScriptedTransport script;
  script.set(addr_n(1), ProbeReply::kEchoReply, /*timeouts_first=*/2);
  ScriptedScanner s(script, {.max_retries = 2, .seed = 1});
  const std::vector<Ipv6Addr> targets = {addr_n(1)};
  EXPECT_EQ(s.scanner.scan_hits(targets, ProbeType::kIcmp).hits.size(), 1u);
  EXPECT_EQ(s.wire->sends_to(addr_n(1)), 3);
}

TEST(Scanner, RetriesExhausted) {
  ScriptedTransport script;
  script.set(addr_n(1), ProbeReply::kEchoReply, /*timeouts_first=*/3);
  ScriptedScanner s(script, {.max_retries = 2, .seed = 1});
  const std::vector<Ipv6Addr> targets = {addr_n(1)};
  EXPECT_TRUE(s.scanner.scan_hits(targets, ProbeType::kIcmp).hits.empty());
}

TEST(Scanner, BlocklistedAddressesNeverProbed) {
  ScriptedTransport script;
  script.set(addr_n(1), ProbeReply::kEchoReply);
  v6::probe::Blocklist blocklist;
  blocklist.add(v6::net::Prefix::must_parse("2001:db8::/32"));
  ScriptedScanner s(script, {.seed = 1}, &blocklist);
  const std::vector<Ipv6Addr> targets = {addr_n(1), addr_n(2)};
  const ScanStats stats = s.scanner.scan(targets, ProbeType::kIcmp, nullptr);
  EXPECT_EQ(stats.blocked, 2u);
  EXPECT_EQ(stats.probed, 0u);
  EXPECT_EQ(s.wire->packets_sent(), 0u);
}

TEST(Scanner, ScratchReuseKeepsScansIndependent) {
  // Back-to-back scans through one scanner must dedup per call, not
  // across calls.
  ScriptedTransport script;
  script.set(addr_n(1), ProbeReply::kEchoReply);
  ScriptedScanner s(script, {.max_retries = 0, .seed = 1});
  const std::vector<Ipv6Addr> targets = {addr_n(1), addr_n(1)};
  const ScanStats first = s.scanner.scan(targets, ProbeType::kIcmp, nullptr);
  const ScanStats second = s.scanner.scan(targets, ProbeType::kIcmp, nullptr);
  EXPECT_EQ(first.probed, 1u);
  EXPECT_EQ(second.probed, 1u);
  EXPECT_EQ(first.deduped, 1u);
  EXPECT_EQ(second.deduped, 1u);
  EXPECT_EQ(s.wire->sends_to(addr_n(1)), 2);
}

TEST(Scanner, CallbackSeesEveryProbedAddress) {
  ScriptedTransport script;
  script.set(addr_n(1), ProbeReply::kEchoReply);
  ScriptedScanner s(script, {.max_retries = 0, .seed = 1});
  std::vector<Ipv6Addr> targets;
  for (std::uint64_t i = 0; i < 50; ++i) targets.push_back(addr_n(i));
  std::size_t callbacks = 0;
  s.scanner.scan(targets, ProbeType::kIcmp,
                 [&](const Ipv6Addr&, ProbeReply) { ++callbacks; });
  EXPECT_EQ(callbacks, 50u);
}

TEST(Scanner, VirtualTimeAccountsForRate) {
  // The analytic clock: packets / max_pps, plus waits (none here).
  ScriptedTransport script;
  ScriptedScanner s(script, {.max_retries = 0, .max_pps = 1000.0, .seed = 1});
  std::vector<Ipv6Addr> targets;
  for (std::uint64_t i = 0; i < 5000; ++i) targets.push_back(addr_n(i));
  const ScanStats stats = s.scanner.scan(targets, ProbeType::kIcmp, nullptr);
  EXPECT_NEAR(stats.virtual_seconds, 5.0, 0.2);
}

TEST(Scanner, DeterministicAgainstSimUniverse) {
  const auto& universe = v6::testutil::small_universe();
  std::vector<Ipv6Addr> targets;
  for (const auto& host : universe.hosts()) {
    targets.push_back(host.addr);
    if (targets.size() >= 5000) break;
  }
  auto run = [&] {
    StreamScanner scanner(universe, nullptr,
                          StreamScanOptions{}.with_scan({.seed = 77}));
    auto result = scanner.scan_hits(targets, ProbeType::kIcmp);
    return std::pair(std::move(result.hits), result.stats.packets);
  };
  const auto [hits_a, packets_a] = run();
  const auto [hits_b, packets_b] = run();
  EXPECT_EQ(hits_a, hits_b);
  EXPECT_EQ(packets_a, packets_b);
  EXPECT_FALSE(hits_a.empty());
}

TEST(StreamScannerTest, BitIdenticalAcrossShardCountsAndOptions) {
  struct Variant {
    std::string name;
    ScanOptions scan;
  };
  const std::vector<Variant> variants = {
      {"default", ScanOptions{}.with_seed(1)},
      {"retries", ScanOptions{}.with_seed(7).with_retries(3)},
      {"robust", ScanOptions{}
                     .with_seed(11)
                     .with_retries(2)
                     .with_probe_timeout(0.05)
                     .with_retry_backoff(0.1, /*jitter=*/0.5)},
  };
  const std::vector<Ipv6Addr> targets = mixed_targets(/*seed=*/99, 600);
  for (const Variant& variant : variants) {
    std::uint64_t invalid = 0;
    const ScanResult reference = run_stream(variant.scan, 1, 64, nullptr,
                                            targets, &invalid);
    EXPECT_EQ(invalid, 0u) << variant.name;
    EXPECT_GT(reference.stats.probed, 0u) << variant.name;
    EXPECT_GT(reference.stats.hits, 0u) << variant.name;
    EXPECT_GT(reference.stats.deduped, 0u) << variant.name;
    for (const unsigned shards : {2u, 3u, 4u}) {
      // A batch size that does not divide the target count exercises the
      // heartbeat cadence's tail.
      const ScanResult result = run_stream(variant.scan, shards, 37, nullptr,
                                           targets, &invalid);
      EXPECT_EQ(invalid, 0u) << variant.name;
      const std::string context =
          variant.name + " shards=" + std::to_string(shards);
      EXPECT_EQ(result.hits, reference.hits) << context;
      expect_stats_eq(result.stats, reference.stats, context);
    }
  }
}

TEST(StreamScannerTest, CallbackOrderIsCanonicalAcrossShardCounts) {
  const std::vector<Ipv6Addr> targets = mixed_targets(/*seed=*/5, 400);
  const ScanOptions scan = ScanOptions{}.with_seed(21);
  using Event = std::pair<Ipv6Addr, ProbeReply>;
  auto collect = [&](unsigned shards) {
    std::vector<Event> events;
    StreamScanner scanner(
        v6::testutil::small_universe(), nullptr,
        StreamScanOptions{}.with_shards(shards).with_scan(scan));
    scanner.scan(targets, ProbeType::kIcmp,
                 [&](const Ipv6Addr& addr, ProbeReply reply) {
                   events.emplace_back(addr, reply);
                 });
    return events;
  };
  const std::vector<Event> one = collect(1);
  const std::vector<Event> three = collect(3);
  ASSERT_FALSE(one.empty());
  EXPECT_EQ(one, three);
}

TEST(StreamScannerTest, BlocklistSkipsWithoutProbing) {
  const auto& universe = v6::testutil::small_universe();
  const auto hosts = universe.hosts();
  v6::probe::Blocklist blocklist;
  blocklist.add(v6::net::Prefix(hosts[0].addr, 32));
  const std::vector<Ipv6Addr> targets = mixed_targets(/*seed=*/17, 500);
  for (const unsigned shards : {1u, 3u}) {
    std::vector<Ipv6Addr> seen;
    StreamScanner scanner(
        universe, &blocklist,
        StreamScanOptions{}.with_shards(shards).with_scan(
            ScanOptions{}.with_seed(2)));
    const ScanStats stats =
        scanner.scan(targets, ProbeType::kIcmp,
                     [&](const Ipv6Addr& addr, ProbeReply) {
                       seen.push_back(addr);
                     });
    EXPECT_GT(stats.blocked, 0u);
    EXPECT_EQ(stats.probed + stats.blocked + stats.deduped, stats.targets);
    EXPECT_EQ(seen.size(), stats.probed);
    for (const Ipv6Addr& addr : seen) {
      EXPECT_FALSE(blocklist.blocked(addr));
    }
  }
}

TEST(StreamScannerTest, TelemetryCountersAreShardInvariant) {
  const std::vector<Ipv6Addr> targets = mixed_targets(/*seed=*/13, 400);
  auto run_with_telemetry = [&](unsigned shards) {
    v6::obs::Telemetry telemetry;
    StreamScanner scanner(
        v6::testutil::small_universe(), nullptr,
        StreamScanOptions{}.with_shards(shards).with_scan(
            ScanOptions{}.with_seed(6).with_retries(2).with_telemetry(
                &telemetry)));
    scanner.scan_hits(targets, ProbeType::kIcmp);
    scanner.flush_telemetry();
    return telemetry.registry().snapshot();
  };
  const v6::obs::Report one = run_with_telemetry(1);
  const v6::obs::Report three = run_with_telemetry(3);
  EXPECT_GT(one.counter_value("scanner.probed"), 0u);
  EXPECT_EQ(one.counters, three.counters);
  // `.wall` gauges (the scan's wall duration) are host time by
  // definition and exempt from shard invariance. Everything else must
  // match.
  const auto drop_wall = [](const std::map<std::string, std::int64_t>& in) {
    std::map<std::string, std::int64_t> out;
    for (const auto& [name, value] : in) {
      if (name.size() >= 5 &&
          name.compare(name.size() - 5, 5, ".wall") == 0) {
        continue;
      }
      out.emplace(name, value);
    }
    return out;
  };
  EXPECT_EQ(drop_wall(one.gauges), drop_wall(three.gauges));
  // Both modes publish the wall duration.
  EXPECT_TRUE(one.gauges.count("stream.scan.wall_nanos.wall"));
  EXPECT_TRUE(three.gauges.count("stream.scan.wall_nanos.wall"));
}

TEST(StreamScannerTest, FlushTelemetryIsIdempotent) {
  const std::vector<Ipv6Addr> targets = mixed_targets(/*seed=*/13, 200);
  v6::obs::Telemetry telemetry;
  StreamScanner scanner(
      v6::testutil::small_universe(), nullptr,
      StreamScanOptions{}.with_shards(2).with_scan(
          ScanOptions{}.with_seed(6).with_retries(2).with_telemetry(
              &telemetry)));
  scanner.scan_hits(targets, ProbeType::kIcmp);
  scanner.flush_telemetry();
  const v6::obs::Report once = telemetry.registry().snapshot();
  scanner.flush_telemetry();  // second flush must not double-count
  const v6::obs::Report twice = telemetry.registry().snapshot();
  EXPECT_EQ(once.counters, twice.counters);
}

TEST(StreamScannerTest, StatsAreInternallyConsistent) {
  const std::vector<Ipv6Addr> targets = mixed_targets(/*seed=*/23, 300);
  const ScanResult result =
      run_stream(ScanOptions{}.with_seed(9).with_retries(2), 3, 50, nullptr,
                 targets);
  const ScanStats& s = result.stats;
  EXPECT_EQ(s.targets, targets.size());
  EXPECT_EQ(s.deduped + s.blocked + s.probed, s.targets);
  EXPECT_EQ(s.hits + s.rsts + s.unreachables + s.timeouts, s.probed);
  EXPECT_EQ(s.hits, result.hits.size());
  EXPECT_GE(s.packets, s.probed);
  EXPECT_GT(s.virtual_seconds, 0.0);
}

TEST(StreamScannerTest, EveryScanLoopBeatsAndDisarmsItsHeartbeat) {
  const std::vector<Ipv6Addr> targets = mixed_targets(/*seed=*/29, 400);
  v6::obs::StallWatchdog watchdog;  // never started: beats only
  StreamScanner scanner(v6::testutil::small_universe(), nullptr,
                        StreamScanOptions{}
                            .with_shards(3)
                            .with_batch(16)
                            .with_scan(ScanOptions{}.with_seed(8))
                            .with_watchdog(&watchdog));
  scanner.scan_hits(targets, ProbeType::kIcmp);
  // The probers' loops and the caller's merge loop; nothing else.
  std::set<std::string> names;
  for (const auto& stage : watchdog.status()) {
    names.insert(stage.name);
    EXPECT_GT(stage.beats, 0u) << stage.name;
    EXPECT_FALSE(stage.armed) << stage.name;
  }
  EXPECT_EQ(names, (std::set<std::string>{"stream.prober.0", "stream.prober.1",
                                          "stream.prober.2", "stream.scan"}));
}

TEST(ProbeAuthTest, TokenValidatesOnlyItsOwnAddressAndSeed) {
  using v6::probe::probe_auth_key;
  using v6::probe::probe_token_keyed;
  const Ipv6Addr addr = Ipv6Addr::must_parse("2001:db8::42");
  const Ipv6Addr other = Ipv6Addr::must_parse("2001:db8::43");
  const std::uint64_t token = probe_token_keyed(addr, probe_auth_key(5));
  EXPECT_NE(token, probe_token_keyed(other, probe_auth_key(5)));
  EXPECT_NE(token, probe_token_keyed(addr, probe_auth_key(6)));
  // Pure function: recomputable by any holder of the seed.
  EXPECT_EQ(token, probe_token_keyed(addr, probe_auth_key(5)));
}

}  // namespace
