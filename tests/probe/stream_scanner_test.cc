// StreamScanner (probe/stream_scanner.h) determinism contract: the
// shard-merged ScanResult is bit-identical across shard counts and
// seeds, reply callbacks fire in the canonical cycle-position order,
// the blocklist and dedup paths match the batch engine's pre-wire
// accounting, and stateless probe validation (probe_auth.h) never
// rejects a legitimate simulated reply. Labeled shard + concurrency so
// the tsan preset exercises the sharded probers.
#include "probe/stream_scanner.h"

#include <cstdint>
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
#include "probe/scanner.h"
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

TEST(StreamScannerTest, AgreesWithBatchEngineOnPreWireAccounting) {
  const auto& universe = v6::testutil::small_universe();
  const std::vector<Ipv6Addr> targets = mixed_targets(/*seed=*/31, 500);
  const ScanOptions scan = ScanOptions{}.with_seed(4);
  v6::probe::SimTransport wire(universe, scan.seed);
  v6::probe::Scanner batch(wire, nullptr, scan);
  const ScanResult batch_result = batch.scan_hits(targets, ProbeType::kIcmp);
  const ScanResult stream_result =
      run_stream(scan, 2, 64, nullptr, targets);
  // The engines share dedup/blocklist/admission; reply streams differ
  // (sequential mt19937 vs per-(addr, attempt) splitmix64), so hit
  // counts are NOT compared.
  EXPECT_EQ(stream_result.stats.targets, batch_result.stats.targets);
  EXPECT_EQ(stream_result.stats.deduped, batch_result.stats.deduped);
  EXPECT_EQ(stream_result.stats.blocked, batch_result.stats.blocked);
  EXPECT_EQ(stream_result.stats.probed, batch_result.stats.probed);
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
  const Ipv6Addr addr = Ipv6Addr::must_parse("2001:db8::42");
  const Ipv6Addr other = Ipv6Addr::must_parse("2001:db8::43");
  const std::uint64_t token = v6::probe::probe_token(addr, /*seed=*/5);
  EXPECT_TRUE(v6::probe::validate_probe(addr, 5, token));
  EXPECT_FALSE(v6::probe::validate_probe(other, 5, token));
  EXPECT_FALSE(v6::probe::validate_probe(addr, 6, token));
  EXPECT_FALSE(v6::probe::validate_probe(addr, 5, token ^ 1));
  // Pure function: recomputable by any holder of the seed.
  EXPECT_EQ(token, v6::probe::probe_token(addr, 5));
}

}  // namespace
