// Golden regression test for the sharded streaming scan under faults and
// adaptive backoff: pins, for S in {2, 3}, what each shard's lane sees.
//
// Fault injectors, rate-limiter slices and adaptive timeout streaks are
// per-shard state, so these runs are per-shard deterministic but NOT
// shard-count-invariant (docs/SCANNER.md). The cross-shard bit-identity
// suite (tests/probe/stream_scanner_test.cc) therefore cannot see a lane
// being fed a different target sequence; this file can. Two runs per
// shard count:
//
//   pipeline — run_tga with faults (base loss + a per-/32 rate limit),
//              retries, probe timeout, jittered backoff and adaptive
//              backoff, over an online TGA whose feedback depends on
//              the reply order;
//   scanner  — a bare StreamScanner with retries, a blocklist and
//              adaptive backoff, recording the reply callback sequence.
//
// Update procedure (only when an intentional behavior change lands):
//
//   V6_UPDATE_GOLDEN=1 ./build/tests/golden_stream_shards_test
//
// rewrites tests/golden/golden_stream_shards.txt in the source tree;
// review the diff and say WHY the lanes moved in the commit message.
// Doubles are printed as %.17g, so the comparison is bit-exact.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "experiment/pipeline.h"
#include "experiment/workbench.h"
#include "fault/fault_plan.h"
#include "net/ipv6.h"
#include "net/prefix.h"
#include "net/rng.h"
#include "obs/registry.h"
#include "obs/telemetry.h"
#include "probe/blocklist.h"
#include "probe/stream_scanner.h"
#include "tga/registry.h"

#ifndef V6_GOLDEN_DIR
#error "V6_GOLDEN_DIR must point at the checked-in golden directory"
#endif

namespace v6::experiment {
namespace {

using v6::net::Ipv6Addr;
using v6::net::ProbeReply;
using v6::net::ProbeType;

constexpr const char* kGoldenPath = V6_GOLDEN_DIR "/golden_stream_shards.txt";

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Order-sensitive splitmix64 fold.
struct Digest {
  std::uint64_t state = 0x5EED5EED5EED5EEDULL;
  void add(std::uint64_t v) { state = v6::net::splitmix64(state ^ v); }
  void add(const Ipv6Addr& a) {
    add(a.hi());
    add(a.lo());
  }
  std::string hex() const {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(state));
    return buf;
  }
};

/// The small dedicated workbench the other goldens use, built once.
Workbench& reference_bench() {
  static Workbench bench([] {
    WorkbenchConfig wb;
    wb.seed = 404;
    wb.universe.seed = 404;
    wb.universe.num_ases = 150;
    wb.universe.host_scale = 0.12;
    wb.universe.dense_region_prefix_len = 52;
    return wb;
  }());
  return bench;
}

void write_stats(std::ostringstream& out, const v6::probe::ScanStats& s) {
  out << "targets: " << s.targets << "\n";
  out << "deduped: " << s.deduped << "\n";
  out << "blocked: " << s.blocked << "\n";
  out << "probed: " << s.probed << "\n";
  out << "packets: " << s.packets << "\n";
  out << "hits: " << s.hits << "\n";
  out << "rsts: " << s.rsts << "\n";
  out << "unreachables: " << s.unreachables << "\n";
  out << "timeouts: " << s.timeouts << "\n";
  out << "virtual_seconds: " << fmt_double(s.virtual_seconds) << "\n";
  out << "retransmissions: " << s.retransmissions << "\n";
  out << "backoffs: " << s.backoffs << "\n";
  out << "backoff_seconds: " << fmt_double(s.backoff_seconds) << "\n";
}

/// run_tga through the sharded engine with every per-lane mechanism on.
/// ScanStats reach the output through the run's scanner.* counters
/// (their per-scan sums), next to the fault-plane tallies.
void serialize_pipeline(std::ostringstream& out, unsigned shards,
                        v6::tga::TgaKind kind) {
  Workbench& bench = reference_bench();
  const v6::net::Prefix any(Ipv6Addr{}, 0);
  const v6::fault::FaultPlan plan =
      v6::fault::FaultPlan{}.with_base_loss(0.1).with_rate_limit(
          any, /*rate=*/40.0, /*burst=*/8.0, /*bucket_prefix_len=*/32);
  v6::obs::Telemetry telemetry;
  const PipelineConfig config = PipelineConfig{}
                                    .with_budget(8'000)
                                    .with_batch_size(2'000)
                                    .with_seed(77)
                                    .with_shards(static_cast<int>(shards))
                                    .with_faults(&plan)
                                    .with_scan_retries(2)
                                    .with_probe_timeout(0.01)
                                    .with_retry_backoff(0.02, /*jitter=*/0.5)
                                    .with_adaptive_backoff(4, 0.05)
                                    .with_telemetry(&telemetry);
  auto generator = v6::tga::make_generator(kind);
  const v6::metrics::ScanOutcome outcome =
      run_tga(bench.universe(), *generator, bench.all_active(),
              bench.alias_list(), config);

  std::vector<Ipv6Addr> hits(outcome.hit_set.begin(), outcome.hit_set.end());
  std::sort(hits.begin(), hits.end());
  Digest digest;
  for (const Ipv6Addr& a : hits) digest.add(a);

  out << "run: pipeline " << v6::tga::to_string(kind)
      << " shards=" << shards << "\n";
  out << "generated: " << outcome.generated << "\n";
  out << "unique_generated: " << outcome.unique_generated << "\n";
  out << "responsive: " << outcome.responsive << "\n";
  out << "aliases: " << outcome.aliases << "\n";
  out << "dense_filtered: " << outcome.dense_filtered << "\n";
  out << "packets: " << outcome.packets << "\n";
  out << "virtual_seconds: " << fmt_double(outcome.virtual_seconds) << "\n";
  out << "hits: " << outcome.hits() << "\n";
  out << "ases: " << outcome.ases() << "\n";
  out << "hits_digest: " << digest.hex() << "\n";
  const v6::obs::Report report = telemetry.registry().snapshot();
  for (const auto& [name, value] : report.counters) {
    if (name.rfind("scanner.", 0) != 0 && name.rfind("fault.", 0) != 0) {
      continue;
    }
    out << "counter " << name << ": " << value << "\n";
  }
}

/// A bare sharded StreamScanner: real hosts plus random addresses in one
/// /40 (timeout streaks for the adaptive loop), with duplicates and a
/// blocklisted /44.
void serialize_scanner(std::ostringstream& out, unsigned shards) {
  const v6::simnet::Universe& universe = reference_bench().universe();
  const auto hosts = universe.hosts();
  std::vector<Ipv6Addr> targets;
  for (std::size_t i = 0; i < 3'000; ++i) {
    targets.push_back(hosts[(i * 7) % hosts.size()].addr);
  }
  v6::net::Rng rng = v6::net::make_rng(/*seed=*/505, /*tag=*/0x601D);
  const v6::net::Prefix scope(hosts[0].addr, 40);
  for (std::size_t i = 0; i < 3'000; ++i) {
    const std::uint64_t lo = rng();
    const std::uint64_t hi =
        scope.addr().hi() | (static_cast<std::uint64_t>(rng()) & 0xFFFFFFULL);
    targets.push_back(Ipv6Addr(hi, lo));
  }
  for (std::size_t i = 0; i < 500; ++i) targets.push_back(targets[i * 3]);
  v6::probe::Blocklist blocklist;
  blocklist.add(v6::net::Prefix(hosts[hosts.size() / 2].addr, 44));

  v6::probe::StreamScanner scanner(
      universe, &blocklist,
      v6::probe::StreamScanOptions{}.with_shards(shards).with_scan(
          v6::probe::ScanOptions{}
              .with_seed(91)
              .with_retries(2)
              .with_probe_timeout(0.01)
              .with_retry_backoff(0.02, /*jitter=*/0.25)
              .with_adaptive_backoff(3, 0.04, /*prefix_len=*/40)));
  Digest replies;
  Digest hits;
  const v6::probe::ScanStats stats = scanner.scan(
      targets, ProbeType::kIcmp, [&](const Ipv6Addr& addr, ProbeReply reply) {
        replies.add(addr);
        replies.add(static_cast<std::uint64_t>(reply));
        if (v6::net::is_hit(ProbeType::kIcmp, reply)) hits.add(addr);
      });

  out << "run: scanner shards=" << shards << "\n";
  write_stats(out, stats);
  out << "invalid_replies: " << scanner.invalid_replies() << "\n";
  out << "reply_digest: " << replies.hex() << "\n";
  out << "hits_digest: " << hits.hex() << "\n";
}

std::string serialize_reference() {
  std::ostringstream out;
  out << "# golden stream shards v1 (see test header for the update "
         "procedure)\n";
  for (const unsigned shards : {2u, 3u}) {
    serialize_pipeline(out, shards, v6::tga::TgaKind::kSixTree);
    serialize_pipeline(out, shards, v6::tga::TgaKind::kSixHit);
    serialize_scanner(out, shards);
  }
  return out.str();
}

TEST(GoldenStreamShards, FaultedLanesMatchCheckedInGolden) {
  const std::string actual = serialize_reference();

  if (std::getenv("V6_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenPath, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << kGoldenPath;
    out << actual;
    GTEST_SKIP() << "golden updated: " << kGoldenPath
                 << " — review and commit the diff";
  }

  std::ifstream in(kGoldenPath, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << kGoldenPath
                  << "; run with V6_UPDATE_GOLDEN=1 to create it";
  std::ostringstream expected;
  expected << in.rdbuf();

  if (actual == expected.str()) return;
  std::istringstream actual_lines(actual), expected_lines(expected.str());
  std::string a, e;
  std::size_t line = 0;
  while (true) {
    ++line;
    const bool more_a = static_cast<bool>(std::getline(actual_lines, a));
    const bool more_e = static_cast<bool>(std::getline(expected_lines, e));
    if (!more_a && !more_e) break;
    ASSERT_EQ(more_a, more_e) << "golden and actual diverge in length at line "
                              << line;
    ASSERT_EQ(a, e) << "first golden mismatch at line " << line
                    << " (update procedure: see test header)";
  }
  FAIL() << "golden mismatch";  // unreachable: the loop pinpoints it
}

}  // namespace
}  // namespace v6::experiment
