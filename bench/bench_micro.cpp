// Microbenchmarks (google-benchmark): throughput of the primitives the
// experiment pipeline is built from — address parse/format, LPM trie,
// universe probing, space-tree construction, per-TGA model building and
// generation (at 5,000 seeds and at the sweep's 250,000), and the scanner
// loop.
#include <benchmark/benchmark.h>

#include <vector>

#include "dealias/online_dealiaser.h"
#include "experiment/workbench.h"
#include "net/addr_index.h"
#include "net/ipv6.h"
#include "net/prefix_trie.h"
#include "net/rng.h"
#include "obs/telemetry.h"
#include "probe/stateless_transport.h"
#include "probe/stream_scanner.h"
#include "simnet/universe_builder.h"
#include "tga/registry.h"
#include "tga/space_tree.h"

namespace {

using v6::net::Ipv6Addr;

/// Small, fast-to-build universe shared across benchmarks.
const v6::simnet::Universe& small_universe() {
  static const v6::simnet::Universe universe = [] {
    v6::simnet::UniverseConfig config;
    config.seed = 7;
    config.num_ases = 300;
    config.host_scale = 0.1;
    return v6::simnet::UniverseBuilder::build(config);
  }();
  return universe;
}

std::vector<Ipv6Addr> sample_seeds(std::size_t n) {
  const auto hosts = small_universe().hosts();
  std::vector<Ipv6Addr> seeds;
  seeds.reserve(n);
  const std::size_t stride = std::max<std::size_t>(1, hosts.size() / n);
  for (std::size_t i = 0; i < hosts.size() && seeds.size() < n; i += stride) {
    seeds.push_back(hosts[i].addr);
  }
  return seeds;
}

void BM_Ipv6Parse(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Ipv6Addr::parse("2001:db8:85a3::8a2e:370:7334"));
  }
}
BENCHMARK(BM_Ipv6Parse);

void BM_Ipv6Format(benchmark::State& state) {
  const Ipv6Addr addr = Ipv6Addr::must_parse("2001:db8:85a3::8a2e:370:7334");
  for (auto _ : state) {
    benchmark::DoNotOptimize(addr.to_string());
  }
}
BENCHMARK(BM_Ipv6Format);

void BM_TrieLongestMatch(benchmark::State& state) {
  v6::net::PrefixTrie<std::uint32_t> trie;
  v6::net::Rng rng(1);
  for (int i = 0; i < 10'000; ++i) {
    const Ipv6Addr a(rng(), 0);
    trie.insert(v6::net::Prefix(a, 32 + static_cast<int>(rng() % 17)),
                static_cast<std::uint32_t>(i));
  }
  Ipv6Addr probe(rng(), rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(trie.longest_match(probe));
    probe = Ipv6Addr(probe.hi() + 0x100000000ULL, probe.lo());
  }
}
BENCHMARK(BM_TrieLongestMatch);

void BM_AddrIndexFind(benchmark::State& state) {
  // The lookup behind Universe::probe: half the queries hit, half miss.
  v6::net::AddrIndexMap map;
  v6::net::Rng rng(5);
  std::vector<Ipv6Addr> queries;
  for (std::uint32_t i = 0; i < 100'000; ++i) {
    const Ipv6Addr addr(rng(), rng());
    map.insert(addr, i);
    queries.push_back((i % 2) == 0 ? addr : Ipv6Addr(rng(), rng()));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.find(queries[i % queries.size()]));
    ++i;
  }
}
BENCHMARK(BM_AddrIndexFind);

void BM_UniverseProbe(benchmark::State& state) {
  const auto& universe = small_universe();
  v6::net::Rng rng(2);
  const auto hosts = universe.hosts();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(universe.probe(
        hosts[i % hosts.size()].addr, v6::net::ProbeType::kIcmp, rng));
    ++i;
  }
}
BENCHMARK(BM_UniverseProbe);

/// `n` addresses spread evenly over the default Workbench's full seed
/// list — the All row of the paper sweep (253,686 seeds), so that at the
/// largest size the TGAs see the region counts the sweep gives them.
std::vector<Ipv6Addr> sweep_seeds(std::size_t n) {
  static v6::experiment::Workbench bench;
  const auto& full = bench.full();
  std::vector<Ipv6Addr> seeds;
  seeds.reserve(n);
  const std::size_t stride = std::max<std::size_t>(1, full.size() / n);
  for (std::size_t i = 0; i < full.size() && seeds.size() < n; i += stride) {
    seeds.push_back(full[i]);
  }
  return seeds;
}

/// Args: split policy (0 leftmost, 1 min-entropy), seed count.
void BM_SpaceTreeBuild(benchmark::State& state) {
  const auto policy = state.range(0) == 0 ? v6::tga::SplitPolicy::kLeftmost
                                          : v6::tga::SplitPolicy::kMinEntropy;
  const auto seeds = sweep_seeds(static_cast<std::size_t>(state.range(1)));
  state.SetLabel(state.range(0) == 0 ? "leftmost" : "min-entropy");
  for (auto _ : state) {
    v6::tga::SpaceTree tree(seeds, {.policy = policy});
    benchmark::DoNotOptimize(tree.regions().size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(seeds.size()));
}
BENCHMARK(BM_SpaceTreeBuild)
    ->ArgsProduct({{0, 1}, {10'000, 250'000}})
    ->Unit(benchmark::kMillisecond);

/// Args: TGA index, seed count.
void BM_TgaPrepare(benchmark::State& state) {
  const auto kind =
      v6::tga::kAllTgas[static_cast<std::size_t>(state.range(0))];
  const auto seeds = sweep_seeds(static_cast<std::size_t>(state.range(1)));
  auto generator = v6::tga::make_generator(kind);
  state.SetLabel(std::string(v6::tga::to_string(kind)));
  for (auto _ : state) {
    generator->prepare(seeds, 11);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(seeds.size()));
}
BENCHMARK(BM_TgaPrepare)
    ->ArgsProduct({benchmark::CreateDenseRange(0, v6::tga::kNumTgas - 1, 1),
                   {5'000, 250'000}})
    ->Unit(benchmark::kMillisecond);

/// Args: TGA index, seed count.
void BM_TgaGenerate(benchmark::State& state) {
  const auto kind =
      v6::tga::kAllTgas[static_cast<std::size_t>(state.range(0))];
  const auto seeds = sweep_seeds(static_cast<std::size_t>(state.range(1)));
  auto generator = v6::tga::make_generator(kind);
  generator->prepare(seeds, 11);
  state.SetLabel(std::string(v6::tga::to_string(kind)));
  for (auto _ : state) {
    auto batch = generator->next_batch(1024);
    benchmark::DoNotOptimize(batch.size());
    if (batch.empty()) {
      state.PauseTiming();
      generator->prepare(seeds, 11);
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_TgaGenerate)
    ->ArgsProduct({benchmark::CreateDenseRange(0, v6::tga::kNumTgas - 1, 1),
                   {5'000, 250'000}});

void BM_ScannerScan(benchmark::State& state) {
  const auto& universe = small_universe();
  const auto targets = sample_seeds(4096);
  v6::probe::StreamScanner scanner(
      universe, nullptr, v6::probe::StreamScanOptions{}.with_scan({.seed = 3}));
  for (auto _ : state) {
    auto result = scanner.scan_hits(targets, v6::net::ProbeType::kIcmp);
    benchmark::DoNotOptimize(result.hits.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(targets.size()));
}
BENCHMARK(BM_ScannerScan);

// The instrumented-but-unsinked hot path: scanner telemetry attached
// (which puts a CountingTransport in the lane), no event sink. The delta vs
// BM_ScannerScan is the per-packet observability overhead. Two tiers
// (docs/OBSERVABILITY.md, "Cost model"): sinkless spans + scalar
// counter tallies stay under the <2% bar; this bench additionally pays
// full per-reply wire accounting (RTT hash + histogram record) on every
// packet, because seed targets nearly all reply — that upper-bounds the
// wire-accounting cost at ~18ns/reply (~8% here). Timeout-heavy real
// scans pay it only on the replying fraction. Measure with
// --benchmark_repetitions and compare minima: shared-box noise (±15%)
// swamps single runs.
void BM_ScannerScanInstrumented(benchmark::State& state) {
  const auto& universe = small_universe();
  const auto targets = sample_seeds(4096);
  v6::obs::Telemetry telemetry;
  v6::probe::StreamScanner scanner(
      universe, nullptr,
      v6::probe::StreamScanOptions{}.with_scan(
          {.seed = 3, .telemetry = &telemetry}));
  for (auto _ : state) {
    auto result = scanner.scan_hits(targets, v6::net::ProbeType::kIcmp);
    benchmark::DoNotOptimize(result.hits.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(targets.size()));
}
BENCHMARK(BM_ScannerScanInstrumented);

void BM_OnlineDealiaser(benchmark::State& state) {
  const auto& universe = small_universe();
  v6::probe::StatelessSimTransport transport(universe, 4);
  const auto targets = sample_seeds(4096);
  std::size_t i = 0;
  v6::dealias::OnlineDealiaser dealiaser(transport, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dealiaser.is_aliased(
        targets[i % targets.size()], v6::net::ProbeType::kIcmp));
    ++i;
  }
}
BENCHMARK(BM_OnlineDealiaser);

}  // namespace

BENCHMARK_MAIN();
