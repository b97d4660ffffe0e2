// Tests for the incremental TGA adapter (src/service/incremental_tga.h):
// which deltas fold in place (6Hit's absorb_seeds) vs force a full
// retrain (removals, models without incremental support), the merged
// seed-list bookkeeping, and the emitted-set preservation that makes
// the incremental path worth having — an absorbed delta must not cause
// the generator to re-emit candidates it already produced.
#include "service/incremental_tga.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "net/ipv6.h"
#include "simnet/universe.h"
#include "testutil/fixtures.h"
#include "tga/registry.h"

namespace {

using v6::net::Ipv6Addr;
using v6::service::IncrementalTargetGenerator;
using v6::service::SeedDelta;
using v6::tga::TgaKind;

/// A deterministic slice of the shared universe's hosts: realistic
/// prefix structure, no synthetic-address corner cases.
std::vector<Ipv6Addr> universe_seeds(std::size_t skip, std::size_t count) {
  const auto& hosts = v6::testutil::small_universe().hosts();
  std::vector<Ipv6Addr> seeds;
  seeds.reserve(count);
  for (std::size_t i = skip; i < hosts.size() && seeds.size() < count; ++i) {
    seeds.push_back(hosts[i].addr);
  }
  return seeds;
}

TEST(IncrementalTga, SixHitAbsorbsAdditionOnlyDeltas) {
  IncrementalTargetGenerator tga(TgaKind::kSixHit, /*rng_seed=*/7);
  tga.prepare(universe_seeds(0, 200));

  SeedDelta delta;
  delta.added = universe_seeds(200, 40);
  tga.ingest(delta);

  EXPECT_EQ(tga.incremental_updates(), 1u);
  EXPECT_EQ(tga.full_rebuilds(), 0u);
  EXPECT_EQ(tga.seeds().size(), 240u);
}

TEST(IncrementalTga, ModelsWithoutIncrementalSupportFallBackToRebuild) {
  IncrementalTargetGenerator tga(TgaKind::kDet, /*rng_seed=*/7);
  tga.prepare(universe_seeds(0, 200));

  SeedDelta delta;
  delta.added = universe_seeds(200, 40);
  tga.ingest(delta);

  EXPECT_EQ(tga.incremental_updates(), 0u);
  EXPECT_EQ(tga.full_rebuilds(), 1u);
  EXPECT_EQ(tga.seeds().size(), 240u);
}

TEST(IncrementalTga, RemovalsAlwaysForceARebuild) {
  IncrementalTargetGenerator tga(TgaKind::kSixHit, /*rng_seed=*/7);
  const std::vector<Ipv6Addr> seeds = universe_seeds(0, 200);
  tga.prepare(seeds);

  SeedDelta delta;
  delta.removed = {seeds[0], seeds[1]};
  delta.added = universe_seeds(200, 10);  // rides along in the retrain
  tga.ingest(delta);

  EXPECT_EQ(tga.incremental_updates(), 0u);
  EXPECT_EQ(tga.full_rebuilds(), 1u);
  EXPECT_EQ(tga.seeds().size(), 208u);
  const auto merged = tga.seeds();
  EXPECT_EQ(std::find(merged.begin(), merged.end(), seeds[0]), merged.end());
}

TEST(IncrementalTga, DuplicateAdditionsAndUnknownRemovalsAreNoOps) {
  IncrementalTargetGenerator tga(TgaKind::kSixHit, /*rng_seed=*/7);
  const std::vector<Ipv6Addr> seeds = universe_seeds(0, 200);
  tga.prepare(seeds);

  SeedDelta delta;
  delta.added = {seeds[3], seeds[4]};               // already known
  delta.removed = {universe_seeds(500, 1).front()};  // never a seed
  tga.ingest(delta);

  EXPECT_EQ(tga.incremental_updates(), 0u);
  EXPECT_EQ(tga.full_rebuilds(), 0u);
  EXPECT_EQ(tga.seeds().size(), 200u);

  tga.ingest(SeedDelta{});  // literally empty
  EXPECT_EQ(tga.incremental_updates(), 0u);
  EXPECT_EQ(tga.full_rebuilds(), 0u);
}

TEST(IncrementalTga, RepeatedAdditionWithinOneDeltaIsIngestedOnce) {
  IncrementalTargetGenerator tga(TgaKind::kSixTree, /*rng_seed=*/7);
  tga.prepare(universe_seeds(0, 64));

  const Ipv6Addr fresh = universe_seeds(300, 1).front();
  SeedDelta delta;
  delta.added = {fresh, fresh};
  tga.ingest(delta);

  const auto seeds = tga.seeds();
  EXPECT_EQ(seeds.size(), 65u);
  EXPECT_EQ(std::count(seeds.begin(), seeds.end(), fresh), 1);
}

TEST(IncrementalTga, PrepareResetsTheIngestStatistics) {
  IncrementalTargetGenerator tga(TgaKind::kSixHit, /*rng_seed=*/7);
  tga.prepare(universe_seeds(0, 200));
  SeedDelta delta;
  delta.added = universe_seeds(200, 20);
  tga.ingest(delta);
  ASSERT_EQ(tga.incremental_updates(), 1u);

  tga.prepare(universe_seeds(0, 100));
  EXPECT_EQ(tga.incremental_updates(), 0u);
  EXPECT_EQ(tga.full_rebuilds(), 0u);
  EXPECT_EQ(tga.seeds().size(), 100u);
}

// The point of absorb_seeds: the emitted set survives the delta, so
// candidates generated before the ingest are never produced again
// after it. (A full retrain wipes the emitted set — that is exactly
// the re-probing waste the incremental path avoids.)
TEST(IncrementalTga, AbsorbedDeltasDoNotCauseReEmission) {
  IncrementalTargetGenerator tga(TgaKind::kSixHit, /*rng_seed=*/7);
  tga.prepare(universe_seeds(0, 200));

  const std::vector<Ipv6Addr> before = tga.generator().next_batch(500);
  ASSERT_FALSE(before.empty());

  SeedDelta delta;
  delta.added = universe_seeds(200, 40);
  tga.ingest(delta);
  ASSERT_EQ(tga.incremental_updates(), 1u);

  const std::vector<Ipv6Addr> after = tga.generator().next_batch(500);
  const std::unordered_set<Ipv6Addr, v6::net::Ipv6AddrHash> seen(
      before.begin(), before.end());
  for (const Ipv6Addr& addr : after) {
    EXPECT_FALSE(seen.contains(addr))
        << "re-emitted a candidate from before the ingest";
  }
}

}  // namespace
