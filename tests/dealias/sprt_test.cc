#include "dealias/sprt_dealiaser.h"

#include <gtest/gtest.h>

#include "dealias/online_dealiaser.h"

#include "net/rng.h"
#include "probe/stateless_transport.h"
#include "testutil/fixtures.h"

namespace v6::dealias {
namespace {

using v6::net::Ipv6Addr;
using v6::net::ProbeType;
using v6::testutil::small_universe;

TEST(SprtDealiaser, DetectsPlainAliasRegions) {
  v6::probe::StatelessSimTransport transport(small_universe(), 11);
  SprtDealiaser dealiaser(transport, 11);
  v6::net::Rng rng(1);
  int tested = 0;
  for (const auto& region : small_universe().alias_regions()) {
    if (region.rate_limited ||
        !v6::net::has_service(region.services, ProbeType::kIcmp)) {
      continue;
    }
    const Ipv6Addr addr = v6::net::random_in_prefix(rng, region.prefix);
    EXPECT_TRUE(dealiaser.is_aliased(addr, ProbeType::kIcmp))
        << region.prefix.to_string();
    if (++tested >= 20) break;
  }
  EXPECT_GT(tested, 0);
}

TEST(SprtDealiaser, CleanSpaceNotFlagged) {
  v6::probe::StatelessSimTransport transport(small_universe(), 12);
  SprtDealiaser dealiaser(transport, 12);
  int tested = 0;
  for (const auto& host : small_universe().hosts()) {
    if (small_universe().is_aliased(host.addr)) continue;
    EXPECT_FALSE(dealiaser.is_aliased(host.addr, ProbeType::kIcmp))
        << host.addr.to_string();
    if (++tested >= 100) break;
  }
}

TEST(SprtDealiaser, AdaptiveCostCheapOnObviousAliases) {
  // An always-responsive region should be decided in only a couple of
  // probes; clean space takes more (the cost of the low-alpha target).
  v6::probe::StatelessSimTransport transport(small_universe(), 13);
  SprtDealiaser dealiaser(transport, 13);
  v6::net::Rng rng(2);
  const v6::simnet::AliasRegion* plain = nullptr;
  for (const auto& region : small_universe().alias_regions()) {
    if (!region.rate_limited &&
        v6::net::has_service(region.services, ProbeType::kIcmp)) {
      plain = &region;
      break;
    }
  }
  ASSERT_NE(plain, nullptr);
  dealiaser.is_aliased(v6::net::random_in_prefix(rng, plain->prefix),
                       ProbeType::kIcmp);
  EXPECT_LE(dealiaser.probes_sent(), 4u);
}

TEST(SprtDealiaser, VerdictsCachedPerPrefix) {
  v6::probe::StatelessSimTransport transport(small_universe(), 14);
  SprtDealiaser dealiaser(transport, 14);
  const Ipv6Addr a = small_universe().hosts()[0].addr;
  const Ipv6Addr b(a.hi(), a.lo() ^ 1);
  dealiaser.is_aliased(a, ProbeType::kIcmp);
  const std::uint64_t probes = dealiaser.probes_sent();
  dealiaser.is_aliased(b, ProbeType::kIcmp);
  EXPECT_EQ(dealiaser.probes_sent(), probes);
  EXPECT_EQ(dealiaser.prefixes_tested(), 1u);
}

TEST(SprtDealiaser, BeatsFixedDesignOnRateLimitedRegions) {
  // The design goal: higher detection of rate-limited aliases than the
  // fixed 3-probe/threshold-2 method, at no false positives.
  const auto& universe = small_universe();
  int sprt_detect = 0;
  int fixed_detect = 0;
  int total = 0;
  v6::net::Rng rng(3);
  for (const auto& region : universe.alias_regions()) {
    if (!region.rate_limited ||
        !v6::net::has_service(region.services, ProbeType::kIcmp)) {
      continue;
    }
    ++total;
    const Ipv6Addr addr = v6::net::random_in_prefix(rng, region.prefix);
    {
      v6::probe::StatelessSimTransport transport(universe, 100 + total);
      SprtDealiaser sprt(transport, 100 + total);
      sprt_detect += sprt.is_aliased(addr, ProbeType::kIcmp);
    }
    {
      v6::probe::StatelessSimTransport transport(universe, 100 + total);
      OnlineDealiaser fixed(transport, 100 + total);
      fixed_detect += fixed.is_aliased(addr, ProbeType::kIcmp);
    }
  }
  ASSERT_GT(total, 0);
  EXPECT_GE(sprt_detect, fixed_detect);
}

}  // namespace
}  // namespace v6::dealias
