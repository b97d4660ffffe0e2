#include <gtest/gtest.h>

#include "dealias/alias_list.h"
#include "dealias/dealiaser.h"
#include "dealias/online_dealiaser.h"
#include "net/rng.h"
#include "probe/stateless_transport.h"
#include "testutil/fixtures.h"

namespace v6::dealias {
namespace {

using v6::net::Ipv6Addr;
using v6::net::ProbeType;
using v6::testutil::small_universe;

TEST(AliasList, LoadAndContains) {
  AliasList list;
  EXPECT_EQ(list.load("2001:db8::/64\n# comment\n2600:9000:2000::/48\n"),
            2u);
  EXPECT_TRUE(list.contains(Ipv6Addr::must_parse("2001:db8::dead")));
  EXPECT_TRUE(list.contains(Ipv6Addr::must_parse("2600:9000:2000:1::2")));
  EXPECT_FALSE(list.contains(Ipv6Addr::must_parse("2600:9000:3000::1")));
}

TEST(AliasList, PublishedFromUniverseCoversOnlyPublishedRegions) {
  const auto& universe = small_universe();
  const AliasList list = AliasList::published_from(universe);
  std::size_t published = 0;
  for (const auto& region : universe.alias_regions()) {
    if (region.published) {
      ++published;
      EXPECT_TRUE(list.contains(region.prefix.addr()));
    }
  }
  EXPECT_EQ(list.size(), published);
  EXPECT_GT(published, 0u);
}

class OnlineDealiaserTest : public ::testing::Test {
 protected:
  OnlineDealiaserTest()
      : transport_(small_universe(), 99), dealiaser_(transport_, 99) {}

  const v6::simnet::AliasRegion* find_region(bool rate_limited) {
    for (const auto& region : small_universe().alias_regions()) {
      if (region.rate_limited == rate_limited &&
          v6::net::has_service(region.services, ProbeType::kIcmp)) {
        return &region;
      }
    }
    return nullptr;
  }

  v6::probe::StatelessSimTransport transport_;
  OnlineDealiaser dealiaser_;
};

TEST_F(OnlineDealiaserTest, DetectsResponsiveAliasRegion) {
  const auto* region = find_region(/*rate_limited=*/false);
  ASSERT_NE(region, nullptr);
  v6::net::Rng rng(1);
  const Ipv6Addr addr = v6::net::random_in_prefix(rng, region->prefix);
  EXPECT_TRUE(dealiaser_.is_aliased(addr, ProbeType::kIcmp));
  EXPECT_EQ(dealiaser_.aliases_found(), 1u);
}

TEST_F(OnlineDealiaserTest, SparseSpaceIsNotAliased) {
  // A regular host's /96 contains (at most) a handful of hosts; three
  // random probes into 2^32 addresses will miss them.
  const auto hosts = small_universe().hosts();
  int tested = 0;
  for (const auto& host : hosts) {
    if (small_universe().is_aliased(host.addr)) continue;
    EXPECT_FALSE(dealiaser_.is_aliased(host.addr, ProbeType::kIcmp))
        << host.addr.to_string();
    if (++tested >= 50) break;
  }
  EXPECT_GT(tested, 0);
}

TEST_F(OnlineDealiaserTest, VerdictsAreCached) {
  const auto* region = find_region(/*rate_limited=*/false);
  ASSERT_NE(region, nullptr);
  v6::net::Rng rng(2);
  const Ipv6Addr a = v6::net::random_in_prefix(rng, region->prefix);
  // Two addresses in the same /96.
  const Ipv6Addr b(a.hi(), a.lo() ^ 1);
  ASSERT_EQ(a.masked(96), b.masked(96));

  EXPECT_TRUE(dealiaser_.is_aliased(a, ProbeType::kIcmp));
  const std::uint64_t probes_after_first = dealiaser_.probes_sent();
  EXPECT_TRUE(dealiaser_.is_aliased(b, ProbeType::kIcmp));
  EXPECT_EQ(dealiaser_.probes_sent(), probes_after_first);
  EXPECT_EQ(dealiaser_.prefixes_tested(), 1u);
  EXPECT_TRUE(dealiaser_.cached_verdict(a).has_value());
  EXPECT_TRUE(*dealiaser_.cached_verdict(a));
}

TEST_F(OnlineDealiaserTest, CachedVerdictAbsentBeforeProbing) {
  EXPECT_FALSE(dealiaser_
                   .cached_verdict(Ipv6Addr::must_parse("2001:db8::1"))
                   .has_value());
}

TEST_F(OnlineDealiaserTest, RateLimitedRegionsOftenEvade) {
  // The paper's key failure mode: rate-limited aliased regions drop most
  // dealiasing probes and frequently test as non-aliased.
  const auto& universe = small_universe();
  v6::net::Rng rng(3);
  int evaded = 0;
  int tested = 0;
  for (const auto& region : universe.alias_regions()) {
    if (!region.rate_limited ||
        !v6::net::has_service(region.services, ProbeType::kIcmp)) {
      continue;
    }
    // Each region: fresh dealiaser to avoid cache interference.
    v6::probe::StatelessSimTransport transport(universe, 1000 + tested);
    OnlineDealiaser dealiaser(transport, 1000 + tested);
    const Ipv6Addr addr = v6::net::random_in_prefix(rng, region.prefix);
    if (!dealiaser.is_aliased(addr, ProbeType::kIcmp)) ++evaded;
    ++tested;
  }
  ASSERT_GT(tested, 0);
  EXPECT_GT(evaded, 0) << "rate-limited aliases should sometimes evade "
                          "online dealiasing";
}

TEST(Dealiaser, ModeNoneNeverFlags) {
  Dealiaser dealiaser(DealiasMode::kNone, nullptr, nullptr);
  EXPECT_FALSE(dealiaser.is_aliased(Ipv6Addr::must_parse("2001:db8::1"),
                                    ProbeType::kIcmp));
}

TEST(Dealiaser, OfflineModeUsesListOnly) {
  AliasList list;
  list.load("2001:db8::/64\n");
  Dealiaser dealiaser(DealiasMode::kOffline, &list, nullptr);
  EXPECT_TRUE(dealiaser.is_aliased(Ipv6Addr::must_parse("2001:db8::1"),
                                   ProbeType::kIcmp));
  EXPECT_FALSE(dealiaser.is_aliased(Ipv6Addr::must_parse("2001:db9::1"),
                                    ProbeType::kIcmp));
}

TEST(Dealiaser, JointCatchesUnpublishedAliases) {
  const auto& universe = small_universe();
  const AliasList published = AliasList::published_from(universe);
  v6::probe::StatelessSimTransport transport(universe, 55);
  OnlineDealiaser online(transport, 55);
  Dealiaser joint(DealiasMode::kJoint, &published, &online);

  v6::net::Rng rng(4);
  int unpublished_caught = 0;
  int unpublished_total = 0;
  for (const auto& region : universe.alias_regions()) {
    if (region.published || region.rate_limited) continue;
    ++unpublished_total;
    const Ipv6Addr addr = v6::net::random_in_prefix(rng, region.prefix);
    if (joint.is_aliased(addr, ProbeType::kIcmp)) ++unpublished_caught;
  }
  ASSERT_GT(unpublished_total, 0);
  EXPECT_EQ(unpublished_caught, unpublished_total);
}

TEST(Dealiaser, OfflineCheckAvoidsProbes) {
  const auto& universe = small_universe();
  const AliasList published = AliasList::published_from(universe);
  v6::probe::StatelessSimTransport transport(universe, 56);
  OnlineDealiaser online(transport, 56);
  Dealiaser joint(DealiasMode::kJoint, &published, &online);

  // A published region must be flagged without a single packet.
  const v6::simnet::AliasRegion* published_region = nullptr;
  for (const auto& region : universe.alias_regions()) {
    if (region.published) {
      published_region = &region;
      break;
    }
  }
  ASSERT_NE(published_region, nullptr);
  EXPECT_TRUE(joint.is_aliased(published_region->prefix.addr(),
                               ProbeType::kIcmp));
  EXPECT_EQ(transport.packets_sent(), 0u);
}

TEST(Dealiaser, FilterRemovesAliasedAddresses) {
  AliasList list;
  list.load("2001:db8::/64\n");
  Dealiaser dealiaser(DealiasMode::kOffline, &list, nullptr);
  const std::vector<Ipv6Addr> addrs = {
      Ipv6Addr::must_parse("2001:db8::1"),
      Ipv6Addr::must_parse("2001:db9::1"),
      Ipv6Addr::must_parse("2001:db8::2"),
  };
  const auto kept = dealiaser.filter(addrs, ProbeType::kIcmp);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0], Ipv6Addr::must_parse("2001:db9::1"));
}

TEST(DealiasMode, Names) {
  EXPECT_EQ(to_string(DealiasMode::kNone), "none");
  EXPECT_EQ(to_string(DealiasMode::kJoint), "joint");
}

}  // namespace
}  // namespace v6::dealias
