// Behavioural tests of generator quality against the simulated Internet:
// pattern exploitation, online adaptation, and 6Sense's integrated
// dealiasing.
#include <gtest/gtest.h>

#include "dealias/online_dealiaser.h"
#include "net/rng.h"
#include "probe/stateless_transport.h"
#include "tga/registry.h"
#include "testutil/fixtures.h"

namespace v6::tga {
namespace {

using v6::net::Ipv6Addr;
using v6::net::ProbeType;

/// Runs a generate/observe loop and reports raw ICMP-responsive count.
std::size_t responsive_after(TargetGenerator& generator,
                             std::size_t budget) {
  const auto& universe = v6::testutil::small_universe();
  v6::net::Rng rng(3);
  std::size_t responsive = 0;
  std::size_t generated = 0;
  while (generated < budget) {
    const auto batch = generator.next_batch(
        std::min<std::size_t>(2048, budget - generated));
    if (batch.empty()) break;
    generated += batch.size();
    for (const Ipv6Addr& a : batch) {
      const bool active = universe.probe(a, ProbeType::kIcmp, rng) ==
                          v6::net::ProbeReply::kEchoReply;
      if (active) ++responsive;
      generator.observe(a, active);
    }
  }
  return responsive;
}

std::vector<Ipv6Addr> active_seeds(std::size_t n) {
  // Stride-sample so the seed set spans many ASes (taking the first N
  // hosts would collapse onto a single large network).
  const auto& universe = v6::testutil::small_universe();
  const auto hosts = universe.hosts();
  std::vector<Ipv6Addr> seeds;
  const std::size_t stride = std::max<std::size_t>(1, hosts.size() / n);
  for (std::size_t i = 0; i < hosts.size() && seeds.size() < n;
       i += stride) {
    const auto& host = hosts[i];
    if (host.services != 0 && !universe.is_aliased(host.addr)) {
      seeds.push_back(host.addr);
    }
  }
  return seeds;
}

class GeneratorEffectiveness : public ::testing::TestWithParam<TgaKind> {};

TEST_P(GeneratorEffectiveness, BeatsRandomGuessingByOrders) {
  // Any TGA must vastly outperform uniform random guessing (which on a
  // 2^128 space finds essentially nothing).
  auto generator = make_generator(GetParam());
  generator->prepare(active_seeds(4000), 42);
  const std::size_t responsive = responsive_after(*generator, 20'000);
  EXPECT_GT(responsive, 50u) << generator->name();
}

INSTANTIATE_TEST_SUITE_P(
    AllTgas, GeneratorEffectiveness,
    ::testing::ValuesIn(kAllTgas.begin(), kAllTgas.end()),
    [](const auto& info) {
      std::string name{to_string(info.param)};
      std::erase_if(name, [](char c) { return !std::isalnum(c); });
      return name;
    });

TEST(SixSenseBehavior, IntegratedDealiasingReducesAliasedOutput) {
  const auto& universe = v6::testutil::small_universe();

  // Seeds deliberately polluted with structured aliased addresses.
  std::vector<Ipv6Addr> seeds = active_seeds(2500);
  v6::net::Rng rng(6);
  for (const auto& region : universe.alias_regions()) {
    if (region.rate_limited) continue;
    for (int i = 0; i < 120; ++i) {
      const Ipv6Addr base = region.prefix.addr();
      seeds.push_back(Ipv6Addr(
          base.hi(),
          (base.lo() & ~0xFFFFULL) |
              v6::net::uniform_int<std::uint64_t>(rng, 1, 1024)));
    }
  }

  auto run = [&](bool attach) {
    auto generator = make_generator(TgaKind::kSixSense);
    generator->prepare(seeds, 42);
    v6::probe::StatelessSimTransport transport(universe, 9);
    v6::dealias::OnlineDealiaser online(transport, 9);
    if (attach) {
      generator->attach_online_dealiaser(&online, ProbeType::kIcmp);
    }
    v6::net::Rng scan_rng(4);
    std::size_t aliased = 0;
    std::size_t generated = 0;
    while (generated < 30'000) {
      const auto batch = generator->next_batch(2048);
      if (batch.empty()) break;
      generated += batch.size();
      for (const Ipv6Addr& a : batch) {
        if (universe.is_aliased(a)) ++aliased;
        const bool active = universe.probe(a, ProbeType::kIcmp, scan_rng) ==
                            v6::net::ProbeReply::kEchoReply;
        generator->observe(a, active);
      }
    }
    return aliased;
  };

  const std::size_t without = run(false);
  const std::size_t with = run(true);
  EXPECT_GT(without, 0u);
  EXPECT_LT(with, without / 2)
      << "integrated dealiasing should cut aliased output sharply";
}

TEST(OnlineBehavior, DetAdaptsTowardsResponsiveRegions) {
  // With feedback, DET should outperform the same region model scanned
  // without feedback (we approximate "no feedback" by lying that every
  // probe missed).
  const auto seeds = active_seeds(3000);

  auto with_feedback = make_generator(TgaKind::kDet);
  with_feedback->prepare(seeds, 42);
  const std::size_t adaptive = responsive_after(*with_feedback, 30'000);

  auto without_feedback = make_generator(TgaKind::kDet);
  without_feedback->prepare(seeds, 42);
  const auto& universe = v6::testutil::small_universe();
  v6::net::Rng rng(3);
  std::size_t blind = 0;
  std::size_t generated = 0;
  while (generated < 30'000) {
    const auto batch = without_feedback->next_batch(2048);
    if (batch.empty()) break;
    generated += batch.size();
    for (const Ipv6Addr& a : batch) {
      if (universe.probe(a, ProbeType::kIcmp, rng) ==
          v6::net::ProbeReply::kEchoReply) {
        ++blind;
      }
      without_feedback->observe(a, false);  // suppress all feedback
    }
  }
  EXPECT_GT(adaptive, blind);
}

}  // namespace
}  // namespace v6::tga
