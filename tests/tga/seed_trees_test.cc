// SeedTrees, the per-sweep memo of a seed row's space trees: concurrent
// readers share one build per option set, and a sweep that shares its
// trees gives the outcomes of runs that build their own.
#include "tga/seed_trees.h"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <thread>
#include <vector>

#include "experiment/pipeline.h"
#include "experiment/session.h"
#include "obs/telemetry.h"
#include "testutil/fixtures.h"
#include "tga/registry.h"
#include "tga/six_tree.h"

namespace v6::tga {
namespace {

using v6::net::Ipv6Addr;

std::vector<Ipv6Addr> universe_seeds(std::size_t stride) {
  std::vector<Ipv6Addr> seeds;
  const auto hosts = v6::testutil::small_universe().hosts();
  for (std::size_t i = 0; i < hosts.size(); i += stride) {
    seeds.push_back(hosts[i].addr);
  }
  return seeds;
}

constexpr SpaceTree::Options kLeftmost{.policy = SplitPolicy::kLeftmost};
constexpr SpaceTree::Options kMinEntropy{.policy = SplitPolicy::kMinEntropy};

void expect_same_regions(const SpaceTree& a, const SpaceTree& b) {
  EXPECT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.regions().size(), b.regions().size());
  for (std::size_t i = 0; i < a.regions().size(); ++i) {
    EXPECT_EQ(a.regions()[i].base, b.regions()[i].base);
    EXPECT_EQ(a.regions()[i].free_mask, b.regions()[i].free_mask);
    EXPECT_EQ(a.regions()[i].seed_count, b.regions()[i].seed_count);
  }
}

TEST(SeedTrees, FourThreadsShareOneBuildPerPolicy) {
  const std::vector<Ipv6Addr> seeds = universe_seeds(3);
  SeedTrees trees(seeds);
  constexpr int kThreads = 4;
  std::array<std::array<const SpaceTree*, 2>, kThreads> seen{};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Half the threads ask for the policies in the other order, so
      // both builds can be contended.
      const bool flip = t % 2 == 1;
      for (int round = 0; round < 3; ++round) {
        const SpaceTree& first = trees.get(flip ? kMinEntropy : kLeftmost);
        const SpaceTree& second = trees.get(flip ? kLeftmost : kMinEntropy);
        seen[static_cast<std::size_t>(t)][flip ? 1 : 0] = &first;
        seen[static_cast<std::size_t>(t)][flip ? 0 : 1] = &second;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(trees.builds(), 2u);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<std::size_t>(t)], seen[0]) << "thread " << t;
  }
  expect_same_regions(*seen[0][0], SpaceTree(seeds, kLeftmost));
  expect_same_regions(*seen[0][1], SpaceTree(seeds, kMinEntropy));
}

TEST(SeedTrees, DistinctOptionsAreDistinctTrees) {
  const std::vector<Ipv6Addr> seeds = universe_seeds(11);
  SeedTrees trees(seeds);
  const SpaceTree& narrow = trees.get({.max_leaf_seeds = 4});
  const SpaceTree& wide = trees.get({.max_leaf_seeds = 64});
  EXPECT_NE(&narrow, &wide);
  EXPECT_EQ(&trees.get({.max_leaf_seeds = 4}), &narrow);
  EXPECT_EQ(trees.builds(), 2u);
}

TEST(SeedTrees, GeneratorIgnoresTreesOverAnotherSpan) {
  const std::vector<Ipv6Addr> seeds = universe_seeds(11);
  const std::vector<Ipv6Addr> copy = seeds;  // equal values, other storage
  SeedTrees trees(seeds);
  SixTree over_copy;
  over_copy.attach_seed_trees(&trees);
  over_copy.prepare(copy, 1);
  EXPECT_EQ(trees.builds(), 0u);

  SixTree shared;
  shared.attach_seed_trees(&trees);
  shared.prepare(seeds, 1);
  EXPECT_EQ(trees.builds(), 1u);
  // Equal seeds give equal trees, shared or not.
  EXPECT_EQ(shared.next_batch(3000), over_copy.next_batch(3000));
}

TEST(SeedTrees, TreesServeOnlyTheNextPrepare) {
  const std::vector<Ipv6Addr> seeds = universe_seeds(11);
  SeedTrees trees(seeds);
  SixTree generator;
  generator.attach_seed_trees(&trees);
  generator.prepare(seeds, 1);
  generator.prepare(seeds, 1);  // no longer attached: builds its own
  EXPECT_EQ(trees.builds(), 1u);
}

void expect_identical(const v6::metrics::ScanOutcome& x,
                      const v6::metrics::ScanOutcome& y) {
  EXPECT_EQ(x.generated, y.generated);
  EXPECT_EQ(x.unique_generated, y.unique_generated);
  EXPECT_EQ(x.responsive, y.responsive);
  EXPECT_EQ(x.aliases, y.aliases);
  EXPECT_EQ(x.dense_filtered, y.dense_filtered);
  EXPECT_EQ(x.packets, y.packets);
  EXPECT_EQ(x.virtual_seconds, y.virtual_seconds);
  EXPECT_EQ(x.hit_set, y.hit_set);
  EXPECT_EQ(x.as_set, y.as_set);
}

TEST(SharedSeedTrees, SweepBuildsTwoTreesWithUnchangedOutcomes) {
  const auto& universe = v6::testutil::small_universe();
  const std::vector<Ipv6Addr> seeds = universe_seeds(5);
  const auto alias_list = v6::dealias::AliasList::published_from(universe);
  const v6::experiment::PipelineConfig config =
      v6::experiment::PipelineConfig{}.with_budget(8'000).with_batch_size(
          2'000);

  std::array<std::vector<v6::experiment::TgaRun>, 2> sweeps;
  const std::array<unsigned, 2> jobs = {1, 4};
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    v6::obs::Telemetry telemetry;
    sweeps[j] = v6::experiment::ScanSession(universe, alias_list)
                    .with_seeds(seeds)
                    .with_config(config)
                    .with_jobs(jobs[j])
                    .with_telemetry(&telemetry)
                    .sweep();
    // The eight paper TGAs need one leftmost and one min-entropy tree
    // over the row; 6Sense and 6Forest-style per-section trees are not
    // whole-row trees and stay private.
    EXPECT_EQ(telemetry.registry().counter("sweep.space_tree_builds").value(),
              2u)
        << "jobs=" << jobs[j];
  }
  ASSERT_EQ(sweeps[0].size(), kAllTgas.size());
  ASSERT_EQ(sweeps[1].size(), kAllTgas.size());
  for (std::size_t i = 0; i < kAllTgas.size(); ++i) {
    SCOPED_TRACE(std::string(to_string(kAllTgas[i])));
    expect_identical(sweeps[0][i].outcome, sweeps[1][i].outcome);
    // A run that builds its own trees gives the same outcome.
    const auto generator = make_generator(kAllTgas[i]);
    expect_identical(v6::experiment::run_tga(universe, *generator, seeds,
                                             alias_list, config),
                     sweeps[0][i].outcome);
  }
}

}  // namespace
}  // namespace v6::tga
