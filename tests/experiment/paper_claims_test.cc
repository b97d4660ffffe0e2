// Executable paper claims: the qualitative findings EXPERIMENTS.md marks
// as reproduced, asserted as *shapes* (directions, orderings, who leads)
// over reduced-budget sweeps of the reference Workbench. Numbers are
// never pinned here — the goldens and BENCH records do that — so a
// deliberate re-baseline may move every count, but it must not flip a
// claim. Tolerances follow the deviations EXPERIMENTS.md documents
// ("nearly universally", "predominantly positive"); a claim that does
// not hold at reduced budget is written up there, not tuned here.
//
// Run with `ctest -L claims` (also part of `tools/check.sh --quick`).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <iostream>
#include <string>
#include <unordered_set>
#include <vector>

#include "experiment/session.h"
#include "experiment/workbench.h"
#include "fault/fault_plan.h"
#include "metrics/coverage.h"
#include "tga/registry.h"

namespace v6::experiment {
namespace {

using v6::net::Ipv6Addr;
using v6::net::ProbeType;

/// The BENCH_rq1_rq2 reference budget: small enough for a ctest, large
/// enough that the RQ1/RQ2 orderings have settled.
constexpr std::uint64_t kBudget = 60'000;
/// "Nearly universally" / "almost every TGA": at most this many of the
/// eight generators may go against a per-TGA direction.
constexpr int kMaxExceptions = 2;

Workbench& reference_bench() {
  static Workbench* bench = [] {
    auto* b = new Workbench();
    b->precompute(0);
    return b;
  }();
  return *bench;
}

std::vector<TgaRun> sweep(std::span<const Ipv6Addr> seeds,
                          const PipelineConfig& config) {
  Workbench& bench = reference_bench();
  return ScanSession(bench.universe(), bench.alias_list())
      .with_seeds(seeds)
      .with_config(config)
      .with_jobs(0)
      .sweep();
}

PipelineConfig config_for(ProbeType port, std::uint64_t budget = kBudget) {
  return PipelineConfig{}.with_budget(budget).with_type(port);
}

std::uint64_t total_hits(const std::vector<TgaRun>& runs) {
  std::uint64_t sum = 0;
  for (const TgaRun& run : runs) sum += run.outcome.hits();
  return sum;
}

std::uint64_t total_responsive(const std::vector<TgaRun>& runs) {
  std::uint64_t sum = 0;
  for (const TgaRun& run : runs) sum += run.outcome.responsive;
  return sum;
}

std::uint64_t total_ases(const std::vector<TgaRun>& runs) {
  std::uint64_t sum = 0;
  for (const TgaRun& run : runs) sum += run.outcome.ases();
  return sum;
}

/// Generators whose `metric` is lower on `changed` than on `original`.
template <typename Metric>
int regressions(const std::vector<TgaRun>& changed,
                const std::vector<TgaRun>& original, Metric metric) {
  int count = 0;
  for (std::size_t t = 0; t < changed.size(); ++t) {
    if (metric(changed[t]) < metric(original[t])) ++count;
  }
  return count;
}

std::uint64_t hits_of(const TgaRun& run) { return run.outcome.hits(); }
std::uint64_t ases_of(const TgaRun& run) { return run.outcome.ases(); }

/// The ports the RQ1/RQ2 claims are checked on: the network layer and
/// the port the paper singles out for online models.
constexpr std::array<ProbeType, 2> kClaimPorts = {ProbeType::kIcmp,
                                                  ProbeType::kTcp443};

/// Figure 3 / Table 4: dealiasing the seeds cuts the aliases the TGAs
/// find by orders of magnitude and raises hits and ASes nearly
/// universally.
TEST(PaperClaims, Fig3DealiasingCutsAliasesAndRaisesHitsAndAses) {
  Workbench& bench = reference_bench();
  for (const ProbeType port : kClaimPorts) {
    SCOPED_TRACE(std::string(v6::net::to_string(port)));
    const auto full = sweep(bench.full(), config_for(port));
    const auto dealiased = sweep(
        bench.dealiased(v6::dealias::DealiasMode::kJoint), config_for(port));
    std::uint64_t aliases_full = 0, aliases_dealiased = 0;
    for (std::size_t t = 0; t < full.size(); ++t) {
      aliases_full += full[t].outcome.aliases;
      aliases_dealiased += dealiased[t].outcome.aliases;
      EXPECT_LE(dealiased[t].outcome.aliases, full[t].outcome.aliases)
          << v6::tga::to_string(full[t].kind);
    }
    EXPECT_LE(aliases_dealiased * 10, aliases_full)
        << "aliases must drop by at least an order of magnitude";
    EXPECT_GT(total_hits(dealiased), total_hits(full));
    EXPECT_GT(total_ases(dealiased), total_ases(full));
    EXPECT_LE(regressions(dealiased, full, hits_of), kMaxExceptions);
    EXPECT_LE(regressions(dealiased, full, ases_of), kMaxExceptions);
  }
}

/// Figure 4: responsive-only seeds beat the dealiased active+inactive
/// seeds ("predominantly positive" ratios).
TEST(PaperClaims, Fig4ResponsiveOnlySeedsBeatActiveInactive) {
  Workbench& bench = reference_bench();
  for (const ProbeType port : kClaimPorts) {
    SCOPED_TRACE(std::string(v6::net::to_string(port)));
    const auto active_inactive = sweep(
        bench.dealiased(v6::dealias::DealiasMode::kJoint), config_for(port));
    const auto active = sweep(bench.all_active(), config_for(port));
    EXPECT_GT(total_hits(active), total_hits(active_inactive));
    EXPECT_GT(total_ases(active), total_ases(active_inactive));
    EXPECT_LE(regressions(active, active_inactive, hits_of), kMaxExceptions);
  }
}

/// Figure 5 and Tables 9-12: among the preprocessing rows (All,
/// dealiased active+inactive, All Active, port-matched), the All row is
/// the worst and the All Active or port-matched row the best, for
/// almost every TGA. (Cross-port rows are left out: EXPERIMENTS.md
/// records that the TCP80 and TCP443 datasets beat each other's
/// port-matched row.)
TEST(PaperClaims, Fig5AllRowWorstAllActiveAndPortMatchedBest) {
  Workbench& bench = reference_bench();
  for (const ProbeType port : kClaimPorts) {
    SCOPED_TRACE(std::string(v6::net::to_string(port)));
    const std::array<std::vector<TgaRun>, 4> rows = {
        sweep(bench.full(), config_for(port)),
        sweep(bench.dealiased(v6::dealias::DealiasMode::kJoint),
              config_for(port)),
        sweep(bench.all_active(), config_for(port)),
        sweep(bench.port_specific(port), config_for(port))};
    int all_not_worst = 0;
    int best_elsewhere = 0;
    for (std::size_t t = 0; t < rows[0].size(); ++t) {
      std::array<std::uint64_t, 4> hits{};
      for (std::size_t r = 0; r < rows.size(); ++r) {
        hits[r] = rows[r][t].outcome.hits();
      }
      const auto worst = std::min_element(hits.begin(), hits.end());
      const auto best = std::max_element(hits.begin(), hits.end());
      if (hits[0] != *worst) ++all_not_worst;
      if (*best != hits[2] && *best != hits[3]) ++best_elsewhere;
    }
    EXPECT_LE(all_not_worst, kMaxExceptions);
    EXPECT_LE(best_elsewhere, kMaxExceptions);
  }
}

/// Figure 6: a few generators cover a supermajority of the union and the
/// greedy hit ordering is led by 6Tree or 6Sense. The paper's third
/// part, "6Scan adds almost nothing beyond 6Tree", is a documented
/// deviation at this budget (EXPERIMENTS.md, Known deviations): it is
/// still evaluated, and expected not to hold.
TEST(PaperClaims, Fig6GreedyUnionLeaders) {
  Workbench& bench = reference_bench();
  const auto runs = sweep(bench.all_active(), config_for(ProbeType::kIcmp));
  std::vector<std::pair<std::string, const std::unordered_set<Ipv6Addr>*>>
      hit_sets;
  std::uint64_t six_scan_hits = 0;
  for (const TgaRun& run : runs) {
    hit_sets.emplace_back(std::string(v6::tga::to_string(run.kind)),
                          &run.outcome.hit_set);
    if (run.kind == v6::tga::TgaKind::kSixScan) {
      six_scan_hits = run.outcome.hits();
    }
  }
  const auto steps = v6::metrics::cumulative_contribution(hit_sets);
  ASSERT_EQ(steps.size(), runs.size());
  for (const auto& step : steps) {
    std::cout << "  +" << step.name << ": " << step.cumulative << " (+"
              << step.marginal << ")\n";
  }
  EXPECT_TRUE(steps[0].name == "6Tree" || steps[0].name == "6Sense")
      << steps[0].name;
  EXPECT_GE(steps[2].cumulative_fraction, 2.0 / 3.0)
      << "the top three generators must cover a supermajority";
  bool six_scan_adds_little = false;
  for (const auto& step : steps) {
    if (step.name == "6Scan") {
      six_scan_adds_little = step.marginal * 10 < six_scan_hits;
    }
  }
  EXPECT_FALSE(six_scan_adds_little)
      << "6Scan's marginal contribution is now under 10% of its standalone "
         "hits: the documented deviation no longer shows, so move the claim "
         "back to the asserted ones and update EXPERIMENTS.md";
}

/// Table 5: twelve source-specific runs together find more ASes than
/// one All Active run with their combined budget, for every TGA.
TEST(PaperClaims, Table5SubpopulationScanningBeatsOneBigRun) {
  Workbench& bench = reference_bench();
  constexpr std::uint64_t kSourceBudget = 10'000;
  std::array<std::unordered_set<std::uint32_t>, v6::tga::kNumTgas> combined;
  for (const v6::seeds::SeedSource source : v6::seeds::kAllSeedSources) {
    const auto runs = sweep(bench.source_active(source),
                            config_for(ProbeType::kIcmp, kSourceBudget));
    for (std::size_t t = 0; t < runs.size(); ++t) {
      combined[t].insert(runs[t].outcome.as_set.begin(),
                         runs[t].outcome.as_set.end());
    }
  }
  const auto big =
      sweep(bench.all_active(),
            config_for(ProbeType::kIcmp,
                       kSourceBudget * v6::seeds::kNumSeedSources));
  for (std::size_t t = 0; t < big.size(); ++t) {
    EXPECT_GT(combined[t].size(), big[t].outcome.ases())
        << v6::tga::to_string(big[t].kind);
  }
}

/// bench_ext_faults: at every faulty grid point the robust scanner
/// (retries, backoff, adaptive cool-downs) recovers more replies than
/// the retry-free policy (the default single retry), summed over the
/// TGAs, and finds more hits for nearly every TGA. Hits are checked per
/// TGA (EXPERIMENTS.md deviation 7): at 10% loss without rate limiting
/// the robust gain is ~1% of the summed hits, while 6Hit alone swings
/// by more than that depending on whether its exploration enters a
/// rate-limited alias region, so the summed hits are decided by that
/// one trajectory.
TEST(PaperClaims, RobustRetriesDominateUnderFaults) {
  Workbench& bench = reference_bench();
  constexpr std::uint64_t kFaultBudget = 20'000;
  for (const double loss : {0.10, 0.30}) {
    for (const double rate : {0.0, 5.0, 1.0}) {
      SCOPED_TRACE("loss " + std::to_string(loss) + " rate " +
                   std::to_string(rate));
      v6::fault::FaultPlan plan;
      plan.with_base_loss(loss);
      if (rate > 0.0) {
        plan.with_rate_limit(v6::net::Prefix{}, rate, /*burst=*/50.0,
                             /*bucket_prefix_len=*/32);
      }
      PipelineConfig retry_free = config_for(ProbeType::kIcmp, kFaultBudget);
      retry_free.faults = &plan;
      PipelineConfig robust = retry_free;
      robust.with_scan_retries(3)
          .with_probe_timeout(0.05)
          .with_retry_backoff(0.1, /*jitter=*/0.25)
          .with_adaptive_backoff(/*threshold=*/16, /*wait_s=*/1.0);
      const auto robust_runs = sweep(bench.all_active(), robust);
      const auto free_runs = sweep(bench.all_active(), retry_free);
      EXPECT_GT(total_responsive(robust_runs), total_responsive(free_runs));
      EXPECT_LE(regressions(robust_runs, free_runs, hits_of), kMaxExceptions);
    }
  }
}

}  // namespace
}  // namespace v6::experiment
