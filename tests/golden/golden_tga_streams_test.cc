// Golden regression test: pins the exact address stream each of the
// eight paper TGAs emits under scripted scan feedback, so that rewrites
// of a generator's internal structures (region selection, pattern
// mining, seed/emit sets) cannot silently change what it generates.
//
// Every generator is prepared on ~51k addresses of the shared small test
// universe, then asked for kBatches batches of kBatchSize addresses.
// Each emitted address is fed back through observe() as active or not by
// a fixed hash of the address, so online models (DET, 6Hit, 6Sense)
// follow the same feedback trajectory on every run. After kAbsorbAfter
// batches the ~5.6k held-out addresses are offered to absorb_seeds();
// 6Hit takes them (a tree recreation from seeds + discoveries), and its
// hit-threshold recreation fires again later in the stream. The golden
// file records a digest per group of batches.
//
// Update procedure (only when an intentional behavior change lands):
//
//   V6_UPDATE_GOLDEN=1 ./build/tests/golden_tga_streams_test
//
// rewrites tests/golden/golden_tga_streams.txt in the source tree;
// review the diff and say WHY the streams moved in the commit message.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "net/ipv6.h"
#include "net/rng.h"
#include "tga/registry.h"
#include "tga/six_hit.h"
#include "testutil/fixtures.h"

#ifndef V6_GOLDEN_DIR
#error "V6_GOLDEN_DIR must point at the checked-in golden directory"
#endif

namespace v6::tga {
namespace {

using v6::net::Ipv6Addr;

constexpr const char* kGoldenPath = V6_GOLDEN_DIR "/golden_tga_streams.txt";
constexpr std::uint64_t kRngSeed = 2024;
constexpr std::size_t kBatchSize = 1000;
constexpr int kBatches = 24;
constexpr int kAbsorbAfter = 4;
constexpr int kBatchesPerDigest = 4;
constexpr std::uint64_t kActivePercent = 60;

/// Scripted feedback: a fixed share of addresses is "active", chosen by
/// a hash of the address alone.
bool scripted_active(const Ipv6Addr& addr) {
  return v6::net::splitmix64(addr.hi() ^ v6::net::splitmix64(addr.lo())) %
             100 <
         kActivePercent;
}

std::uint64_t fold(std::uint64_t digest, const Ipv6Addr& addr) {
  digest = v6::net::splitmix64(digest ^ addr.hi());
  return v6::net::splitmix64(digest ^ addr.lo());
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

struct SeedSplit {
  std::vector<Ipv6Addr> prepared;
  std::vector<Ipv6Addr> held_out;
};

SeedSplit split_seeds() {
  SeedSplit split;
  const auto hosts = v6::testutil::small_universe().hosts();
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    (i % 10 == 0 ? split.held_out : split.prepared).push_back(hosts[i].addr);
  }
  return split;
}

/// Drives one generator through the scripted schedule and appends its
/// digest lines to `out`.
void record_stream(TgaKind kind, const SeedSplit& seeds,
                   std::ostringstream& out) {
  const auto generator = make_generator(kind);
  generator->prepare(seeds.prepared, kRngSeed);
  std::uint64_t emitted = 0;
  std::uint64_t hits = 0;
  std::uint64_t hits_since_absorb = 0;
  std::uint64_t digest = 0;
  for (int batch = 0; batch < kBatches; ++batch) {
    if (batch == kAbsorbAfter) {
      const bool absorbed = generator->absorb_seeds(seeds.held_out);
      out << to_string(kind) << " absorb_seeds: "
          << (absorbed ? "taken" : "declined") << "\n";
      EXPECT_EQ(absorbed, kind == TgaKind::kSixHit) << to_string(kind);
    }
    if (kind == TgaKind::kSixHit && batch == kBatches - 1) {
      // The stream must reach 6Hit's hit-threshold recreation after the
      // absorb_seeds rebuild, or the golden would not pin that path.
      EXPECT_GE(hits_since_absorb, SixHit::Options{}.rebuild_after_hits);
    }
    for (const Ipv6Addr& addr : generator->next_batch(kBatchSize)) {
      ++emitted;
      digest = fold(digest, addr);
      const bool active = scripted_active(addr);
      hits += active ? 1 : 0;
      if (batch >= kAbsorbAfter) hits_since_absorb += active ? 1 : 0;
      generator->observe(addr, active);
    }
    if ((batch + 1) % kBatchesPerDigest == 0) {
      out << to_string(kind) << " batches " << batch + 1 - kBatchesPerDigest
          << ".." << batch << ": emitted " << emitted << " hits " << hits
          << " digest " << hex(digest) << "\n";
    }
  }
}

std::string serialize_streams() {
  const SeedSplit seeds = split_seeds();
  std::ostringstream out;
  out << "# golden TGA streams v1 (see test header for the update "
         "procedure)\n";
  out << "seeds: " << seeds.prepared.size() << " prepared, "
      << seeds.held_out.size() << " held out\n";
  for (const TgaKind kind : kAllTgas) record_stream(kind, seeds, out);
  return out.str();
}

TEST(GoldenTgaStreams, StreamsMatchCheckedInGolden) {
  const std::string actual = serialize_streams();
  ASSERT_GE(split_seeds().prepared.size(), 50'000u);

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
}

}  // namespace
}  // namespace v6::tga
