// Sharded cyclic iteration over a target index space — the ZMap idiom
// (docs/SCANNER.md): instead of materializing and shuffling the target
// list, walk a seeded full-cycle permutation of [0, n) and decimate the
// cycle across shards, so N probers cover disjoint slices with zero
// shared mutable state and no shuffle buffer.
//
// Construction: pick m = smallest power of two >= max(n, 4) and a seeded
// affine map f(x) = a·x + c (mod m). By the Hull–Dobell theorem the map
// has full period 2^k exactly when c is odd and a ≡ 1 (mod 4), so the
// orbit x0, f(x0), f²(x0), … visits every value in [0, m) exactly once
// per cycle. Values >= n are skipped on the fly (at most half the cycle,
// since m < 2n for n >= 4).
//
// Sharding is decimation in *cycle position*, not in value: shard k of S
// visits positions p ≡ k (mod S). Stepping S positions at once is another
// affine map — f^S, with coefficients computed by binary composition
// ((a₁,c₁)∘(a₂,c₂) = (a₁a₂, a₁c₂ + c₁) for "apply f₂ then f₁") — so each
// shard advances with one multiply-add per step regardless of S.
//
// The emitted cycle position `pos` is the global order key: it depends
// only on (n, seed), never on the shard count, and every shard emits
// its positions in increasing order. Replaying the single-shard walk
// and taking shard (pos mod S)'s next item at each step therefore
// reproduces the 1-shard order bit-for-bit — the determinism contract
// the streaming scanner's merge relies on.
//
// Known (and accepted) structure: an affine map mod 2^k has short-period
// low bits, so consecutive indices alternate parity. The walk is a scan
// ordering, not a statistical RNG; dispersion across the high bits is
// what spreads probes across the target space.
#pragma once

#include <cstdint>

#include "check/contracts.h"
#include "net/rng.h"

namespace v6::probe {

/// One emitted target: the index into the caller's target span plus the
/// global cycle position it was visited at (the canonical sort key).
struct ShardItem {
  std::uint64_t index = 0;
  std::uint64_t pos = 0;
};

/// The seeded permutation parameters shared by every shard of one walk.
class ShardPlan {
 public:
  /// `n` — number of target indices; `seed` — master seed (the walk is a
  /// pure function of (n, seed)).
  ShardPlan(std::uint64_t n, std::uint64_t seed) : n_(n) {
    m_ = 4;
    while (m_ < n) m_ <<= 1;
    V6_INVARIANT_MSG(m_ != 0, "cycle size overflowed; target count too large");
    const std::uint64_t mask = m_ - 1;
    const std::uint64_t r0 = v6::net::derive_seed(seed, /*tag=*/0x5A17D0);
    const std::uint64_t r1 = v6::net::derive_seed(seed, /*tag=*/0x5A17D1);
    const std::uint64_t r2 = v6::net::derive_seed(seed, /*tag=*/0x5A17D2);
    a_ = ((r0 & mask) & ~std::uint64_t{3}) | 1;  // a ≡ 1 (mod 4)
    c_ = (r1 & mask) | 1;                        // c odd
    x0_ = r2 & mask;
  }

  std::uint64_t size() const { return n_; }
  std::uint64_t cycle_length() const { return m_; }
  std::uint64_t multiplier() const { return a_; }
  std::uint64_t increment() const { return c_; }
  std::uint64_t start() const { return x0_; }

 private:
  std::uint64_t n_;
  std::uint64_t m_;
  std::uint64_t a_;
  std::uint64_t c_;
  std::uint64_t x0_;
};

/// Iterates shard `shard` of `num_shards` over a plan's cycle. Each
/// instance is self-contained (a handful of integers), so shard workers
/// share nothing mutable.
class ShardWalk {
 public:
  ShardWalk(const ShardPlan& plan, std::uint64_t shard,
            std::uint64_t num_shards)
      : n_(plan.size()), m_(plan.cycle_length()), mask_(m_ - 1) {
    V6_REQUIRE_MSG(num_shards > 0, "need at least one shard");
    V6_REQUIRE_MSG(shard < num_shards, "shard id out of range");
    // Step map f^S and the shard's starting point f^shard(x0), both via
    // binary composition of affine maps (O(log S)).
    const Affine step = pow_affine({plan.multiplier(), plan.increment()},
                                   num_shards, mask_);
    const Affine offset = pow_affine({plan.multiplier(), plan.increment()},
                                     shard, mask_);
    step_a_ = step.a;
    step_c_ = step.c;
    x_ = offset.apply(plan.start(), mask_);
    pos_ = shard;
    stride_ = num_shards;
  }

  /// Emits the shard's next in-range item. Returns false when this
  /// shard's slice of the cycle is exhausted.
  bool next(ShardItem* out) {
    while (pos_ < m_) {
      const std::uint64_t x = x_;
      const std::uint64_t p = pos_;
      x_ = (step_a_ * x_ + step_c_) & mask_;
      // Guard the position counter against wrap when m_ is within
      // stride_ of 2^64 (impossible for real target counts, cheap to
      // rule out anyway).
      pos_ = p + stride_ < p ? m_ : p + stride_;
      if (x < n_) {
        out->index = x;
        out->pos = p;
        return true;
      }
    }
    return false;
  }

 private:
  struct Affine {
    std::uint64_t a = 1;
    std::uint64_t c = 0;

    std::uint64_t apply(std::uint64_t x, std::uint64_t mask) const {
      return (a * x + c) & mask;
    }
  };

  /// f^e by square-and-multiply: compose(f, g)(x) = f(g(x)).
  static Affine pow_affine(Affine base, std::uint64_t e, std::uint64_t mask) {
    Affine result;  // identity
    while (e != 0) {
      if (e & 1) result = compose(base, result, mask);
      base = compose(base, base, mask);
      e >>= 1;
    }
    return result;
  }

  static Affine compose(const Affine& f, const Affine& g, std::uint64_t mask) {
    return {(f.a * g.a) & mask, (f.a * g.c + f.c) & mask};
  }

  std::uint64_t n_;
  std::uint64_t m_;
  std::uint64_t mask_;
  std::uint64_t step_a_ = 1;
  std::uint64_t step_c_ = 0;
  std::uint64_t x_ = 0;
  std::uint64_t pos_ = 0;
  std::uint64_t stride_ = 1;
};

}  // namespace v6::probe
