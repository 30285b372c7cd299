// ShardedEngine unit + stress tests: routing, cross-shard size(), stats
// aggregation, policy broadcast atomicity (the per-shard
// detail::AtomicPolicy path), and the ShardedStress interleaving of
// all-shard-lock sweeps with per-shard combining.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "adapters/ht_ops.hpp"
#include "core/engine.hpp"
#include "ds/hash_table.hpp"
#include "mem/ebr.hpp"
#include "util/rng.hpp"

namespace {

using hcf::adapters::HtFindOp;
using hcf::adapters::HtInsertOp;
using hcf::adapters::HtRemoveOp;
using hcf::adapters::kHtInsertClass;

using Table = hcf::ds::HashTable<std::uint64_t, std::uint64_t>;
using HcfT = hcf::core::HcfEngine<Table>;
using Sharded = hcf::core::ShardedEngine<HcfT>;
using ShardedAdaptive =
    hcf::core::ShardedEngine<hcf::core::AdaptiveHcfEngine<Table>>;

static_assert(hcf::core::PolicyConfigurable<Sharded>,
              "sharded engine must keep the policy surface");
static_assert(hcf::core::PolicyConfigurable<ShardedAdaptive>,
              "sharded adaptive engine must keep the policy surface");

// Owns the per-shard sub-tables plus the meta-engine over them.
template <typename Engine = Sharded>
struct ShardedHt {
  std::vector<std::unique_ptr<Table>> tables;
  std::vector<Table*> ptrs;
  std::unique_ptr<Engine> engine;

  explicit ShardedHt(std::size_t shards, std::size_t buckets = 256) {
    for (std::size_t i = 0; i < shards; ++i) {
      tables.push_back(std::make_unique<Table>(buckets));
      ptrs.push_back(tables.back().get());
    }
    engine = std::make_unique<Engine>(std::span<Table* const>(ptrs),
                                      hcf::adapters::ht_paper_config(),
                                      hcf::adapters::kHtNumArrays);
  }
};

std::uint64_t shard_key_of(std::uint64_t key) { return hcf::util::mix64(key); }

TEST(ShardedRouting, RouteIsDeterministicAndInRange) {
  for (std::size_t shards : {1u, 2u, 4u, 8u}) {
    ShardedHt<> ht(shards);
    for (std::uint64_t k = 0; k < 4096; ++k) {
      const std::size_t s = ht.engine->shard_of(shard_key_of(k));
      ASSERT_LT(s, shards);
      // The instance router and the static helper must agree so prefill
      // code can route without an engine.
      ASSERT_EQ(s, Sharded::route(shard_key_of(k), shards));
      ASSERT_EQ(s, ht.engine->shard_of(shard_key_of(k)));
    }
  }
}

TEST(ShardedRouting, AllShardsReceiveTraffic) {
  const std::size_t shards = 8;
  ShardedHt<> ht(shards);
  std::vector<std::size_t> hits(shards, 0);
  for (std::uint64_t k = 0; k < 4096; ++k) {
    ++hits[ht.engine->shard_of(shard_key_of(k))];
  }
  for (std::size_t s = 0; s < shards; ++s) {
    // Fibonacci mixing spreads sequential keys near-uniformly; anything
    // grossly skewed means the router is reading the wrong bits.
    EXPECT_GT(hits[s], 4096 / shards / 2) << "shard " << s;
    EXPECT_LT(hits[s], 4096 / shards * 2) << "shard " << s;
  }
}

TEST(ShardedRouting, OperationLandsOnExactlyTheRoutedShard) {
  const std::size_t shards = 4;
  ShardedHt<> ht(shards);
  for (std::uint64_t k = 0; k < 64; ++k) {
    HtInsertOp<std::uint64_t, std::uint64_t> ins;
    ins.set(k, k * 10 + 1);
    ht.engine->execute(ins);
    EXPECT_TRUE(ins.result());
    const std::size_t expect = ht.engine->shard_of(shard_key_of(k));
    for (std::size_t s = 0; s < shards; ++s) {
      const bool present = ht.tables[s]->contains(k);
      EXPECT_EQ(present, s == expect) << "key " << k << " shard " << s;
    }
  }
  hcf::mem::EbrDomain::instance().drain();
}

TEST(ShardedCrossShard, SizeSumsAllShards) {
  ShardedHt<> ht(8);
  EXPECT_EQ(ht.engine->size(), 0u);
  const std::uint64_t n = 500;
  for (std::uint64_t k = 0; k < n; ++k) {
    HtInsertOp<std::uint64_t, std::uint64_t> ins;
    ins.set(k, k);
    ht.engine->execute(ins);
  }
  EXPECT_EQ(ht.engine->size(), n);
  for (std::uint64_t k = 0; k < n; k += 2) {
    HtRemoveOp<std::uint64_t, std::uint64_t> rem;
    rem.set(k);
    ht.engine->execute(rem);
    EXPECT_TRUE(rem.result());
  }
  EXPECT_EQ(ht.engine->size(), n / 2);
  // Reads still route correctly after removals.
  for (std::uint64_t k = 1; k < n; k += 2) {
    HtFindOp<std::uint64_t, std::uint64_t> find;
    find.set(k);
    ht.engine->execute(find);
    ASSERT_TRUE(find.result().has_value());
    EXPECT_EQ(*find.result(), k);
  }
  for (std::size_t s = 0; s < 8; ++s) {
    EXPECT_TRUE(ht.tables[s]->check_invariants());
  }
  hcf::mem::EbrDomain::instance().drain();
}

TEST(ShardedStats, AggregateCountsEveryShardsCompletions) {
  ShardedHt<> ht(4);
  const std::uint64_t n = 300;
  for (std::uint64_t k = 0; k < n; ++k) {
    HtInsertOp<std::uint64_t, std::uint64_t> ins;
    ins.set(k, k);
    ht.engine->execute(ins);
  }
  const auto agg = ht.engine->stats_snapshot();
  EXPECT_EQ(agg.total(), n);
  std::uint64_t per_shard_sum = 0;
  std::uint64_t per_shard_locks = 0;
  for (std::size_t s = 0; s < 4; ++s) {
    per_shard_sum += ht.engine->shard(s).stats().sum().total();
    per_shard_locks += ht.engine->shard(s).lock_acquisitions();
  }
  EXPECT_EQ(per_shard_sum, n);
  EXPECT_EQ(ht.engine->lock_acquisitions(), per_shard_locks);

  ht.engine->reset_stats();
  EXPECT_EQ(ht.engine->stats_snapshot().total(), 0u);
  EXPECT_EQ(ht.engine->lock_acquisitions(), 0u);
  hcf::mem::EbrDomain::instance().drain();
}

TEST(ShardedPolicy, BroadcastReachesEveryShard) {
  ShardedHt<> ht(8);
  const auto policy = hcf::core::PhasePolicy::combine_first();
  ht.engine->set_class_policy(kHtInsertClass, policy);
  EXPECT_EQ(ht.engine->num_classes(), 2u);
  for (std::size_t s = 0; s < 8; ++s) {
    const auto cfg = ht.engine->shard(s).class_config(kHtInsertClass);
    EXPECT_EQ(cfg.policy.try_private, policy.try_private) << "shard " << s;
    EXPECT_EQ(cfg.policy.try_visible, policy.try_visible) << "shard " << s;
    EXPECT_EQ(cfg.policy.try_combining, policy.try_combining)
        << "shard " << s;
    EXPECT_EQ(cfg.policy.announce, policy.announce) << "shard " << s;
  }
  // The meta-engine's own class_config mirrors shard 0.
  const auto cfg = ht.engine->class_config(kHtInsertClass);
  EXPECT_EQ(cfg.policy.try_combining, policy.try_combining);
}

// Satellite regression: concurrent policy flips must stay field-wise
// atomic per shard (routed through detail::AtomicPolicy) while operations
// execute across shards — every op still runs exactly once with a sane
// hybrid policy, and the final broadcast is visible on every shard.
TEST(ShardedPolicy, ConcurrentFlipsKeepOpsExactlyOnce) {
  const std::size_t shards = 4;
  const int workers = 3;
  const std::uint64_t keys_per_worker = 400;
  ShardedHt<> ht(shards);

  std::atomic<bool> stop{false};
  std::thread flipper([&] {
    const auto a = hcf::core::PhasePolicy::paper_default();
    const auto b = hcf::core::PhasePolicy::combine_first();
    const auto c = hcf::core::PhasePolicy{6, 2, 2, true};
    int i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const auto& p = i % 3 == 0 ? a : (i % 3 == 1 ? b : c);
      ht.engine->set_class_policy(kHtInsertClass, p);
      ++i;
      std::this_thread::yield();
    }
    // Deterministic final state for the post-join check.
    ht.engine->set_class_policy(kHtInsertClass, b);
  });

  std::vector<std::thread> threads;
  for (int t = 0; t < workers; ++t) {
    threads.emplace_back([&, t] {
      const std::uint64_t base =
          static_cast<std::uint64_t>(t) * keys_per_worker;
      for (std::uint64_t k = base; k < base + keys_per_worker; ++k) {
        HtInsertOp<std::uint64_t, std::uint64_t> ins;
        ins.set(k, k + 7);
        ht.engine->execute(ins);
        EXPECT_TRUE(ins.result()) << "key " << k << " double-inserted";
        if (k % 16 == 0) std::this_thread::yield();
      }
    });
  }
  for (auto& th : threads) th.join();
  stop.store(true, std::memory_order_relaxed);
  flipper.join();

  EXPECT_EQ(ht.engine->size(),
            static_cast<std::size_t>(workers) * keys_per_worker);
  const auto want = hcf::core::PhasePolicy::combine_first();
  for (std::size_t s = 0; s < shards; ++s) {
    const auto got = ht.engine->shard(s).class_config(kHtInsertClass).policy;
    EXPECT_EQ(got.try_private, want.try_private) << "shard " << s;
    EXPECT_EQ(got.try_visible, want.try_visible) << "shard " << s;
    EXPECT_EQ(got.try_combining, want.try_combining) << "shard " << s;
  }
  hcf::mem::EbrDomain::instance().drain();
}

// ShardedStress (run under TSan in the sanitizer builds): cross-shard
// size() sweeps — ascending all-shard lock acquisition — interleave with
// per-shard combining traffic. Checks deadlock freedom, that every
// observed size is a plausible whole-structure snapshot, and exact final
// accounting.
TEST(ShardedStress, CrossShardSizeVsPerShardCombining) {
  const std::size_t shards = 8;
  const int workers = 3;
  const std::uint64_t keys_per_worker = 600;
  ShardedHt<> ht(shards, 512);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> sweeps{0};
  std::thread sizer([&] {
    std::size_t last = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::size_t n = ht.engine->size();
      // Workers only insert (fresh keys), so sizes are monotone.
      EXPECT_GE(n, last);
      EXPECT_LE(n, static_cast<std::size_t>(workers) * keys_per_worker);
      last = n;
      sweeps.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> threads;
  for (int t = 0; t < workers; ++t) {
    threads.emplace_back([&, t] {
      const std::uint64_t base =
          1000000 + static_cast<std::uint64_t>(t) * keys_per_worker;
      for (std::uint64_t k = base; k < base + keys_per_worker; ++k) {
        HtInsertOp<std::uint64_t, std::uint64_t> ins;
        ins.set(k, k);
        ht.engine->execute(ins);
        if (k % 32 == 0) std::this_thread::yield();
      }
    });
  }
  for (auto& th : threads) th.join();
  stop.store(true, std::memory_order_relaxed);
  sizer.join();

  EXPECT_GT(sweeps.load(), 0u);
  EXPECT_EQ(ht.engine->size(),
            static_cast<std::size_t>(workers) * keys_per_worker);
  for (std::size_t s = 0; s < shards; ++s) {
    EXPECT_TRUE(ht.tables[s]->check_invariants());
  }
  hcf::mem::EbrDomain::instance().drain();
}

TEST(ShardedAdaptiveTest, PerShardControllersRunIndependently) {
  ShardedHt<ShardedAdaptive> ht(2);
  for (std::uint64_t k = 0; k < 200; ++k) {
    HtInsertOp<std::uint64_t, std::uint64_t> ins;
    ins.set(k, k);
    ht.engine->execute(ins);
    EXPECT_TRUE(ins.result());
  }
  EXPECT_EQ(ht.engine->size(), 200u);
  // Each shard wraps its own controller; both are reachable and their
  // inner engines carry the shard's share of the completions.
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < 2; ++s) {
    total += ht.engine->shard(s).stats().sum().total();
    (void)ht.engine->shard(s).adaptations();
  }
  EXPECT_EQ(total, 200u);
  hcf::mem::EbrDomain::instance().drain();
}

}  // namespace
