// Failure injection: shrink the simulated HTM's capacity so speculative
// paths abort deterministically, and verify every engine still completes
// every operation exactly once through its fallback machinery.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "engine_test_util.hpp"
#include "mem/ebr.hpp"
#include "sim_htm/config.hpp"
#include "util/rng.hpp"

namespace hcf::test {
namespace {

using Table = ds::HashTable<std::uint64_t, std::uint64_t>;

HcfConfig ht_config() {
  return {adapters::ht_paper_config(), adapters::kHtNumArrays};
}

template <typename Engine>
class EngineCapacityTest : public ::testing::Test {};

using EngineTypes =
    ::testing::Types<Engines<Table>::Tle, Engines<Table>::Scm,
                     Engines<Table>::TleFc, Engines<Table>::Hcf,
                     Engines<Table>::Hcf1C>;
TYPED_TEST_SUITE(EngineCapacityTest, EngineTypes);

TYPED_TEST(EngineCapacityTest, TinyReadCapacityForcesFallbacks) {
  // 6 read slots is below what a table op needs -> every speculative
  // attempt capacity-aborts; everything must complete under the lock.
  htm::ScopedCapacity caps(6, 1024);
  Table table(64);
  auto engine = EngineMaker<TypeParam>::make(table, ht_config());
  constexpr int kThreads = 3;
  constexpr int kOps = 2000;
  std::vector<std::vector<std::int64_t>> net(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    net[t].assign(64, 0);
    threads.emplace_back([&, t] {
      util::Xoshiro256 rng(42 + t);
      adapters::HtInsertOp<std::uint64_t, std::uint64_t> insert;
      adapters::HtRemoveOp<std::uint64_t, std::uint64_t> remove;
      for (int i = 0; i < kOps; ++i) {
        const std::uint64_t key = rng.next_bounded(64);
        if (rng.next_bounded(2) == 0) {
          insert.set(key, key * 2 + 1);
          engine->execute(insert);
          if (insert.result()) ++net[t][key];
        } else {
          remove.set(key);
          engine->execute(remove);
          if (remove.result()) --net[t][key];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (std::uint64_t k = 0; k < 64; ++k) {
    std::int64_t expected = 0;
    for (int t = 0; t < kThreads; ++t) expected += net[t][k];
    ASSERT_TRUE(expected == 0 || expected == 1) << TypeParam::name();
    EXPECT_EQ(table.contains(k), expected == 1) << TypeParam::name();
  }
  EXPECT_TRUE(table.check_invariants()) << TypeParam::name();
  // Speculation was indeed futile: ops completed under the lock.
  const auto snap = core::EngineStatsSnapshot::capture(engine->stats());
  EXPECT_GT(snap.phase_total(core::Phase::UnderLock), 0u)
      << TypeParam::name();
  mem::EbrDomain::instance().drain();
}

TYPED_TEST(EngineCapacityTest, TinyWriteCapacityForcesFallbacks) {
  htm::ScopedCapacity caps(4096, 2);
  Table table(64);
  auto engine = EngineMaker<TypeParam>::make(table, ht_config());
  adapters::HtInsertOp<std::uint64_t, std::uint64_t> insert;
  for (std::uint64_t k = 0; k < 128; ++k) {
    insert.set(k % 64, k);
    engine->execute(insert);
  }
  EXPECT_EQ(table.size_slow(), 64u);
  EXPECT_TRUE(table.check_invariants());
  mem::EbrDomain::instance().drain();
}

TEST(EngineCapacity, CapacityAbortsAreCountedAsCapacity) {
  htm::ScopedCapacity caps(2, 2);
  htm::stats().reset();
  Table table(64);
  core::TleEngine<Table> engine(table);
  adapters::HtInsertOp<std::uint64_t, std::uint64_t> insert;
  insert.set(1, 1);
  engine.execute(insert);
  const auto snap = htm::StatsSnapshot::capture();
  EXPECT_GT(snap.aborts[static_cast<int>(htm::AbortCode::Capacity)], 0u);
  // TLE gives up after the first capacity abort rather than burning the
  // whole budget (retrying a deterministic abort is futile).
  EXPECT_LE(snap.starts, 2u);
  mem::EbrDomain::instance().drain();
}

TEST(EngineCapacity, HcfCombiningBatchRespectsTinyCapacity) {
  // With a small write capacity, run_multi batches capacity-abort and the
  // engine must finish the batch under the lock without losing ops.
  htm::ScopedCapacity caps(4096, 8);
  struct Wide {
    htm::TxField<std::uint64_t> words[16];
  };
  struct WideOp : core::Operation<Wide> {
    void run_seq(Wide& ds) override {
      for (auto& w : ds.words) w = w + 1;
    }
  };
  Wide ds;
  core::HcfEngine<Wide> engine(ds, core::PhasePolicy::combine_first());
  constexpr int kThreads = 3;
  constexpr int kOps = 1500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      WideOp op;
      for (int i = 0; i < kOps; ++i) engine.execute(op);
    });
  }
  for (auto& th : threads) th.join();
  for (auto& w : ds.words) {
    EXPECT_EQ(w.get(), static_cast<std::uint64_t>(kThreads) * kOps);
  }
  mem::EbrDomain::instance().drain();
}

}  // namespace
}  // namespace hcf::test
