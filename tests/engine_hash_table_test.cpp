// Concurrent correctness of every engine over the hash table.
//
// Verification strategy ("operation accounting"): each worker records, per
// key, the net effect its *successful* operations claim (new inserts minus
// successful removes) and validates every Find result against the fixed
// value scheme (value == key * 2 + 1). After the run:
//
//     initially_present(k) + sum_over_threads(net(k)) == present_now(k)
//
// must hold for every key. Any lost/duplicated/phantom operation breaks the
// equation, so this catches double execution, lost updates, and torn state
// across all four HCF phases and all baseline engines.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "engine_test_util.hpp"
#include "mem/ebr.hpp"
#include "util/rng.hpp"

namespace hcf::test {
namespace {

using Table = ds::HashTable<std::uint64_t, std::uint64_t>;
using Ops = adapters::HtOpBase<std::uint64_t, std::uint64_t>;

constexpr std::uint64_t kKeyRange = 128;  // small: force contention
constexpr int kThreads = 4;
constexpr int kOpsPerThread = 15000;

HcfConfig ht_config() {
  return {adapters::ht_paper_config(), adapters::kHtNumArrays};
}

template <typename Engine>
class EngineHashTableTest : public ::testing::Test {};

using EngineTypes =
    ::testing::Types<Engines<Table>::Lock, Engines<Table>::Tle,
                     Engines<Table>::Scm, Engines<Table>::Fc,
                     Engines<Table>::TleFc, Engines<Table>::Hcf,
                     Engines<Table>::Hcf1C>;
TYPED_TEST_SUITE(EngineHashTableTest, EngineTypes);

TYPED_TEST(EngineHashTableTest, OperationAccountingReconciles) {
  Table table(kKeyRange);
  std::vector<bool> initially_present(kKeyRange, false);
  for (std::uint64_t k = 0; k < kKeyRange; k += 2) {
    table.insert(k, k * 2 + 1);
    initially_present[k] = true;
  }
  auto engine = EngineMaker<TypeParam>::make(table, ht_config());

  std::vector<std::vector<std::int64_t>> net(kThreads);
  std::vector<std::uint64_t> bad_finds(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    net[t].assign(kKeyRange, 0);
    threads.emplace_back([&, t] {
      util::Xoshiro256 rng(9000 + t);
      adapters::HtFindOp<std::uint64_t, std::uint64_t> find;
      adapters::HtInsertOp<std::uint64_t, std::uint64_t> insert;
      adapters::HtRemoveOp<std::uint64_t, std::uint64_t> remove;
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::uint64_t key = rng.next_bounded(kKeyRange);
        switch (rng.next_bounded(4)) {
          case 0: {
            insert.set(key, key * 2 + 1);
            engine->execute(insert);
            if (insert.result()) ++net[t][key];
            break;
          }
          case 1: {
            remove.set(key);
            engine->execute(remove);
            if (remove.result()) --net[t][key];
            break;
          }
          default: {
            find.set(key);
            engine->execute(find);
            if (find.result().has_value() && *find.result() != key * 2 + 1) {
              ++bad_finds[t];
            }
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(bad_finds[t], 0u);
  for (std::uint64_t k = 0; k < kKeyRange; ++k) {
    std::int64_t expected = initially_present[k] ? 1 : 0;
    for (int t = 0; t < kThreads; ++t) expected += net[t][k];
    ASSERT_TRUE(expected == 0 || expected == 1)
        << TypeParam::name() << " key " << k << " net " << expected;
    EXPECT_EQ(table.contains(k), expected == 1)
        << TypeParam::name() << " key " << k;
  }
  EXPECT_TRUE(table.check_invariants()) << TypeParam::name();
  // Every operation completed in exactly one phase.
  EXPECT_EQ(engine->stats().sum().total(),
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  mem::EbrDomain::instance().drain();
}

TYPED_TEST(EngineHashTableTest, SingleThreadedMatchesReference) {
  Table table(64);
  auto engine = EngineMaker<TypeParam>::make(table, ht_config());
  adapters::HtFindOp<std::uint64_t, std::uint64_t> find;
  adapters::HtInsertOp<std::uint64_t, std::uint64_t> insert;
  adapters::HtRemoveOp<std::uint64_t, std::uint64_t> remove;

  insert.set(3, 7);
  engine->execute(insert);
  EXPECT_TRUE(insert.result());
  find.set(3);
  engine->execute(find);
  EXPECT_EQ(find.result(), 7u);
  remove.set(3);
  engine->execute(remove);
  EXPECT_TRUE(remove.result());
  find.set(3);
  engine->execute(find);
  EXPECT_FALSE(find.result().has_value());
  remove.set(3);
  engine->execute(remove);
  EXPECT_FALSE(remove.result());
  mem::EbrDomain::instance().drain();
}

}  // namespace
}  // namespace hcf::test
