// Concurrent correctness of every engine over the sorted-list set with the
// single-traversal batch combiner, using the same operation-accounting
// verification as the other set suites.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "adapters/list_ops.hpp"
#include "engine_test_util.hpp"
#include "mem/ebr.hpp"
#include "util/rng.hpp"

namespace hcf::test {
namespace {

using List = ds::SortedList<std::uint64_t>;

constexpr std::uint64_t kKeyRange = 64;
constexpr int kThreads = 4;
constexpr int kOpsPerThread = 6000;

HcfConfig list_config() { return {adapters::list_paper_config(), 1}; }

template <typename Engine>
class EngineListTest : public ::testing::Test {};

using EngineTypes =
    ::testing::Types<Engines<List>::Lock, Engines<List>::Tle,
                     Engines<List>::Scm, Engines<List>::Fc,
                     Engines<List>::TleFc, Engines<List>::Hcf,
                     Engines<List>::Hcf1C>;
TYPED_TEST_SUITE(EngineListTest, EngineTypes);

TYPED_TEST(EngineListTest, OperationAccountingReconciles) {
  List list;
  std::vector<bool> initially_present(kKeyRange, false);
  for (std::uint64_t k = 0; k < kKeyRange; k += 2) {
    list.insert(k);
    initially_present[k] = true;
  }
  auto engine = EngineMaker<TypeParam>::make(list, list_config());

  std::vector<std::vector<std::int64_t>> net(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    net[t].assign(kKeyRange, 0);
    threads.emplace_back([&, t] {
      util::Xoshiro256 rng(7200 + t);
      adapters::ListContainsOp<std::uint64_t> contains;
      adapters::ListInsertOp<std::uint64_t> insert;
      adapters::ListRemoveOp<std::uint64_t> remove;
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::uint64_t key = rng.next_bounded(kKeyRange);
        switch (rng.next_bounded(4)) {
          case 0:
            insert.set(key);
            engine->execute(insert);
            if (insert.result()) ++net[t][key];
            break;
          case 1:
            remove.set(key);
            engine->execute(remove);
            if (remove.result()) --net[t][key];
            break;
          default:
            contains.set(key);
            engine->execute(contains);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  for (std::uint64_t k = 0; k < kKeyRange; ++k) {
    std::int64_t expected = initially_present[k] ? 1 : 0;
    for (int t = 0; t < kThreads; ++t) expected += net[t][k];
    ASSERT_TRUE(expected == 0 || expected == 1)
        << TypeParam::name() << " key " << k;
    EXPECT_EQ(list.contains(k), expected == 1)
        << TypeParam::name() << " key " << k;
  }
  EXPECT_TRUE(list.check_invariants()) << TypeParam::name();
  EXPECT_EQ(engine->stats().sum().total(),
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  mem::EbrDomain::instance().drain();
}

TYPED_TEST(EngineListTest, SingleThreadedMatchesReference) {
  List list;
  auto engine = EngineMaker<TypeParam>::make(list, list_config());
  adapters::ListInsertOp<std::uint64_t> insert;
  adapters::ListRemoveOp<std::uint64_t> remove;
  adapters::ListContainsOp<std::uint64_t> contains;
  insert.set(9);
  engine->execute(insert);
  EXPECT_TRUE(insert.result());
  contains.set(9);
  engine->execute(contains);
  EXPECT_TRUE(contains.result());
  remove.set(9);
  engine->execute(remove);
  EXPECT_TRUE(remove.result());
  remove.set(9);
  engine->execute(remove);
  EXPECT_FALSE(remove.result());
  mem::EbrDomain::instance().drain();
}

}  // namespace
}  // namespace hcf::test
