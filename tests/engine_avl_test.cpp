// Concurrent correctness of every engine over the AVL-tree set, including
// the combining/eliminating run_multi. Same operation-accounting strategy
// as the hash-table suite, under a Zipfian key distribution to exercise the
// contended paths the paper targets.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "engine_test_util.hpp"
#include "mem/ebr.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"

namespace hcf::test {
namespace {

using Tree = ds::AvlTree<std::uint64_t>;

constexpr std::uint64_t kKeyRange = 64;
constexpr int kThreads = 4;
constexpr int kOpsPerThread = 10000;

HcfConfig avl_config() { return {adapters::avl_paper_config(), 1}; }

template <typename Engine>
class EngineAvlTest : public ::testing::Test {};

using EngineTypes =
    ::testing::Types<Engines<Tree>::Lock, Engines<Tree>::Tle,
                     Engines<Tree>::Scm, Engines<Tree>::Fc,
                     Engines<Tree>::TleFc, Engines<Tree>::Hcf,
                     Engines<Tree>::Hcf1C>;
TYPED_TEST_SUITE(EngineAvlTest, EngineTypes);

TYPED_TEST(EngineAvlTest, OperationAccountingReconcilesUnderZipf) {
  Tree tree;
  std::vector<bool> initially_present(kKeyRange, false);
  for (std::uint64_t k = 0; k < kKeyRange; k += 2) {
    tree.insert(k);
    initially_present[k] = true;
  }
  auto engine = EngineMaker<TypeParam>::make(tree, avl_config());

  std::vector<std::vector<std::int64_t>> net(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    net[t].assign(kKeyRange, 0);
    threads.emplace_back([&, t] {
      util::Xoshiro256 rng(7100 + t);
      util::ZipfianGenerator zipf(kKeyRange, 0.9);
      adapters::AvlContainsOp<std::uint64_t> contains;
      adapters::AvlInsertOp<std::uint64_t> insert;
      adapters::AvlRemoveOp<std::uint64_t> remove;
      contains.bind_tree(&tree);
      insert.bind_tree(&tree);
      remove.bind_tree(&tree);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::uint64_t key = zipf.next(rng);
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
        << TypeParam::name() << " key " << k << " net " << expected;
    EXPECT_EQ(tree.contains(k), expected == 1)
        << TypeParam::name() << " key " << k;
  }
  EXPECT_TRUE(tree.check_invariants()) << TypeParam::name();
  EXPECT_EQ(engine->stats().sum().total(),
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  mem::EbrDomain::instance().drain();
}

// The no-combining ablation ops must also be correct under every engine.
TYPED_TEST(EngineAvlTest, NoCombineVariantAlsoCorrect) {
  Tree tree;
  auto engine = EngineMaker<TypeParam>::make(tree, avl_config());
  using NC = adapters::AvlNoCombine<std::uint64_t>;
  constexpr int kSmallThreads = 3;
  constexpr int kSmallOps = 4000;
  std::vector<std::vector<std::int64_t>> net(kSmallThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kSmallThreads; ++t) {
    net[t].assign(kKeyRange, 0);
    threads.emplace_back([&, t] {
      util::Xoshiro256 rng(81 + t);
      typename NC::Insert insert;
      typename NC::Remove remove;
      insert.bind_tree(&tree);
      remove.bind_tree(&tree);
      for (int i = 0; i < kSmallOps; ++i) {
        const std::uint64_t key = rng.next_bounded(kKeyRange);
        if (rng.next_bounded(2) == 0) {
          insert.set(key);
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
  for (std::uint64_t k = 0; k < kKeyRange; ++k) {
    std::int64_t expected = 0;
    for (int t = 0; t < kSmallThreads; ++t) expected += net[t][k];
    ASSERT_TRUE(expected == 0 || expected == 1) << k;
    EXPECT_EQ(tree.contains(k), expected == 1) << k;
  }
  EXPECT_TRUE(tree.check_invariants());
  mem::EbrDomain::instance().drain();
}

}  // namespace
}  // namespace hcf::test
