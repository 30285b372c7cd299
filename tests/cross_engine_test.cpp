// Cross-engine interference: the orec table, global epoch, and EBR domain
// are process-global, so independent engines over independent structures
// share them. Running several engines concurrently must not corrupt any of
// them (false orec conflicts are allowed — lost updates are not).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "adapters/stack_ops.hpp"
#include "engine_test_util.hpp"
#include "harness/linearizability.hpp"
#include "mem/ebr.hpp"
#include "util/barrier.hpp"
#include "util/rng.hpp"

namespace hcf::test {
namespace {

TEST(CrossEngine, ThreeEnginesShareTheSubstrate) {
  using Table = ds::HashTable<std::uint64_t, std::uint64_t>;
  using Tree = ds::AvlTree<std::uint64_t>;
  using St = ds::Stack<std::uint64_t>;

  Table table(64);
  Tree tree;
  St stack;
  core::HcfEngine<Table> ht_engine(table, adapters::ht_paper_config(),
                                   adapters::kHtNumArrays);
  core::TleEngine<Tree> tree_engine(tree);
  core::FcEngine<St> stack_engine(stack);

  constexpr int kOps = 6000;
  constexpr std::uint64_t kRange = 64;

  std::vector<std::thread> threads;
  // Two threads per engine, interleaved across engines.
  std::vector<std::vector<std::int64_t>> ht_net(2), tree_net(2);
  std::vector<std::vector<std::uint64_t>> pushed(2), popped(2);

  for (int t = 0; t < 2; ++t) {
    ht_net[t].assign(kRange, 0);
    tree_net[t].assign(kRange, 0);
    threads.emplace_back([&, t] {  // hash table worker
      util::Xoshiro256 rng(100 + t);
      adapters::HtInsertOp<std::uint64_t, std::uint64_t> insert;
      adapters::HtRemoveOp<std::uint64_t, std::uint64_t> remove;
      for (int i = 0; i < kOps; ++i) {
        const auto key = rng.next_bounded(kRange);
        if (rng.next_bounded(2) == 0) {
          insert.set(key, key * 2 + 1);
          ht_engine.execute(insert);
          if (insert.result()) ++ht_net[t][key];
        } else {
          remove.set(key);
          ht_engine.execute(remove);
          if (remove.result()) --ht_net[t][key];
        }
      }
    });
    threads.emplace_back([&, t] {  // AVL worker
      util::Xoshiro256 rng(200 + t);
      adapters::AvlInsertOp<std::uint64_t> insert;
      adapters::AvlRemoveOp<std::uint64_t> remove;
      insert.bind_tree(&tree);
      remove.bind_tree(&tree);
      for (int i = 0; i < kOps; ++i) {
        const auto key = rng.next_bounded(kRange);
        if (rng.next_bounded(2) == 0) {
          insert.set(key);
          tree_engine.execute(insert);
          if (insert.result()) ++tree_net[t][key];
        } else {
          remove.set(key);
          tree_engine.execute(remove);
          if (remove.result()) --tree_net[t][key];
        }
      }
    });
    threads.emplace_back([&, t] {  // stack worker
      util::Xoshiro256 rng(300 + t);
      adapters::StackPushOp<std::uint64_t> push;
      adapters::StackPopOp<std::uint64_t> pop;
      std::uint64_t seq = 0;
      for (int i = 0; i < kOps; ++i) {
        if (rng.next_bounded(2) == 0) {
          const std::uint64_t v = (static_cast<std::uint64_t>(t) << 32) | seq++;
          push.set(v);
          stack_engine.execute(push);
          pushed[t].push_back(v);
        } else {
          stack_engine.execute(pop);
          if (pop.result().has_value()) popped[t].push_back(*pop.result());
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  // Hash table accounting.
  for (std::uint64_t k = 0; k < kRange; ++k) {
    std::int64_t expected = ht_net[0][k] + ht_net[1][k];
    ASSERT_TRUE(expected == 0 || expected == 1) << k;
    EXPECT_EQ(table.contains(k), expected == 1) << k;
  }
  EXPECT_TRUE(table.check_invariants());
  // Tree accounting.
  for (std::uint64_t k = 0; k < kRange; ++k) {
    std::int64_t expected = tree_net[0][k] + tree_net[1][k];
    ASSERT_TRUE(expected == 0 || expected == 1) << k;
    EXPECT_EQ(tree.contains(k), expected == 1) << k;
  }
  EXPECT_TRUE(tree.check_invariants());
  // Stack accounting.
  std::multiset<std::uint64_t> all_pushed, all_popped;
  for (auto& v : pushed) all_pushed.insert(v.begin(), v.end());
  for (auto& v : popped) all_popped.insert(v.begin(), v.end());
  for (auto v : all_popped) ASSERT_EQ(all_pushed.count(v), 1u);
  std::multiset<std::uint64_t> left = all_pushed;
  for (auto v : all_popped) left.erase(v);
  std::multiset<std::uint64_t> actual;
  stack.for_each([&](std::uint64_t v) { actual.insert(v); });
  EXPECT_EQ(actual, left);

  mem::EbrDomain::instance().drain();
}

// ---- Sequential-spec checks over the unified engine list -------------------
// Every engine is now an instantiation of the same phase machine; a scripted
// single-threaded sequence must therefore produce the exact sequential-spec
// outcome regardless of which policy/mode drives it.

using Dq = ds::Deque<std::uint64_t>;
using Pq = ds::SkipListPq<std::uint64_t>;

HcfConfig deque_cfg() {
  return {adapters::deque_paper_config(), adapters::kDequeNumArrays};
}
HcfConfig pq_cfg() {
  return {adapters::pq_paper_config(), adapters::kPqNumArrays};
}

template <typename Engine>
void check_deque_sequential_spec() {
  Dq dq;
  auto engine = EngineMaker<Engine>::make(dq, deque_cfg());
  adapters::PushLeftOp<std::uint64_t> push_left;
  adapters::PushRightOp<std::uint64_t> push_right;
  adapters::PopLeftOp<std::uint64_t> pop_left;
  adapters::PopRightOp<std::uint64_t> pop_right;
  for (std::uint64_t v = 0; v < 5; ++v) {
    push_left.set(v);
    engine->execute(push_left);
  }
  for (std::uint64_t v = 5; v < 10; ++v) {
    push_right.set(v);
    engine->execute(push_right);
  }
  // Deque is now 4 3 2 1 0 5 6 7 8 9.
  for (std::uint64_t expected : {4u, 3u, 2u, 1u, 0u}) {
    engine->execute(pop_left);
    ASSERT_EQ(pop_left.result(), expected) << Engine::name();
  }
  for (std::uint64_t expected : {9u, 8u, 7u, 6u, 5u}) {
    engine->execute(pop_right);
    ASSERT_EQ(pop_right.result(), expected) << Engine::name();
  }
  engine->execute(pop_left);
  EXPECT_FALSE(pop_left.result().has_value()) << Engine::name();
  engine->execute(pop_right);
  EXPECT_FALSE(pop_right.result().has_value()) << Engine::name();
  EXPECT_TRUE(dq.check_invariants()) << Engine::name();
}

template <typename Engine>
void check_pq_sequential_spec() {
  Pq pq;
  auto engine = EngineMaker<Engine>::make(pq, pq_cfg());
  adapters::PqInsertOp<std::uint64_t> insert;
  adapters::PqRemoveMinOp<std::uint64_t> remove_min;
  for (std::uint64_t k : {5u, 1u, 9u, 3u, 7u, 0u, 8u}) {
    insert.set(k);
    engine->execute(insert);
  }
  for (std::uint64_t expected : {0u, 1u, 3u, 5u, 7u, 8u, 9u}) {
    engine->execute(remove_min);
    ASSERT_EQ(remove_min.result(), expected) << Engine::name();
  }
  engine->execute(remove_min);
  EXPECT_FALSE(remove_min.result().has_value()) << Engine::name();
  EXPECT_TRUE(pq.check_invariants()) << Engine::name();
}

TEST(CrossEngine, EveryEngineMeetsDequeSequentialSpec) {
  check_deque_sequential_spec<Engines<Dq>::Lock>();
  check_deque_sequential_spec<Engines<Dq>::Tle>();
  check_deque_sequential_spec<Engines<Dq>::Scm>();
  check_deque_sequential_spec<Engines<Dq>::Fc>();
  check_deque_sequential_spec<Engines<Dq>::TleFc>();
  check_deque_sequential_spec<Engines<Dq>::Hcf>();
  check_deque_sequential_spec<Engines<Dq>::Hcf1C>();
  mem::EbrDomain::instance().drain();
}

TEST(CrossEngine, EveryEngineMeetsPqSequentialSpec) {
  check_pq_sequential_spec<Engines<Pq>::Lock>();
  check_pq_sequential_spec<Engines<Pq>::Tle>();
  check_pq_sequential_spec<Engines<Pq>::Scm>();
  check_pq_sequential_spec<Engines<Pq>::Fc>();
  check_pq_sequential_spec<Engines<Pq>::TleFc>();
  check_pq_sequential_spec<Engines<Pq>::Hcf>();
  check_pq_sequential_spec<Engines<Pq>::Hcf1C>();
  mem::EbrDomain::instance().drain();
}

// ---- Concurrent cross-structure run per unified engine ---------------------
// A deque engine and a PQ engine of the same family run side by side (shared
// orec table / epoch / EBR domain); both structures must satisfy their
// multiset accounting afterwards.
template <typename DqEngine, typename PqEngine>
void run_deque_and_pq_concurrently() {
  constexpr int kOps = 3000;
  Dq dq;
  Pq pq;
  auto dq_engine = EngineMaker<DqEngine>::make(dq, deque_cfg());
  auto pq_engine = EngineMaker<PqEngine>::make(pq, pq_cfg());

  std::vector<std::vector<std::uint64_t>> dq_pushed(2), dq_popped(2);
  std::vector<std::vector<std::uint64_t>> pq_inserted(2), pq_removed(2);
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {  // deque worker
      util::Xoshiro256 rng(400 + t);
      adapters::PushLeftOp<std::uint64_t> push_left;
      adapters::PopRightOp<std::uint64_t> pop_right;
      std::uint64_t seq = 0;
      for (int i = 0; i < kOps; ++i) {
        if (rng.next_bounded(2) == 0) {
          const std::uint64_t v = (static_cast<std::uint64_t>(t) << 32) | seq++;
          push_left.set(v);
          dq_engine->execute(push_left);
          dq_pushed[t].push_back(v);
        } else {
          dq_engine->execute(pop_right);
          if (pop_right.result().has_value()) {
            dq_popped[t].push_back(*pop_right.result());
          }
        }
      }
    });
    threads.emplace_back([&, t] {  // priority-queue worker
      util::Xoshiro256 rng(500 + t);
      adapters::PqInsertOp<std::uint64_t> insert;
      adapters::PqRemoveMinOp<std::uint64_t> remove_min;
      std::uint64_t seq = 0;
      for (int i = 0; i < kOps; ++i) {
        if (rng.next_bounded(2) == 0) {
          const std::uint64_t key = (rng.next_bounded(1 << 16) << 32) |
                                    (static_cast<std::uint64_t>(t) << 24) |
                                    seq++;
          insert.set(key);
          pq_engine->execute(insert);
          pq_inserted[t].push_back(key);
        } else {
          pq_engine->execute(remove_min);
          if (remove_min.result().has_value()) {
            pq_removed[t].push_back(*remove_min.result());
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  std::multiset<std::uint64_t> pushed, popped;
  for (auto& v : dq_pushed) pushed.insert(v.begin(), v.end());
  for (auto& v : dq_popped) popped.insert(v.begin(), v.end());
  for (std::uint64_t v : popped) {
    ASSERT_EQ(pushed.count(v), 1u) << DqEngine::name();
    ASSERT_EQ(popped.count(v), 1u) << DqEngine::name();
  }
  std::multiset<std::uint64_t> expected_left = pushed;
  for (std::uint64_t v : popped) expected_left.erase(v);
  std::multiset<std::uint64_t> actual_left;
  dq.for_each([&](std::uint64_t v) { actual_left.insert(v); });
  EXPECT_EQ(actual_left, expected_left) << DqEngine::name();
  EXPECT_TRUE(dq.check_invariants()) << DqEngine::name();

  std::multiset<std::uint64_t> inserted, removed;
  for (auto& v : pq_inserted) inserted.insert(v.begin(), v.end());
  for (auto& v : pq_removed) removed.insert(v.begin(), v.end());
  for (std::uint64_t k : removed) {
    ASSERT_EQ(inserted.count(k), 1u) << PqEngine::name();
    ASSERT_EQ(removed.count(k), 1u) << PqEngine::name();
  }
  std::multiset<std::uint64_t> pq_expected = inserted;
  for (std::uint64_t k : removed) pq_expected.erase(k);
  std::multiset<std::uint64_t> pq_actual;
  while (auto k = pq.remove_min()) pq_actual.insert(*k);
  EXPECT_EQ(pq_actual, pq_expected) << PqEngine::name();
  EXPECT_TRUE(pq.check_invariants()) << PqEngine::name();
  mem::EbrDomain::instance().drain();
}

TEST(CrossEngine, UnifiedEnginesShareSubstrateAcrossDequeAndPq) {
  run_deque_and_pq_concurrently<Engines<Dq>::Lock, Engines<Pq>::Lock>();
  run_deque_and_pq_concurrently<Engines<Dq>::Tle, Engines<Pq>::Tle>();
  run_deque_and_pq_concurrently<Engines<Dq>::Fc, Engines<Pq>::Fc>();
  run_deque_and_pq_concurrently<Engines<Dq>::TleFc, Engines<Pq>::TleFc>();
  run_deque_and_pq_concurrently<Engines<Dq>::Hcf, Engines<Pq>::Hcf>();
  run_deque_and_pq_concurrently<Engines<Dq>::Hcf1C, Engines<Pq>::Hcf1C>();
}

// ---- Sharded variants ------------------------------------------------------
// The sharded meta-engine partitions the hash table across N independent
// HCF instances. Per-shard runs must still meet the sequential spec, and
// the whole — including the cross-shard size() path — must stay
// linearizable: sharding changes where state lives, never what histories
// are admissible.

using ShardTable = ds::HashTable<std::uint64_t, std::uint64_t>;
using ShardedHcf = core::ShardedEngine<core::HcfEngine<ShardTable>>;

struct ShardedFixture {
  std::vector<std::unique_ptr<ShardTable>> tables;
  std::vector<ShardTable*> ptrs;
  std::unique_ptr<ShardedHcf> engine;

  explicit ShardedFixture(std::size_t shards) {
    for (std::size_t i = 0; i < shards; ++i) {
      tables.push_back(std::make_unique<ShardTable>(64));
      ptrs.push_back(tables.back().get());
    }
    engine = std::make_unique<ShardedHcf>(std::span<ShardTable* const>(ptrs),
                                          adapters::ht_paper_config(),
                                          adapters::kHtNumArrays);
  }
};

void check_sharded_ht_sequential_spec(std::size_t shards) {
  ShardedFixture f(shards);
  adapters::HtInsertOp<std::uint64_t, std::uint64_t> insert;
  adapters::HtRemoveOp<std::uint64_t, std::uint64_t> remove;
  adapters::HtFindOp<std::uint64_t, std::uint64_t> find;

  for (std::uint64_t k = 0; k < 20; ++k) {
    insert.set(k, k * 3 + 1);
    f.engine->execute(insert);
    ASSERT_TRUE(insert.result()) << shards << " shards, key " << k;
  }
  ASSERT_EQ(f.engine->size(), 20u) << shards << " shards";
  // Re-insert updates in place (set semantics of HashTable::insert).
  insert.set(5, 999);
  f.engine->execute(insert);
  EXPECT_FALSE(insert.result()) << shards << " shards";
  find.set(5);
  f.engine->execute(find);
  ASSERT_TRUE(find.result().has_value());
  EXPECT_EQ(*find.result(), 999u) << shards << " shards";

  for (std::uint64_t k = 0; k < 20; k += 2) {
    remove.set(k);
    f.engine->execute(remove);
    ASSERT_TRUE(remove.result()) << shards << " shards, key " << k;
  }
  remove.set(4);
  f.engine->execute(remove);
  EXPECT_FALSE(remove.result()) << shards << " shards";
  ASSERT_EQ(f.engine->size(), 10u) << shards << " shards";

  for (std::uint64_t k = 0; k < 20; ++k) {
    find.set(k);
    f.engine->execute(find);
    EXPECT_EQ(find.result().has_value(), k % 2 == 1)
        << shards << " shards, key " << k;
  }
  for (std::size_t s = 0; s < shards; ++s) {
    EXPECT_TRUE(f.tables[s]->check_invariants()) << shards << " shards";
  }
}

TEST(CrossEngine, ShardedHtMeetsSequentialSpec) {
  check_sharded_ht_sequential_spec(1);
  check_sharded_ht_sequential_spec(2);
  check_sharded_ht_sequential_spec(8);
  mem::EbrDomain::instance().drain();
}

// Sequential specification of the sharded hash table as one abstract map,
// with whole-structure Size as a first-class operation (the cross-shard
// all-lock path must linearize against the per-shard fast paths).
struct ShardedMapModel {
  using State = std::map<std::uint64_t, std::uint64_t>;
  struct Op {
    enum Kind : std::uint8_t { Find, Insert, Remove, Size };
    Kind kind = Find;
    std::uint64_t key = 0;
    std::uint64_t value = 0;     // Insert argument
    bool ok = false;             // Insert ("was new") / Remove ("was present")
    bool found = false;          // Find: key present
    std::uint64_t observed = 0;  // Find: value seen; Size: count seen
  };

  static bool apply(State& s, const Op& op) {
    switch (op.kind) {
      case Op::Find: {
        const auto it = s.find(op.key);
        if (op.found != (it != s.end())) return false;
        return !op.found || it->second == op.observed;
      }
      case Op::Insert: {
        const bool fresh = s.find(op.key) == s.end();
        if (op.ok != fresh) return false;
        s[op.key] = op.value;  // set semantics: update in place when present
        return true;
      }
      case Op::Remove: {
        if (op.ok != (s.find(op.key) != s.end())) return false;
        s.erase(op.key);
        return true;
      }
      case Op::Size:
        return op.observed == s.size();
    }
    return false;
  }
};

using ShardedTimedOp = harness::TimedOp<ShardedMapModel::Op>;

// Barrier-separated rounds of randomized map ops on a tiny key space;
// thread 0 additionally issues one cross-shard size() per round.
bool sharded_history_linearizable(std::size_t shards, int num_threads,
                                  int rounds, int ops_per_round,
                                  std::uint64_t seed) {
  using MOp = ShardedMapModel::Op;
  ShardedFixture f(shards);
  harness::HistoryClock clock;
  std::vector<std::vector<std::vector<ShardedTimedOp>>> per_round(
      static_cast<std::size_t>(rounds));
  for (auto& r : per_round) r.resize(static_cast<std::size_t>(num_threads));
  util::SpinBarrier barrier(static_cast<std::size_t>(num_threads));
  std::vector<harness::HistoryRecorder<MOp>> recorders(
      static_cast<std::size_t>(num_threads),
      harness::HistoryRecorder<MOp>(clock));

  std::vector<std::thread> threads;
  for (int t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      util::Xoshiro256 rng(seed + static_cast<std::uint64_t>(t) * 77);
      adapters::HtInsertOp<std::uint64_t, std::uint64_t> insert;
      adapters::HtRemoveOp<std::uint64_t, std::uint64_t> remove;
      adapters::HtFindOp<std::uint64_t, std::uint64_t> find;
      auto& rec = recorders[static_cast<std::size_t>(t)];
      for (int r = 0; r < rounds; ++r) {
        barrier.arrive_and_wait();
        rec.clear();
        for (int i = 0; i < ops_per_round; ++i) {
          // Keys 0..5 scatter across shards; low cardinality keeps the
          // abstract state set small and the contention high.
          const std::uint64_t key = rng.next_bounded(6);
          const auto seq = rec.invoke();
          if (t == 0 && i == 0) {
            const std::size_t n = f.engine->size();
            MOp op;
            op.kind = MOp::Size;
            op.observed = n;
            rec.response(seq, op);
            continue;
          }
          switch (rng.next_bounded(3)) {
            case 0: {
              const std::uint64_t value = rng.next_bounded(1000);
              insert.set(key, value);
              f.engine->execute(insert);
              MOp op;
              op.kind = MOp::Insert;
              op.key = key;
              op.value = value;
              op.ok = insert.result();
              rec.response(seq, op);
              break;
            }
            case 1: {
              remove.set(key);
              f.engine->execute(remove);
              MOp op;
              op.kind = MOp::Remove;
              op.key = key;
              op.ok = remove.result();
              rec.response(seq, op);
              break;
            }
            default: {
              find.set(key);
              f.engine->execute(find);
              MOp op;
              op.kind = MOp::Find;
              op.key = key;
              op.found = find.result().has_value();
              op.observed = op.found ? *find.result() : 0;
              rec.response(seq, op);
            }
          }
        }
        barrier.arrive_and_wait();  // quiesce: round boundary
        per_round[static_cast<std::size_t>(r)][static_cast<std::size_t>(t)] =
            rec.ops();
      }
    });
  }
  for (auto& th : threads) th.join();

  std::vector<std::vector<ShardedTimedOp>> merged;
  for (auto& round : per_round) {
    merged.push_back(harness::merge_histories(std::move(round)));
  }
  return harness::check_rounds<ShardedMapModel>(merged, {});
}

TEST(CrossEngine, ShardedHtHistoriesLinearizable) {
  EXPECT_TRUE(sharded_history_linearizable(1, 3, 24, 4, 0xA1));
  EXPECT_TRUE(sharded_history_linearizable(2, 3, 24, 4, 0xB2));
  EXPECT_TRUE(sharded_history_linearizable(8, 3, 24, 4, 0xC3));
  mem::EbrDomain::instance().drain();
}

}  // namespace
}  // namespace hcf::test
