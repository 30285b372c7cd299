// Parallel-combining delegation (core/delegation.hpp, DESIGN.md §13):
// claim-CAS exactly-once semantics, delegate_batch's group carving under
// the commutativity graph, the combiner's serial fallback when a delegate
// never shows (crash simulation), the done-word park/wake handshake, the
// ConflictGraph's demote/decay/re-probe refinement, and an engine-level
// exactly-once stress where delegates race the fallback sweep at 1, 2 and
// 8 shards (run under TSan in the sanitizer build).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
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

using namespace hcf;

using Table = ds::HashTable<std::uint64_t, std::uint64_t>;
using Op = core::Operation<Table>;
using InsertOp = adapters::HtInsertOp<std::uint64_t, std::uint64_t>;
using Core = core::CombineCore<Table>;

// ---- ConflictGraph unit tests -----------------------------------------

TEST(ConflictGraph, UnseededPairsNeverCommute) {
  core::ConflictGraph graph;
  EXPECT_FALSE(graph.commutes(0, 0));
  EXPECT_FALSE(graph.commutes(0, 1));
  EXPECT_FALSE(graph.masks_commute(0b01, 0b01));
  // Cross-class pairs are checked too — disjoint masks don't help.
  EXPECT_FALSE(graph.masks_commute(0b01, 0b10));
  // Only an empty side is trivially commuting.
  EXPECT_TRUE(graph.masks_commute(0b01, 0));
}

TEST(ConflictGraph, SeedingIsSymmetricAndMaskWide) {
  core::ConflictGraph graph;
  graph.seed(0, 1);
  EXPECT_TRUE(graph.commutes(0, 1));
  EXPECT_TRUE(graph.commutes(1, 0));
  EXPECT_FALSE(graph.commutes(0, 0));
  // Mixed mask: the (0,0) pair is unseeded, so the cross product fails.
  EXPECT_FALSE(graph.masks_commute(0b11, 0b11));
  graph.seed(0, 0);
  graph.seed(1, 1);
  EXPECT_TRUE(graph.masks_commute(0b11, 0b11));
  // Un-seeding turns the pair back off.
  graph.seed(0, 1, false);
  EXPECT_FALSE(graph.commutes(0, 1));
}

TEST(ConflictGraph, SustainedConflictsDemotePair) {
  core::ConflictGraph graph;
  graph.seed(1, 1);
  for (std::uint32_t i = 0;
       i + 1 < core::ConflictGraph::kDemoteConflicts; ++i) {
    graph.record_conflict(0b10, 0b10);
  }
  EXPECT_TRUE(graph.commutes(1, 1));  // one below the budget
  graph.record_conflict(0b10, 0b10);
  EXPECT_FALSE(graph.commutes(1, 1));  // demoted
  EXPECT_FALSE(graph.masks_commute(0b10, 0b10));
}

TEST(ConflictGraph, CleanSessionsDecayTheConflictCount) {
  core::ConflictGraph graph;
  graph.seed(1, 1);
  // Interleave conflicts with clean commits 1:1 — the count never grows,
  // so the pair must survive far past the raw demote budget.
  for (std::uint32_t i = 0; i < 4 * core::ConflictGraph::kDemoteConflicts;
       ++i) {
    graph.record_conflict(0b10, 0b10);
    graph.record_clean(0b10);
  }
  EXPECT_TRUE(graph.commutes(1, 1));
}

TEST(ConflictGraph, ReprobeRestoresDemotedPair) {
  core::ConflictGraph graph;
  graph.seed(1, 1);
  for (std::uint32_t i = 0; i < core::ConflictGraph::kDemoteConflicts; ++i) {
    graph.record_conflict(0b10, 0b10);
  }
  ASSERT_FALSE(graph.commutes(1, 1));
  // After kReprobeSessions delegating sessions the sit-out expires and the
  // pair is restored with a clean slate.
  for (std::uint32_t i = 0; i < 2 * core::ConflictGraph::kReprobeSessions;
       ++i) {
    graph.on_session();
  }
  EXPECT_TRUE(graph.commutes(1, 1));
}

// ---- claim protocol ----------------------------------------------------

TEST(DelegationClaim, ExactlyOneClaimSucceeds) {
  InsertOp op;
  op.set(1, 2);
  op.prepare();
  op.mark_announced();
  op.mark_being_helped();

  InsertOp other;
  other.set(3, 4);
  other.prepare();
  other.mark_announced();
  other.mark_being_helped();

  core::DelegationSession<Table> session;
  Op* ops[] = {&op, &other};
  auto* group = session.add_group(ops, 2, 0b10);
  ASSERT_NE(group, nullptr);
  EXPECT_FALSE(group->finished());

  op.mark_delegated(group);
  EXPECT_EQ(op.status(), core::OpStatus::Delegated);
  EXPECT_EQ(op.delegate_group(), group);

  EXPECT_TRUE(op.claim_delegation());
  EXPECT_EQ(op.status(), core::OpStatus::BeingHelped);
  EXPECT_FALSE(op.claim_delegation());  // already claimed

  // Completion still flows through the normal status protocol.
  op.mark_done(core::Phase::Combining);
  other.mark_done(core::Phase::Combining);
  group->finish();
  EXPECT_TRUE(group->finished());
}

TEST(DelegationClaim, TwoThreadRaceHasOneWinner) {
  for (int iter = 0; iter < 500; ++iter) {
    InsertOp op;
    op.set(1, 2);
    op.prepare();
    op.mark_announced();
    op.mark_being_helped();
    core::DelegationSession<Table> session;
    Op* ops[] = {&op};
    auto* group = session.add_group(ops, 1, 0b10);
    op.mark_delegated(group);

    std::atomic<int> ready{0};
    std::atomic<int> wins{0};
    auto contender = [&] {
      ready.fetch_add(1);
      while (ready.load() != 2) {
      }
      if (op.claim_delegation()) wins.fetch_add(1);
    };
    std::thread a(contender);
    std::thread b(contender);
    a.join();
    b.join();
    ASSERT_EQ(wins.load(), 1) << "iteration " << iter;
    op.mark_done(core::Phase::Combining);
    group->finish();
  }
}

TEST(DelegationSession, ArenaRejectsOverflow) {
  core::DelegationSession<Table> session;
  InsertOp op;
  op.set(1, 1);
  Op* ops[] = {&op, &op};
  for (std::size_t i = 0; i < core::kMaxDelegateGroups; ++i) {
    ASSERT_NE(session.add_group(ops, 2, 0b10), nullptr);
  }
  EXPECT_EQ(session.add_group(ops, 2, 0b10), nullptr);  // group cap
  EXPECT_EQ(session.num_groups(), core::kMaxDelegateGroups);
}

// ---- delegate_batch group carving --------------------------------------

// Finds `n` distinct keys whose delegate_key() (top two bits of the mixed
// key) equals `range`, avoiding keys already in `used`.
std::vector<std::uint64_t> keys_in_range(std::uint64_t range, std::size_t n,
                                         std::vector<std::uint64_t>& used) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t k = 1; out.size() < n; ++k) {
    if ((util::mix64(k) >> 62) != range) continue;
    bool taken = false;
    for (const std::uint64_t u : used) taken |= (u == k);
    if (taken) continue;
    out.push_back(k);
    used.push_back(k);
  }
  return out;
}

struct BatchFixture {
  std::vector<std::unique_ptr<InsertOp>> storage;
  std::vector<Op*> batch;

  InsertOp* add(std::uint64_t key) {
    auto op = std::make_unique<InsertOp>();
    op->set(key, key * 2 + 1);
    op->prepare();
    op->mark_announced();
    op->mark_being_helped();
    batch.push_back(op.get());
    storage.push_back(std::move(op));
    return static_cast<InsertOp*>(storage.back().get());
  }
};

TEST(DelegateBatch, CarvesDisjointKeyGroupsAndKeepsOwnGroup) {
  std::vector<std::uint64_t> used;
  const auto range_a = keys_in_range(0, 3, used);
  const auto range_b = keys_in_range(1, 2, used);
  const auto range_c = keys_in_range(2, 2, used);  // own lives here
  const auto range_d = keys_in_range(3, 1, used);  // singleton: kept

  BatchFixture fx;
  for (const auto k : range_a) fx.add(k);
  for (const auto k : range_b) fx.add(k);
  InsertOp* own = fx.add(range_c[0]);
  fx.add(range_c[1]);
  fx.add(range_d[0]);

  core::ConflictGraph graph;
  graph.seed(adapters::kHtInsertClass, adapters::kHtInsertClass);
  core::DelegationSession<Table> session;
  core::EngineStats stats;
  Core::delegate_batch(*own, fx.batch, session, graph, stats);

  // Ranges A and B were delegated; C (contains own) and the D singleton
  // stay with the combiner.
  EXPECT_EQ(session.num_groups(), 2u);
  EXPECT_EQ(fx.batch.size(), 3u);
  EXPECT_EQ(stats.sum().delegated_groups, 2u);
  EXPECT_EQ(stats.sum().delegated_ops, 5u);
  for (Op* kept : fx.batch) {
    EXPECT_EQ(kept->status(), core::OpStatus::BeingHelped);
  }
  std::size_t delegated_seen = 0;
  for (std::size_t g = 0; g < session.num_groups(); ++g) {
    auto& group = session.group(g);
    EXPECT_GE(group.count, core::kMinDelegateGroupSize);
    EXPECT_EQ(group.ops[0]->status(), core::OpStatus::Delegated);
    delegated_seen += group.count;
  }
  EXPECT_EQ(delegated_seen, 5u);

  // Drain the session: nobody owns the assignees, so the fallback sweep
  // must claim and apply every group (keys land in the table).
  Table table(64);
  sync::TxLock lock;
  Core::PubArray pa;
  Core::finish_delegation(lock, table, pa, session, graph, stats,
                          util::WaitPolicy::SpinYield);
  for (std::size_t g = 0; g < 2; ++g) {
    EXPECT_TRUE(session.group(g).finished());
  }
  for (const auto k : range_a) EXPECT_TRUE(table.contains(k));
  for (const auto k : range_b) EXPECT_TRUE(table.contains(k));
  EXPECT_EQ(stats.sum().delegate_fallbacks, 2u);
  mem::EbrDomain::instance().drain();
}

TEST(DelegateBatch, UnseededGraphDelegatesNothing) {
  std::vector<std::uint64_t> used;
  BatchFixture fx;
  for (const auto k : keys_in_range(0, 3, used)) fx.add(k);
  InsertOp* own = nullptr;
  for (const auto k : keys_in_range(1, 3, used)) own = fx.add(k);

  core::ConflictGraph graph;  // nothing seeded
  core::DelegationSession<Table> session;
  core::EngineStats stats;
  Core::delegate_batch(*own, fx.batch, session, graph, stats);
  EXPECT_EQ(session.num_groups(), 0u);
  EXPECT_EQ(fx.batch.size(), 6u);
  EXPECT_EQ(stats.sum().delegated_groups, 0u);
}

TEST(DelegateBatch, SmallBatchesAreNeverDelegated) {
  std::vector<std::uint64_t> used;
  BatchFixture fx;
  fx.add(keys_in_range(0, 1, used)[0]);
  fx.add(keys_in_range(0, 1, used)[0]);
  InsertOp* own = fx.add(keys_in_range(1, 1, used)[0]);

  core::ConflictGraph graph;
  graph.seed(adapters::kHtInsertClass, adapters::kHtInsertClass);
  core::DelegationSession<Table> session;
  core::EngineStats stats;
  Core::delegate_batch(*own, fx.batch, session, graph, stats);
  EXPECT_EQ(session.num_groups(), 0u);  // below kMinDelegateBatch
  EXPECT_EQ(fx.batch.size(), 3u);
}

// ---- crash simulation: the delegate never shows ------------------------

TEST(DelegationFallback, CombinerCompletesWhenDelegateParksForever) {
  // The assignees' owners are simulated as parked forever (no thread ever
  // calls claim_delegation on them); finish_delegation must win every
  // claim and complete all groups serially — progress never depends on a
  // delegate.
  std::vector<std::uint64_t> used;
  BatchFixture fx;
  for (const auto k : keys_in_range(0, 2, used)) fx.add(k);
  for (const auto k : keys_in_range(1, 2, used)) fx.add(k);

  core::ConflictGraph graph;
  graph.seed(adapters::kHtInsertClass, adapters::kHtInsertClass);
  core::DelegationSession<Table> session;
  core::EngineStats stats;
  Op* group_a[] = {fx.batch[0], fx.batch[1]};
  Op* group_b[] = {fx.batch[2], fx.batch[3]};
  auto* ga = session.add_group(group_a, 2, 0b10);
  auto* gb = session.add_group(group_b, 2, 0b10);
  ASSERT_NE(ga, nullptr);
  ASSERT_NE(gb, nullptr);
  fx.batch[0]->mark_delegated(ga);
  fx.batch[2]->mark_delegated(gb);

  Table table(64);
  sync::TxLock lock;
  Core::PubArray pa;
  Core::finish_delegation(lock, table, pa, session, graph, stats,
                          util::WaitPolicy::SpinYield);
  for (Op* op : fx.batch) {
    EXPECT_EQ(op->status(), core::OpStatus::Done);
  }
  for (const auto k : used) EXPECT_TRUE(table.contains(k));
  EXPECT_EQ(stats.sum().delegate_fallbacks, 2u);
  EXPECT_EQ(stats.sum().delegate_applies, 0u);
  mem::EbrDomain::instance().drain();
}

TEST(DelegationFallback, DelegateAndSweepRaceAppliesExactlyOnce) {
  // A live delegate claims (and slowly applies) its group while the
  // combiner's fallback sweep runs concurrently: whoever wins the claim
  // applies; the other waits. Either way every op applies exactly once.
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<std::uint64_t> used;
    BatchFixture fx;
    for (const auto k : keys_in_range(0, 2, used)) fx.add(k);

    core::ConflictGraph graph;
    graph.seed(adapters::kHtInsertClass, adapters::kHtInsertClass);
    core::DelegationSession<Table> session;
    core::EngineStats stats;
    Op* ops[] = {fx.batch[0], fx.batch[1]};
    auto* group = session.add_group(ops, 2, 0b10);
    fx.batch[0]->mark_delegated(group);

    Table table(64);
    sync::TxLock lock;
    Core::PubArray pa;
    std::thread delegate([&] {
      if (fx.batch[0]->claim_delegation()) {
        Core::apply_delegated_group(lock, table, *fx.batch[0], pa, graph,
                                    stats, util::WaitPolicy::SpinYield,
                                    /*by_delegate=*/true);
      }
    });
    Core::finish_delegation(lock, table, pa, session, graph, stats,
                            util::WaitPolicy::SpinYield);
    delegate.join();
    for (Op* op : fx.batch) {
      ASSERT_EQ(op->status(), core::OpStatus::Done) << "iteration " << iter;
    }
    for (const auto k : used) ASSERT_TRUE(table.contains(k));
    // Exactly one claim winner applied the group this iteration (stats are
    // reset at the bottom of every loop), and exactly one completion was
    // recorded per op.
    ASSERT_EQ(stats.sum().delegate_applies + stats.sum().delegate_fallbacks,
              1u)
        << "iteration " << iter;
    ASSERT_EQ(stats.sum().total(), 2u) << "iteration " << iter;
    stats.reset();
    mem::EbrDomain::instance().drain();
  }
}

TEST(DelegationFallback, SweepParksOnDoneWordUntilDelegateFinishes) {
  // SpinPark combiner: loses the claim race on purpose, parks on the
  // group's done word, and must be woken by the delegate's finish().
  std::vector<std::uint64_t> used;
  BatchFixture fx;
  for (const auto k : keys_in_range(0, 2, used)) fx.add(k);

  core::ConflictGraph graph;
  graph.seed(adapters::kHtInsertClass, adapters::kHtInsertClass);
  core::DelegationSession<Table> session;
  core::EngineStats stats;
  Op* ops[] = {fx.batch[0], fx.batch[1]};
  auto* group = session.add_group(ops, 2, 0b10);
  fx.batch[0]->mark_delegated(group);

  Table table(64);
  sync::TxLock lock;
  Core::PubArray pa;
  ASSERT_TRUE(fx.batch[0]->claim_delegation());  // delegate owns the apply
  std::thread delegate([&] {
    // Let the sweep reach the park tier before finishing.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    Core::apply_delegated_group(lock, table, *fx.batch[0], pa, graph, stats,
                                util::WaitPolicy::SpinYield,
                                /*by_delegate=*/true);
  });
  Core::finish_delegation(lock, table, pa, session, graph, stats,
                          util::WaitPolicy::SpinPark);
  delegate.join();
  for (Op* op : fx.batch) EXPECT_EQ(op->status(), core::OpStatus::Done);
  EXPECT_EQ(stats.sum().delegate_applies, 1u);
  EXPECT_EQ(stats.sum().delegate_fallbacks, 0u);
  mem::EbrDomain::instance().drain();
}

// ---- engine-level exactly-once stress ----------------------------------

// Unique-key inserts through a delegating engine: a double apply would
// flip the second insert's result to false (the key already exists), a
// lost op would leave its key missing, and a double retirement would
// inflate the completion stats past the op count. Checked at 1 shard
// (flat HcfEngine) and at 2/8 shards (ShardedEngine), with cs_work wide
// enough that batches and delegations actually form.
template <typename Engine>
void run_exactly_once_stress(Engine& engine, std::size_t threads,
                             std::size_t ops_per_thread) {
  std::atomic<std::uint64_t> false_results{0};
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      InsertOp ins;
      ins.set_work(60);
      for (std::size_t r = 0; r < ops_per_thread; ++r) {
        const std::uint64_t key = t * ops_per_thread + r + 1;
        ins.set(key, key * 2 + 1);
        engine.execute(ins);
        if (!ins.result()) false_results.fetch_add(1);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(false_results.load(), 0u)
      << "an insert of a unique key returned false: applied twice";
}

TEST(DelegationStress, ExactlyOnceOnFlatEngine) {
  Table table(256);
  core::HcfEngine<Table> engine(table, adapters::ht_delegate_config(),
                                adapters::kHtNumArrays);
  adapters::ht_seed_commutes(engine);
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kOps = 1200;
  run_exactly_once_stress(engine, kThreads, kOps);
  EXPECT_EQ(table.size_slow(), kThreads * kOps);
  EXPECT_TRUE(table.check_invariants());
  // Exactly one completion per executed op.
  EXPECT_EQ(engine.stats().sum().total(), kThreads * kOps);
  mem::EbrDomain::instance().drain();
}

TEST(DelegationStress, ExactlyOnceAcrossShards) {
  for (const std::size_t shards : {std::size_t{2}, std::size_t{8}}) {
    std::vector<std::unique_ptr<Table>> tables;
    std::vector<Table*> ptrs;
    for (std::size_t i = 0; i < shards; ++i) {
      tables.push_back(std::make_unique<Table>(256));
      ptrs.push_back(tables.back().get());
    }
    core::ShardedEngine<core::HcfEngine<Table>> engine(
        std::span<Table* const>(ptrs), adapters::ht_delegate_config(),
        adapters::kHtNumArrays);
    adapters::ht_seed_commutes(engine);
    constexpr std::size_t kThreads = 8;
    const std::size_t ops = shards == 2 ? 1200 : 800;
    run_exactly_once_stress(engine, kThreads, ops);
    EXPECT_EQ(engine.size(), kThreads * ops) << shards << " shards";
    std::uint64_t completions = 0;
    const auto snap = engine.stats_snapshot();
    for (int c = 0; c < core::kMaxOpClasses; ++c) {
      for (int p = 0; p < core::kNumPhases; ++p) {
        completions += snap.completions[static_cast<std::size_t>(c)]
                                       [static_cast<std::size_t>(p)];
      }
    }
    EXPECT_EQ(completions, kThreads * ops) << shards << " shards";
    mem::EbrDomain::instance().drain();
  }
}

}  // namespace
