// HCF protocol-level properties: exactly-once execution under contention,
// phase accounting, helping, policy degenerations (TLE-like / FC-like), and
// the single-combiner variant.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "mem/ebr.hpp"
#include "util/rng.hpp"

namespace hcf::core {
namespace {

// A data structure with one hot word — every operation conflicts, forcing
// traffic through announce/combine/lock phases.
struct HotSpot {
  htm::TxField<std::uint64_t> value{0};
};

// Each op increments the hot word and counts its own *effective*
// executions. The counter is a TxField: increments made by speculative
// attempts that abort are rolled back with the rest of the transaction, so
// the counter reflects exactly the executions that took effect — which is
// what "exactly once" means for speculative execution.
class CountedIncOp : public Operation<HotSpot> {
 public:
  using Operation<HotSpot>::Operation;

  void run_seq(HotSpot& ds) override {
    ds.value = ds.value + 1;
    executions_ = executions_ + 1;
  }

  std::uint64_t executions() const noexcept { return executions_.get(); }
  void reset_executions() noexcept { executions_.init(0); }

 private:
  htm::TxField<std::uint64_t> executions_{0};
};

TEST(HcfProtocol, ExactlyOnceUnderHeavyContention) {
  HotSpot ds;
  HcfEngine<HotSpot> engine(ds, PhasePolicy::paper_default());
  constexpr int kThreads = 4;
  constexpr int kOps = 8000;
  std::atomic<std::uint64_t> total_claimed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      CountedIncOp op;
      for (int i = 0; i < kOps; ++i) {
        op.reset_executions();
        engine.execute(op);
        // Exactly-once: the op must have run exactly one time.
        ASSERT_EQ(op.executions(), 1u);
        total_claimed.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ds.value.get(), static_cast<std::uint64_t>(kThreads) * kOps);
  EXPECT_EQ(engine.stats().sum().total(), total_claimed.load());
  mem::EbrDomain::instance().drain();
}

TEST(HcfProtocol, ExactlyOnceSingleCombinerVariant) {
  HotSpot ds;
  HcfSingleCombinerEngine<HotSpot> engine(ds, PhasePolicy::paper_default());
  constexpr int kThreads = 4;
  constexpr int kOps = 8000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      CountedIncOp op;
      for (int i = 0; i < kOps; ++i) {
        op.reset_executions();
        engine.execute(op);
        ASSERT_EQ(op.executions(), 1u);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ds.value.get(), static_cast<std::uint64_t>(kThreads) * kOps);
  mem::EbrDomain::instance().drain();
}

TEST(HcfProtocol, PhaseCountsSumToOps) {
  HotSpot ds;
  HcfEngine<HotSpot> engine(ds, PhasePolicy::paper_default());
  constexpr int kThreads = 4;
  constexpr int kOps = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      CountedIncOp op;
      for (int i = 0; i < kOps; ++i) engine.execute(op);
    });
  }
  for (auto& th : threads) th.join();
  const auto snap = EngineStatsSnapshot::capture(engine.stats());
  std::uint64_t sum = 0;
  for (int p = 0; p < kNumPhases; ++p) {
    sum += snap.phase_total(static_cast<Phase>(p));
  }
  EXPECT_EQ(sum, static_cast<std::uint64_t>(kThreads) * kOps);
  // (Whether later phases engage is timing-dependent with the default
  // policy; HelpingActuallyHappens pins that down with combine_first.)
  mem::EbrDomain::instance().drain();
}

TEST(HcfProtocol, HelpingActuallyHappens) {
  // combine_first: every op announces and goes straight to the combining
  // phases, so selection-lock contention makes helping overwhelmingly
  // likely — but not certain: the threads can fall into a lock-step
  // convoy where every scan happens while nobody else is announced
  // (observed ~20% of runs on the development container, at the seed
  // commit too). The property under test is "helping CAN happen and the
  // stats account for it", so retry the workload a few times and assert
  // on the run that escaped the convoy.
  HotSpot ds;
  HcfEngine<HotSpot> engine(ds, PhasePolicy::combine_first());
  constexpr int kThreads = 4;
  constexpr int kOps = 8000;
  constexpr int kAttempts = 5;
  EngineStatsSnapshot snap;
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        CountedIncOp op;
        for (int i = 0; i < kOps; ++i) engine.execute(op);
      });
    }
    for (auto& th : threads) th.join();
    snap = EngineStatsSnapshot::capture(engine.stats());
    if (snap.helped_ops > 0) break;
  }
  EXPECT_GT(snap.helped_ops, 0u);
  EXPECT_GT(snap.combiner_sessions, 0u);
  EXPECT_GE(snap.ops_selected, snap.combiner_sessions);  // >= own op each
  EXPECT_GT(snap.combining_degree(), 1.0);
  mem::EbrDomain::instance().drain();
}

TEST(HcfProtocol, TleLikePolicyNeverAnnounces) {
  HotSpot ds;
  HcfEngine<HotSpot> engine(ds, PhasePolicy::tle_like());
  constexpr int kThreads = 4;
  constexpr int kOps = 4000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      CountedIncOp op;
      for (int i = 0; i < kOps; ++i) {
        op.reset_executions();
        engine.execute(op);
        ASSERT_EQ(op.executions(), 1u);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ds.value.get(), static_cast<std::uint64_t>(kThreads) * kOps);
  const auto snap = EngineStatsSnapshot::capture(engine.stats());
  // TLE degeneration: no visible-phase completions, no helping.
  EXPECT_EQ(snap.phase_total(Phase::Visible), 0u);
  EXPECT_EQ(snap.helped_ops, 0u);
  EXPECT_EQ(snap.phase_total(Phase::Private) +
                snap.phase_total(Phase::Combining) +
                snap.phase_total(Phase::UnderLock),
            static_cast<std::uint64_t>(kThreads) * kOps);
  mem::EbrDomain::instance().drain();
}

TEST(HcfProtocol, FcLikePolicySkipsAllSpeculation) {
  HotSpot ds;
  HcfEngine<HotSpot> engine(ds, PhasePolicy::fc_like());
  htm::stats().reset();
  constexpr int kThreads = 4;
  constexpr int kOps = 4000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      CountedIncOp op;
      for (int i = 0; i < kOps; ++i) {
        op.reset_executions();
        engine.execute(op);
        ASSERT_EQ(op.executions(), 1u);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ds.value.get(), static_cast<std::uint64_t>(kThreads) * kOps);
  const auto snap = EngineStatsSnapshot::capture(engine.stats());
  // FC degeneration: everything completes under the lock, with combining.
  EXPECT_EQ(snap.phase_total(Phase::Private), 0u);
  EXPECT_EQ(snap.phase_total(Phase::Visible), 0u);
  EXPECT_EQ(snap.phase_total(Phase::Combining), 0u);
  EXPECT_EQ(snap.phase_total(Phase::UnderLock),
            static_cast<std::uint64_t>(kThreads) * kOps);
  // No transactions were even started by the engine.
  EXPECT_EQ(htm::StatsSnapshot::capture().starts, 0u);
  mem::EbrDomain::instance().drain();
}

TEST(HcfProtocol, MultipleArraysIsolateClasses) {
  // Two classes on two arrays; class-1 combiners must never select class-0
  // ops. Observable: every op-0 execution is by its own thread (helped_ops
  // stays zero when only class 0 announces... instead we check per-class
  // phase totals reconcile exactly).
  HotSpot ds;
  std::vector<ClassConfig> classes = {
      ClassConfig{0, PhasePolicy::paper_default()},
      ClassConfig{1, PhasePolicy::paper_default()},
  };
  HcfEngine<HotSpot> engine(ds, classes, 2);
  constexpr int kThreads = 4;
  constexpr int kOps = 4000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      CountedIncOp op(t % 2);  // half the threads use class 1
      for (int i = 0; i < kOps; ++i) {
        op.reset_executions();
        engine.execute(op);
        ASSERT_EQ(op.executions(), 1u);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ds.value.get(), static_cast<std::uint64_t>(kThreads) * kOps);
  const auto snap = EngineStatsSnapshot::capture(engine.stats());
  EXPECT_EQ(snap.class_total(0), static_cast<std::uint64_t>(kThreads / 2) * kOps * 2 / 2);
  EXPECT_EQ(snap.class_total(1), static_cast<std::uint64_t>(kThreads / 2) * kOps);
  mem::EbrDomain::instance().drain();
}

TEST(HcfProtocol, ZeroTrialsEverywhereStillCompletes) {
  // Degenerate policy: no HTM anywhere, no announcing — pure lock.
  HotSpot ds;
  HcfEngine<HotSpot> engine(ds, PhasePolicy{0, 0, 0, false});
  CountedIncOp op;
  for (int i = 0; i < 100; ++i) engine.execute(op);
  EXPECT_EQ(ds.value.get(), 100u);
  const auto snap = EngineStatsSnapshot::capture(engine.stats());
  EXPECT_EQ(snap.phase_total(Phase::UnderLock), 100u);
}

TEST(HcfProtocol, RunMultiPartialBatchesRetireInPrefixOrder) {
  // An op whose run_multi executes at most 2 ops per call: the engine must
  // loop until all selected ops are done, never losing or repeating one.
  struct SlowBatchOp : public CountedIncOp {
    using CountedIncOp::CountedIncOp;
    std::size_t run_multi(HotSpot& ds,
                          std::span<Operation<HotSpot>*> ops) override {
      const std::size_t k = std::min<std::size_t>(2, ops.size());
      for (std::size_t i = 0; i < k; ++i) ops[i]->run_seq(ds);
      return k;
    }
  };
  HotSpot ds;
  HcfEngine<HotSpot> engine(ds, PhasePolicy::fc_like());
  constexpr int kThreads = 4;
  constexpr int kOps = 3000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      SlowBatchOp op;
      for (int i = 0; i < kOps; ++i) {
        op.reset_executions();
        engine.execute(op);
        ASSERT_EQ(op.executions(), 1u);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ds.value.get(), static_cast<std::uint64_t>(kThreads) * kOps);
  mem::EbrDomain::instance().drain();
}

TEST(HcfProtocol, CapacityAbortsFallThroughToCombining) {
  // Shrink capacity so speculative attempts always fail; operations must
  // still complete exactly once via the lock phases.
  struct WideDs {
    htm::TxField<std::uint64_t> words[64];
  };
  class WideOp : public Operation<WideDs> {
   public:
    void run_seq(WideDs& ds) override {
      for (auto& w : ds.words) w = w + 1;
    }
  };
  htm::ScopedCapacity caps(16, 4);
  WideDs ds;
  HcfEngine<WideDs> engine(ds, PhasePolicy::paper_default());
  constexpr int kThreads = 3;
  constexpr int kOps = 500;
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

TEST(HcfProtocol, FairLocksProvideProgressForEveryThread) {
  // With fair (ticket) data-structure and selection locks, every thread
  // must complete its quota in bounded time even under total conflict —
  // the paper's starvation-freedom claim (§2.3) in executable form.
  HotSpot ds;
  HcfEngine<HotSpot, sync::FairTxLock, sync::FairTxLock> engine(
      ds, PhasePolicy::paper_default());
  constexpr int kThreads = 6;  // oversubscribed on 2 cores
  constexpr int kOps = 2000;
  std::atomic<int> finished{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      CountedIncOp op;
      for (int i = 0; i < kOps; ++i) engine.execute(op);
      finished.fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(finished.load(), kThreads);
  EXPECT_EQ(ds.value.get(), static_cast<std::uint64_t>(kThreads) * kOps);
  mem::EbrDomain::instance().drain();
}

}  // namespace
}  // namespace hcf::core
