// Tests for the dynamic HTM protocol checker (sim_htm/protocol_check.hpp):
// the documented usage restrictions of the simulator must be *detected* at
// runtime, not just documented. Violations are provoked deliberately in
// Count mode (so the process survives and the counters can be asserted) and
// once each in Trap mode through death tests.
#include "sim_htm/protocol_check.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/operation.hpp"
#include "core/publication_array.hpp"
#include "sim_htm/htm.hpp"
#include "sim_htm/txcell.hpp"
#include "sync/tx_lock.hpp"
#include "util/backoff.hpp"
#include "util/thread_id.hpp"

namespace hcf {
namespace {

using htm::protocol::Mode;
using htm::protocol::ScopedMode;

#define SKIP_WITHOUT_CHECKER()                                       \
  if constexpr (!htm::protocol::kEnabled) {                          \
    GTEST_SKIP() << "built without HCF_CHECK_PROTOCOL";              \
  }

TEST(ProtocolChecker, StrongStoreInsideTxIsCounted) {
  SKIP_WITHOUT_CHECKER();
  ScopedMode guard(Mode::Count);
  htm::TxCell<std::uint64_t> cell{0};
  const auto before = htm::stats().sum().proto_strong_in_tx;
  const bool committed = htm::attempt([&] {
    cell.store(42);  // lint:allow(tx-strong-op) — provoked on purpose
  });
  EXPECT_TRUE(committed);
  EXPECT_EQ(htm::stats().sum().proto_strong_in_tx, before + 1);
  EXPECT_EQ(cell.load(), 42u);
}

TEST(ProtocolChecker, StrongCasAndFetchAddInsideTxAreCounted) {
  SKIP_WITHOUT_CHECKER();
  ScopedMode guard(Mode::Count);
  htm::TxCell<std::uint64_t> cell{1};
  const auto before = htm::stats().sum().proto_strong_in_tx;
  htm::attempt([&] {
    (void)cell.cas(1, 2);        // lint:allow(tx-strong-op)
    (void)cell.fetch_add(3);     // lint:allow(tx-strong-op)
  });
  EXPECT_EQ(htm::stats().sum().proto_strong_in_tx, before + 2);
}

TEST(ProtocolChecker, StrongStoreOutsideTxIsClean) {
  SKIP_WITHOUT_CHECKER();
  ScopedMode guard(Mode::Count);
  htm::TxCell<std::uint64_t> cell{0};
  const auto before = htm::stats().sum().proto_strong_in_tx;
  cell.store(7);
  EXPECT_EQ(htm::stats().sum().proto_strong_in_tx, before);
}

TEST(ProtocolChecker, MisalignedAccessIsCounted) {
  SKIP_WITHOUT_CHECKER();
  ScopedMode guard(Mode::Count);
  alignas(8) char buf[16] = {};
  const auto before = htm::stats().sum().proto_misaligned;
  // Checked directly (the hook htm::read/write call) rather than through a
  // real access: performing a misaligned atomic access is UB and would be
  // flagged by UBSan.
  htm::protocol::check_access_alignment(buf + 1, 4);
  EXPECT_EQ(htm::stats().sum().proto_misaligned, before + 1);
  htm::protocol::check_access_alignment(buf + 8, 4);  // aligned: clean
  EXPECT_EQ(htm::stats().sum().proto_misaligned, before + 1);
}

TEST(ProtocolChecker, UnsubscribedCommitWhileLockHeldIsCounted) {
  SKIP_WITHOUT_CHECKER();
  ScopedMode guard(Mode::Count);
  sync::TxLock lock;
  std::atomic<bool> held{false};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    lock.lock();
    held.store(true);
    while (!release.load()) std::this_thread::yield();
    lock.unlock();
  });
  while (!held.load()) std::this_thread::yield();

  htm::TxField<std::uint64_t> field;
  field.init(0);
  const auto before = htm::stats().sum().proto_unsubscribed_commits;
  const bool committed = htm::attempt([&] { field = 5; });
  EXPECT_TRUE(committed);
  EXPECT_EQ(htm::stats().sum().proto_unsubscribed_commits, before + 1);

  release.store(true);
  holder.join();
}

TEST(ProtocolChecker, SubscribedCommitIsClean) {
  SKIP_WITHOUT_CHECKER();
  ScopedMode guard(Mode::Count);
  sync::TxLock lock;  // free: subscription succeeds and commit is clean
  htm::TxField<std::uint64_t> field;
  field.init(0);
  const auto before = htm::stats().sum().proto_unsubscribed_commits;
  const bool committed = htm::attempt([&] {
    lock.subscribe();
    field = 6;
  });
  EXPECT_TRUE(committed);
  EXPECT_EQ(htm::stats().sum().proto_unsubscribed_commits, before);
}

TEST(ProtocolChecker, CommitWithoutAnyLockHeldIsClean) {
  SKIP_WITHOUT_CHECKER();
  ScopedMode guard(Mode::Count);
  htm::TxField<std::uint64_t> field;
  field.init(0);
  const auto before = htm::stats().sum().proto_unsubscribed_commits;
  htm::attempt([&] { field = 8; });
  EXPECT_EQ(htm::stats().sum().proto_unsubscribed_commits, before);
}

using ProtocolCheckerDeathTest = ::testing::Test;

TEST(ProtocolCheckerDeathTest, StrongStoreInsideTxTraps) {
  SKIP_WITHOUT_CHECKER();
  ScopedMode guard(Mode::Trap);
  htm::TxCell<std::uint64_t> cell{0};
  EXPECT_DEATH(
      {
        htm::attempt([&] {
          cell.store(1);  // lint:allow(tx-strong-op)
        });
      },
      "strong-op-inside-tx");
}

TEST(ProtocolCheckerDeathTest, MisalignedAccessTraps) {
  SKIP_WITHOUT_CHECKER();
  ScopedMode guard(Mode::Trap);
  alignas(8) char buf[16] = {};
  EXPECT_DEATH(htm::protocol::check_access_alignment(buf + 1, 8),
               "misaligned-access");
}

// ---- stale-occupancy stress (DESIGN.md §9.1) ------------------------------
//
// Owners repeatedly announce and then remove their slot *transactionally*,
// which leaves the slot's occupancy bit stale by design, while a dedicated
// combiner continuously selects announced operations under the selection
// lock. Invariant under test: every round of every owner is applied exactly
// once — by the owner's committed transaction XOR by the combiner — no
// matter how many stale bits the scans chew through, and the combiner never
// selects an already-applied operation. Under TSan this additionally proves
// the bit/slot/status protocol race-free; under HCF_CHECK_PROTOCOL it runs
// with the checker live.
TEST(OccupancyStress, StaleBitsNeverDoubleApply) {
  struct NullDs {};
  class StressOp : public core::Operation<NullDs> {
   public:
    void run_seq(NullDs&) override {}
    std::atomic<std::uint32_t> applied{0};
  };

  core::PublicationArray<NullDs> pa;
  constexpr int kOwners = 4;
  constexpr int kRounds = 400;

  std::vector<std::unique_ptr<StressOp>> ops;
  for (int t = 0; t < kOwners; ++t) ops.push_back(std::make_unique<StressOp>());
  std::atomic<int> owners_left{kOwners};

  std::vector<std::thread> owners;
  for (int t = 0; t < kOwners; ++t) {
    owners.emplace_back([&, t] {
      StressOp& op = *ops[static_cast<std::size_t>(t)];
      util::ExpBackoff backoff(0x57a1e + t);
      for (int r = 0; r < kRounds; ++r) {
        op.prepare();
        op.mark_announced();
        pa.add(&op);
        for (;;) {
          if (op.status() != core::OpStatus::Announced) {
            op.wait_done();  // selected: the combiner applies us
            break;
          }
          pa.selection_lock().wait_until_free();
          // Same shape as the engines' TryVisible: the status read joins
          // the read set (dooming us if the combiner selects concurrently)
          // and the slot removal commits with the application.
          const bool committed = htm::attempt([&] {
            if (op.status_tx() != core::OpStatus::Announced) htm::abort_tx();
            pa.selection_lock().subscribe();
            pa.remove_tx(&op);  // occupancy bit left stale on purpose
          });
          if (committed) {
            op.applied.fetch_add(1, std::memory_order_relaxed);
            op.mark_done(core::Phase::Visible);
            break;
          }
          backoff.pause();
        }
      }
      owners_left.fetch_sub(1, std::memory_order_release);
    });
  }

  // Combiner: select under the selection lock (status moves Announced ->
  // BeingHelped there, dooming the owner's speculation), apply after.
  std::vector<core::Operation<NullDs>*> batch;
  batch.reserve(util::kMaxThreads);
  while (owners_left.load(std::memory_order_acquire) != 0) {
    batch.clear();
    pa.selection_lock().lock();
    // scan-locked: selection lock acquired on the line above.
    pa.collect_announced(batch, [](core::Operation<NullDs>* o) {
      if (o->status() != core::OpStatus::Announced) return false;
      o->mark_being_helped();
      return true;
    });
    pa.selection_lock().unlock();
    for (core::Operation<NullDs>* o : batch) {
      static_cast<StressOp*>(o)->applied.fetch_add(1,
                                                   std::memory_order_relaxed);
      o->mark_done(core::Phase::Combining);
    }
    std::this_thread::yield();
  }
  for (auto& th : owners) th.join();

  for (int t = 0; t < kOwners; ++t) {
    EXPECT_EQ(ops[static_cast<std::size_t>(t)]->applied.load(),
              static_cast<std::uint32_t>(kRounds))
        << "owner " << t << " applied a round zero or multiple times";
  }
}

TEST(ProtocolChecker, ViolationTotalsAggregate) {
  SKIP_WITHOUT_CHECKER();
  ScopedMode guard(Mode::Count);
  const auto before = htm::stats().sum().total_protocol_violations();
  alignas(8) char buf[16] = {};
  htm::protocol::check_access_alignment(buf + 2, 4);
  EXPECT_EQ(htm::stats().sum().total_protocol_violations(), before + 1);
}

}  // namespace
}  // namespace hcf
