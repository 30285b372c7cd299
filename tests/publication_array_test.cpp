#include "core/publication_array.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "core/combine_core.hpp"
#include "core/engine_stats.hpp"
#include "core/operation.hpp"
#include "core/phase_exec.hpp"
#include "sim_htm/htm.hpp"
#include "sim_htm/txcell.hpp"
#include "sync/tx_lock.hpp"
#include "util/parking.hpp"
#include "util/thread_id.hpp"

namespace hcf::core {
namespace {

struct NullDs {};

class NoopOp : public Operation<NullDs> {
 public:
  void run_seq(NullDs&) override {}
};

TEST(PublicationArray, AddPeekClear) {
  PublicationArray<NullDs> pa;
  NoopOp op;
  const std::size_t self = util::this_thread_id();
  EXPECT_EQ(pa.peek(self), nullptr);
  pa.add(&op);
  EXPECT_EQ(pa.peek(self), &op);
  pa.selection_lock().lock();
  pa.clear_slot(self);
  pa.selection_lock().unlock();
  EXPECT_EQ(pa.peek(self), nullptr);
}

TEST(PublicationArray, RemoveStrongClearsOwnSlot) {
  PublicationArray<NullDs> pa;
  NoopOp op;
  pa.add(&op);
  pa.remove_strong();
  EXPECT_EQ(pa.peek(util::this_thread_id()), nullptr);
}

TEST(PublicationArray, ForEachSeesAllAnnounced) {
  PublicationArray<NullDs> pa;
  constexpr int kThreads = 6;
  std::vector<std::unique_ptr<NoopOp>> ops;
  for (int i = 0; i < kThreads; ++i) ops.push_back(std::make_unique<NoopOp>());

  std::atomic<int> announced{0};
  std::atomic<bool> release{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      pa.add(ops[i].get());
      announced.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
      pa.remove_strong();
    });
  }
  while (announced.load() != kThreads) std::this_thread::yield();

  pa.selection_lock().lock();
  int seen = 0;
  pa.for_each_announced([&](Operation<NullDs>* op, std::size_t) {
    EXPECT_NE(op, nullptr);
    ++seen;
  });
  pa.selection_lock().unlock();
  EXPECT_EQ(seen, kThreads);

  release = true;
  for (auto& t : threads) t.join();

  pa.selection_lock().lock();
  seen = 0;
  pa.for_each_announced([&](Operation<NullDs>*, std::size_t) { ++seen; });
  pa.selection_lock().unlock();
  EXPECT_EQ(seen, 0);
}

TEST(PublicationArray, TransactionalRemoveCommits) {
  PublicationArray<NullDs> pa;
  NoopOp op;
  pa.add(&op);
  const bool ok = htm::attempt([&] { pa.remove_tx(&op); });
  EXPECT_TRUE(ok);
  EXPECT_EQ(pa.peek(util::this_thread_id()), nullptr);
}

TEST(PublicationArray, TransactionalRemoveRolledBackOnAbort) {
  PublicationArray<NullDs> pa;
  NoopOp op;
  pa.add(&op);
  htm::attempt([&] {
    pa.remove_tx(&op);
    htm::abort_tx();
  });
  EXPECT_EQ(pa.peek(util::this_thread_id()), &op);
  pa.remove_strong();
}

TEST(PublicationArray, SelectionLockSubscriptionAborts) {
  PublicationArray<NullDs> pa;
  pa.selection_lock().lock();
  EXPECT_FALSE(htm::attempt([&] { pa.selection_lock().subscribe(); }));
  pa.selection_lock().unlock();
  EXPECT_TRUE(htm::attempt([&] { pa.selection_lock().subscribe(); }));
}

// ---- occupancy-indexed scanning (DESIGN.md §9.1) --------------------------

TEST(PublicationArrayOccupancy, EmptyScanSkipsEveryWord) {
  PublicationArray<NullDs> pa;
  pa.selection_lock().lock();
  std::size_t visited = 0;
  const std::size_t skipped =
      pa.for_each_announced([&](Operation<NullDs>*, std::size_t) { ++visited; });
  pa.selection_lock().unlock();
  EXPECT_EQ(visited, 0u);
  EXPECT_EQ(skipped, PublicationArray<NullDs>::kOccupancyWords);
}

// A full-capacity array scan must visit exactly the announced slots — no
// phantom visits from stale metadata, no missed announcements — and must
// skip every occupancy word with no announced slot in it.
TEST(PublicationArrayOccupancy, ScanVisitsExactlyAnnouncedSlots) {
  PublicationArray<NullDs> pa;
  constexpr int kThreads = 5;
  std::vector<std::unique_ptr<NoopOp>> ops;
  for (int i = 0; i < kThreads; ++i) ops.push_back(std::make_unique<NoopOp>());

  std::array<std::size_t, kThreads> announced_slot{};
  std::atomic<int> announced{0};
  std::atomic<bool> release{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      announced_slot[static_cast<std::size_t>(i)] = util::this_thread_id();
      pa.add(ops[i].get());
      announced.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
      pa.remove_strong();
    });
  }
  while (announced.load() != kThreads) std::this_thread::yield();

  std::set<std::size_t> expected(announced_slot.begin(), announced_slot.end());
  std::set<std::size_t> expected_words;
  for (std::size_t slot : expected) expected_words.insert(slot >> 6);

  pa.selection_lock().lock();
  std::set<std::size_t> visited;
  const std::size_t skipped = pa.for_each_announced(
      [&](Operation<NullDs>* op, std::size_t slot) {
        EXPECT_NE(op, nullptr);
        EXPECT_TRUE(visited.insert(slot).second) << "slot visited twice";
      });
  pa.selection_lock().unlock();

  EXPECT_EQ(visited, expected);
  EXPECT_EQ(skipped, PublicationArray<NullDs>::kOccupancyWords -
                         expected_words.size());

  release = true;
  for (auto& t : threads) t.join();
}

// remove_tx leaves the occupancy bit stale by design; the scan re-verifies
// the slot and must neither visit the removed op nor skip the word.
TEST(PublicationArrayOccupancy, StaleBitFromTxRemoveIsReverifiedAway) {
  PublicationArray<NullDs> pa;
  NoopOp op;
  const std::size_t self = util::this_thread_id();
  pa.add(&op);
  ASSERT_TRUE(htm::attempt([&] { pa.remove_tx(&op); }));
  ASSERT_EQ(pa.peek(self), nullptr);
  // The hint is stale: bit still set for an empty slot.
  EXPECT_NE(pa.occupancy_word(self >> 6) & (std::uint64_t{1} << (self & 63)),
            0u);

  pa.selection_lock().lock();
  std::size_t visited = 0;
  std::size_t skipped =
      pa.for_each_announced([&](Operation<NullDs>*, std::size_t) { ++visited; });
  pa.selection_lock().unlock();
  EXPECT_EQ(visited, 0u);  // stale bit never yields a phantom op
  EXPECT_EQ(skipped, PublicationArray<NullDs>::kOccupancyWords - 1);

  // Re-announcing reuses the slot; the op must be seen exactly once.
  pa.add(&op);
  pa.selection_lock().lock();
  visited = 0;
  pa.for_each_announced([&](Operation<NullDs>* seen, std::size_t slot) {
    EXPECT_EQ(seen, &op);
    EXPECT_EQ(slot, self);
    ++visited;
  });
  pa.selection_lock().unlock();
  EXPECT_EQ(visited, 1u);
  pa.remove_strong();
}

TEST(PublicationArrayOccupancy, ClearSlotClearsBit) {
  PublicationArray<NullDs> pa;
  NoopOp op;
  const std::size_t self = util::this_thread_id();
  pa.add(&op);
  ASSERT_NE(pa.occupancy_word(self >> 6), 0u);
  pa.selection_lock().lock();
  pa.clear_slot(self);
  pa.selection_lock().unlock();
  EXPECT_EQ(pa.occupancy_word(self >> 6) & (std::uint64_t{1} << (self & 63)),
            0u);
}

TEST(PublicationArrayOccupancy, CollectAnnouncedSelectsAndUnpublishes) {
  PublicationArray<NullDs> pa;
  NoopOp op;
  op.prepare();
  op.mark_announced();
  pa.add(&op);

  std::vector<Operation<NullDs>*> out;
  out.reserve(util::kMaxThreads);
  pa.selection_lock().lock();
  // scan-locked: selection lock acquired on the line above.
  pa.collect_announced(
      out, [](Operation<NullDs>* o) { return o->status() == OpStatus::Announced; });
  pa.selection_lock().unlock();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], &op);
  EXPECT_EQ(pa.peek(util::this_thread_id()), nullptr);

  out.clear();
  pa.selection_lock().lock();
  // scan-locked: selection lock acquired on the line above.
  const std::size_t skipped = pa.collect_announced(
      out, [](Operation<NullDs>*) { return true; });
  pa.selection_lock().unlock();
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(skipped, PublicationArray<NullDs>::kOccupancyWords);
}

TEST(PublicationArrayEpoch, PublishAdvancesMonotonically) {
  PublicationArray<NullDs> pa;
  EXPECT_EQ(pa.combined_epoch(), 0u);
  pa.publish_combined(3);
  EXPECT_EQ(pa.combined_epoch(), 3u);
  pa.publish_combined(2);
  EXPECT_EQ(pa.combined_epoch(), 5u);
}

TEST(OperationDescriptor, StatusLifecycle) {
  NoopOp op;
  op.prepare();
  EXPECT_EQ(op.status(), OpStatus::UnAnnounced);
  op.mark_announced();
  EXPECT_EQ(op.status(), OpStatus::Announced);
  op.mark_being_helped();
  EXPECT_EQ(op.status(), OpStatus::BeingHelped);
  op.mark_done(Phase::Combining);
  EXPECT_EQ(op.status(), OpStatus::Done);
  EXPECT_EQ(op.completed_phase(), Phase::Combining);
  op.wait_done();  // must not block once Done
}

// An owner speculating on its announced op must stop at its very next
// read once a combiner selects the op, not run its body on to commit:
// adapters store results with plain stores inside the body, and a doomed
// owner running on would overwrite the combiner's result.
TEST(OperationDescriptor, SelectedOwnerStopsAtNextRead) {
  NoopOp op;
  op.prepare();
  op.mark_announced();
  static std::uint64_t unrelated = 7;
  auto combiner = [&] { op.mark_being_helped(); };
  bool ran_past_read = false;
  const bool ok = htm::attempt([&] {
    if (op.status_tx() != OpStatus::Announced) htm::abort_tx();
    std::thread t(combiner);
    t.join();  // lint:allow(tx-blocking-call) — the combiner never waits on us
    (void)htm::read(&unrelated);
    ran_past_read = true;
  });
  EXPECT_FALSE(ok);
  EXPECT_FALSE(ran_past_read);
  EXPECT_EQ(htm::last_abort_code(), htm::AbortCode::Conflict);
  EXPECT_EQ(op.status(), OpStatus::BeingHelped);
}

// The strong clock (polled by every transactional read) moves once per
// acquisition of a lock whose holder writes uninstrumented data (a
// data-structure lock, a SingleHolder engine's selection lock), never at a
// Multi engine's drain-only selection-lock acquisition, and once per
// foreign op a combiner selects. No other strong store moves it: each
// leaves a fresh orec version that readers detect on their own.
// Deterministic: this process runs no other threads.
TEST(StrongClock, MovesOnlyAtLockAcquisitionAndSelection) {
  const auto& clock = htm::detail::strong_clock();
  std::uint64_t last = clock.load();
  auto moves = [&] {
    const std::uint64_t now = clock.load();
    const std::uint64_t d = now - last;
    last = now;
    return d;
  };

  htm::TxCell<std::uint32_t> cell{0};
  cell.store(1);
  EXPECT_TRUE(cell.cas(1, 2));
  EXPECT_EQ(cell.exchange(3), 2u);
  EXPECT_EQ(cell.fetch_add(1), 3u);
  EXPECT_EQ(moves(), 0u) << "TxCell strong stores";

  sync::TxLock lock;
  lock.lock();
  EXPECT_EQ(moves(), 1u) << "TxLock::lock";
  lock.unlock();
  EXPECT_EQ(moves(), 0u) << "TxLock::unlock";
  if (!lock.try_lock()) FAIL() << "try_lock on a free lock must succeed";
  EXPECT_EQ(moves(), 1u) << "TxLock::try_lock";
  lock.unlock();

  sync::FairTxLock fair;
  fair.lock();
  EXPECT_EQ(moves(), 1u) << "FairTxLock::lock";
  fair.unlock();
  EXPECT_EQ(moves(), 0u) << "FairTxLock::unlock";
  if (!fair.try_lock()) FAIL() << "try_lock on a free lock must succeed";
  EXPECT_EQ(moves(), 1u) << "FairTxLock::try_lock";
  fair.unlock();

  // The selection-lock roles the phase machine derives from its mode.
  constexpr sync::LockRole kMultiRole =
      PhaseMachine<NullDs, EnginePolicy<CombinerMode::Multi>>::kSelectionRole;
  constexpr sync::LockRole kSingleHolderRole =
      PhaseMachine<NullDs,
                   EnginePolicy<CombinerMode::SingleHolder>>::kSelectionRole;
  static_assert(kMultiRole == sync::LockRole::kDrainOnly);
  static_assert(kSingleHolderRole == sync::LockRole::kStopsSubscribers);
  {
    PublicationArray<NullDs> single_holder(kSingleHolderRole);
    single_holder.selection_lock().lock();
    EXPECT_EQ(moves(), 1u) << "SingleHolder selection-lock acquisition";
    single_holder.selection_lock().unlock();
  }

  // One Multi combining selection: the combiner's own op and one foreign
  // op, announced from another thread's slot.
  PublicationArray<NullDs> pa(kMultiRole);
  NoopOp own;
  NoopOp foreign;
  own.prepare();
  own.mark_announced();
  foreign.prepare();
  foreign.mark_announced();
  std::thread([&] { pa.add(&foreign); }).join();
  pa.add(&own);
  EXPECT_EQ(moves(), 0u) << "PublicationArray::add";
  auto stats = std::make_unique<EngineStats>();
  std::vector<Operation<NullDs>*> batch;
  batch.reserve(util::kMaxThreads);
  pa.selection_lock().lock();
  EXPECT_EQ(moves(), 0u) << "Multi selection-lock acquisition";
  CombineCore<NullDs>::select_batch<true>(own, pa, batch, *stats);
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(moves(), 1u) << "select_batch: the foreign op only, no "
                            "clear_slot, no own-op transition";
  foreign.mark_being_helped();
  EXPECT_EQ(moves(), 0u) << "re-selecting a selected op";
  pa.selection_lock().unlock();
  pa.publish_combined(2);
  EXPECT_EQ(moves(), 0u) << "publish_combined";
  own.mark_done(Phase::Combining);
  foreign.mark_done(Phase::Combining);
}

// A combining session that selects only its own op pays the one strong
// store that serializes combiners — the selection-lock acquisition CAS —
// and, in Multi mode, no strong-clock move: the announce, the own slot
// clear, the own BeingHelped transition, the release and the completion
// are all plain. A SingleHolder session's acquisition also moves the
// clock. Deterministic: this process runs no other threads.
template <CombinerMode Mode>
void expect_degree_one_session(std::uint64_t clock_moves) {
  NullDs ds;
  PhaseMachine<NullDs, EnginePolicy<Mode>> pm(
      ds, uniform_classes(PhasePolicy::combine_first()));
  NoopOp op;
  const std::uint64_t strong = htm::stats().sum().strong_stores;
  const std::uint64_t clock = htm::detail::strong_clock().load();
  EXPECT_EQ(pm.execute(op), Phase::Combining);
  EXPECT_EQ(pm.stats().sum().combiner_sessions, 1u);
  EXPECT_EQ(pm.stats().sum().ops_selected, 1u);
  EXPECT_EQ(htm::stats().sum().strong_stores - strong, 1u);
  EXPECT_EQ(htm::detail::strong_clock().load() - clock, clock_moves);
}

TEST(StrongClock, DegreeOneSessionPaysOneStrongStore) {
  expect_degree_one_session<CombinerMode::Multi>(0);
  expect_degree_one_session<CombinerMode::SingleHolder>(1);
}

// Owner-side completions (private, visible, own op under the lock) store
// Done without the exchange and wake that a combiner's completion makes:
// nobody can be parked on an op its owner completes itself. Under
// SpinPark, the policy that parks, they must leave the wake count alone
// and still end in Done.
template <CombinerMode Mode>
void expect_owner_completion_without_wake(const PhasePolicy& policy,
                                          Phase expected) {
  NullDs ds;
  PhaseMachine<NullDs, EnginePolicy<Mode>> pm(ds, uniform_classes(policy));
  NoopOp op;
  const std::uint64_t wakes = util::park_stats().wakes.total();
  EXPECT_EQ(pm.execute(op), expected);
  EXPECT_EQ(op.status(), OpStatus::Done);
  EXPECT_EQ(op.completed_phase(), expected);
  EXPECT_EQ(util::park_stats().wakes.total(), wakes);
}

TEST(OperationDescriptor, OwnerCompletionsNeverWake) {
  constexpr auto park = util::WaitPolicy::SpinPark;
  expect_owner_completion_without_wake<CombinerMode::Multi>(
      {2, 3, 5, true, false, park}, Phase::Private);
  expect_owner_completion_without_wake<CombinerMode::Multi>(
      {0, 3, 5, true, false, park}, Phase::Visible);
  expect_owner_completion_without_wake<CombinerMode::None>(
      {0, 0, 0, false, false, park}, Phase::UnderLock);
}

// A combiner's completion must still wake an owner parked on its status
// word: mark_done's exchange sees the parked bit and wakes.
TEST(OperationDescriptor, CombinerCompletionWakesParkedOwner) {
  NoopOp op;
  op.prepare();
  op.mark_announced();
  op.mark_being_helped();
  const std::uint64_t parks = util::park_stats().parks.total();
  const std::uint64_t wakes = util::park_stats().wakes.total();
  std::atomic<bool> returned{false};
  std::thread owner([&] {
    op.wait_done(util::WaitPolicy::SpinPark);
    returned = true;
  });
  // The owner counts its park after publishing the parked bit, so once
  // the count moves the combiner's exchange must see the bit.
  while (util::park_stats().parks.total() == parks) std::this_thread::yield();
  op.mark_done(Phase::Combining);
  owner.join();
  EXPECT_TRUE(returned.load());
  EXPECT_EQ(op.status(), OpStatus::Done);
  EXPECT_EQ(util::park_stats().wakes.total(), wakes + 1);
}

TEST(OperationDescriptor, DefaultRunMultiRunsAll) {
  struct CountDs {
    int count = 0;
  };
  struct CountOp : Operation<CountDs> {
    void run_seq(CountDs& ds) override { ++ds.count; }
  };
  CountDs ds;
  CountOp a, b, c;
  Operation<CountDs>* ops[] = {&a, &b, &c};
  const std::size_t k = a.run_multi(ds, std::span<Operation<CountDs>*>(ops));
  EXPECT_EQ(k, 3u);
  EXPECT_EQ(ds.count, 3);
}

TEST(OperationDescriptor, HelpNobodyRefuses) {
  HelpNobody<NullDs, NoopOp> op;
  NoopOp other;
  EXPECT_FALSE(op.should_help(other));
  NoopOp helper;
  EXPECT_TRUE(helper.should_help(op));  // default helps everyone
}

}  // namespace
}  // namespace hcf::core
