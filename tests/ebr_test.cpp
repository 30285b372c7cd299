#include "mem/ebr.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

namespace hcf::mem {
namespace {

std::atomic<int> g_frees{0};

struct Tracked {
  explicit Tracked(int v) : value(v) {}
  ~Tracked() { g_frees.fetch_add(1); }
  int value;
};

class EbrTest : public ::testing::Test {
 protected:
  void SetUp() override {
    g_frees = 0;
    EbrDomain::instance().drain();
  }
  void TearDown() override { EbrDomain::instance().drain(); }
};

TEST_F(EbrTest, DrainFreesRetired) {
  auto* p = new Tracked(1);
  EbrDomain::instance().retire(p);
  EbrDomain::instance().drain();
  EXPECT_EQ(g_frees.load(), 1);
}

TEST_F(EbrTest, NoFreeWhileGuardActiveInAnotherThread) {
  std::atomic<int> stage{0};
  std::thread reader([&] {
    Guard guard;
    stage = 1;
    while (stage.load() != 2) std::this_thread::yield();
    // Still inside the guard: retired memory must not have been freed.
    EXPECT_EQ(g_frees.load(), 0);
  });
  while (stage.load() != 1) std::this_thread::yield();
  EbrDomain::instance().retire(new Tracked(2));
  // Attempt aggressive collection; the reader pins the epoch.
  EbrDomain::instance().drain();
  EXPECT_EQ(g_frees.load(), 0);
  stage = 2;
  reader.join();
  EbrDomain::instance().drain();
  EXPECT_EQ(g_frees.load(), 1);
}

// tsa: the nesting under test is deliberate double entry — EBR read-side
// sections are depth-counted reentrant, which TSA's non-reentrant
// capability model reports as a double acquire.
NO_THREAD_SAFETY_ANALYSIS
void nested_guard_roundtrip() {
  auto& dom = EbrDomain::instance();
  EXPECT_FALSE(dom.in_critical_section());
  {
    Guard outer;
    EXPECT_TRUE(dom.in_critical_section());
    {
      Guard inner;
      EXPECT_TRUE(dom.in_critical_section());
    }
    EXPECT_TRUE(dom.in_critical_section());
  }
  EXPECT_FALSE(dom.in_critical_section());
}

TEST_F(EbrTest, GuardNestingKeepsCriticalSection) { nested_guard_roundtrip(); }

// Runs `rounds` drains on a helper thread (drain must run outside every
// guard, and the caller may hold one); returns the epoch afterwards.
std::uint64_t drain_elsewhere(int rounds) {
  std::thread([rounds] {
    for (int i = 0; i < rounds; ++i) EbrDomain::instance().drain();
  }).join();
  return EbrDomain::instance().epoch();
}

// tsa: deliberate nested entry, as in nested_guard_roundtrip.
NO_THREAD_SAFETY_ANALYSIS
void nested_guard_keeps_outer_announcement() {
  auto& dom = EbrDomain::instance();
  Guard outer;
  // No other thread runs, so the outer guard announced exactly this epoch
  // and pins the epoch one advance past it.
  const std::uint64_t e = dom.epoch();
  EXPECT_EQ(drain_elsewhere(3), e + 1);
  {
    Guard inner;
    EXPECT_EQ(drain_elsewhere(3), e + 1) << "the nested guard re-announced";
  }
  EXPECT_EQ(drain_elsewhere(3), e + 1)
      << "the nested guard's exit cleared the outer announcement";
}

TEST_F(EbrTest, NestedGuardKeepsOuterAnnouncement) {
  nested_guard_keeps_outer_announcement();
}

// Deterministic: a reader's guard, active at epoch g, pins the epoch at
// g + 1, so nodes retired after it entered (stamped g and g + 1) stay
// allocated until it exits, and are freed once it has.
TEST_F(EbrTest, ActiveGuardKeepsLaterRetiresUntilExit) {
  auto& dom = EbrDomain::instance();
  std::atomic<int> stage{0};
  std::uint64_t g = 0;
  std::thread reader([&] {
    Guard guard;
    g = dom.epoch();
    stage = 1;
    while (stage.load() != 2) std::this_thread::yield();
  });
  while (stage.load() != 1) std::this_thread::yield();
  dom.retire(new Tracked(1));
  dom.drain();  // seals at g, advances once
  EXPECT_EQ(dom.epoch(), g + 1);
  dom.retire(new Tracked(2));
  for (int i = 0; i < 4; ++i) dom.drain();
  EXPECT_EQ(dom.epoch(), g + 1);
  EXPECT_EQ(g_frees.load(), 0);
  stage = 2;
  reader.join();
  dom.drain();
  EXPECT_EQ(g_frees.load(), 2);
}

// The announcement loop behind EbrDomain::enter: an epoch that moved
// between the caller's read and the store is re-announced, so a guard
// never starts out stale (a stale announcement would pin the epoch for the
// guard's whole life).
TEST(EbrReservation, EpochMovedBeforeTheStoreIsReannounced) {
  detail::Reservation r;
  std::atomic<std::uint64_t> global{7};
  r.announce(global, /*seen=*/5);
  EXPECT_EQ(r.word.load(), detail::Reservation::busy(7));
  r.announce(global, /*seen=*/7);
  EXPECT_EQ(r.word.load(), detail::Reservation::busy(7));
  EXPECT_NE(detail::Reservation::busy(0), 0u) << "epoch 0 reads as idle";
}

TEST_F(EbrTest, ThresholdTriggersCollection) {
  // Retire many objects with no guards active; the internal threshold must
  // bound the limbo list rather than letting it grow unboundedly.
  for (int i = 0; i < 1000; ++i) {
    EbrDomain::instance().retire(new Tracked(i));
  }
  EXPECT_GT(g_frees.load(), 0);
  EbrDomain::instance().drain();
  EXPECT_EQ(g_frees.load(), 1000);
}

TEST_F(EbrTest, OrphansFromDeadThreadReclaimed) {
  std::thread t([] {
    for (int i = 0; i < 10; ++i) {
      EbrDomain::instance().retire(new Tracked(i));
    }
    // Thread exits with a non-empty limbo list -> orphaned.
  });
  t.join();
  EbrDomain::instance().drain();
  EXPECT_EQ(g_frees.load(), 10);
}

TEST_F(EbrTest, StressReadersNeverSeeFreedMemory) {
  // Writers publish nodes into a shared slot, retire the old one; readers
  // dereference under a guard. With correct grace periods the value read
  // is always one of the published magic constants.
  struct Node {
    explicit Node(std::uint64_t m) : magic(m) {}
    ~Node() { magic = 0xDEADDEADDEADDEADull; }
    std::uint64_t magic;
  };
  std::atomic<Node*> slot{new Node(0xA5A5A5A5ull)};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        Guard guard;
        Node* n = slot.load(std::memory_order_acquire);
        if (n->magic != 0xA5A5A5A5ull) bad.fetch_add(1);
      }
    });
  }
  std::thread writer([&] {
    for (int i = 0; i < 20000; ++i) {
      Node* fresh = new Node(0xA5A5A5A5ull);
      Node* old = slot.exchange(fresh, std::memory_order_acq_rel);
      EbrDomain::instance().retire(old);
    }
    stop = true;
  });
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(bad.load(), 0u);
  EbrDomain::instance().retire(slot.load());
  EbrDomain::instance().drain();
}

}  // namespace
}  // namespace hcf::mem
