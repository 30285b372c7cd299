// Elidable locks: locks whose state transactions can subscribe to, in the
// TLE sense. Two variants:
//
//   * TxLock      — test-and-test-and-set; minimal latency, unfair.
//   * FairTxLock  — ticket-based; starvation-free, required by the paper's
//                   progress argument (§2.3) for HCF starvation freedom.
//
// Acquisition is a strong TxCell store or CAS: it draws the lock word a
// new orec version, which dooms every transaction that read the word as
// free. It then runs htm::wait_writeback_drain(), so a lock holder never
// observes — or races with — partial transactional state (DESIGN.md
// "quiescence gate"). A lock built with LockRole::kStopsSubscribers (the
// default) also moves the strong clock before the drain, so every running
// subscriber stops at its next read before it can ingest an
// uninstrumented store of the holder; a kDrainOnly lock skips that move.
// Release is a plain exchange: the acquisition's version already dooms
// every subscriber from before it, and one that reads the freed word later
// reads it consistently (DESIGN.md §12.1).
//
// Wait hierarchy (DESIGN.md §12): the lock word is 4 bytes so it doubles
// as a futex word. Under WaitPolicy::SpinPark a waiter that exhausts its
// spin/yield tiers publishes a waiters bit (the word's MSB) with a
// hardware CAS and sleeps on the word; unlock issues a wake only when the
// displaced value carries the bit, so uncontended release stays
// syscall-free. The transactional subscribe() path is untouched — elided
// readers abort on a held lock, they never park (a parked transaction
// would be aborted by the context switch on real HTM anyway).
#pragma once

#include <atomic>
#include <concepts>
#include <cstdint>

#include "sim_htm/txcell.hpp"
#include "util/backoff.hpp"
#include "util/cacheline.hpp"
#include "util/counters.hpp"
#include "util/parking.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_id.hpp"

namespace hcf::sync {

// What an acquisition does to transactions still running when it lands
// (DESIGN.md §8.3). Both roles doom the lock word's subscribers and drain
// in-flight write-backs; they differ in whether those subscribers must
// also stop before their doomed commit.
enum class LockRole : std::uint8_t {
  // The holder writes uninstrumented data a running subscriber could read:
  // move the strong clock so each stops at its next read. Data-structure
  // locks, and the selection lock of a SingleHolder engine (its holder
  // combines while owners' visible attempts run).
  kStopsSubscribers,
  // Every word the holder writes is stored strongly or is private to the
  // holder, so orec evidence dooms each reader in time: drain only. The
  // selection lock of a Multi engine, whose foreign selections move the
  // clock themselves (Operation::mark_being_helped).
  kDrainOnly,
};

template <typename L>
concept ElidableLock = std::constructible_from<L, LockRole> &&
                       requires(L l, const L cl, util::WaitPolicy p) {
  l.lock();
  l.lock(p);
  l.unlock();
  { l.try_lock() } -> std::same_as<bool>;
  { cl.is_locked() } -> std::same_as<bool>;
  cl.subscribe();
  cl.wait_until_free();
  cl.wait_until_free(p);
};

namespace detail {

// MSB of every parkable lock word. Invariant: the bit is only ever set by
// a CAS from a *nonzero* (held) value and is cleared atomically with the
// release exchange, so "word != 0 iff the lock is held" keeps holding —
// subscribe() and try_lock() need no masking.
inline constexpr std::uint32_t kWaitersBit = 0x8000'0000u;

// Spin/yield/park until `word` reads 0. The park tier publishes the
// waiters bit, then sleeps on the exact observed value; the kernel-side
// equality check closes the window against a concurrent release (a word
// that changed before the syscall lands makes the wait return
// immediately).
inline void wait_word_free(htm::TxCell<std::uint32_t>& word,
                           util::WaitPolicy policy) noexcept {
  util::TieredWait waiter(util::WaitSite::kLockWord, policy);
  std::uint32_t v;
  while ((v = word.load()) != 0) {
    if (!waiter.wait()) continue;
    // Set the waiters bit with one hardware CAS from a held value. A
    // strong CAS (orec lock, load, store) would race the holder's plain
    // release exchange and could store the bit over the freed word. A
    // failed CAS means the word moved under us — re-read before deciding.
    // plain: the word stays nonzero either way, and every subscriber of a
    // held word aborts on it.
    if ((v & kWaitersBit) == 0 && !word.cas_plain(v, v | kWaitersBit)) {
      continue;
    }
    util::park(word.wait_address(), v | kWaitersBit);
    waiter.reset();
  }
}

// Release a parkable word: clear it and wake the cohort iff the displaced
// value carried the waiters bit.
inline void release_word(htm::TxCell<std::uint32_t>& word) noexcept {
  // plain: a subscriber that read the word free before the acquisition
  // was doomed by the acquisition's new orec version; one that reads it
  // after this store reads a consistent free word.
  if ((word.exchange_plain(0) & kWaitersBit) != 0) {
    util::wake_all(word.wait_address());
  }
}

// Acquisition tail shared by both lock types, after the doom: stop running
// subscribers unless the lock is drain-only, then drain write-backs. The
// clock move precedes every store the holder makes, so a subscriber that
// ingests one of them sees the clock moved, revalidates, and aborts on
// the lock word's new version.
inline void after_acquire(bool drain_only) noexcept {
  htm::protocol::note_lock_acquired();
  if (!drain_only) htm::detail::bump_strong_clock();
  htm::wait_writeback_drain();
}

}  // namespace detail

class CAPABILITY("elidable_lock") TxLock {
 public:
  explicit TxLock(LockRole role = LockRole::kStopsSubscribers) noexcept
      : drain_only_(role == LockRole::kDrainOnly) {}
  TxLock(const TxLock&) = delete;
  TxLock& operator=(const TxLock&) = delete;

  void lock(util::WaitPolicy policy = util::WaitPolicy::SpinYield) noexcept
      ACQUIRE() {
    util::ExpBackoff backoff(
        util::backoff_seed(util::BackoffSite::kLockAcquire));
    for (;;) {
      if (try_lock()) return;
      wait_until_free(policy);  // tiered wait; survives oversubscription
      backoff.pause();  // jitter so waiters don't re-CAS in lockstep
    }
  }

  bool try_lock() noexcept TRY_ACQUIRE(true) {
    if (word_.load() != 0) return false;
    if (!word_.cas(0, owner_word())) return false;
    acquisitions_.add();
    // Doomed subscribers are now guaranteed to fail validation; stop the
    // running ones (unless drain-only) and flush the transactions that
    // validated before our CAS.
    detail::after_acquire(drain_only_);
    return true;
  }

  void unlock() noexcept RELEASE() {
    htm::protocol::note_lock_released();
    detail::release_word(word_);
  }

  // Non-transactional probe.
  bool is_locked() const noexcept { return word_.load() != 0; }

  // Inside a transaction: joins the lock word to the read set and aborts
  // immediately if the lock is held (the paper's `if (L.isLocked()) abortHT`).
  // The waiters bit never makes this spuriously abort: it is only set
  // while the lock is held, when the subscription must abort anyway.
  // To TSA a successful subscription is the shared (reader) right: the
  // transaction either commits having observed no holder, or aborts — it
  // can never see a holder's partial state.
  void subscribe() const ASSERT_SHARED_CAPABILITY(this) {
    htm::note_lock_subscription();
    if (word_.read() != 0) htm::abort_tx(htm::AbortCode::LockBusy);
  }

  // Standard TLE discipline: do not start (or restart) a transaction while
  // the lock is held — it would abort immediately anyway. The wait-state
  // mutation (waiters bit, parking) is logically const, hence the mutable
  // word.
  void wait_until_free(
      util::WaitPolicy policy = util::WaitPolicy::SpinYield) const noexcept {
    detail::wait_word_free(word_, policy);
  }

  // Total successful acquisitions (the paper's "lock acquisition" metric).
  std::uint64_t acquisition_count() const noexcept {
    return acquisitions_.total();
  }
  void reset_stats() noexcept { acquisitions_.reset(); }

 private:
  static std::uint32_t owner_word() noexcept {
    // Dense thread ids stay far below the waiters bit.
    return static_cast<std::uint32_t>(util::this_thread_id()) + 1;
  }

  mutable htm::TxCell<std::uint32_t> word_{0};
  bool drain_only_;
  util::Counter acquisitions_;
};

class CAPABILITY("elidable_lock") FairTxLock {
 public:
  explicit FairTxLock(LockRole role = LockRole::kStopsSubscribers) noexcept
      : drain_only_(role == LockRole::kDrainOnly) {}
  FairTxLock(const FairTxLock&) = delete;
  FairTxLock& operator=(const FairTxLock&) = delete;

  void lock(util::WaitPolicy policy = util::WaitPolicy::SpinYield) noexcept
      ACQUIRE() {
    const std::uint32_t ticket =
        next_.fetch_add(1, std::memory_order_acq_rel);
    util::TieredWait waiter(util::WaitSite::kTicketQueue, policy);
    for (;;) {
      if (serving_.load(std::memory_order_acquire) == ticket) break;
      if (!waiter.wait()) continue;
      // Park on the serving counter. Registration before the re-read and
      // the release side's bump before its waiter check are both seq_cst,
      // so one side always sees the other (Dekker); the kernel-side value
      // check absorbs the remaining window.
      ticket_waiters_.fetch_add(1, std::memory_order_seq_cst);
      const std::uint32_t cur = serving_.load(std::memory_order_seq_cst);
      if (cur != ticket) util::park(serving_, cur);
      ticket_waiters_.fetch_sub(1, std::memory_order_relaxed);
      waiter.reset();
    }
    held_.store(1);
    acquisitions_.add();
    detail::after_acquire(drain_only_);
  }

  bool try_lock() noexcept TRY_ACQUIRE(true) {
    std::uint32_t ticket = serving_.load(std::memory_order_acquire);
    if (next_.load(std::memory_order_acquire) != ticket) return false;
    if (!next_.compare_exchange_strong(ticket, ticket + 1,
                                       std::memory_order_acq_rel)) {
      return false;
    }
    held_.store(1);
    acquisitions_.add();
    detail::after_acquire(drain_only_);
    return true;
  }

  void unlock() noexcept RELEASE() {
    htm::protocol::note_lock_released();
    // plain: as in detail::release_word — the acquisition's strong store
    // already doomed every subscriber that read the word free before it.
    const std::uint32_t held = held_.exchange_plain(0);
    // seq_cst: the serving bump must be ordered before the ticket-waiters
    // read below, pairing with lock()'s registration-then-recheck.
    serving_.fetch_add(1, std::memory_order_seq_cst);
    if ((held & detail::kWaitersBit) != 0) {
      util::wake_all(held_.wait_address());
    }
    if (ticket_waiters_.load(std::memory_order_seq_cst) != 0) {
      // Whole-cohort wake; only the next ticket proceeds, the rest re-park.
      // Thundering herds are bounded by kMaxThreads and only form under
      // SpinPark at high oversubscription, where a few extra wakes are
      // noise next to the quanta the old yield loop burned.
      util::wake_all(serving_);
    }
  }

  bool is_locked() const noexcept { return held_.load() != 0; }

  void subscribe() const ASSERT_SHARED_CAPABILITY(this) {
    htm::note_lock_subscription();
    if (held_.read() != 0) htm::abort_tx(htm::AbortCode::LockBusy);
  }

  void wait_until_free(
      util::WaitPolicy policy = util::WaitPolicy::SpinYield) const noexcept {
    detail::wait_word_free(held_, policy);
  }

  std::uint64_t acquisition_count() const noexcept {
    return acquisitions_.total();
  }
  void reset_stats() noexcept { acquisitions_.reset(); }

  // Tickets issued but not yet served (holder included). Observability
  // hook for tests and adaptive policies. 32-bit tickets wrap; the
  // difference is taken modulo 2^32, which is exact for any realistic
  // in-flight count.
  std::uint64_t pending() const noexcept {
    return next_.load(std::memory_order_acquire) -
           serving_.load(std::memory_order_acquire);
  }

 private:
  alignas(util::kCacheLineSize) std::atomic<std::uint32_t> next_{0};
  alignas(util::kCacheLineSize) std::atomic<std::uint32_t> serving_{0};
  // Count of threads parked on serving_; unlock only syscalls when someone
  // actually sleeps. Shares the serving line deliberately: both are
  // touched together on the park path only.
  std::atomic<std::uint32_t> ticket_waiters_{0};
  mutable htm::TxCell<std::uint32_t> held_{0};
  bool drain_only_;
  util::Counter acquisitions_;
};

static_assert(ElidableLock<TxLock>);
static_assert(ElidableLock<FairTxLock>);

// RAII guard compatible with both.
template <ElidableLock L>
class SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(L& lock,
                     util::WaitPolicy policy = util::WaitPolicy::SpinYield)
      noexcept ACQUIRE(lock) : lock_(lock) {
    lock_.lock(policy);
  }
  ~LockGuard() RELEASE() { lock_.unlock(); }
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  L& lock_;
};

}  // namespace hcf::sync
