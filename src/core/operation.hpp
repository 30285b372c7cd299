// Operation descriptors (paper §2.2).
//
// An operation bundles the arguments and result slot of one data-structure
// call together with the three sequential methods the framework invokes:
//
//   * run_seq     — applies the operation; the only method a user *must*
//                   provide (typically a one-line wrapper over the
//                   sequential data structure). Runs inside a hardware
//                   transaction or under the data-structure lock.
//   * should_help — combiner-side selection predicate: given the combiner's
//                   own operation (*this), decide whether `candidate` should
//                   be selected from the publication array. Defaults to
//                   "help everyone" (the framework's select-all policy);
//                   a "help nobody" subclass hook is `HelpNobody`.
//   * run_multi   — applies a subset of the selected operations, combining
//                   and/or eliminating them using data-structure semantics.
//                   The default simply runs each selected op's run_seq.
//
// Framework state (status, completion phase) lives in the base class; the
// synchronization protocol around it is owned by the engines, never by
// user code.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>

#include "core/delegation.hpp"
#include "core/types.hpp"
#include "sim_htm/txcell.hpp"
#include "util/cacheline.hpp"
#include "util/parking.hpp"
#include "util/thread_id.hpp"

namespace hcf::core {

template <typename DS>
class Operation {
 public:
  explicit Operation(int class_id = 0) noexcept : class_id_(class_id) {}
  virtual ~Operation() = default;

  Operation(const Operation&) = delete;
  Operation& operator=(const Operation&) = delete;

  // ---- user-provided sequential methods ----

  virtual void run_seq(DS& ds) = 0;

  virtual bool should_help(const Operation& candidate) const {
    (void)candidate;
    return true;
  }

  // Applies some non-empty subset of `ops`. Contract: the implementation
  // may permute `ops`, must execute exactly a *prefix* of the (permuted)
  // span, and returns that prefix's length (>= 1). Runs inside a hardware
  // transaction or under the data-structure lock.
  virtual std::size_t run_multi(DS& ds, std::span<Operation*> ops) {
    for (auto* op : ops) op->run_seq(ds);
    return ops.size();
  }

  // Combiner-side batch grouping hint. When combine_keyed() is true, the
  // engines sort a selected batch by ascending combine_key() *before*
  // handing it to run_multi (group_batch below), so combinable and
  // eliminable operations arrive adjacent and the adapter's internal
  // sort/partition runs on already-ordered input — outside the hardware
  // transaction instead of inside it. Purely a performance hint: run_multi
  // must stay correct on ungrouped input (its contract already allows any
  // permutation), and a stale or mismatched key mis-groups but never
  // mis-executes.
  virtual bool combine_keyed() const { return false; }
  virtual std::uint64_t combine_key() const { return 0; }

  // Delegation grouping hook (core/delegation.hpp): when delegate_keyed()
  // is true and the class policy enables delegation, the combiner
  // partitions the selected batch into runs of equal delegate_key() and
  // hands whole runs back to waiting clients to apply in parallel. Two
  // operations with the same delegate_key must be safe to apply in one
  // run_multi call (they are — that is run_multi's existing contract); two
  // *different* keys are only applied concurrently if the engine's
  // ConflictGraph says their classes commute. Defaults to the combine key
  // so keyed adapters delegate along their existing grouping; adapters
  // whose combine key is too fine (e.g. hash tables grouping per bucket)
  // override with a coarser partition.
  virtual bool delegate_keyed() const { return combine_keyed(); }
  virtual std::uint64_t delegate_key() const { return combine_key(); }

  // Sharding hook (core/sharded_engine.hpp): a well-mixed 64-bit hash of
  // the operation's target; the sharded meta-engine selects a shard from
  // its high bits. Any two operations that may touch the same state must
  // return the same key — whole-structure operations have no such key and
  // go through the meta-engine's cross-shard path instead. The default
  // routes every operation to shard 0, which is always correct (a single
  // shard sees a total order) just never scalable.
  virtual std::uint64_t shard_key() const noexcept { return 0; }

  // ---- framework state ----

  int class_id() const noexcept { return class_id_; }

  // Resets the descriptor for a fresh execution. Must only be called by the
  // owner when no other thread can reference the descriptor.
  void prepare() noexcept {
    status_.init(static_cast<std::uint32_t>(OpStatus::UnAnnounced));
    completed_phase_ = Phase::Private;
    owner_slot_ = util::this_thread_id();
    delegate_group_.store(nullptr, std::memory_order_relaxed);
  }

  // Reclamation ownership tag (mem/pool.hpp): the pool slot of the thread
  // that announced this operation. A combiner or delegate running this
  // op's retires frees nodes whose block headers name their allocation-
  // time owners — often this slot — and the mem:: facade routes each such
  // free to the owner's remote inbox rather than the applier's limbo. The
  // tag marks the op as carrying foreign-pool traffic, so session code
  // batch-flushes outbound bins once per group/session
  // (mem::flush_remote_frees) instead of per node.
  std::size_t owner_slot() const noexcept { return owner_slot_; }

  OpStatus status() const noexcept {
    return static_cast<OpStatus>(status_.load() & kStatusMask);
  }

  // Transactional status read (owner-side check inside TryVisible).
  OpStatus status_tx() const {
    return static_cast<OpStatus>(status_.read() & kStatusMask);
  }

  // Owner announces before publishing; sequenced before any transaction
  // that subscribes to the status, so a plain store suffices.
  void mark_announced() noexcept {
    // plain: only the owner's own visible attempt reads the status inside
    // a transaction, and it has not started.
    status_.store_plain(static_cast<std::uint32_t>(OpStatus::Announced));
  }

  // Combiner selection of another thread's op: dooms the owner's in-flight
  // speculative attempt (the strong store bumps the status word's orec)
  // and then moves the strong clock, so the owner stops at its next read
  // instead of at commit. The stop is needed because adapters store op
  // results with plain stores inside transaction bodies: a doomed owner
  // that ran on would overwrite the result the combiner is about to store.
  // Idempotent: a rescan that offers an already-selected op skips both —
  // the owner was stopped by the first transition, and a redundant strong
  // store would bump the orec again, aborting unrelated readers that
  // subscribed to the word since.
  void mark_being_helped() noexcept {
    if ((status_.load() & kStatusMask) ==
        static_cast<std::uint32_t>(OpStatus::BeingHelped)) {
      return;
    }
    status_.store(static_cast<std::uint32_t>(OpStatus::BeingHelped));
    htm::detail::bump_strong_clock();
  }

  // The combiner's own op: the same transition as a plain store, with no
  // doom and no strong-clock move.
  void mark_own_being_helped() noexcept {
    // plain: the only transactional reader of the status is the owner's
    // own visible attempt, and the owner is the combiner, which is not
    // speculating on it.
    status_.store_plain(static_cast<std::uint32_t>(OpStatus::BeingHelped));
  }

  // Completion by a combiner or delegate: record where the op completed,
  // then release the owner. Plain release exchange — by this point the
  // owner cannot be speculating on the operation (it was doomed at
  // mark_being_helped, or it is us). The displaced value tells us whether
  // the owner parked on the status word (wait_done below); only then does
  // the wake syscall fire.
  void mark_done(Phase phase) noexcept {
    completed_phase_ = phase;
    // plain: the owner's visible attempt was doomed and stopped at
    // mark_being_helped, or the owner is the caller.
    const std::uint32_t old =
        status_.exchange_plain(static_cast<std::uint32_t>(OpStatus::Done));
    if ((old & kParkedBit) != 0) util::wake_all(status_.wait_address());
  }

  // Completion by the owner itself, of an op no combiner holds: it was
  // never announced, or the owner's visible transaction unpublished it
  // while its status still read Announced. Only the owner ever sets
  // kParkedBit, and only while waiting for someone else, so nobody can be
  // parked here: a plain release store replaces mark_done's exchange.
  void mark_own_done(Phase phase) noexcept {
    assert((status_.load() & kParkedBit) == 0);
    completed_phase_ = phase;
    // plain: the owner is the caller, and its own attempt is over.
    status_.store_plain(static_cast<std::uint32_t>(OpStatus::Done));
  }

  // Owner-side wait for a combiner to finish the operation. The owner
  // spins locally on its own descriptor's status line with bounded
  // exponential pause (the line is written exactly once more — at
  // mark_done — so growing pauses trade wake-up latency for near-zero
  // coherence traffic), then yields; under WaitPolicy::SpinPark it
  // finally publishes the parked bit (CAS, so a racing mark_done wins)
  // and sleeps on its own status word until the combiner's wake.
  void wait_done(
      util::WaitPolicy wait = util::WaitPolicy::SpinYield) const noexcept {
    util::TieredWait waiter(util::WaitSite::kOpStatus, wait);
    for (;;) {
      const std::uint32_t raw = status_.load();
      if ((raw & kStatusMask) == static_cast<std::uint32_t>(OpStatus::Done)) {
        return;
      }
      if (!waiter.wait()) continue;
      std::uint32_t expected = raw;
      if ((expected & kParkedBit) == 0) {
        // Publish intent to sleep. A failed CAS means the status moved
        // (almost certainly to Done) — loop and re-check before parking.
        if (!status_.cas(expected, expected | kParkedBit)) continue;
        expected |= kParkedBit;
      }
      util::park(status_.wait_address(), expected);
      waiter.reset();
    }
  }

  // ---- delegation protocol (core/delegation.hpp, DESIGN.md §13) ----

  // Combiner side: publish a delegated group with this op as its assignee.
  // Requires status == BeingHelped (the op was selected, so the owner's
  // speculation is already doomed — a plain exchange suffices). The group
  // pointer is released *before* the status flips so a claimant's acquire
  // of the status word makes the pointer visible. If the owner already
  // parked (BeingHelped | parked), wake it: the whole point is for the
  // owner to pick the group up.
  void mark_delegated(DelegateGroup<DS>* group) noexcept {
    assert(status() == OpStatus::BeingHelped);
    delegate_group_.store(group, std::memory_order_release);
    // plain: the op is BeingHelped, so its owner's speculation was already
    // doomed and stopped at selection.
    const std::uint32_t old = status_.exchange_plain(
        static_cast<std::uint32_t>(OpStatus::Delegated));
    if ((old & kParkedBit) != 0) util::wake_all(status_.wait_address());
  }

  // Claim the delegated group: exactly one caller (the woken owner or the
  // combiner's fallback sweep) wins the Delegated -> BeingHelped CAS and
  // owns the apply. The CAS is strong (dooming) which is harmless — nobody
  // speculates on a Delegated op — and it preserves a parked bit a
  // concurrent plain wait_done may have published. Returns false once the
  // status has left Delegated (someone else won).
  bool claim_delegation() noexcept {
    std::uint32_t raw = status_.load();
    while ((raw & kStatusMask) ==
           static_cast<std::uint32_t>(OpStatus::Delegated)) {
      const std::uint32_t next =
          (raw & kParkedBit) |
          static_cast<std::uint32_t>(OpStatus::BeingHelped);
      if (status_.cas(raw, next)) return true;
      raw = status_.load();
    }
    return false;
  }

  // Valid after winning claim_delegation() (the claim's acquire pairs with
  // mark_delegated's release); the pointer targets the delegating
  // combiner's stack and must not be touched after the group's done word
  // is set (DelegateGroup::finish is the claimant's last access).
  DelegateGroup<DS>* delegate_group() const noexcept {
    return delegate_group_.load(std::memory_order_acquire);
  }

  // wait_done variant for owners whose engine delegates: returns Done as
  // usual, but also returns (without parking) on Delegated so the caller
  // can try to claim the group and apply it itself. Never parks on a
  // Delegated word — the claim attempt is the next step, not a sleep.
  OpStatus wait_done_or_delegated(
      util::WaitPolicy wait = util::WaitPolicy::SpinYield) const noexcept {
    util::TieredWait waiter(util::WaitSite::kOpStatus, wait);
    for (;;) {
      const std::uint32_t raw = status_.load();
      const std::uint32_t s = raw & kStatusMask;
      if (s == static_cast<std::uint32_t>(OpStatus::Done) ||
          s == static_cast<std::uint32_t>(OpStatus::Delegated)) {
        return static_cast<OpStatus>(s);
      }
      if (!waiter.wait()) continue;
      std::uint32_t expected = raw;
      if ((expected & kParkedBit) == 0) {
        if (!status_.cas(expected, expected | kParkedBit)) continue;
        expected |= kParkedBit;
      }
      util::park(status_.wait_address(), expected);
      waiter.reset();
    }
  }

  // Valid once status() == Done (or after the owner completed it itself).
  Phase completed_phase() const noexcept { return completed_phase_; }

 private:
  // The status word's MSB marks "the owner is parked on this word"; the
  // low bits hold the OpStatus. The bit can only be set while the status
  // is BeingHelped (wait_done and wait_done_or_delegated are only reached
  // after a combiner selected the op, neither parks on Done or Delegated,
  // and the CAS above fails against any concurrent transition). The later
  // writers all handle it atomically: mark_done and mark_delegated observe
  // it through their exchange and wake, claim_delegation's CAS preserves
  // it. status()/status_tx() mask it out.
  static constexpr std::uint32_t kParkedBit = 0x8000'0000u;
  static constexpr std::uint32_t kStatusMask = ~kParkedBit;

  int class_id_;
  mutable htm::TxCell<std::uint32_t> status_{
      static_cast<std::uint32_t>(OpStatus::UnAnnounced)};
  Phase completed_phase_ = Phase::Private;
  std::size_t owner_slot_ = 0;
  // Delegation slot: written by the delegating combiner (mark_delegated),
  // read by the claim winner. Raw atomic — never accessed transactionally.
  std::atomic<DelegateGroup<DS>*> delegate_group_{
      nullptr};  // lint:allow(raw-atomic-in-core)
};

// Sorts a selected batch by combine_key so run_multi receives ready-made
// groups: equal-key (avl) or matching-kind (stack push/pop, pq
// insert/remove-min) operations become adjacent, which is exactly the
// layout the adapters' internal sort/partition would otherwise produce
// inside the transaction. Engines call this after selection, outside both
// the selection lock (where possible) and the hardware transaction.
// Returns the number of distinct key groups (combining telemetry).
template <typename DS>
inline std::size_t group_batch(std::span<Operation<DS>*> ops) {
  std::sort(ops.begin(), ops.end(),
            [](const Operation<DS>* a, const Operation<DS>* b) {
              return a->combine_key() < b->combine_key();
            });
  std::size_t groups = 0;
  std::uint64_t prev_key = 0;
  for (const Operation<DS>* op : ops) {
    const std::uint64_t key = op->combine_key();
    if (groups == 0 || key != prev_key) {
      ++groups;
      prev_key = key;
    }
  }
  return groups;
}

// Prefetches the descriptors of a selected batch before application: the
// combiner is about to read every op's arguments and write every op's
// result slot, and selection just chased kMaxThreads-spread pointers whose
// targets are unlikely to sit in the combiner's cache.
template <typename DS>
inline void prefetch_batch(std::span<Operation<DS>* const> ops) noexcept {
  for (const Operation<DS>* op : ops) util::prefetch_ro(op);
}

// Mixin: a should_help that never helps (the framework's "apply only the
// combiner's own operation" default variant).
template <typename DS, typename Base = Operation<DS>>
class HelpNobody : public Base {
 public:
  using Base::Base;
  bool should_help(const Operation<DS>&) const override { return false; }
};

}  // namespace hcf::core
