// Combining core (paper §2.2): the reusable combiner machinery every
// engine instantiates instead of hand-rolling. One implementation of
//
//   * the selection-lock competition loop with the combined-count epoch
//     waiter protocol (DESIGN.md §9.3),
//   * chooseOpsToHelp — the selection scan under the selection lock, with
//     the optional BeingHelped transition that dooms owners' speculation,
//   * batch shaping (combine-key grouping + descriptor prefetch),
//   * the speculative combining loop (run_multi on HTM, prefix retirement),
//   * the combine-under-lock fallback, and
//   * flat-combining-style combining entirely under the global lock.
//
// Engines choose which pieces to compose through EnginePolicy
// (core/phase_exec.hpp); the protocol around operation status and
// publication slots lives here exactly once, so a fix or a telemetry
// counter lands in every engine at the same time.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "core/delegation.hpp"
#include "core/engine_stats.hpp"
#include "core/operation.hpp"
#include "core/publication_array.hpp"
#include "core/types.hpp"
#include "mem/pool.hpp"
#include "sim_htm/htm.hpp"
#include "sync/tx_lock.hpp"
#include "telemetry/telemetry.hpp"
#include "util/backoff.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_id.hpp"

namespace hcf::core {

template <typename DS, sync::ElidableLock Lock = sync::TxLock,
          sync::ElidableLock SelectionLock = sync::TxLock>
struct CombineCore {
  using Op = Operation<DS>;
  using PubArray = PublicationArray<DS, SelectionLock>;

  // Per-thread selection arena, reserved to full capacity once: selection
  // must never regrow a vector while the selection lock is held (the
  // allocation was a hidden serialization point in the seed).
  static std::vector<Op*>& scratch() {
    thread_local std::vector<Op*> ops = [] {
      std::vector<Op*> v;
      v.reserve(util::kMaxThreads);
      return v;
    }();
    return ops;
  }

  // Separate arena for applying a delegated group: a delegate claims and
  // applies while its own combining-session state (scratch) may be live,
  // and the fallback combiner applies unclaimed groups while its session
  // batch still owns scratch.
  static std::vector<Op*>& delegate_scratch() {
    thread_local std::vector<Op*> ops = [] {
      std::vector<Op*> v;
      v.reserve(util::kMaxThreads);
      return v;
    }();
    return ops;
  }

  // Compete for the array's selection lock *while watching our own
  // status*: if a combiner selects us in the meantime we never need the
  // lock — we just wait for Done. Blocking unconditionally on the lock
  // would make every helped owner serialize through it only to discover it
  // was already helped, which caps the combining degree near 1.
  //
  // Waiter protocol (DESIGN.md §9.3): spin with bounded exponential pause,
  // and watch the array's combined-count epoch — when a combining round
  // retires a batch the epoch moves, and a waiter whose op was in that
  // batch wakes on its next status check instead of re-polling the
  // contended lock line.
  //
  // Parking tier (§12): under WaitPolicy::SpinPark a competition loser
  // sleeps on the epoch word itself. Every wake source it needs is
  // covered: publish_combined advances the epoch (status may have become
  // Done), and every selection-lock release path in the phase machine
  // calls pa.wake_epoch_waiters() (the lock may now be free to take).
  //
  // Returns true with the selection lock held, or false once the op is
  // Done (helped by another combiner). `await` is the caller's terminal
  // wait: invoked once the op has been selected, it must not return until
  // the op is Done — engines that delegate pass an awaiter that can also
  // claim and apply a delegated group (PhaseMachine::await_done) instead of
  // plain wait_done.
  template <typename AwaitDone>
  static bool acquire_selection_or_done(Op& op, PubArray& pa,
                                        util::WaitPolicy wait,
                                        AwaitDone&& await)
      TRY_ACQUIRE(true, pa.selection_lock()) {
    util::TieredWait waiter(util::WaitSite::kSelectionLock, wait);
    std::uint32_t epoch = pa.combined_epoch();
    for (;;) {
      if (op.status() != OpStatus::Announced) {
        await();
        return false;
      }
      const std::uint32_t now = pa.combined_epoch();
      if (now != epoch) {
        epoch = now;
        waiter.reset();
        continue;  // a batch just retired; re-check our status first
      }
      if (pa.selection_lock().try_lock()) return true;
      if (waiter.wait()) {
        pa.park_on_epoch(now);
        waiter.reset();
      }
    }
  }

  // chooseOpsToHelp (paper §2.2): scan the publication array under the
  // selection lock; the caller's op is chosen unconditionally, every other
  // announced op is offered to should_help. Chosen ops are unpublished;
  // when MarkBeingHelped they also transition to BeingHelped, stopping
  // their owners' speculation (the single-holder variant skips the
  // transition — holding the selection lock for the whole combining phase
  // is what dooms the owners there). The caller's own op and own slot
  // change with plain stores: nobody speculates on them, so a degree-1
  // session's only strong store is the selection-lock acquisition. The
  // gather target is the caller's preallocated per-thread arena, so
  // nothing allocates while the selection lock is held.
  template <bool MarkBeingHelped>
  static void select_batch(Op& op, PubArray& pa, std::vector<Op*>& out,
                           EngineStats& stats) REQUIRES(pa.selection_lock()) {
    if constexpr (MarkBeingHelped) op.mark_own_being_helped();
    pa.clear_own_slot();
    out.push_back(&op);
    const std::size_t words_skipped =
        // scan-locked: the caller holds pa.selection_lock() (acquired via
        // acquire_selection_or_done).
        pa.collect_announced(out, [&](Op* candidate) {
          if (candidate == &op) return false;
          if (candidate->status() != OpStatus::Announced) return false;
          if (!op.should_help(*candidate)) return false;
          if constexpr (MarkBeingHelped) candidate->mark_being_helped();
          return true;
        });
    util::bump(stats.local().scan_words_skipped, words_skipped);
  }

  // Batch shaping: group by the adapter's combine key (so run_multi sees
  // eliminable pairs adjacent) and pull the descriptors toward this core.
  static void group_and_prefetch(Op& op, std::vector<Op*>& batch,
                                 EngineStats& stats) {
    if (batch.size() > 1 && op.combine_keyed()) {
      const std::size_t groups = group_batch(std::span<Op*>(batch));
      util::bump(stats.local().batch_groups, groups);
      util::bump(stats.local().batch_group_sizes, batch.size());
    }
    prefetch_batch(std::span<Op* const>(batch));
  }

  // Speculative combining: apply the selected batch in one or more
  // hardware transactions through run_multi, retiring each committed
  // prefix. Stops after `budget` failed attempts (capacity aborts stop
  // immediately — they repeat deterministically). Returns true iff nothing
  // is left for the under-lock fallback.
  //
  // When a delegating session is in flight, `graph`/`session_classes`
  // feed the commutativity graph's online refinement: the first conflict
  // abort of the call charges the admitted class pairs (enough charged
  // applies demotes the pair), committed rounds decay them. Performance
  // feedback only — the abort itself already preserved correctness.
  static bool combine_on_htm(Lock& lock, DS& ds, Op& op, PubArray& pa,
                             std::vector<Op*>& ops, int budget,
                             EngineStats& stats,
                             util::WaitPolicy wait = util::WaitPolicy::SpinYield,
                             ConflictGraph* graph = nullptr,
                             std::uint32_t session_classes = 0) {
    util::ExpBackoff backoff(
        util::backoff_seed(util::BackoffSite::kPhaseCombining));
    int failures = 0;
    bool charged = false;
    while (failures < budget && !ops.empty()) {
      lock.wait_until_free(wait);
      std::size_t executed = 0;
      const bool committed = htm::attempt([&] {
        lock.subscribe();
        executed = op.run_multi(ds, std::span<Op*>(ops));
      });
      if (committed) {
        assert(executed >= 1 && executed <= ops.size());
        util::bump(stats.local().combine_rounds);
        if (graph != nullptr) graph->record_clean(session_classes);
        retire_prefix(op, pa, ops, executed, Phase::Combining, stats);
      } else {
        ++failures;
        stats.record_attempt_failure(op.class_id());
        if (htm::last_abort_code() == htm::AbortCode::Capacity) break;
        if (htm::last_abort_code() == htm::AbortCode::Conflict) {
          if (graph != nullptr) {
            util::bump(stats.local().delegate_conflict_aborts);
            // Charge the pair at most once per group apply, not once per
            // abort: a retry loop burning its whole budget against one
            // transient conflict would otherwise demote a seeded pair in
            // ~kDemoteConflicts/budget applies. A genuinely non-commuting
            // pair still demotes — it charges on every apply and its
            // committed-round decay never keeps pace.
            if (!charged) {
              graph->record_conflict(session_classes, session_classes);
              charged = true;
            }
          }
          backoff.pause();
        }
      }
    }
    return ops.empty();
  }

  // CombineUnderLock (paper phase 4): acquire the data-structure lock and
  // finish the remaining selected operations non-speculatively.
  static void combine_under_lock(Lock& lock, DS& ds, Op& op, PubArray& pa,
                                 std::vector<Op*>& ops, EngineStats& stats,
                                 util::WaitPolicy wait = util::WaitPolicy::SpinYield) {
    assert(!ops.empty());
    sync::LockGuard<Lock> guard(lock, wait);
    while (!ops.empty()) {
      const std::size_t executed = op.run_multi(ds, std::span<Op*>(ops));
      assert(executed >= 1 && executed <= ops.size());
      util::bump(stats.local().combine_rounds);
      retire_prefix(op, pa, ops, executed, Phase::UnderLock, stats);
    }
  }

  // ---- parallel combining (core/delegation.hpp, DESIGN.md §13) ----------

  static std::uint32_t class_bit(const Op* op) noexcept {
    return 1u << (static_cast<unsigned>(op->class_id()) %
                  static_cast<unsigned>(kMaxOpClasses));
  }

  // Carve delegable key-groups out of a freshly selected batch and publish
  // them for waiting clients. Runs after selection, with NO lock held (in
  // Multi mode the selection lock is already released): every op in the
  // batch is BeingHelped, so owners are waiting, not speculating.
  //
  // A group is a maximal run of equal delegate_key() after sorting; it is
  // delegated iff it does not contain the combiner's own op (the combiner
  // must not wait on itself), meets kMinDelegateGroupSize, the graph admits
  // its class mask against the whole batch (delegates run concurrently
  // with every other group and with the combiner's serial remainder), and
  // the session arena has room. Delegated ops are copied into `session`
  // (combiner stack storage) and removed from `batch`; the group's first op
  // becomes the assignee and flips to Delegated, waking its parked owner.
  static void delegate_batch(Op& own, std::vector<Op*>& batch,
                             DelegationSession<DS>& session,
                             ConflictGraph& graph, EngineStats& stats) {
    if (batch.size() < kMinDelegateBatch || !own.delegate_keyed()) return;
    // Tick the re-probe clock on every delegation-eligible session, not
    // just the ones that publish groups: a demoted pair suppresses
    // publication, and if only publishing sessions advanced the clock a
    // single demotion would freeze it and never re-probe.
    graph.on_session();
    std::sort(batch.begin(), batch.end(), [](const Op* a, const Op* b) {
      return a->delegate_key() < b->delegate_key();
    });
    std::uint32_t batch_mask = 0;
    for (const Op* op : batch) batch_mask |= class_bit(op);
    std::size_t write = 0;
    std::size_t groups = 0;
    std::size_t delegated = 0;
    std::size_t i = 0;
    while (i < batch.size()) {
      const std::uint64_t key = batch[i]->delegate_key();
      std::uint32_t group_mask = 0;
      bool has_own = false;
      std::size_t j = i;
      for (; j < batch.size() && batch[j]->delegate_key() == key; ++j) {
        group_mask |= class_bit(batch[j]);
        has_own |= (batch[j] == &own);
      }
      const std::size_t size = j - i;
      DelegateGroup<DS>* group = nullptr;
      if (!has_own && size >= kMinDelegateGroupSize &&
          graph.masks_commute(group_mask, batch_mask)) {
        group = session.add_group(batch.data() + i,
                                  static_cast<std::uint32_t>(size),
                                  group_mask);
      }
      if (group != nullptr) {
        // Publish last: the assignee's owner may claim and read the group
        // the instant this store lands.
        group->ops[0]->mark_delegated(group);
        ++groups;
        delegated += size;
      } else {
        for (std::size_t k = i; k < j; ++k) batch[write++] = batch[k];
      }
      i = j;
    }
    if (groups == 0) return;
    batch.resize(write);
    util::bump(stats.local().delegated_groups, groups);
    util::bump(stats.local().delegated_ops, delegated);
    telemetry::delegate_groups(groups, delegated);
  }

  // Apply one delegated group — called by the claim winner, either the
  // assignee's owner (delegate) or the sweeping combiner (fallback). The
  // caller must have won assignee.claim_delegation(). Copies the group out
  // of session storage first, signals the group's done word last; between
  // those two points it holds no reference the combiner could outlive.
  // This function must never touch the selection lock (lint rule
  // delegated-apply-no-selection-lock): the delegating combiner released
  // it before publishing, and a delegate re-entering selection while its
  // combiner parks on the group would invert the wait order.
  static void apply_delegated_group(Lock& lock, DS& ds, Op& assignee,
                                    PubArray& pa, ConflictGraph& graph,
                                    EngineStats& stats, util::WaitPolicy wait,
                                    bool by_delegate) {
    DelegateGroup<DS>* group = assignee.delegate_group();
    assert(group != nullptr && group->count >= 1);
    std::vector<Op*>& ops = delegate_scratch();
    ops.assign(group->ops, group->ops + group->count);
    const std::uint32_t classes = group->classes;
    if (by_delegate) {
      util::bump(stats.local().delegate_applies);
    } else {
      util::bump(stats.local().delegate_fallbacks);
    }
    telemetry::delegate_apply(by_delegate, ops.size());
    // Charge the commutativity graph only on the delegate path: a delegate
    // applies concurrently with the combiner's serial remainder and any
    // sibling delegates, so its conflict aborts are evidence the admitted
    // class pairs do not commute. The fallback sweep runs after the
    // combiner's own batch, one group at a time — its aborts come from
    // ambient speculation (preemption, unrelated phase-1/2 attempts) and
    // say nothing about group-vs-group commutativity; charging them would
    // demote seeded pairs in exactly the oversubscribed regime delegation
    // targets.
    ConflictGraph* feedback = by_delegate ? &graph : nullptr;
    if (!combine_on_htm(lock, ds, assignee, pa, ops, kDelegateHtmBudget,
                        stats, wait, feedback, classes)) {
      combine_under_lock(lock, ds, assignee, pa, ops, stats, wait);
    }
    // The group's retires ran on behalf of foreign owners: each node freed
    // by run_multi routed toward its allocation-time owner's pool (the ops'
    // owner_slot() tags name the announcing threads), batched in this
    // thread's outbound bins. Push them to the owners' inboxes now — one
    // CAS per destination pool — so a delegated apply frees remotely as
    // part of the group, not whenever the bins next hit capacity.
    mem::flush_remote_frees();
    // Every op in the group is Done and the epoch advanced (retire_prefix
    // inside the combiners above). Release the group back to the combiner;
    // after this store the session stack frame may die.
    group->finish();
  }

  // End-of-session sweep, combiner side: every published group must be
  // fully applied before the session's stack storage goes away. For each
  // group, race the delegate for the claim — winning means the delegate
  // never showed (descheduled, parked, or its owner crashed mid-wait) and
  // the combiner applies the group serially, so progress never depends on
  // a delegate. Losing means the delegate owns the apply; park on the
  // group's done word (its finish() wakes us).
  static void finish_delegation(Lock& lock, DS& ds, PubArray& pa,
                                DelegationSession<DS>& session,
                                ConflictGraph& graph, EngineStats& stats,
                                util::WaitPolicy wait) {
    for (std::size_t i = 0; i < session.num_groups(); ++i) {
      DelegateGroup<DS>& group = session.group(i);
      Op* assignee = group.ops[0];
      if (assignee->claim_delegation()) {
        apply_delegated_group(lock, ds, *assignee, pa, graph, stats, wait,
                              /*by_delegate=*/false);
        continue;
      }
      constexpr std::uint32_t kParked = DelegateGroup<DS>::kParkedBit;
      util::TieredWait waiter(util::WaitSite::kOpStatus, wait);
      for (;;) {
        const std::uint32_t raw = group.done.load(std::memory_order_acquire);
        if ((raw & ~kParked) != 0) break;
        if (!waiter.wait()) continue;
        std::uint32_t expected = raw;
        if ((expected & kParked) == 0) {
          if (!group.done.compare_exchange_strong(
                  expected, expected | kParked, std::memory_order_acq_rel,
                  std::memory_order_acquire)) {
            continue;
          }
          expected |= kParked;
        }
        util::park(group.done, expected);
        waiter.reset();
      }
    }
  }

  // Flat-combining-style session: the caller already holds the
  // data-structure lock (which plays the selection lock's role here) and
  // combines every announced operation under it, rescanning `scan_rounds`
  // times to pick up late arrivals.
  static void combine_global(Lock& lock, DS& ds, Op& own, PubArray& pa,
                             EngineStats& stats, int scan_rounds)
      REQUIRES(lock) {
    assert(lock.is_locked() &&
           "combine_global runs under the data-structure lock");
    (void)lock;  // referenced by the REQUIRES attribute and the assert only
    // The data-structure lock held per REQUIRES serializes us against every
    // would-be scanner (nothing scans a global-lock engine's array without
    // this lock), so the selection capability is legitimately ours even
    // though pa.selection_lock() itself stays free.
    pa.assume_scan_serialized();
    util::bump(stats.local().combiner_sessions);
    std::vector<Op*>& batch = scratch();
    for (int round = 0; round < scan_rounds; ++round) {
      batch.clear();
      // scan-locked: the caller holds the data-structure lock, which is
      // the selection lock for global-lock combining — no other combiner
      // can scan concurrently.
      const std::size_t words_skipped = pa.collect_announced(
          batch, [](Op* op) { return op->status() == OpStatus::Announced; });
      util::bump(stats.local().scan_words_skipped, words_skipped);
      if (batch.empty()) {
        if (own.status() == OpStatus::Done) return;
        continue;
      }
      group_and_prefetch(own, batch, stats);
      util::bump(stats.local().ops_selected, batch.size());
      telemetry::combine_begin(batch.size());
      std::span<Op*> pending(batch);
      while (!pending.empty()) {
        util::bump(stats.local().combine_rounds);
        const std::size_t k = own.run_multi(ds, pending);
        assert(k >= 1 && k <= pending.size());
        for (std::size_t i = 0; i < k; ++i) {
          Op* done = pending[i];
          const int cls = done->class_id();
          done->mark_done(Phase::UnderLock);
          stats.record_completion(cls, Phase::UnderLock);
          if (done != &own) util::bump(stats.local().helped_ops);
        }
        pending = pending.subspan(k);
        pa.publish_combined(k);
      }
      telemetry::combine_end(batch.size());
      // Nodes retired on helped owners' behalf this round sit batched in
      // our outbound bins; hand them to the owners' pools per session
      // round rather than holding them to bin capacity.
      mem::flush_remote_frees();
    }
    // Late safety net: if our own op is somehow still pending after the
    // last scan — impossible by construction (we announced before trying
    // the lock) — run it directly.
    if (own.status() != OpStatus::Done) {
      pa.remove_strong();
      own.run_seq(ds);
      own.mark_done(Phase::UnderLock);
      stats.record_completion(own.class_id(), Phase::UnderLock);
    }
  }

  // Retire the first k selected ops: mark Done, record completions, count
  // helped ops, and move the combined-count epoch so helped owners'
  // selection-lock competition wakes in O(1) — a waiter observing the
  // epoch re-checks its own status before touching the lock.
  static void retire_prefix(Op& own, PubArray& pa, std::vector<Op*>& ops,
                            std::size_t k, Phase phase, EngineStats& stats) {
    for (std::size_t i = 0; i < k; ++i) {
      Op* done = ops[i];
      const int cls = done->class_id();
      done->mark_done(phase);
      stats.record_completion(cls, phase);
      if (done != &own) util::bump(stats.local().helped_ops);
    }
    ops.erase(ops.begin(), ops.begin() + static_cast<std::ptrdiff_t>(k));
    pa.publish_combined(k);
  }
};

}  // namespace hcf::core
