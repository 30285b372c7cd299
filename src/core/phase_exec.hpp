// The phase machine — the paper's four-phase execution protocol (§2.1),
// implemented once and instantiated by every engine:
//
//   1. TryPrivate       — speculative attempts before announcing.
//   2. TryVisible       — announce in the class's publication array, then
//                         more speculative attempts; the transaction checks
//                         (a) the data-structure lock, (b) the operation is
//                         still Announced, (c) the array's selection lock is
//                         free, and removes the announcement in the same
//                         transaction that applies the op.
//   3. TryCombining     — become a combiner: under the selection lock,
//                         select announced operations (should_help); then
//                         apply them in one or more hardware transactions
//                         through run_multi.
//   4. CombineUnderLock — acquire the data-structure lock and finish the
//                         remaining selected operations non-speculatively.
//
// What an engine *is* in this tree is a choice of CombinerMode plus a
// per-class PhasePolicy — the paper's §2.4 degeneration theorem stated
// structurally. The EnginePolicy table (DESIGN.md §10):
//
//   mode             policy (per class)            engine        paper
//   Multi            paper_default() {2,3,5,on}    HcfEngine     HCF §2.1
//   SingleHolder     paper_default()               Hcf-1C        §2.4
//   None             tle_like(b)    {b,0,0,off}    TleEngine     TLE §3
//   None             {0,0,0,off}                   LockEngine    Lock §3
//   UnderGlobalLock  fc_like()      {0,0,0,on}     FcEngine      FC §3
//   UnderGlobalLock  {b,0,0,on}                    TleFcEngine   TLE+FC §3.3
//
// Operation classes (Operation::class_id) map to publication arrays with
// independent per-phase attempt budgets, which is how the paper expresses
// per-operation policies (e.g. hash-table Insert combines, Find/Remove run
// TLE-like). Correctness is configuration-independent; only performance
// changes (§2.1).
#pragma once

#include <atomic>
#include <cassert>
#include <concepts>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/combine_core.hpp"
#include "core/engine_stats.hpp"
#include "mem/pool.hpp"
#include "core/operation.hpp"
#include "core/publication_array.hpp"
#include "core/types.hpp"
#include "mem/ebr.hpp"
#include "sim_htm/htm.hpp"
#include "sync/tx_lock.hpp"
#include "telemetry/telemetry.hpp"
#include "util/backoff.hpp"
#include "util/parking.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_id.hpp"

namespace hcf::core {

inline constexpr int kDefaultHtmBudget = 10;

// Per-operation-class policy: HTM attempt budgets per phase (paper's
// TryPrivateTrials / TryVisibleTrials / TryCombiningTrials) and whether the
// class announces at all. announce=false yields pure TLE behaviour for the
// class: failed speculation goes straight to running its own op under the
// lock.
struct PhasePolicy {
  int try_private = 2;
  int try_visible = 3;
  int try_combining = 5;
  bool announce = true;
  // Parallel combining (core/delegation.hpp): a combiner of this class
  // hands disjoint delegate-key groups of its selected batch back to
  // waiting clients instead of applying everything itself. Multi-mode
  // engines only; requires the adapter to be delegate_keyed and the
  // engine's ConflictGraph to be seeded (seed_commutes) for the class
  // pairs that may run concurrently. Off by default: the handshake only
  // pays once batches are deep, and the graph decides per session.
  bool delegate = false;
  // How this class's threads wait — on the data-structure lock, the
  // selection-lock competition, and their own op status (DESIGN.md §12).
  // SpinYield is the paper-faithful default; SpinPark escalates to futex
  // parking and pays off under oversubscription (Figure 7).
  util::WaitPolicy wait = util::WaitPolicy::SpinYield;

  static constexpr PhasePolicy paper_default() noexcept {
    return {2, 3, 5, true};
  }
  // TLE expressed as an HCF configuration (§2.4).
  static constexpr PhasePolicy tle_like(int budget = kDefaultHtmBudget) noexcept {
    return {budget, 0, 0, false};
  }
  // FC expressed as an HCF configuration (§2.4).
  static constexpr PhasePolicy fc_like() noexcept { return {0, 0, 0, true}; }
  // The paper's contended-operation policy (e.g. priority-queue RemoveMin):
  // skip the private phase, announce immediately, combine on HTM.
  static constexpr PhasePolicy combine_first(int combining = 10) noexcept {
    return {0, 0, combining, true};
  }
};

struct ClassConfig {
  std::size_t array = 0;  // publication array index
  PhasePolicy policy{};
};

// A uniform class table: every operation class runs `policy` against
// publication array 0. The degenerate engines (TLE, FC, TLE+FC, Lock) are
// single-policy by definition, but their class tables stay full-width so
// any class_id executes — and set_class_policy can still specialize a
// class afterwards.
inline std::vector<ClassConfig> uniform_classes(const PhasePolicy& policy) {
  return std::vector<ClassConfig>(static_cast<std::size_t>(kMaxOpClasses),
                                  ClassConfig{0, policy});
}

namespace detail {

// Atomically-updatable storage for a PhasePolicy. set_class_policy may
// overwrite a class's policy while concurrent execute() calls read it (§2.4
// dynamic customization), so the fields are independent relaxed atomics: a
// reader snapshotting mid-update can observe a mix of old and new budgets,
// which is harmless — the policy shapes trial budgets, never correctness.
// These atomics are engine configuration, never touched inside a
// transaction, so the TxCell/TxField funnel does not apply.
class AtomicPolicy {
 public:
  explicit AtomicPolicy(const PhasePolicy& p) noexcept { store(p); }
  AtomicPolicy(const AtomicPolicy& other) noexcept { store(other.load()); }
  AtomicPolicy& operator=(const AtomicPolicy& other) noexcept {
    store(other.load());
    return *this;
  }

  void store(const PhasePolicy& p) noexcept {
    try_private_.store(p.try_private, std::memory_order_relaxed);
    try_visible_.store(p.try_visible, std::memory_order_relaxed);
    try_combining_.store(p.try_combining, std::memory_order_relaxed);
    announce_.store(p.announce, std::memory_order_relaxed);
    delegate_.store(p.delegate, std::memory_order_relaxed);
    wait_.store(static_cast<std::uint8_t>(p.wait), std::memory_order_relaxed);
  }
  PhasePolicy load() const noexcept {
    return {try_private_.load(std::memory_order_relaxed),
            try_visible_.load(std::memory_order_relaxed),
            try_combining_.load(std::memory_order_relaxed),
            announce_.load(std::memory_order_relaxed),
            delegate_.load(std::memory_order_relaxed),
            static_cast<util::WaitPolicy>(
                wait_.load(std::memory_order_relaxed))};
  }

 private:
  std::atomic<int> try_private_;    // lint:allow(raw-atomic-in-core)
  std::atomic<int> try_visible_;    // lint:allow(raw-atomic-in-core)
  std::atomic<int> try_combining_;  // lint:allow(raw-atomic-in-core)
  std::atomic<bool> announce_;      // lint:allow(raw-atomic-in-core)
  std::atomic<bool> delegate_;      // lint:allow(raw-atomic-in-core)
  std::atomic<std::uint8_t> wait_;  // lint:allow(raw-atomic-in-core)
};

}  // namespace detail

// The unified policy surface every phase-machine engine exposes: per-class
// introspection plus live PhasePolicy updates. Controllers (the adaptive
// engine, benches, tests) target this concept, not a concrete engine.
template <typename E>
concept PolicyConfigurable =
    requires(E e, const E ce, std::size_t cls, const PhasePolicy& p) {
      { ce.num_classes() } -> std::convertible_to<std::size_t>;
      { ce.class_config(cls) } -> std::same_as<ClassConfig>;
      e.set_class_policy(cls, p);
    };

// How (and whether) an engine combines:
//
//   None            — no publication protocol at all; a failed private
//                     phase runs the thread's own op under the lock.
//   Multi           — the paper's default: combiners hold the selection
//                     lock only while selecting (marking victims
//                     BeingHelped), then combine on HTM concurrently with
//                     owners' visible attempts.
//   SingleHolder    — §2.4 specialization: the combiner keeps the
//                     selection lock for the whole combining phase, so
//                     BeingHelped is unnecessary (Announced -> Done).
//   UnderGlobalLock — flat combining: the data-structure lock doubles as
//                     the selection lock, and all combining runs under it.
enum class CombinerMode : std::uint8_t {
  None,
  Multi,
  SingleHolder,
  UnderGlobalLock,
};

template <CombinerMode Mode>
struct EnginePolicy {
  static constexpr CombinerMode kMode = Mode;
  // Only Multi needs the BeingHelped transition: SingleHolder dooms owners
  // by holding the selection lock instead, and the other modes never help.
  static constexpr bool kMarkBeingHelped = (Mode == CombinerMode::Multi);
};

// The statically-parameterized phase machine every engine instantiates.
// `EP` is an EnginePolicy; `Lock` elides the data structure; SelectionLock
// serializes combiner selection per publication array.
template <typename DS, typename EP, sync::ElidableLock Lock = sync::TxLock,
          sync::ElidableLock SelectionLock = sync::TxLock>
class PhaseMachine {
 public:
  using Op = Operation<DS>;
  using PubArray = PublicationArray<DS, SelectionLock>;
  using Core = CombineCore<DS, Lock, SelectionLock>;
  static constexpr CombinerMode kMode = EP::kMode;
  // What a selection-lock acquisition does to running transactions. A
  // Multi holder only selects: every foreign op it takes moves the strong
  // clock itself (mark_being_helped), and its other writes are strong or
  // owner-private, so the acquisition need only drain write-backs. A
  // SingleHolder holder combines while owners' visible attempts still
  // run, and those attempts store results with plain stores: its
  // acquisition must stop them (DESIGN.md §8.3).
  static constexpr sync::LockRole kSelectionRole =
      EP::kMarkBeingHelped ? sync::LockRole::kDrainOnly
                           : sync::LockRole::kStopsSubscribers;

  // `classes[i]` configures operations with class_id == i. `num_arrays`
  // publication arrays are created; every ClassConfig::array must be < it.
  // `scan_rounds` is UnderGlobalLock-only: how many times a combiner
  // rescans the array before releasing the lock (classic FC performs
  // several passes to pick up late arrivals).
  PhaseMachine(DS& ds, std::vector<ClassConfig> classes,
               std::size_t num_arrays = 1, int scan_rounds = 1)
      : ds_(ds), scan_rounds_(scan_rounds) {
    assert(!classes.empty());
    assert(classes.size() <= static_cast<std::size_t>(kMaxOpClasses));
    classes_.reserve(classes.size());
    for (const auto& c : classes) {
      assert(c.array < num_arrays);
      classes_.emplace_back(c);
    }
    arrays_.reserve(num_arrays);
    for (std::size_t i = 0; i < num_arrays; ++i) {
      arrays_.push_back(std::make_unique<PubArray>(kSelectionRole));
    }
  }

  Phase execute(Op& op) {
    mem::Guard ebr;
    op.prepare();
    assert(static_cast<std::size_t>(op.class_id()) < classes_.size());
    const ClassSlot& cfg = classes_[static_cast<std::size_t>(op.class_id())];
    // One policy snapshot per operation: set_class_policy may update the
    // slot concurrently, and each phase should see a consistent budget.
    const PhasePolicy policy = cfg.policy.load();
    PubArray& pa = *arrays_[cfg.array];

    // Telemetry hooks live here, between phases and outside every
    // htm::attempt body (lint rules tx-telemetry-call and
    // phase-telemetry-pairing). A phase's enter/exit pair is emitted iff
    // the policy actually runs the phase.
    if (policy.try_private > 0) {
      telemetry::phase_enter(static_cast<int>(Phase::Private));
      const bool done_private = try_private(op, policy);
      telemetry::phase_exit(static_cast<int>(Phase::Private), done_private);
      if (done_private) return Phase::Private;
    }

    if constexpr (kMode == CombinerMode::None) {
      run_own_under_lock(op, policy.wait);
      return Phase::UnderLock;
    } else if constexpr (kMode == CombinerMode::UnderGlobalLock) {
      if (!policy.announce) {
        run_own_under_lock(op, policy.wait);
        return Phase::UnderLock;
      }
      return announce_and_combine_global(op, pa, policy.wait);
    } else {
      return visible_then_combine(op, pa, policy);
    }
  }

  EngineStats& stats() noexcept { return stats_; }
  std::uint64_t lock_acquisitions() const noexcept {
    return lock_.acquisition_count();
  }
  void reset_stats() noexcept {
    stats_.reset();
    lock_.reset_stats();
  }

  DS& data() noexcept { return ds_; }
  Lock& lock() noexcept { return lock_; }
  PubArray& publication_array(std::size_t i) noexcept { return *arrays_[i]; }
  std::size_t num_arrays() const noexcept { return arrays_.size(); }
  std::size_t num_classes() const noexcept { return classes_.size(); }
  ClassConfig class_config(std::size_t cls) const noexcept {
    return {classes_[cls].array, classes_[cls].policy.load()};
  }

  // Commutativity graph gating delegated-session admission (parallel
  // combining, core/delegation.hpp). Adapters seed the statically-known
  // commuting class pairs at engine setup; the graph refines itself online
  // from HTM conflict aborts observed while delegated sessions run.
  ConflictGraph& conflict_graph() noexcept { return graph_; }
  void seed_commutes(int a, int b, bool on = true) noexcept {
    graph_.seed(a, b, on);
  }

  // Dynamic reconfiguration (§2.4: "the customization may be dynamic").
  // Configuration affects only performance, never correctness, so this may
  // overlap with concurrent execute() calls: the policy fields are relaxed
  // atomics (detail::AtomicPolicy), and a reader of a half-updated policy
  // merely runs one operation with a hybrid trial budget. The publication
  // array assignment is intentionally NOT changeable here — moving a class
  // between arrays while its ops are announced would need a handshake.
  void set_class_policy(std::size_t cls, const PhasePolicy& policy) noexcept {
    classes_[cls].policy.store(policy);
  }

 private:
  // ---- Phase 1 -------------------------------------------------------
  bool try_private(Op& op, const PhasePolicy& policy) {
    // Seeded on the first Conflict abort: an op that commits at once (the
    // uncontended common case) never builds it.
    std::optional<util::ExpBackoff> backoff;
    for (int attempt = 0; attempt < policy.try_private; ++attempt) {
      lock_.wait_until_free(policy.wait);
      const bool committed = htm::attempt([&] {
        lock_.subscribe();
        op.run_seq(ds_);
      });
      if (committed) {
        complete(op, Phase::Private);
        return true;
      }
      stats_.record_attempt_failure(op.class_id());
      if (htm::last_abort_code() == htm::AbortCode::Capacity) return false;
      if (htm::last_abort_code() == htm::AbortCode::Conflict) {
        if (!backoff) {
          backoff.emplace(
              util::backoff_seed(util::BackoffSite::kPhasePrivate));
        }
        backoff->pause();
      }
    }
    return false;
  }

  // ---- Phase 2 -------------------------------------------------------
  bool try_visible(Op& op, PubArray& pa, const PhasePolicy& policy) {
    op.mark_announced();
    pa.add(&op);

    util::ExpBackoff backoff(
        util::backoff_seed(util::BackoffSite::kPhaseVisible));
    for (int attempt = 0; attempt < policy.try_visible; ++attempt) {
      // A combiner may have selected (and completed) us already — or
      // delegated a group to us (await_done claims and applies it).
      if (op.status() != OpStatus::Announced) {
        await_done(op, pa, policy.wait);
        return true;
      }
      lock_.wait_until_free(policy.wait);
      if constexpr (kMode == CombinerMode::SingleHolder) {
        // An active combiner holds the selection lock for its entire
        // combining phase; a transaction started before it releases would
        // only abort on the subscription below.
        pa.selection_lock().wait_until_free(policy.wait);
      }
      const bool committed = htm::attempt([&] {
        lock_.subscribe();
        // Abort if a combiner selected us or is scanning the array: these
        // reads join the read set, so *later* selection also dooms us.
        if (op.status_tx() != OpStatus::Announced) htm::abort_tx();
        pa.selection_lock().subscribe();
        op.run_seq(ds_);
        // Unpublish atomically with the op's effect (the race discussed in
        // §2.2: a combiner must never select an already-applied op).
        pa.remove_tx(&op);
      });
      if (committed) {
        complete(op, Phase::Visible);
        return true;
      }
      stats_.record_attempt_failure(op.class_id());
      if (htm::last_abort_code() == htm::AbortCode::Conflict) backoff.pause();
    }
    // Not completed; the op stays announced and we escalate to combining.
    return false;
  }

  // ---- Phases 2–4, Multi / SingleHolder ------------------------------
  Phase visible_then_combine(Op& op, PubArray& pa, const PhasePolicy& policy) {
    if (policy.announce) {
      telemetry::phase_enter(static_cast<int>(Phase::Visible));
      const bool done_visible = try_visible(op, pa, policy);
      telemetry::phase_exit(static_cast<int>(Phase::Visible), done_visible,
                            applied_in(op, done_visible));
      if (done_visible) return op.completed_phase();
    }

    std::vector<Op*>& ops_to_help = Core::scratch();
    ops_to_help.clear();
    // Delegated-group storage for this combining session lives on this
    // frame: finish_delegation below must drain every published group
    // before the frame (and the groups' done words) goes away.
    DelegationSession<DS> session;
    std::size_t session_ops = 0;
    bool holding_selection = false;
    bool done_combining;
    if (policy.announce || policy.try_combining > 0) {
      telemetry::phase_enter(static_cast<int>(Phase::Combining));
      done_combining = try_combining(op, pa, policy, ops_to_help, session,
                                     session_ops, holding_selection);
      telemetry::phase_exit(static_cast<int>(Phase::Combining),
                            done_combining, applied_in(op, done_combining));
    } else {
      // Never-announced class with no combining budget: carry only our
      // own op straight to the under-lock fallback.
      ops_to_help.push_back(&op);
      done_combining = false;
    }
    if (!done_combining) {
      telemetry::phase_enter(static_cast<int>(Phase::UnderLock));
      Core::combine_under_lock(lock_, ds_, op, pa, ops_to_help, stats_,
                               policy.wait);
      // Our op may have completed in an earlier combining round.
      telemetry::phase_exit(static_cast<int>(Phase::UnderLock), true,
                            applied_in(op, true));
    }
    // Delegated groups are part of this session: sweep unclaimed ones
    // (serial fallback) and wait out claimed ones before the session's
    // stack storage dies. Runs with no lock held.
    if (session.num_groups() != 0) {
      Core::finish_delegation(lock_, ds_, pa, session, graph_, stats_,
                              policy.wait);
    }
    // A combining session (if one started) is over once every selected op
    // has been applied — by us, speculatively or under the lock, or by the
    // delegates we just waited for.
    if (session_ops != 0) telemetry::combine_end(session_ops);
    // Session-boundary reclamation flush: retires run on the helped
    // owners' behalf (their ops' owner_slot() pools) were batched into
    // this thread's outbound bins; push them to the owners' inboxes in
    // one CAS per destination before leaving the session.
    if (session_ops != 0) mem::flush_remote_frees();
    if constexpr (kMode == CombinerMode::SingleHolder) {
      release_selection_if_held(pa, holding_selection);
    }
    return op.completed_phase();
  }

  // tsa: counterpart of try_combining's deferred release — whether the
  // selection lock is held here depends on the runtime `holding` flag set
  // two frames down, a protocol shape outside TSA's block-scoped model.
  // SingleHolder-only; Multi releases inside try_combining itself.
  NO_THREAD_SAFETY_ANALYSIS
  void release_selection_if_held(PubArray& pa, bool holding) {
    if (holding) {
      pa.selection_lock().unlock();
      // Liveness (§12): a competition loser may have parked on the epoch
      // just after this session's final publish; the release is its last
      // wake source, so every session-ending unlock must issue one.
      pa.wake_epoch_waiters();
      telemetry::sel_lock_released();
    }
  }

  // ---- Phase 3 -------------------------------------------------------
  // Returns true iff nothing is left for CombineUnderLock. The caller's
  // own op may be complete even when this returns false (the paper notes
  // exactly this asymmetry) — remaining selected ops still must be run.
  // In SingleHolder mode a successful selection sets `holding_selection`;
  // the caller releases the selection lock after the under-lock fallback.
  //
  // tsa: the selection lock's lifetime here is conditional on runtime state
  // (acquired iff policy.announce and not already Done; released before
  // returning in Multi mode but retained across the return in SingleHolder,
  // signalled through `holding_selection`). TSA requires every path of a
  // function to agree on the held set, so this juggling function opts out;
  // the scan discipline it brokers stays compiler-checked inside
  // CombineCore (select_batch REQUIRES the selection lock) and
  // PublicationArray.
  NO_THREAD_SAFETY_ANALYSIS
  bool try_combining(Op& op, PubArray& pa, const PhasePolicy& policy,
                     std::vector<Op*>& ops_to_help,
                     DelegationSession<DS>& session, std::size_t& session_ops,
                     bool& holding_selection) {
    if (policy.announce) {
      if (!Core::acquire_selection_or_done(
              op, pa, policy.wait,
              [&] { await_done(op, pa, policy.wait); })) {
        return true;
      }
      telemetry::sel_lock_acquired();
      if (op.status() != OpStatus::Announced) {
        // Selected between our last check and the lock acquisition; the
        // selecting combiner is guaranteed to finish our op.
        pa.selection_lock().unlock();
        pa.wake_epoch_waiters();  // liveness, see release_selection_if_held
        telemetry::sel_lock_released();
        await_done(op, pa, policy.wait);
        return true;
      }
      Core::template select_batch<EP::kMarkBeingHelped>(op, pa, ops_to_help,
                                                        stats_);
      if constexpr (kMode == CombinerMode::Multi) {
        pa.selection_lock().unlock();
        pa.wake_epoch_waiters();  // liveness, see release_selection_if_held
        telemetry::sel_lock_released();
      } else {
        holding_selection = true;
      }
      // Batch shaping happens outside the scan (in Multi mode, after the
      // selection lock is released): group by the adapter's combine key
      // (so run_multi sees eliminable pairs adjacent) and pull the
      // descriptors toward this core.
      Core::group_and_prefetch(op, ops_to_help, stats_);
      // Only announcing classes count as combining sessions — a TLE-like
      // class falling through to the lock is not a combiner (keeps the
      // Fig. 4 combining-degree metric meaningful).
      util::bump(stats_.local().combiner_sessions);
      util::bump(stats_.local().ops_selected, ops_to_help.size());
      session_ops = ops_to_help.size();
      telemetry::combine_begin(session_ops);
      // Parallel combining: hand disjoint key-groups of the batch back to
      // their waiting owners (Multi only — delegation needs owners parked
      // in wait_done rather than doomed by a held selection lock). The
      // admitted groups leave ops_to_help; we apply the remainder below,
      // concurrently with the delegates, and sweep stragglers in
      // finish_delegation (visible_then_combine).
      if constexpr (kMode == CombinerMode::Multi) {
        if (policy.delegate) {
          Core::delegate_batch(op, ops_to_help, session, graph_, stats_);
        }
      }
    } else {
      // Never-announced (TLE-like) class: we "combine" only our own op.
      ops_to_help.push_back(&op);
    }
    return Core::combine_on_htm(lock_, ds_, op, pa, ops_to_help,
                                policy.try_combining, stats_, policy.wait);
  }

  // ---- Phases 2+4, UnderGlobalLock (flat combining) ------------------
  Phase announce_and_combine_global(Op& op, PubArray& pa,
                                    util::WaitPolicy wait) {
    op.mark_announced();
    pa.add(&op);
    telemetry::phase_enter(static_cast<int>(Phase::Visible));
    // Waiter protocol (DESIGN.md §9.3): bounded exponential pause on our
    // own status line; when the combiner's epoch moves a batch just
    // retired, so re-check status before re-polling the lock line. Under
    // SpinPark losers sleep on the epoch word; combine_global's publishes
    // and every combiner's wake_all_epoch_waiters (below) wake them.
    util::TieredWait waiter(util::WaitSite::kSelectionLock, wait);
    std::uint32_t epoch = pa.combined_epoch();
    for (;;) {
      if (op.status() == OpStatus::Done) {
        telemetry::phase_exit(static_cast<int>(Phase::Visible), true,
                              applied_in(op, true));
        return op.completed_phase();
      }
      const std::uint32_t now = pa.combined_epoch();
      if (now != epoch) {
        epoch = now;
        waiter.reset();
        continue;
      }
      if (lock_.try_lock()) {
        telemetry::phase_exit(static_cast<int>(Phase::Visible), false);
        telemetry::phase_enter(static_cast<int>(Phase::UnderLock));
        Core::combine_global(lock_, ds_, op, pa, stats_, scan_rounds_);
        lock_.unlock();
        // Liveness (§12): the global lock serves every class's array, and
        // a waiter of *any* array may have parked just after our last
        // publish on it, watching an epoch we will never bump again. The
        // release is their signal that the lock is worth re-trying.
        wake_all_epoch_waiters();
        telemetry::phase_exit(static_cast<int>(Phase::UnderLock), true);
        // The combiner always executes its own announced operation.
        assert(op.status() == OpStatus::Done);
        return op.completed_phase();
      }
      if (waiter.wait()) {
        pa.park_on_epoch(now);
        waiter.reset();
      }
    }
  }

  // ---- Phase 4, own op only ------------------------------------------
  void run_own_under_lock(Op& op, util::WaitPolicy wait) {
    telemetry::phase_enter(static_cast<int>(Phase::UnderLock));
    {
      sync::LockGuard<Lock> guard(lock_, wait);
      op.run_seq(ds_);
    }
    if constexpr (kMode == CombinerMode::UnderGlobalLock) {
      // A never-announced class just cycled the global lock; announced
      // waiters parked on their arrays' epochs must re-try it (§12).
      wake_all_epoch_waiters();
    }
    telemetry::phase_exit(static_cast<int>(Phase::UnderLock), true);
    complete(op, Phase::UnderLock);
  }

  void wake_all_epoch_waiters() noexcept {
    for (auto& a : arrays_) a->wake_epoch_waiters();
  }

  // Terminal wait once a combiner selected our op: in Multi mode a
  // combiner may also *delegate* a group to us — claim it (exactly one
  // winner against the combiner's fallback sweep) and apply it ourselves,
  // which completes our own op as part of the group. Losing the claim
  // means the fallback combiner owns the apply; go back to waiting for
  // Done. Other modes never delegate, so plain wait_done suffices.
  void await_done(Op& op, PubArray& pa, util::WaitPolicy wait) {
    if constexpr (kMode == CombinerMode::Multi) {
      for (;;) {
        const OpStatus s = op.wait_done_or_delegated(wait);
        if (s == OpStatus::Done) return;
        if (op.claim_delegation()) {
          Core::apply_delegated_group(lock_, ds_, op, pa, graph_, stats_,
                                      wait, /*by_delegate=*/true);
          assert(op.status() == OpStatus::Done);
          return;
        }
      }
    } else {
      (void)pa;
      op.wait_done(wait);
    }
  }

  // Telemetry for a phase exit: the phase that applied the caller's op,
  // read only once the op is done (a helper writes it until then).
  static int applied_in(const Op& op, bool done) noexcept {
    return done ? static_cast<int>(op.completed_phase()) : -1;
  }

  // Owner-side completions only (private, visible, own op under the
  // lock); a combiner's or delegate's go through CombineCore and mark_done.
  void complete(Op& op, Phase phase) {
    op.mark_own_done(phase);
    stats_.record_completion(op.class_id(), phase);
  }

  // Internal mirror of ClassConfig with an atomically-updatable policy.
  struct ClassSlot {
    explicit ClassSlot(const ClassConfig& c)
        : array(c.array), policy(c.policy) {}
    std::size_t array;
    detail::AtomicPolicy policy;
  };

  DS& ds_;
  std::vector<ClassSlot> classes_;
  std::vector<std::unique_ptr<PubArray>> arrays_;
  Lock lock_;
  EngineStats stats_;
  ConflictGraph graph_;
  int scan_rounds_;
};

}  // namespace hcf::core
