// Epoch-based reclamation (EBR), classic three-epoch scheme, with batched
// epoch checks and pool-aware limbo lists.
//
// Why the simulator needs it: with lazy-versioning transactions, a doomed
// transaction can hold a raw pointer to a node that a concurrent committer
// has already unlinked. Opacity guarantees the doomed transaction aborts at
// its next validated read, but it may dereference the stale pointer first —
// so unlinked nodes must stay allocated until every operation that might
// hold such a pointer has finished. Every engine operation runs under an
// ebr::Guard; frees requested during the run are deferred until two epoch
// advances have passed.
//
// Batching (DESIGN.md §14): retirements accumulate in an *open* batch that
// never touches the global epoch; the batch is stamped once when it seals.
// A later stamp is conservative — epochs only grow, and freeing still
// requires two advances past the stamp — so correctness is unchanged while
// the global-epoch load and the collect sweep amortize over the batch. The
// same batch carrier absorbs chains drained from this thread's pool inbox
// (pool.hpp): pre-grace remote retirements from other threads enter the
// owner's limbo here, stamped at drain time.
//
// Thread exit hands both kinds of leftovers to the shared orphan list:
// regular deleter batches, and pool-block chains re-marked to return to the
// arena's central lists (the dead slot may be recycled, so no foreign
// thread may touch that pool's private free lists). EbrDomain::drain()
// additionally sweeps every pool's inbox so queued remote frees from
// exited threads cannot outlive shutdown.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "mem/pool.hpp"
#include "sync/spinlock.hpp"
#include "util/cacheline.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_id.hpp"

namespace hcf::mem {

namespace detail {

// One thread's announcement, packed into one word so that entering a guard
// is one store and a scan is one load per slot: (epoch << 1) | 1 while the
// owner is inside a guard, 0 outside. The low bit keeps an announcement of
// epoch 0 distinct from "not in a guard".
struct Reservation {
  std::atomic<std::uint64_t> word{0};
  std::uint32_t depth = 0;  // guard nesting, accessed only by owner

  static constexpr std::uint64_t busy(std::uint64_t epoch) noexcept {
    return (epoch << 1) | 1;
  }

  // Announces `seen`, the owner's read of `global`, and re-announces until
  // a re-read of `global` agrees. For safety only the store matters: the
  // guard's reads come after it, and a scan that sees an announcement
  // other than the current epoch refuses to advance, so a stale value only
  // delays reclamation. The re-check is for progress. Without it, an epoch
  // that moved between the caller's read and the store would leave the
  // announcement stale from the start and pin the epoch for the whole
  // guard; with it, the epoch advances at most once past the announcement
  // while the guard lasts (DESIGN.md §14.3).
  void announce(const std::atomic<std::uint64_t>& global,
                std::uint64_t seen) noexcept {
    for (;;) {
      // seq_cst: store-load pair with try_advance's scan (epoch load, slot
      // loads, CAS). Either the scan sees this store, or the re-read below
      // follows the scan in the total order and sees the advance it made.
      word.store(busy(seen), std::memory_order_seq_cst);
      // seq_cst: second half of the pair; an acquire load could be
      // satisfied before the store above is visible to a scanner.
      const std::uint64_t now = global.load(std::memory_order_seq_cst);
      if (now == seen) return;
      seen = now;
    }
  }
};

struct RetiredNode {
  void* ptr;
  void (*deleter)(void*);
};

// One epoch-stamped unit of deferred reclamation: heterogeneous deleter
// entries plus (optionally) a header-linked chain of pool blocks drained
// from an inbox. `to_central` marks orphaned chains whose owner slot may
// have been recycled: they go back to the arena instead of a free list.
struct Batch {
  std::uint64_t epoch = 0;
  std::vector<RetiredNode> nodes;
  BlockHeader* chain = nullptr;
  std::size_t chain_len = 0;
  bool to_central = false;

  std::size_t size() const noexcept { return nodes.size() + chain_len; }
};

}  // namespace detail

// Runtime-tunable collect threshold (satellite of the pool batch sizes in
// pool.hpp): entries a limbo list accumulates before collect() runs.
namespace detail {
inline std::atomic<std::size_t>& collect_threshold_value() noexcept {
  static std::atomic<std::size_t> v{
      env_or("HCF_EBR_COLLECT_THRESHOLD", 64, 1, 1u << 20)};
  return v;
}
}  // namespace detail

inline std::size_t collect_threshold() noexcept {
  return detail::collect_threshold_value().load(std::memory_order_relaxed);
}
inline void set_collect_threshold(std::size_t n) noexcept {
  assert(n >= 1 && n <= (1u << 20) && "collect threshold out of sane bounds");
  detail::collect_threshold_value().store(n, std::memory_order_relaxed);
}

// The domain itself is a shared capability: holding it (via enter/exit or
// the RAII Guard) is the read-side critical section that keeps retired
// nodes alive. drain() EXCLUDES it — draining from inside a guard would
// wait on the caller's own reservation.
class CAPABILITY("ebr.domain") EbrDomain {
 public:
  static EbrDomain& instance() noexcept {
    static EbrDomain dom;
    return dom;
  }

  // Marks the calling thread as inside a read-side critical section. A
  // nested guard only counts depth: the outer announcement stands. The
  // first read of the epoch may be stale; announce() re-checks it with the
  // one fence the guard pays.
  void enter() noexcept ACQUIRE_SHARED() {
    auto& r = slot();
    if (r.depth++ > 0) return;
    r.announce(global_epoch_, global_epoch_.load(std::memory_order_relaxed));
  }

  // release: the guard's reads happen-before a scan that sees it gone.
  void exit() noexcept RELEASE_SHARED() {
    auto& r = slot();
    if (--r.depth > 0) return;
    r.word.store(0, std::memory_order_release);
  }

  bool in_critical_section() noexcept { return slot().depth > 0; }

  // Defers destruction of `p` until a grace period has elapsed. The entry
  // joins the open batch without touching the global epoch; the batch is
  // stamped when it seals (conservatively later — safe, see header).
  void retire(void* p, void (*deleter)(void*)) {
    auto& limbo = limbo_list();
    limbo.open.push_back({p, deleter});
    ++limbo.total;
    if (limbo.open.size() >= seal_batch_size()) seal_open(limbo);
    if (limbo.total >= collect_threshold()) collect(limbo);
  }

  template <typename T>
  void retire(T* p) {
    retire(p, [](void* q) { delete static_cast<T*>(q); });
  }

  // Shutdown/test hook: advance epochs and free everything that becomes
  // safe, including queued remote frees from exited threads. Must be
  // called outside any guard; converges fully only when no other thread is
  // concurrently inside a guard or holding unflushed outbound bins.
  // Replaces the old fixed-iteration loop with a convergence check: loop
  // until limbo + orphans + every pool inbox are empty, or an epoch fails
  // to advance (a pinned reservation — no further frees can mature).
  void drain() EXCLUDES(this) {
    auto& limbo = limbo_list();
    for (;;) {
      flush_remote_frees();
      drain_all_inboxes(limbo);
      seal_open(limbo);
      const std::uint64_t before =
          global_epoch_.load(std::memory_order_acquire);
      try_advance();
      sweep(limbo, /*force=*/true);
      // The sweep's deleters route foreign blocks into this thread's
      // outbound bins; push them before judging emptiness, or the final
      // round would report converged with blocks still parked locally.
      flush_remote_frees();
      if (limbo.empty() && orphans_empty() && all_inboxes_empty()) return;
      if (global_epoch_.load(std::memory_order_acquire) == before) return;
    }
  }

  // Allocation-slow-path absorb: pool.hpp routes its refill-time inbox
  // drain here (via the registered hook below) so deferred chains land in
  // the limbo as stamped batches instead of being requeued. Without this,
  // a thread whose nodes are all retired remotely — a client whose
  // combiner frees on its behalf — would never cross the retire-count
  // collect threshold, and its inbox would grow without bound.
  void absorb_for_alloc() {
    auto& limbo = limbo_list();
    absorb_inbox(limbo,
                 detail::this_pool().drain_inbox(/*accept_deferred=*/true));
    if (limbo.total >= collect_threshold()) collect(limbo);
  }

  std::uint64_t epoch() const noexcept {
    return global_epoch_.load(std::memory_order_acquire);
  }

  // Number of entries waiting in this thread's limbo list (for tests).
  std::size_t local_limbo_size() { return limbo_list().total; }

 private:
  EbrDomain() = default;

  // Batches sealed per collect window; keeps the epoch-load amortization
  // proportional to the tunable threshold.
  static std::size_t seal_batch_size() noexcept {
    const std::size_t t = collect_threshold() / 4;
    return t > 0 ? t : 1;
  }

  detail::Reservation& slot() noexcept {
    return reservations_[util::this_thread_id()].value;
  }

  // Thread-local limbo list: sealed epoch-stamped batches plus the open
  // tail. On thread exit remaining entries are handed to the shared orphan
  // list so another thread can reclaim them later; pool chains are
  // re-marked to_central because the dead slot may be recycled.
  struct LimboList {
    std::vector<detail::Batch> sealed;
    std::vector<detail::RetiredNode> open;
    std::size_t total = 0;
    // Global epoch value at the last sweep over this list; the sentinel
    // forces the first collect to sweep. See sweep().
    std::uint64_t last_swept_epoch = ~std::uint64_t{0};

    bool empty() const noexcept { return total == 0; }

    ~LimboList() {
      auto& dom = EbrDomain::instance();
      dom.seal_open(*this);
      if (sealed.empty()) return;
      for (auto& b : sealed) {
        if (b.chain != nullptr) b.to_central = true;
      }
      sync::SpinGuard lk(dom.orphan_lock_);
      for (auto& b : sealed) dom.orphans_.push_back(std::move(b));
    }
  };

  LimboList& limbo_list() {
    thread_local LimboList limbo;
    return limbo;
  }

  void seal_open(LimboList& limbo) {
    if (limbo.open.empty()) return;
    detail::Batch b;
    b.epoch = global_epoch_.load(std::memory_order_acquire);
    b.nodes = std::move(limbo.open);
    limbo.open.clear();
    limbo.sealed.push_back(std::move(b));
    util::bump(reclaim_stats().local().batches_sealed);
  }

  // Appends an inbox drain's deferred chain to the limbo as a stamped
  // batch. Drain-time stamping is conservative: the nodes were retired at
  // or before this epoch.
  void absorb_inbox(LimboList& limbo, InboxDrain d) {
    if (d.deferred == nullptr) return;
    detail::Batch b;
    b.epoch = global_epoch_.load(std::memory_order_acquire);
    b.chain = d.deferred;
    b.chain_len = d.deferred_count;
    limbo.sealed.push_back(std::move(b));
    limbo.total += d.deferred_count;
    util::bump(reclaim_stats().local().batches_sealed);
  }

  // Advances the epoch if every thread inside a guard announced it. The
  // scan stops at the registry's high-water mark, like the sim-HTM
  // write-back drain: no slot at or above it was ever handed out. A thread
  // that registers after the mark load is still covered, because it
  // announces after reading the epoch and then re-checks it. If its
  // re-check read an epoch older than `g`, the re-check precedes the CAS
  // that made `g` in the seq_cst total order, and so precedes our load of
  // `g` and our mark load. Its registration raised the mark (seq_cst)
  // before the re-check, so the mark load returns it and the scan meets
  // the stale announcement. Otherwise it announced `g` or later, which
  // blocks no advance from `g`.
  bool try_advance() noexcept {
    // seq_cst: this load, the slot loads and the CAS are the scan half of
    // the guard's store-load pair (Reservation::announce).
    const std::uint64_t g = global_epoch_.load(std::memory_order_seq_cst);
    const std::uint64_t current = detail::Reservation::busy(g);
    const std::size_t n = util::ThreadRegistry::instance().high_water();
    for (std::size_t i = 0; i < n; ++i) {
      const auto& word = reservations_[i].value.word;
      // seq_cst: see Reservation::announce.
      const std::uint64_t w = word.load(std::memory_order_seq_cst);
      if (w != 0 && w != current) return false;
    }
    std::uint64_t expected = g;
    // The advance follows this scan in the total order, so an announcer
    // whose re-check read `g` is seen by the next scan.
    global_epoch_.compare_exchange_strong(
        expected, g + 1, std::memory_order_seq_cst);  // seq_cst: see above
    return true;
  }

  void collect(LimboList& limbo) {
    // Flush our pending outbound batches so owners can make progress, then
    // drain our own inbox — the epoch-collect drain point (pool.hpp).
    flush_remote_frees();
    absorb_inbox(limbo, detail::this_pool().drain_inbox(
                            /*accept_deferred=*/true));
    try_advance();
    sweep(limbo, /*force=*/false);
  }

  void sweep(LimboList& limbo, bool force) {
    const std::uint64_t g = global_epoch_.load(std::memory_order_acquire);
    // If the epoch hasn't moved since this list was last swept, nothing can
    // have become freeable (freeability depends only on the global epoch,
    // and batches sealed since carry the current epoch). Skipping the sweep
    // matters under oversubscription: a thread preempted while pinned
    // freezes the epoch for its whole time off-CPU, and without this check
    // every collect-threshold retires rescan the entire — growing — limbo
    // list fruitlessly, turning reclamation quadratic exactly when the
    // machine is busiest. drain() forces the sweep regardless.
    if (!force && g == limbo.last_swept_epoch) return;
    limbo.last_swept_epoch = g;
    limbo.total -= free_safe(limbo.sealed, g);
    // Opportunistically reclaim orphans from exited threads.
    if (!orphans_empty()) {
      sync::SpinGuard lk(orphan_lock_);
      free_safe(orphans_, g);
    }
  }

  // Frees every batch whose stamp is two epochs stale; returns entries
  // freed. One epoch comparison per *batch*, not per node.
  static std::size_t free_safe(std::vector<detail::Batch>& batches,
                               std::uint64_t global) {
    std::size_t kept = 0;
    std::size_t freed = 0;
    for (std::size_t i = 0; i < batches.size(); ++i) {
      detail::Batch& b = batches[i];
      if (global >= b.epoch + 2) {
        freed += b.size();
        free_batch(b);
      } else {
        // Guard against self-move: vector move-assignment may clear the
        // source, which here would silently wipe the batch's entries.
        if (kept != i) batches[kept] = std::move(b);
        ++kept;
      }
    }
    batches.resize(kept);
    return freed;
  }

  static void free_batch(detail::Batch& b) {
    for (auto& n : b.nodes) n.deleter(n.ptr);
    if (b.chain == nullptr) return;
    if (b.to_central) {
      Arena::instance().take_back(b.chain);
    } else {
      BlockHeader* c = b.chain;
      while (c != nullptr) {
        BlockHeader* next = c->link;
        free_block(c);
        c = next;
      }
    }
    b.chain = nullptr;
  }

  // Shutdown sweep over every pool inbox: our own drains normally; other
  // slots' traffic — whether their owner exited or just never collected —
  // is routed to the arena's central lists, with pre-grace chains parked
  // on the orphan list until their stamp matures. take_all transfers
  // exclusive ownership, so racing a (still-live) owner is safe: the two
  // drainers split the queue.
  void drain_all_inboxes(LimboList& limbo) {
    const std::size_t self = util::this_thread_id();
    for (std::size_t s = 0; s < util::kMaxThreads; ++s) {
      Pool& p = detail::pool_for_slot(s);
      if (s == self) {
        absorb_inbox(limbo, p.drain_inbox(/*accept_deferred=*/true));
        continue;
      }
      BlockHeader* chain = p.inbox().take_all();
      if (chain == nullptr) continue;
      BlockHeader* immediate = nullptr;
      detail::Batch deferred;
      deferred.epoch = global_epoch_.load(std::memory_order_acquire);
      deferred.to_central = true;
      while (chain != nullptr) {
        BlockHeader* next = chain->link;
        if ((chain->flags() & kFlagDeferred) != 0) {
          chain->link = deferred.chain;
          deferred.chain = chain;
          ++deferred.chain_len;
        } else {
          chain->link = immediate;
          immediate = chain;
        }
        chain = next;
      }
      if (immediate != nullptr) Arena::instance().take_back(immediate);
      if (deferred.chain != nullptr) {
        sync::SpinGuard lk(orphan_lock_);
        orphans_.push_back(std::move(deferred));
      }
    }
  }

  static bool all_inboxes_empty() noexcept {
    for (std::size_t s = 0; s < util::kMaxThreads; ++s) {
      if (!detail::pool_for_slot(s).inbox().empty()) return false;
    }
    return true;
  }

  bool orphans_empty() {
    sync::SpinGuard lk(orphan_lock_);
    return orphans_.empty();
  }

  std::atomic<std::uint64_t> global_epoch_{0};
  util::CacheAligned<detail::Reservation> reservations_[util::kMaxThreads];
  // An annotated SpinLock rather than std::mutex: libstdc++'s mutex carries
  // no capability attributes, so GUARDED_BY would be unenforceable.
  sync::SpinLock orphan_lock_;
  std::vector<detail::Batch> orphans_ GUARDED_BY(orphan_lock_);
};

namespace detail {

// Wires the allocation slow path (pool.hpp) to absorb_for_alloc at static
// initialization. An inline variable so every TU shares one instance; the
// store is idempotent anyway.
struct DeferredAbsorbInit {
  DeferredAbsorbInit() noexcept {
    set_deferred_absorb_hook(
        [] { EbrDomain::instance().absorb_for_alloc(); });
  }
};
inline DeferredAbsorbInit g_deferred_absorb_init;

}  // namespace detail

// RAII read-side critical section.
class SCOPED_CAPABILITY Guard {
 public:
  Guard() noexcept ACQUIRE_SHARED(EbrDomain::instance()) {
    EbrDomain::instance().enter();
  }
  ~Guard() RELEASE() { EbrDomain::instance().exit(); }
  Guard(const Guard&) = delete;
  Guard& operator=(const Guard&) = delete;
};

}  // namespace hcf::mem
