// Per-thread node pools with batched cross-thread reclamation.
//
// Ownership model (DESIGN.md §14): every facade allocation is prefixed by a
// 16-byte BlockHeader recording the owning pool slot and size class. Blocks
// are carved from a shared backing Arena in refill batches and then live on
// the owner's size-class free lists; allocation and local free are
// single-threaded pointer pops with no synchronization at all.
//
// Cross-thread traffic is message-passing, not shared-state (the snmalloc
// idea): a thread releasing a block it does not own never touches the
// owner's free lists. It links the block into a thread-local outbound bin
// for that owner and, once the bin reaches the flush batch, publishes the
// whole chain to the owner's MPSC inbox with one CAS (remote_queue.hpp).
// Owners drain their inbox opportunistically on refill and at epoch-collect
// time (ebr.hpp). Two kinds of blocks travel the same queue, distinguished
// by a header flag:
//
//   * immediate — the object is already destroyed (post-grace free, or an
//     abort-unwound allocation); the owner pushes it straight to a free
//     list.
//   * deferred  — a *pre-grace retirement* of a live-to-readers node. The
//     owner moves it into its own EBR limbo as an epoch-stamped batch; the
//     block reaches a free list only after the grace period. Queue linkage
//     goes through the header word, never object storage, precisely so
//     doomed transactions can keep reading the node while it waits here.
//
// Pools are process-global and indexed by dense thread id: thread ids
// recycle (util/thread_id.hpp), so a pool must outlive its owner and be a
// safe push target after the owner exits — a thread reusing the slot
// simply inherits the pool, and the shutdown drain (EbrDomain::drain)
// sweeps inboxes of slots nobody reclaimed.
//
// Drains never run inside a transaction body: on real HTM the inbox
// exchange would drag a contended cache line into the write set (dooming
// the transaction for bookkeeping, not data), and an abort would roll back
// the list splice but not the producer's CAS. The facade checks the
// registered in-transaction probe and defers the drain to the next
// non-speculative allocation instead.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "mem/remote_queue.hpp"
#include "sync/spinlock.hpp"
#include "telemetry/telemetry.hpp"
#include "util/counters.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_id.hpp"

namespace hcf::mem {

// ---- Block header ---------------------------------------------------------

inline constexpr std::size_t kHeaderSize = 16;
inline constexpr std::uint32_t kBlockMagic = 0x48434642;  // "HCFB"
inline constexpr std::uint8_t kFlagDeferred = 0x1;

// Size classes by *object* size; block stride is kHeaderSize larger. The
// largest class covers the deepest node in ds/ (SkipListPq::Node, ~144 B);
// anything bigger takes the direct operator-new path (kOversizeClass).
inline constexpr std::size_t kClassObjectSize[] = {48, 112, 176, 240};
inline constexpr std::size_t kNumClasses =
    sizeof(kClassObjectSize) / sizeof(kClassObjectSize[0]);
inline constexpr std::uint8_t kOversizeClass = 0xff;
inline constexpr std::size_t kMaxPooledSize =
    kClassObjectSize[kNumClasses - 1];

struct BlockHeader {
  // magic(32) | owner(16) | class(8) | flags(8). Written only by the
  // thread currently holding the block's release right; published to inbox
  // consumers by RemoteQueue's release CAS.
  std::uint64_t meta;
  // Free-list / queue linkage. Lives in the header so queued pre-grace
  // nodes keep their object bytes intact for concurrent doomed readers.
  BlockHeader* link;

  std::uint32_t magic() const noexcept {
    return static_cast<std::uint32_t>(meta >> 32);
  }
  std::size_t owner() const noexcept {
    return static_cast<std::size_t>((meta >> 16) & 0xffff);
  }
  std::uint8_t size_class() const noexcept {
    return static_cast<std::uint8_t>((meta >> 8) & 0xff);
  }
  std::uint8_t flags() const noexcept {
    return static_cast<std::uint8_t>(meta & 0xff);
  }
  void set(std::size_t owner, std::uint8_t cls, std::uint8_t flags) noexcept {
    meta = (static_cast<std::uint64_t>(kBlockMagic) << 32) |
           (static_cast<std::uint64_t>(owner & 0xffff) << 16) |
           (static_cast<std::uint64_t>(cls) << 8) |
           static_cast<std::uint64_t>(flags);
  }
  void set_flags(std::uint8_t flags) noexcept {
    meta = (meta & ~std::uint64_t{0xff}) | flags;
  }

  void* object() noexcept {
    return reinterpret_cast<char*>(this) + kHeaderSize;
  }
};
static_assert(sizeof(BlockHeader) == kHeaderSize);

inline BlockHeader* header_of(void* object) noexcept {
  auto* h = reinterpret_cast<BlockHeader*>(static_cast<char*>(object) -
                                           kHeaderSize);
  assert(h->magic() == kBlockMagic && "pointer was not mem::alloc'd");
  return h;
}

namespace detail {

inline BlockHeader*& header_link(BlockHeader* h) noexcept { return h->link; }

inline constexpr std::size_t block_stride(std::uint8_t cls) noexcept {
  return kHeaderSize + kClassObjectSize[cls];
}

inline std::uint8_t class_for_size(std::size_t size) noexcept {
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    if (size <= kClassObjectSize[c]) return static_cast<std::uint8_t>(c);
  }
  return kOversizeClass;
}

}  // namespace detail

// ---- Runtime tunables -----------------------------------------------------
// Batch sizes are runtime-tunable (env or setter) so the bench can sweep
// them; bounds are asserted because a zero batch deadlocks refill and an
// absurd one defeats the point of batching.

namespace detail {

inline std::size_t env_or(const char* name, std::size_t fallback,
                          std::size_t lo, std::size_t hi) noexcept {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  const unsigned long parsed = std::strtoul(v, nullptr, 10);
  if (parsed < lo || parsed > hi) return fallback;
  return static_cast<std::size_t>(parsed);
}

inline std::atomic<std::size_t>& refill_batch_value() noexcept {
  static std::atomic<std::size_t> v{
      env_or("HCF_POOL_REFILL_BATCH", 32, 1, 4096)};
  return v;
}

inline std::atomic<std::size_t>& flush_batch_value() noexcept {
  static std::atomic<std::size_t> v{
      env_or("HCF_MEM_REMOTE_FLUSH_BATCH", 32, 1, 4096)};
  return v;
}

}  // namespace detail

inline std::size_t refill_batch() noexcept {
  return detail::refill_batch_value().load(std::memory_order_relaxed);
}
inline void set_refill_batch(std::size_t n) noexcept {
  assert(n >= 1 && n <= 4096 && "refill batch out of sane bounds");
  detail::refill_batch_value().store(n, std::memory_order_relaxed);
}

inline std::size_t remote_flush_batch() noexcept {
  return detail::flush_batch_value().load(std::memory_order_relaxed);
}
inline void set_remote_flush_batch(std::size_t n) noexcept {
  assert(n >= 1 && n <= 4096 && "remote flush batch out of sane bounds");
  detail::flush_batch_value().store(n, std::memory_order_relaxed);
}

// ---- Reclamation statistics ----------------------------------------------

// The reclamation counter set: one declaration, also the plain-value
// snapshot for measurement intervals (harness/driver.hpp).
struct ReclaimSnapshot : util::CounterSet<ReclaimSnapshot> {
  std::uint64_t local_retires = 0;   // retires that stayed on the local limbo
  std::uint64_t remote_retires = 0;  // pre-grace retires sent to an owner pool
  std::uint64_t remote_flushes = 0;  // outbound bin -> inbox CAS publishes
  std::uint64_t remote_drains = 0;   // non-empty inbox drains by owners
  std::uint64_t drained_blocks = 0;  // blocks moved out of inboxes
  std::uint64_t batches_sealed = 0;  // epoch-stamped limbo batches created
  std::uint64_t pool_refills = 0;    // arena refills (free list ran dry)

  static ReclaimSnapshot capture() noexcept;
};

using ReclaimStats = util::CounterBlock<ReclaimSnapshot>;
static_assert(sizeof(ReclaimStats) <= 8 * 1024);

inline ReclaimStats& reclaim_stats() noexcept {
  static ReclaimStats s;
  return s;
}

inline ReclaimSnapshot ReclaimSnapshot::capture() noexcept {
  return reclaim_stats().sum();
}

// ---- In-transaction probe -------------------------------------------------
// The simulator registers a probe at startup (htm.cpp) so the pool can
// refuse to drain inside a transaction body without mem/ depending on
// sim_htm/. A null probe (substrate-free unit tests) means "never in txn".

namespace detail {

inline std::atomic<bool (*)()>& in_txn_probe() noexcept {
  static std::atomic<bool (*)()> probe{nullptr};
  return probe;
}

inline bool in_transaction() noexcept {
  bool (*p)() = in_txn_probe().load(std::memory_order_acquire);
  return p != nullptr && p();
}

}  // namespace detail

inline void set_in_txn_probe(bool (*probe)()) noexcept {
  detail::in_txn_probe().store(probe, std::memory_order_release);
}

// ---- Deferred-absorb hook -------------------------------------------------
// ebr.hpp registers a hook that absorbs this thread's deferred inbox chain
// into its EBR limbo. The allocation slow path calls it instead of the
// requeueing drain: a thread whose nodes are all retired remotely (e.g. a
// client whose combiner frees on its behalf) never crosses the local
// retire-count threshold, so without this hand-off its deferred traffic
// would circulate in the inbox forever while the arena grows. A null hook
// (pool-only unit tests) falls back to drain_inbox(false).

namespace detail {

inline std::atomic<void (*)()>& absorb_hook() noexcept {
  static std::atomic<void (*)()> hook{nullptr};
  return hook;
}

}  // namespace detail

inline void set_deferred_absorb_hook(void (*hook)()) noexcept {
  detail::absorb_hook().store(hook, std::memory_order_release);
}

// ---- Backing arena --------------------------------------------------------
// One process-wide chunk allocator. Refills hand out `refill_batch()`
// blocks at a time: first from the central free lists (blocks recovered
// from exited threads' pools by the shutdown drain), then by carving fresh
// chunk memory. Chunks are never returned individually — the arena owns
// them until process exit, which is what makes un-drained queue traffic
// from dead threads memory-safe (parked, not leaked).

class Arena {
 public:
  static Arena& instance() noexcept {
    // Intentionally leaked: thread-local destructors (outbound bins, limbo
    // lists) may still route blocks here after static destruction begins.
    static Arena* a = new Arena;
    return *a;
  }

  // Pops up to `batch` blocks of class `cls` for pool slot `owner`,
  // returned as a header-linked chain (null-terminated). Every block's
  // header is (re)stamped with the new owner.
  BlockHeader* refill(std::uint8_t cls, std::size_t owner,
                      std::size_t batch) {
    assert(cls < kNumClasses);
    const std::size_t stride = detail::block_stride(cls);
    BlockHeader* chain = nullptr;
    sync::SpinGuard lk(lock_);
    std::size_t got = 0;
    while (got < batch && central_[cls] != nullptr) {
      BlockHeader* h = central_[cls];
      central_[cls] = h->link;
      h->set(owner, cls, 0);
      h->link = chain;
      chain = h;
      ++got;
    }
    while (got < batch) {
      if (bump_ + stride > chunk_end_) new_chunk(stride);
      auto* h = reinterpret_cast<BlockHeader*>(bump_);
      bump_ += stride;
      h->set(owner, cls, 0);
      h->link = chain;
      chain = h;
      ++got;
    }
    return chain;
  }

  // Returns a header-linked chain of already-destroyed blocks to the
  // central lists (shutdown drain recovering a dead pool's traffic).
  // Oversize blocks go back to the system allocator.
  void take_back(BlockHeader* chain) {
    sync::SpinGuard lk(lock_);
    while (chain != nullptr) {
      BlockHeader* next = chain->link;
      if (chain->size_class() == kOversizeClass) {
        ::operator delete(chain);
      } else {
        const std::uint8_t cls = chain->size_class();
        chain->link = central_[cls];
        central_[cls] = chain;
      }
      chain = next;
    }
  }

 private:
  static constexpr std::size_t kChunkSize = 64 * 1024;

  Arena() = default;

  void new_chunk(std::size_t min_bytes) REQUIRES(lock_) {
    const std::size_t size = min_bytes > kChunkSize ? min_bytes : kChunkSize;
    char* chunk = static_cast<char*>(::operator new(size));
    chunks_.push_back(chunk);
    bump_ = chunk;
    chunk_end_ = chunk + size;
  }

  sync::SpinLock lock_;
  std::vector<char*> chunks_ GUARDED_BY(lock_);
  char* bump_ GUARDED_BY(lock_) = nullptr;
  char* chunk_end_ GUARDED_BY(lock_) = nullptr;
  BlockHeader* central_[kNumClasses] GUARDED_BY(lock_) = {};
};

// ---- Per-thread pool ------------------------------------------------------

// Result of draining a pool inbox at collect time: the deferred (pre-grace)
// chain the caller must route through its EBR limbo. Immediate blocks have
// already been pushed to the pool's free lists.
struct InboxDrain {
  BlockHeader* deferred = nullptr;
  std::size_t deferred_count = 0;
  std::size_t freed = 0;
};

class Pool {
 public:
  Pool() = default;
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  RemoteQueue& inbox() noexcept { return inbox_; }

  // Owner-only: pops a block of class `cls`, refilling (and, outside
  // transactions, draining the inbox) when the free list runs dry.
  BlockHeader* allocate(std::uint8_t cls, std::size_t self) {
    assert(cls < kNumClasses);
    if (free_[cls] == nullptr) refill_slow(cls, self);
    BlockHeader* h = free_[cls];
    free_[cls] = h->link;
    --free_count_[cls];
    h->set(self, cls, 0);
    return h;
  }

  // Owner-only: returns a block to its free list.
  void free_local(BlockHeader* h) noexcept {
    const std::uint8_t cls = h->size_class();
    assert(cls < kNumClasses);
    h->link = free_[cls];
    free_[cls] = h;
    ++free_count_[cls];
  }

  // Owner-only (or shutdown-drain exclusive): empties the inbox. Immediate
  // blocks join the free lists; the deferred chain is returned so the
  // caller can stamp it into an EBR limbo batch. When `accept_deferred` is
  // false (refill path — no limbo at hand), deferred blocks are pushed
  // back onto the inbox untouched.
  InboxDrain drain_inbox(bool accept_deferred) {
    InboxDrain r;
    BlockHeader* chain = inbox_.take_all();
    if (chain == nullptr) return r;
    BlockHeader* requeue_head = nullptr;
    BlockHeader* requeue_tail = nullptr;
    std::size_t requeued = 0;
    while (chain != nullptr) {
      BlockHeader* next = chain->link;
      if ((chain->flags() & kFlagDeferred) != 0) {
        if (accept_deferred) {
          chain->link = r.deferred;
          r.deferred = chain;
          ++r.deferred_count;
        } else {
          chain->link = requeue_head;
          if (requeue_head == nullptr) requeue_tail = chain;
          requeue_head = chain;
          ++requeued;
        }
      } else if (chain->size_class() == kOversizeClass) {
        ::operator delete(chain);
        ++r.freed;
      } else {
        free_local(chain);
        ++r.freed;
      }
      chain = next;
    }
    if (requeue_head != nullptr) {
      inbox_.push_chain(requeue_head, requeue_tail, requeued);
    }
    const std::size_t moved = r.freed + r.deferred_count;
    if (moved > 0) {
      util::bump(reclaim_stats().local().remote_drains);
      util::bump(reclaim_stats().local().drained_blocks, moved);
      telemetry::remote_drain(moved);
    }
    return r;
  }

  std::size_t free_count(std::uint8_t cls) const noexcept {
    return free_count_[cls];
  }

 private:
  void refill_slow(std::uint8_t cls, std::size_t self) {
    // Opportunistic drain first: remote frees are cheaper than carving new
    // memory, and this is the owner's natural back-pressure point. Never
    // inside a transaction body (header comment). Prefer the EBR absorb
    // hook so deferred chains land in the limbo instead of requeueing.
    if (!detail::in_transaction()) {
      void (*absorb)() = detail::absorb_hook().load(std::memory_order_acquire);
      if (absorb != nullptr) {
        absorb();
      } else {
        drain_inbox(/*accept_deferred=*/false);
      }
    }
    if (free_[cls] != nullptr) return;
    BlockHeader* chain = Arena::instance().refill(cls, self, refill_batch());
    std::size_t n = 0;
    while (chain != nullptr) {
      BlockHeader* next = chain->link;
      free_local(chain);
      ++n;
      chain = next;
    }
    util::bump(reclaim_stats().local().pool_refills);
    (void)n;
  }

  BlockHeader* free_[kNumClasses] = {};
  std::size_t free_count_[kNumClasses] = {};
  RemoteQueue inbox_;
};

namespace detail {

// Pools are trivially destructible by design: the array outlives every
// thread-local destructor that might still push into an inbox.
inline Pool& pool_for_slot(std::size_t slot) noexcept {
  static Pool* pools = new Pool[util::kMaxThreads];
  return pools[slot];
}

inline Pool& this_pool() noexcept {
  return pool_for_slot(util::this_thread_id());
}

// ---- Outbound bins --------------------------------------------------------
// Producer-side batching: one bin per destination pool slot, flushed with a
// single inbox CAS when full, at epoch-collect time, at combining-session
// boundaries, and at thread exit.

struct OutboundBins {
  struct Bin {
    BlockHeader* head = nullptr;
    BlockHeader* tail = nullptr;
    std::size_t n = 0;
    // On the dirty list (stays set across a capacity flush so the list
    // holds each owner at most once and can never overflow).
    bool listed = false;
  };
  Bin bins[util::kMaxThreads];
  std::uint16_t dirty[util::kMaxThreads];
  std::size_t num_dirty = 0;

  void add(std::size_t owner, BlockHeader* h) {
    Bin& b = bins[owner];
    h->link = b.head;
    if (b.head == nullptr) b.tail = h;
    if (!b.listed) {
      b.listed = true;
      dirty[num_dirty++] = static_cast<std::uint16_t>(owner);
    }
    b.head = h;
    if (++b.n >= remote_flush_batch()) flush_bin(owner);
  }

  void flush_bin(std::size_t owner) {
    Bin& b = bins[owner];
    if (b.head == nullptr) return;
    pool_for_slot(owner).inbox().push_chain(b.head, b.tail, b.n);
    util::bump(reclaim_stats().local().remote_flushes);
    telemetry::remote_retire_flush(owner, b.n);
    b.head = nullptr;
    b.tail = nullptr;
    b.n = 0;
  }

  void flush_all() {
    for (std::size_t i = 0; i < num_dirty; ++i) {
      flush_bin(dirty[i]);
      bins[dirty[i]].listed = false;
    }
    num_dirty = 0;
  }

  ~OutboundBins() { flush_all(); }
};

inline OutboundBins& outbound() noexcept {
  thread_local OutboundBins bins;
  return bins;
}

}  // namespace detail

// Flushes this thread's pending outbound remote frees/retires. Called at
// epoch-collect time, at combining-session boundaries (core/), and from
// thread-exit teardown. Must not run inside a transaction body.
inline void flush_remote_frees() noexcept {
  detail::outbound().flush_all();
}

// Routes an already-destroyed block back to memory: the owner's free list
// when we own it, the owner's inbox (batched) otherwise.
inline void free_block(BlockHeader* h) {
  const std::size_t self = util::this_thread_id();
  if (h->owner() == self) {
    if (h->size_class() == kOversizeClass) {
      ::operator delete(h);
    } else {
      detail::this_pool().free_local(h);
    }
  } else {
    h->set_flags(0);
    detail::outbound().add(h->owner(), h);
  }
}

// Pre-grace retirement of a foreign block: the owner will stamp it into an
// epoch batch when it drains. Object bytes stay untouched for concurrent
// doomed readers; only the header travels.
inline void retire_block_remote(BlockHeader* h) {
  assert(h->owner() != util::this_thread_id());
  h->set_flags(kFlagDeferred);
  detail::outbound().add(h->owner(), h);
  util::bump(reclaim_stats().local().remote_retires);
}

// Approximate inbox depth for a pool slot (tests and the shutdown drain's
// convergence check).
inline std::size_t remote_queue_depth(std::size_t slot) noexcept {
  return detail::pool_for_slot(slot).inbox().approx_depth();
}

}  // namespace hcf::mem
