// Software-simulated hardware transactional memory.
//
// Observable semantics mirror Intel RTM as used by transactional lock
// elision: optimistic transactions with all-or-nothing visibility, conflict
// aborts, capacity aborts, explicit aborts, and strong isolation against
// non-transactional accesses to the words transactions subscribe to.
//
// Implementation: a lazy-versioning (write-buffer) STM over a global
// ownership-record (orec) table, with TL2-style versions drawn from one
// global version clock.
//
//   * tx reads validate the orec version around the value load and record
//     it in a read set. A read revalidates the read set ("snapshot
//     extension") only on evidence that its snapshot went stale: an orec
//     version newer than the snapshot, or movement of the strong clock,
//     which moves only where running transactions must stop early (an
//     elidable-lock acquisition, a combiner selecting a foreign operation).
//     That gives opacity (no zombie execution) in the style of LSA/TL2
//     without polling the global clock per read. A read-only commit
//     extends once if the global clock moved since the snapshot, which
//     keeps RTM's eager invalidation of readers by committed writers. A
//     read that meets an orec held by another thread's write-back waits
//     it out for a bounded spin (config.hpp) before aborting.
//   * tx writes are buffered; memory is only touched during commit
//     write-back, after the write orecs are acquired and the read set
//     validated. Non-instrumented code (a thread holding the elided lock)
//     therefore never observes speculative state. The write buffer is
//     indexed by a 64-bit Bloom-style signature plus a small open-addressed
//     hash index, so read-after-write and write upserts are O(1).
//   * non-transactional ("strong") stores to words transactions read — lock
//     words, operation statuses, publication slots — go through the same
//     orec protocol via TxCell (txcell.hpp), so they doom overlapping
//     transactions exactly like a cache-line invalidation would on real HTM.
//   * lock acquirers call wait_writeback_drain() after dooming subscribers.
//     It closes the race with transactions already past validation: each
//     committer raises a per-thread in-write-back flag and the drain scans
//     the flags (see DESIGN.md, "quiescence gate"). A lock whose holder
//     writes uninstrumented data also moves the strong clock first, so
//     every running subscriber stops at its next read (sync/tx_lock.hpp).
//   * the hot globals (orec table, both clocks, config, the thread's Txn)
//     are header-inline constinit variables, so read/write/attempt reach
//     them with a direct load instead of an out-of-line accessor call.
//     The Txn is trivially destructible for this; its heap-backed logs
//     hang off it (TxnLogs) and are attached once per thread.
//
// Memory ordering: the substrate runs on acquire/release pairs; the only
// seq_cst operations are the two fences forming the quiescence gate's
// Dekker pattern (htm.cpp), each carrying a `// seq_cst:` justification
// (enforced by tools/lint/hcf_lint.py). The proof obligations are written
// out in DESIGN.md §"Substrate performance".
//
// Usage restrictions (all enforced or documented at call sites):
//   * values accessed via read/write are trivially copyable, ≤ 8 bytes,
//     naturally aligned;
//   * code inside a transaction must not catch(...) without rethrowing;
//   * strong operations must not be called inside a transaction;
//   * every transaction that runs concurrently with under-lock execution
//     must subscribe to that lock (engines do this on their first read).
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#include "mem/alloc.hpp"
#include "mem/ebr.hpp"
#include "sim_htm/abort.hpp"
#include "sim_htm/config.hpp"
#include "sim_htm/protocol_check.hpp"
#include "sim_htm/stats.hpp"
#include "sim_htm/tsan.hpp"
#include "util/cacheline.hpp"
#include "util/rng.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_id.hpp"

namespace hcf::htm {

namespace detail {

// ---- Orec table ----------------------------------------------------------
// Word layout: even value => (version << 1) of the last committed write,
// where `version` was drawn from the global version clock; odd value =>
// locked, either by a committing transaction (tid << 1 | 1) or by a strong
// store (kStrongTag).
inline constexpr std::uint64_t kStrongTag = ~std::uint64_t{0};  // odd

// Header-inline and constant-initialized, like the clocks and g_txn below:
// an access is a direct load, with no out-of-line call or init guard. Zero
// initialized, so it sits in .bss and only the orecs in use become
// resident. Cache-line aligned so no orec straddles a line.
alignas(util::kCacheLineSize) inline constinit std::atomic<std::uint64_t>
    g_orec_table[kOrecCount]{};

inline std::atomic<std::uint64_t>* orec_table() noexcept {
  return g_orec_table;
}

inline std::atomic<std::uint64_t>& orec_for(const void* addr) noexcept {
  // Fibonacci hashing: one multiply, top bits select the orec. Cheap and
  // spreads word-granularity addresses well.
  const auto a = reinterpret_cast<std::uintptr_t>(addr) >> 3;
  const std::uint64_t h = a * 0x9e3779b97f4a7c15ULL;
  return orec_table()[h >> (64 - kOrecCountLog2)];
}

inline bool is_locked(std::uint64_t word) noexcept { return word & 1; }

inline std::uint64_t tx_lock_word(std::size_t tid) noexcept {
  return (static_cast<std::uint64_t>(tid) << 1) | 1;
}

// Version carried by an (even, unlocked) orec word.
inline std::uint64_t orec_version(std::uint64_t word) noexcept {
  return word >> 1;
}

// ---- Global clocks -------------------------------------------------------
// global_clock: the TL2 version clock. Bumped (acq_rel RMW) by every
// writer commit and strong store *before* the corresponding orecs are
// released, so an orec can never expose a version the clock has not reached.
// strong_clock: polled by every transactional read after its value load;
// a move makes the reader revalidate its whole read set at once. Only
// bump_strong_clock() moves it, and only two events call that:
//   (a) the acquisition of an elidable lock whose holder writes
//       uninstrumented data — every data-structure lock, and the
//       selection lock of a SingleHolder engine, whose holder combines
//       while owners' visible attempts still run: those writes leave no
//       orec evidence, so the clock stands in for them (lazy
//       subscription, Dice et al.). A Multi engine's selection lock is
//       built drain-only and does not move it: its holder's other writes
//       are strong or owner-private (sync/tx_lock.hpp, LockRole);
//   (b) Operation::mark_being_helped on an operation a combiner selected:
//       the owner's speculative body stores its result with plain stores,
//       so it must stop at its next read rather than run to commit.
// Every other strong store already leaves a fresh orec version that
// readers detect on their own, so it does not move the strong clock.
// Each clock gets a private cache line: the version clock is the single
// hottest shared word in the system and must not false-share with the
// (read-mostly) strong clock.
inline constinit util::CacheAligned<std::atomic<std::uint64_t>>
    g_global_clock;
inline constinit util::CacheAligned<std::atomic<std::uint64_t>>
    g_strong_clock;

inline std::atomic<std::uint64_t>& global_clock() noexcept {
  return g_global_clock.value;
}
inline std::atomic<std::uint64_t>& strong_clock() noexcept {
  return g_strong_clock.value;
}

// The one writer of strong_clock() (tools/lint/hcf_lint.py enforces it).
// Call only outside a transaction, after the strong store that dooms the
// transactions to be stopped.
void bump_strong_clock() noexcept;

// In-write-back flag of thread id `tid` (< util::kMaxThreads), one per
// cache line: nonzero from just before the committer's final validation
// until its write-back is released. wait_writeback_drain() scans them.
std::atomic<std::uint32_t>& writeback_flag(std::size_t tid) noexcept;

// ---- Transaction descriptor ----------------------------------------------
struct ReadEntry {
  std::atomic<std::uint64_t>* orec;
  std::uint64_t version;
};

struct WriteEntry {
  std::uintptr_t addr;
  std::uint64_t value;
  std::uint8_t size;
};

struct AcquiredOrec {
  std::atomic<std::uint64_t>* orec;
  std::uint64_t old_version;
};

struct CleanupEntry {
  void* ptr;
  void (*fn)(void*);
};

// Write-set index sizing. Slots are u64 = (generation << 32) | (entry+1);
// generation tagging makes per-transaction clear O(1) (bump the tag)
// instead of O(table).
inline constexpr std::size_t kWindexInitialSlots = 64;
inline constexpr std::uint8_t kWindexInitialShift = 64 - 6;  // log2(64)

inline std::uint64_t addr_hash(std::uintptr_t a) noexcept {
  return static_cast<std::uint64_t>(a) * 0x9e3779b97f4a7c15ULL;
}

// Bloom bit for the write signature. Uses bits 52..57 of the hash so the
// signature stays decorrelated from the index's probe slot (top bits).
inline std::uint64_t sig_bit(std::uint64_t h) noexcept {
  return std::uint64_t{1} << ((h >> 52) & 63);
}

// A transaction's logs. They own heap storage, so they live apart from
// Txn, in a thread_local of their own (htm.cpp) that the thread's first
// begin_txn attaches: that keeps Txn trivially destructible, and with it
// g_txn free of a TLS init call on every access.
struct TxnLogs {
  std::vector<ReadEntry> read_set;
  std::vector<WriteEntry> write_set;
  std::vector<std::uint64_t> windex =
      std::vector<std::uint64_t>(kWindexInitialSlots, 0);
  std::vector<AcquiredOrec> acquired;
  std::vector<CleanupEntry> alloc_log;   // freed on abort
  std::vector<CleanupEntry> retire_log;  // EBR-retired on commit
};

struct alignas(util::kCacheLineSize) Txn {
  // --- Hot line: everything the per-access fast path touches. ---
  bool active = false;
  // Set by elidable-lock subscribe() calls; consumed by the protocol
  // checker's commit check. Maintained unconditionally (one byte, one
  // store per subscription) so all build flavours share one Txn layout.
  bool subscribed = false;
  // 64 - log2(windex slots): hash >> shift is the probe start.
  std::uint8_t windex_shift = kWindexInitialShift;
  std::uint32_t depth = 0;
  // The read snapshot (TL2 "rv"): reads are consistent as of this clock.
  std::uint64_t snapshot_epoch = 0;
  std::uint64_t snapshot_strong = 0;
  // Bloom signature of buffered write addresses: one AND rejects the
  // write-set lookup for the (dominant) read-with-no-prior-write case.
  std::uint64_t write_sig = 0;
  // Access counters, flushed to the global stats at commit/abort so the
  // hot path pays one local increment instead of a TLS counter lookup.
  std::uint64_t n_reads = 0;
  std::uint64_t n_writes = 0;
  // This thread's dense id, cached at begin_txn for the commit path and
  // the per-thread stats slots.
  std::size_t tid = 0;
  // Set by the thread's first begin_txn; valid while `active`.
  TxnLogs* logs = nullptr;

  // --- Validation bookkeeping and cold fields. ---
  // Entries [0, validated_count) are known valid at clock validated_epoch;
  // extension skips them when the clock has not moved since.
  std::uint64_t validated_epoch = 0;
  std::size_t validated_count = 0;
  std::uint64_t n_extensions = 0;
  std::uint32_t windex_gen = 0;
  AbortCode last_abort = AbortCode::None;

  void reset_logs() {
    logs->read_set.clear();
    logs->write_set.clear();
    logs->acquired.clear();
    logs->alloc_log.clear();
    logs->retire_log.clear();
    write_sig = 0;
    // O(1) index clear: stale-generation slots read as empty. Zero-fill
    // only on the (once per 2^32 transactions) generation wrap.
    if (++windex_gen == 0) {
      std::fill(logs->windex.begin(), logs->windex.end(), std::uint64_t{0});
      windex_gen = 1;
    }
  }
};

// g_txn's direct access needs both: a non-trivial destructor would make
// every access call a TLS init function (TxnLogs above).
static_assert(std::is_trivially_destructible_v<Txn>);
static_assert(offsetof(Txn, validated_epoch) == util::kCacheLineSize,
              "the fast-path fields must fit Txn's first cache line");

inline constinit thread_local Txn g_txn;

inline Txn& txn() noexcept { return g_txn; }

[[noreturn]] void throw_abort(AbortCode code);

// Validates the whole read set; returns false on mismatch. `self_tag` is
// the caller's commit lock word if the caller holds orecs (0 otherwise).
bool validate_read_set(Txn& t, std::uint64_t self_tag) noexcept;

// Revalidates after observing evidence of a newer snapshot (newer orec
// version / strong clock moved / clock moved at read-only commit); aborts
// (throws) on failure.
// Keeps opacity. Incremental: entries already validated at the current
// clock value are skipped.
void extend_snapshot(Txn& t);

void begin_txn(Txn& t);
void commit_txn(Txn& t);                // throws TxAbort on validation failure
void abort_cleanup(Txn& t, AbortCode code) noexcept;

// Cold path of read(): re-loads an orec another thread holds for up to
// kReadLockedOrecSpins relax iterations. Returns the first unlocked word
// seen; aborts (throws) Conflict if the orec is still held at the bound.
std::uint64_t wait_out_locked_orec(std::atomic<std::uint64_t>& orec);

// Rebuilds the write-set index at double capacity (cold path).
void windex_grow(Txn& t);

// Open-addressed lookup. A slot belongs to the current transaction iff its
// generation tag matches; anything else terminates the probe (there are no
// deletions within a transaction, so probes never skip holes).
inline WriteEntry* windex_find(Txn& t, std::uintptr_t addr,
                               std::uint64_t h) noexcept {
  const std::size_t mask = t.logs->windex.size() - 1;
  const std::uint64_t* slots = t.logs->windex.data();
  for (std::size_t i = static_cast<std::size_t>(h >> t.windex_shift);;
       i = (i + 1) & mask) {
    const std::uint64_t slot = slots[i];
    if ((slot >> 32) != t.windex_gen) return nullptr;
    WriteEntry* w =
        &t.logs->write_set[static_cast<std::uint32_t>(slot) - 1];
    if (w->addr == addr) return w;
  }
}

// Inserts write_set[idx] (caller guarantees the key is absent and the load
// factor is below 3/4, so an empty slot exists).
inline void windex_insert(Txn& t, std::uint64_t h, std::uint32_t idx) noexcept {
  std::vector<std::uint64_t>& windex = t.logs->windex;
  const std::size_t mask = windex.size() - 1;
  std::size_t i = static_cast<std::size_t>(h >> t.windex_shift);
  while ((windex[i] >> 32) == t.windex_gen) i = (i + 1) & mask;
  windex[i] =
      (static_cast<std::uint64_t>(t.windex_gen) << 32) | (idx + 1);
}

// Raw value transport. Sized so that write-back can replay buffered writes.
template <typename T>
inline std::uint64_t to_word(T v) noexcept {
  std::uint64_t w = 0;
  std::memcpy(&w, &v, sizeof(T));
  return w;
}

template <typename T>
inline T from_word(std::uint64_t w) noexcept {
  T v;
  std::memcpy(&v, &w, sizeof(T));
  return v;
}

template <typename T>
inline T atomic_load_acquire(const T* addr) noexcept {
  return std::atomic_ref<T>(*const_cast<T*>(addr))
      .load(std::memory_order_acquire);
}

template <typename T>
inline void atomic_store_release(T* addr, T v) noexcept {
  std::atomic_ref<T>(*addr).store(v, std::memory_order_release);
}

void store_sized(std::uintptr_t addr, std::uint64_t value,
                 std::uint8_t size) noexcept;

template <typename T>
concept TxValue = std::is_trivially_copyable_v<T> && sizeof(T) <= 8 &&
                  (sizeof(T) == 1 || sizeof(T) == 2 || sizeof(T) == 4 ||
                   sizeof(T) == 8);

// Looks up `addr` in the write buffer; returns pointer to entry or null.
// O(1): one signature AND rejects the common miss, the index resolves hits.
inline WriteEntry* find_write(Txn& t, std::uintptr_t addr) noexcept {
  // Empty-signature early-out before hashing: read-only transactions (and
  // reads before the first write) skip even the multiply.
  if (t.write_sig == 0) return nullptr;
  const std::uint64_t h = addr_hash(addr);
  if (!(t.write_sig & sig_bit(h))) return nullptr;
  return windex_find(t, addr, h);
}

}  // namespace detail

// ---- Public API -----------------------------------------------------------

inline bool in_txn() noexcept { return detail::txn().active; }

// Requests an abort of the running transaction (like xabort).
[[noreturn]] inline void abort_tx(AbortCode code = AbortCode::Explicit) {
  assert(in_txn());
  detail::throw_abort(code);
}

// Last abort code observed by this thread's most recent failed attempt.
inline AbortCode last_abort_code() noexcept { return detail::txn().last_abort; }

// Transactional load. Outside a transaction: plain atomic load (the
// under-lock / sequential fast path).
template <detail::TxValue T>
inline T read(const T* addr) {
  protocol::check_access_alignment(addr, sizeof(T));
  auto& t = detail::txn();
  if (!t.active) return detail::atomic_load_acquire(addr);
  ++t.n_reads;

  const auto a = reinterpret_cast<std::uintptr_t>(addr);
  if (auto* w = detail::find_write(t, a)) {
    assert(w->size == sizeof(T) && "mixed-size access to the same address");
    return detail::from_word<T>(w->value);
  }

  auto& orec = detail::orec_for(addr);
  T value;
  std::uint64_t v1;
  for (;;) {
    // acquire: pairs with the committer's release store of the orec, so a
    // stable even version implies the whole write-back of that version
    // happened-before our value load.
    v1 = orec.load(std::memory_order_acquire);
    if (detail::is_locked(v1)) v1 = detail::wait_out_locked_orec(orec);
    value = detail::atomic_load_acquire(addr);
    // acquire: if the value load ingested a committer's release store, the
    // committer's earlier orec lock CAS is visible here, so v2 reads locked
    // (or a newer version) and we abort instead of keeping a torn read.
    const std::uint64_t v2 = orec.load(std::memory_order_acquire);
    if (v1 != v2) detail::throw_abort(AbortCode::Conflict);
    // Revalidate only on actual evidence of staleness — a version newer
    // than our snapshot, or movement of the strong clock
    // (checked *after* the value load so a lock holder's uninstrumented
    // store can never be ingested without the strong bump being visible).
    if (detail::orec_version(v1) > t.snapshot_epoch) {
      detail::extend_snapshot(t);
      continue;
    }
    if (detail::strong_clock().load(std::memory_order_acquire) !=
        t.snapshot_strong) {
      detail::extend_snapshot(t);
      continue;
    }
    break;
  }
  // A stable orec around the load means we read a committed value; import
  // the committing thread's writes (it ran HCF_TSAN_RELEASE on this orec
  // before releasing it). No-op outside TSan builds; see tsan.hpp.
  HCF_TSAN_ACQUIRE(&orec);

  // Cheap dedup against the most recent entries keeps read sets compact in
  // pointer-chasing loops without an O(n) scan. Matches the same orec at
  // the same version anywhere in the window, independent of access order.
  auto& read_set = t.logs->read_set;
  bool dup = false;
  const std::size_t n = read_set.size();
  for (std::size_t i = n > kReadDedupWindow ? n - kReadDedupWindow : 0; i < n;
       ++i) {
    if (read_set[i].orec == &orec && read_set[i].version == v1) {
      dup = true;
      break;
    }
  }
  if (!dup) {
    if (n >= config().read_capacity.load(std::memory_order_relaxed)) {
      detail::throw_abort(AbortCode::Capacity);
    }
    read_set.push_back({&orec, v1});
  }
  return value;
}

// Transactional store (buffered until commit). Outside a transaction:
// plain atomic store.
template <detail::TxValue T>
inline void write(T* addr, T value) {
  protocol::check_access_alignment(addr, sizeof(T));
  auto& t = detail::txn();
  if (!t.active) {
    detail::atomic_store_release(addr, value);
    return;
  }
  ++t.n_writes;
  const auto a = reinterpret_cast<std::uintptr_t>(addr);
  const std::uint64_t h = detail::addr_hash(a);
  const std::uint64_t bit = detail::sig_bit(h);
  if (t.write_sig & bit) {
    if (auto* w = detail::windex_find(t, a, h)) {
      assert(w->size == sizeof(T) && "mixed-size access to the same address");
      w->value = detail::to_word(value);
      return;
    }
  }
  auto& write_set = t.logs->write_set;
  if (write_set.size() >=
      config().write_capacity.load(std::memory_order_relaxed)) {
    detail::throw_abort(AbortCode::Capacity);
  }
  if ((write_set.size() + 1) * 4 > t.logs->windex.size() * 3) {
    detail::windex_grow(t);
  }
  write_set.push_back({a, detail::to_word(value),
                       static_cast<std::uint8_t>(sizeof(T))});
  t.write_sig |= bit;
  detail::windex_insert(t, h,
                        static_cast<std::uint32_t>(write_set.size() - 1));
}

// Runs `body` as one transaction attempt. Returns true if it committed.
// Inside an enclosing transaction the body is flat-nested (subsumed).
template <typename F>
inline bool attempt(F&& body) {
  auto& t = detail::txn();
  if (t.active) {  // flat nesting
    std::forward<F>(body)();
    return true;
  }
  detail::begin_txn(t);
  try {
    std::forward<F>(body)();
    detail::commit_txn(t);
    return true;
  } catch (TxAbort& a) {
    detail::abort_cleanup(t, a.code);
    return false;
  } catch (...) {
    // An exception escaping the body aborts the transaction (discarding
    // speculative state), then propagates — matching RTM, where an
    // exception inside an elided section aborts to the fallback.
    detail::abort_cleanup(t, AbortCode::Explicit);
    throw;
  }
}

// Allocation helpers. Memory allocated inside a transaction must be
// released if the transaction aborts; memory logically freed inside a
// transaction must survive until commit *and* until concurrent speculative
// readers are done (EBR grace period).
template <typename T, typename... Args>
T* make(Args&&... args) {
  T* p = mem::alloc<T>(std::forward<Args>(args)...);
  auto& t = detail::txn();
  if (t.active) {
    // Abort unwind: the node was never published, so an immediate
    // destroy+free through the facade is safe (no grace period needed).
    t.logs->alloc_log.push_back(
        {p, [](void* q) { mem::dealloc(static_cast<T*>(q)); }});
  }
  return p;
}

template <typename T>
void retire(T* p) {
  auto& t = detail::txn();
  if (t.active) {
    // Commit bookkeeping (htm.cpp) invokes the logged fn outside the
    // transaction; going through mem::retire there keeps the facade's
    // remote routing for nodes the committer does not own.
    t.logs->retire_log.push_back(
        {p, [](void* q) { mem::retire(static_cast<T*>(q)); }});
  } else {
    mem::retire(p);
  }
}

// ---- Strong (non-transactional) operations --------------------------------
// For words that transactions subscribe to. Serialized through the word's
// orec so they are atomic with respect to commit write-back, and they bump
// the orec version + version clock so overlapping transactions abort: at
// the next read that meets a newer version, or at commit validation. They
// leave the strong clock alone (see strong_clock above).

namespace detail {

// Annotation-only capability standing for "this thread holds some orec in
// strong (kStrongTag) mode". The strong path locks exactly one orec at a
// time, so one process-wide capability object suffices to prove every
// strong_lock_orec is paired with its strong_unlock_orec on all paths.
// (Commit write-back acquires a variable *set* of orecs and is tracked by
// its own acquired-count bookkeeping, not by TSA.)
class CAPABILITY("htm.strong_orec") StrongOrecCap {};
StrongOrecCap& strong_orec_cap() noexcept;

// Spins (with randomized exponential backoff) until the orec is unlocked
// and returns the (even) version word after locking it with kStrongTag.
std::uint64_t strong_lock_orec(std::atomic<std::uint64_t>& orec) noexcept
    ACQUIRE(strong_orec_cap());
void strong_unlock_orec(std::atomic<std::uint64_t>& orec, std::uint64_t ver,
                        bool bump) noexcept RELEASE(strong_orec_cap());
}  // namespace detail

template <detail::TxValue T>
inline T strong_load(const T* addr) noexcept {
  return detail::atomic_load_acquire(addr);
}

template <detail::TxValue T>
inline void strong_store(T* addr, T value) noexcept {
  protocol::check_strong_op(in_txn(), "strong_store");
  assert(protocol::kEnabled ||
         (!in_txn() && "strong operations are not allowed inside a txn"));
  auto& orec = detail::orec_for(addr);
  const std::uint64_t ver = detail::strong_lock_orec(orec);
  detail::atomic_store_release(addr, value);
  detail::strong_unlock_orec(orec, ver, /*bump=*/true);
  util::bump(stats().local().strong_stores);
}

template <detail::TxValue T>
inline bool strong_cas(T* addr, T expected, T desired) noexcept {
  protocol::check_strong_op(in_txn(), "strong_cas");
  assert(protocol::kEnabled ||
         (!in_txn() && "strong operations are not allowed inside a txn"));
  auto& orec = detail::orec_for(addr);
  const std::uint64_t ver = detail::strong_lock_orec(orec);
  const T cur = detail::atomic_load_acquire(addr);
  if (cur != expected) {
    detail::strong_unlock_orec(orec, ver, /*bump=*/false);
    return false;
  }
  detail::atomic_store_release(addr, desired);
  detail::strong_unlock_orec(orec, ver, /*bump=*/true);
  util::bump(stats().local().strong_stores);
  return true;
}

template <detail::TxValue T>
inline T strong_fetch_add(T* addr, T delta) noexcept {
  protocol::check_strong_op(in_txn(), "strong_fetch_add");
  assert(protocol::kEnabled ||
         (!in_txn() && "strong operations are not allowed inside a txn"));
  auto& orec = detail::orec_for(addr);
  const std::uint64_t ver = detail::strong_lock_orec(orec);
  const T cur = detail::atomic_load_acquire(addr);
  detail::atomic_store_release(addr, static_cast<T>(cur + delta));
  detail::strong_unlock_orec(orec, ver, /*bump=*/true);
  util::bump(stats().local().strong_stores);
  return cur;
}

template <detail::TxValue T>
inline T strong_exchange(T* addr, T value) noexcept {
  protocol::check_strong_op(in_txn(), "strong_exchange");
  assert(protocol::kEnabled ||
         (!in_txn() && "strong operations are not allowed inside a txn"));
  auto& orec = detail::orec_for(addr);
  const std::uint64_t ver = detail::strong_lock_orec(orec);
  const T cur = detail::atomic_load_acquire(addr);
  detail::atomic_store_release(addr, value);
  detail::strong_unlock_orec(orec, ver, /*bump=*/true);
  util::bump(stats().local().strong_stores);
  return cur;
}

// Blocks until no transaction is inside commit write-back. Called by
// elidable-lock acquirers after the lock word is set: every transaction
// validating after that point sees the bumped lock orec and aborts, and
// this wait flushes the ones that had already validated. It does not stop
// running subscribers; an acquirer whose holder writes uninstrumented data
// moves the strong clock (detail::bump_strong_clock) before calling it.
// Scans one in-write-back flag per thread id below
// util::ThreadRegistry::high_water().
void wait_writeback_drain() noexcept;

// Called by elidable-lock subscribe() implementations (sync/tx_lock.hpp):
// records, for the protocol checker, that the running transaction
// subscribed to a lock. Cheap unconditional store; no-op outside a txn.
inline void note_lock_subscription() noexcept {
  auto& t = detail::txn();
  if (t.active) t.subscribed = true;
}

// Test hook: number of live (active) transactions on this thread (0/1).
inline std::uint32_t nesting_depth() noexcept { return detail::txn().depth; }

}  // namespace hcf::htm
