#include "sim_htm/htm.hpp"

#include "telemetry/telemetry.hpp"
#include "util/backoff.hpp"

namespace hcf::htm {

Stats& stats() noexcept {
  static Stats s;
  return s;
}

namespace detail {

// Per-thread flags, each on its own line: a commit writes only its own
// line instead of two RMWs on one shared counter.
std::atomic<std::uint32_t>& writeback_flag(std::size_t tid) noexcept {
  static util::CacheAligned<std::atomic<std::uint32_t>>
      flags[util::kMaxThreads];
  return flags[tid].value;
}

namespace {

// Cold path of begin_txn, once per thread. The logs die at thread exit,
// before every thread_local constructed ahead of them; none of those
// begins a transaction in its destructor.
void attach_logs(Txn& t) {
  thread_local TxnLogs logs;
  t.logs = &logs;
}

// Let the memory layer refuse to drain remote-free queues inside a
// transaction body without mem/ depending on sim_htm/ (mem/pool.hpp).
struct InTxnProbeInit {
  InTxnProbeInit() noexcept {
    mem::set_in_txn_probe([] { return txn().active; });
  }
};
InTxnProbeInit g_in_txn_probe_init;
}  // namespace

void throw_abort(AbortCode code) { throw TxAbort{code}; }

bool validate_read_set(Txn& t, std::uint64_t self_tag) noexcept {
  for (const auto& r : t.logs->read_set) {
    const std::uint64_t cur = r.orec->load(std::memory_order_acquire);
    if (cur == r.version) continue;
    if (self_tag != 0 && cur == self_tag) {
      // We hold this orec for commit; compare against its pre-lock version.
      bool ok = false;
      for (const auto& a : t.logs->acquired) {
        if (a.orec == r.orec) {
          ok = (a.old_version == r.version);
          break;
        }
      }
      if (ok) continue;
    }
    return false;
  }
  return true;
}

void extend_snapshot(Txn& t) {
  const std::uint64_t c = global_clock().load(std::memory_order_acquire);
  const std::uint64_t sc = strong_clock().load(std::memory_order_acquire);
  const auto& read_set = t.logs->read_set;
  const std::size_t n = read_set.size();
  // Incremental revalidation: entries [0, validated_count) were proven
  // consistent at clock `validated_epoch`. If the clock still reads that
  // value, nothing can have been written back over them (writers release
  // orecs only after bumping the clock, and a mid-write-back writer's
  // locked orecs make any read of its target addresses abort), so only the
  // entries appended since need checking.
  const std::size_t from =
      (c == t.validated_epoch) ? t.validated_count : 0;
  for (std::size_t i = from; i < n; ++i) {
    const auto& r = read_set[i];
    if (r.orec->load(std::memory_order_acquire) != r.version) {
      throw_abort(AbortCode::Conflict);
    }
  }
  // The set is consistent at some instant at which the clock read `c`;
  // every recorded version is ≤ c, so c is a sound new snapshot.
  t.snapshot_epoch = c;
  t.snapshot_strong = sc;
  t.validated_epoch = c;
  t.validated_count = n;
  ++t.n_extensions;
}

void begin_txn(Txn& t) {
  assert(!t.active);
  if (t.logs == nullptr) attach_logs(t);
  t.active = true;
  t.subscribed = false;
  t.depth = 1;
  t.tid = util::this_thread_id();
  t.last_abort = AbortCode::None;
  t.reset_logs();
  t.snapshot_epoch = global_clock().load(std::memory_order_acquire);
  t.snapshot_strong = strong_clock().load(std::memory_order_acquire);
  t.validated_epoch = t.snapshot_epoch;
  t.validated_count = 0;
  util::bump(stats().local(t.tid).starts);
}

void store_sized(std::uintptr_t addr, std::uint64_t value,
                 std::uint8_t size) noexcept {
  switch (size) {
    case 1:
      std::atomic_ref<std::uint8_t>(*reinterpret_cast<std::uint8_t*>(addr))
          .store(static_cast<std::uint8_t>(value), std::memory_order_release);
      break;
    case 2:
      std::atomic_ref<std::uint16_t>(*reinterpret_cast<std::uint16_t*>(addr))
          .store(static_cast<std::uint16_t>(value),
                 std::memory_order_release);
      break;
    case 4:
      std::atomic_ref<std::uint32_t>(*reinterpret_cast<std::uint32_t*>(addr))
          .store(static_cast<std::uint32_t>(value),
                 std::memory_order_release);
      break;
    default:
      std::atomic_ref<std::uint64_t>(*reinterpret_cast<std::uint64_t*>(addr))
          .store(value, std::memory_order_release);
      break;
  }
}

void windex_grow(Txn& t) {
  t.logs->windex.assign(t.logs->windex.size() * 2, 0);
  --t.windex_shift;
  const auto& write_set = t.logs->write_set;
  for (std::size_t i = 0; i < write_set.size(); ++i) {
    windex_insert(t, addr_hash(write_set[i].addr),
                  static_cast<std::uint32_t>(i));
  }
}

namespace {

// Releases every held orec. `new_word == 0` rolls back to the pre-lock
// versions (failed commit); otherwise stores `new_word` (the commit
// version, already shifted) into each.
void release_acquired(Txn& t, std::uint64_t new_word) noexcept {
  auto& acquired = t.logs->acquired;
  for (auto it = acquired.rbegin(); it != acquired.rend(); ++it) {
    // Publish the write-back to transactional readers: their post-load orec
    // validation runs HCF_TSAN_ACQUIRE on the same orec (htm.hpp, read()).
    HCF_TSAN_RELEASE(it->orec);
    // release: pairs with readers' acquire loads of the orec — a reader
    // that observes the new version also observes the whole write-back.
    it->orec->store(new_word != 0 ? new_word : it->old_version,
                    std::memory_order_release);
  }
  acquired.clear();
}

// Try to lock every orec covering the write set. Returns false (with all
// partial acquisitions rolled back) on any conflict.
bool acquire_write_orecs(Txn& t) noexcept {
  const std::uint64_t my_tag = tx_lock_word(t.tid);
  for (const auto& w : t.logs->write_set) {
    auto& orec = orec_for(reinterpret_cast<const void*>(w.addr));
    std::uint64_t cur = orec.load(std::memory_order_relaxed);
    // Orecs we already own (several writes can share one orec): the tid
    // tag is unique to this thread, so one compare replaces a scan.
    if (cur == my_tag) continue;
    // acquire on success: imports the previous owner's write-back, so our
    // own write-back of this line cannot be reordered before theirs.
    if (is_locked(cur) ||
        !orec.compare_exchange_strong(cur, my_tag, std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
      release_acquired(t, /*new_word=*/0);
      return false;
    }
    t.logs->acquired.push_back({&orec, cur});
  }
  return true;
}

void flush_access_counters(Txn& t) noexcept {
  StatsSnapshot& s = stats().local(t.tid);
  if (t.n_reads != 0) util::bump(s.tx_reads, t.n_reads);
  if (t.n_writes != 0) util::bump(s.tx_writes, t.n_writes);
  if (t.n_extensions != 0) util::bump(s.snapshot_extensions, t.n_extensions);
  t.n_reads = 0;
  t.n_writes = 0;
  t.n_extensions = 0;
}

void finish_commit_bookkeeping(Txn& t) noexcept {
  // Allocations survive (ownership passed to the data structure); logical
  // frees become facade retirements so speculative readers stay safe. The
  // transaction is marked inactive *first*: the logged fns run mem::retire,
  // whose collect path may drain the pool inbox — legal only outside a
  // transaction body (mem/pool.hpp), and the write-back is already done.
  t.active = false;
  t.depth = 0;
  t.logs->alloc_log.clear();
  auto& retire_log = t.logs->retire_log;
  for (const auto& r : retire_log) r.fn(r.ptr);
  retire_log.clear();
  flush_access_counters(t);
  util::bump(stats().local(t.tid).commits);
}

}  // namespace

void commit_txn(Txn& t) {
  assert(t.active);
  if (t.depth > 1) {  // flat-nested inner commit: nothing to do
    --t.depth;
    return;
  }
  protocol::check_commit_subscription(t.subscribed);

  if (t.logs->write_set.empty()) {
    // Read-only. Every read proved version ≤ snapshot with the strong clock
    // unchanged, so the read set is already consistent at the snapshot and
    // could serialize there. It extends anyway if any commit happened since
    // (and then only over entries not yet validated at that clock): on RTM
    // a committed write to a line in the read set aborts the reader at
    // once, so a reader that overlapped a conflicting writer must not
    // commit. HtmConflict.WriteInvalidatesConcurrentReader pins this.
    if (global_clock().load(std::memory_order_acquire) != t.snapshot_epoch) {
      extend_snapshot(t);
    }
    util::bump(stats().local(t.tid).read_only_commits);
    finish_commit_bookkeeping(t);
    telemetry::htm_commit(/*read_only=*/true);
    return;
  }

  if (!acquire_write_orecs(t)) throw_abort(AbortCode::Conflict);

  // Register as a write-back in progress *before* the final validation:
  // elidable-lock acquirers first doom future validators (by bumping the
  // lock word's orec) and then wait for every raised flag to clear, which
  // together guarantee no write-back overlaps under-lock execution.
  auto& flag = writeback_flag(t.tid);
  flag.store(1, std::memory_order_relaxed);
  // seq_cst: Dekker/store-buffering pair with the fence in
  // wait_writeback_drain(). Either the drainer's scan observes our flag (it
  // waits for us to clear it), or this fence follows the drainer's in the
  // fence order and our validation below observes the lock word's bumped
  // orec (stored before the drainer's fence) and aborts. The scan reaches
  // our flag: this thread read a high-water mark above t.tid when it got
  // its id (util::ThreadRegistry::acquire), before this fence, so the
  // drainer's mark load after its fence cannot return a smaller value.
  // acquire/release alone cannot order these two store→load pairs; see
  // DESIGN.md §"Substrate performance" and
  // Quiescence.LockHolderNeverSeesPartialWriteback.
  std::atomic_thread_fence(std::memory_order_seq_cst);

  // Draw the commit version. acq_rel: the release half publishes our orec
  // locks (and flag store) to the next clock RMW, the acquire half
  // imports every earlier committer's locks, making the fast path below
  // sound — two writers cannot both skip validation against each other.
  const std::uint64_t wv =
      global_clock().fetch_add(1, std::memory_order_acq_rel) + 1;

  // TL2 fast path: wv == snapshot + 1 means no clock increment happened
  // between our snapshot and our own — nothing was committed or strong-
  // stored in between, and any concurrent writer drew a later version and
  // will see our locks when it validates. The read set is trivially valid.
  if (wv != t.snapshot_epoch + 1 &&
      !validate_read_set(t, tx_lock_word(t.tid))) {
    flag.store(0, std::memory_order_release);
    release_acquired(t, /*new_word=*/0);
    throw_abort(AbortCode::Conflict);
  }

  for (const auto& w : t.logs->write_set) {
    store_sized(w.addr, w.value, w.size);
  }

  // The clock already reached wv (our own fetch_add), so releasing the
  // orecs to version wv keeps the invariant that a reader observing the
  // new version finds the clock at ≥ wv and revalidates against it.
  release_acquired(t, /*new_word=*/wv << 1);
  // Publish the completed write-back to lock acquirers spinning in
  // wait_writeback_drain (they HCF_TSAN_ACQUIRE each scanned flag).
  HCF_TSAN_RELEASE(&flag);
  // release: the drainer's acquire load of 0 imports our write-back.
  flag.store(0, std::memory_order_release);

  finish_commit_bookkeeping(t);
  telemetry::htm_commit(/*read_only=*/false);
}

void abort_cleanup(Txn& t, AbortCode code) noexcept {
  assert(t.active);
  // Nothing was written back (lazy versioning), so "undo" is just
  // releasing speculative allocations.
  const auto& alloc_log = t.logs->alloc_log;
  for (auto it = alloc_log.rbegin(); it != alloc_log.rend(); ++it) {
    it->fn(it->ptr);
  }
  t.reset_logs();
  t.active = false;
  t.depth = 0;
  detail::flush_access_counters(t);
  t.last_abort = code;
  const auto idx = static_cast<std::size_t>(code);
  util::bump(stats().local(t.tid).aborts[idx < kNumAbortCodes ? idx : 0]);
  // The transaction is torn down (t.active is false): recording here is a
  // plain per-thread side effect, not an in-transaction call.
  telemetry::htm_abort(static_cast<int>(code));
}

std::uint64_t wait_out_locked_orec(std::atomic<std::uint64_t>& orec) {
  for (std::uint32_t i = 0; i < kReadLockedOrecSpins; ++i) {
    util::cpu_relax();
    // acquire: same role as read()'s first orec load, which this replaces.
    const std::uint64_t cur = orec.load(std::memory_order_acquire);
    if (!is_locked(cur)) return cur;
  }
  throw_abort(AbortCode::Conflict);
}

StrongOrecCap& strong_orec_cap() noexcept {
  static StrongOrecCap cap;
  return cap;
}

std::uint64_t strong_lock_orec(std::atomic<std::uint64_t>& orec) noexcept {
  // Uncontended fast path: one load, one CAS, no backoff state.
  std::uint64_t cur = orec.load(std::memory_order_acquire);
  if (!is_locked(cur) &&
      orec.compare_exchange_strong(cur, kStrongTag, std::memory_order_acquire,
                                   std::memory_order_relaxed)) {
    // Import the previous owner's write-back (commit or strong store).
    HCF_TSAN_ACQUIRE(&orec);
    return cur;
  }
  // Contended: randomized exponential backoff so strong-store storms on a
  // hot orec (lock hand-offs, status-word broadcasts) spread out instead
  // of livelocking the commit path with CAS traffic. Back off only while
  // the orec is observed held; a failed CAS against a *free* orec retries
  // immediately — orec hold times are sub-microsecond, so waiting past
  // them (measured: fig4 Lock @2 threads, -60%) costs more than the CAS
  // traffic it saves. The small cap keeps the worst wait near one
  // write-back, not one scheduling quantum.
  util::ExpBackoff backoff(util::this_thread_id() * 0x9e3779b97f4a7c15ULL + 1,
                           /*min_spins=*/4, /*max_spins=*/128);
  for (;;) {
    cur = orec.load(std::memory_order_acquire);
    if (is_locked(cur)) {
      backoff.pause();
      continue;
    }
    if (orec.compare_exchange_weak(cur, kStrongTag, std::memory_order_acquire,
                                   std::memory_order_relaxed)) {
      HCF_TSAN_ACQUIRE(&orec);
      return cur;
    }
  }
}

void strong_unlock_orec(std::atomic<std::uint64_t>& orec, std::uint64_t ver,
                        bool bump) noexcept {
  if (bump) {
    // Same discipline as commit: draw a fresh version (clock bump) before
    // the orec release, so any transaction that can observe the new value
    // must revalidate. That orec evidence is all a reader needs to detect
    // the store, so the strong clock does not move here: a transaction
    // that read this word aborts when it next meets a newer version or
    // validates at commit, like a reader of any committed write.
    const std::uint64_t wv =
        global_clock().fetch_add(1, std::memory_order_acq_rel) + 1;
    HCF_TSAN_RELEASE(&orec);
    orec.store(wv << 1, std::memory_order_release);
    return;
  }
  HCF_TSAN_RELEASE(&orec);
  orec.store(ver, std::memory_order_release);
}

void bump_strong_clock() noexcept {
  // acq_rel: the release half orders the caller's earlier strong store
  // (the doom a reader's extension must find) before the bump; a reader
  // whose acquire poll observes the bump therefore validates against it.
  strong_clock().fetch_add(1, std::memory_order_acq_rel);
}

}  // namespace detail

void wait_writeback_drain() noexcept {
  // seq_cst: Dekker/store-buffering pair with the fence in commit_txn().
  // Our caller already stored the doom (bumped lock-word orec) before
  // calling; this fence orders that store before the mark and flag loads
  // below, so every committer either sees the doom during validation or is
  // seen here and drained. See DESIGN.md §"Substrate performance".
  std::atomic_thread_fence(std::memory_order_seq_cst);
  const std::size_t n = util::ThreadRegistry::instance().high_water();
  for (std::size_t tid = 0; tid < n; ++tid) {
    auto& flag = detail::writeback_flag(tid);
    if (flag.load(std::memory_order_acquire) != 0) {
      // Write-backs are a bounded store loop, so the drain is short; the
      // small cap bounds added lock-acquisition latency while still taking
      // the flag line out of the spin loop's cache traffic.
      util::ExpBackoff backoff(
          util::this_thread_id() * 0x9e3779b97f4a7c15ULL + 1,
          /*min_spins=*/4, /*max_spins=*/128);
      do {
        backoff.pause();
      } while (flag.load(std::memory_order_acquire) != 0);
    }
    // Quiescence gate: everything written back by a drained transaction is
    // now visible to this (lock-holding) thread's uninstrumented accesses.
    HCF_TSAN_ACQUIRE(&flag);
  }
}

}  // namespace hcf::htm
