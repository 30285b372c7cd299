// TxCell<T>: a shared word accessed both transactionally (subscription
// reads, transactional removal of publication slots) and non-transactionally
// (lock acquisition, status transitions). Mutations that must doom
// overlapping transactions go through the strong orec protocol — the
// simulator's equivalent of a cache-line invalidation under real HTM. The
// *_plain mutators skip it and are for words no running transaction can
// hold in its read set (each call site says why, lint rule
// plain-store-justification).
//
// TxField<T>: a data-structure field with transparent instrumentation.
// Reads/writes go through htm::read / htm::write, which fall through to
// plain atomic accesses outside transactions — so the *same* sequential
// code runs speculatively, under the lock, and single-threaded.
//
// ThreadSanitizer: every access below compiles to a std::atomic /
// std::atomic_ref operation, which TSan models natively; the protocol-level
// happens-before edges (orec release on commit write-back, quiescence
// drain) carry explicit HCF_TSAN_* annotations in htm.{hpp,cpp} — see
// sim_htm/tsan.hpp and DESIGN.md §7. A TSan report on a TxCell/TxField
// access is therefore a real protocol race, not instrumentation noise.
#pragma once

#include <type_traits>

#include "sim_htm/htm.hpp"

namespace hcf::htm {

template <detail::TxValue T>
class TxCell {
 public:
  constexpr TxCell() noexcept : value_{} {}
  explicit constexpr TxCell(T v) noexcept : value_(v) {}

  TxCell(const TxCell&) = delete;
  TxCell& operator=(const TxCell&) = delete;

  // Transactional read: joins the read set (i.e. subscribes) inside a
  // transaction; plain acquire load outside.
  T read() const { return htm::read(&value_); }

  // Non-transactional accesses.
  T load() const noexcept { return strong_load(&value_); }
  void store(T v) noexcept { strong_store(&value_, v); }
  bool cas(T expected, T desired) noexcept {
    return strong_cas(&value_, expected, desired);
  }
  T fetch_add(T delta) noexcept { return strong_fetch_add(&value_, delta); }
  T exchange(T v) noexcept { return strong_exchange(&value_, v); }

  // Plain release store, *without* dooming subscribed transactions. Only
  // valid where no running transaction can hold the word in its read set
  // with a value this store invalidates: owner-private transitions (the
  // owner's own attempt is not running), and releases whose acquisition
  // already drew the word a new orec version (DESIGN.md §12.1).
  void store_plain(T v) noexcept { detail::atomic_store_release(&value_, v); }

  // Plain (non-dooming) exchange, same validity rules as store_plain; used
  // where the transition must also report the displaced value — e.g.
  // mark_done observing whether a parked-waiter flag was set, or a lock
  // release observing the waiters bit.
  T exchange_plain(T v) noexcept {
    return std::atomic_ref<T>(value_).exchange(v, std::memory_order_acq_rel);
  }

  // Plain (non-dooming) compare-and-swap: one hardware CAS, same validity
  // rules as store_plain. Unlike cas(), which is orec lock + load + store,
  // it is atomic with respect to concurrent plain mutators of the word, so
  // a bit set here cannot be lost to a racing exchange_plain.
  bool cas_plain(T expected, T desired) noexcept {
    return std::atomic_ref<T>(value_).compare_exchange_strong(
        expected, desired, std::memory_order_acq_rel,
        std::memory_order_acquire);
  }

  // Transactional (buffered) write — used when a cell must change atomically
  // with the rest of a transaction (e.g. publication-slot removal).
  void tx_write(T v) { htm::write(&value_, v); }

  // Direct initialization before the cell is shared. Not thread-safe.
  void init(T v) noexcept { value_ = v; }

  // Location of the underlying word, for kernel-assisted waiting
  // (util::park / util::wake_*). This exposes *where* the cell lives, not
  // a protocol bypass: the only accesses through it are the futex
  // syscall's own equality check and util::park's atomic_ref re-reads —
  // both reads, both racing benignly with strong mutations by design
  // (a parked waiter always re-checks its predicate after waking).
  const T* wait_address() const noexcept { return &value_; }

 private:
  T value_;
};

template <detail::TxValue T>
class TxField {
 public:
  constexpr TxField() noexcept : value_{} {}
  constexpr TxField(T v) noexcept : value_(v) {}  // NOLINT: implicit by design

  // Copying a field copies the (instrumented) value.
  TxField(const TxField& other) : value_{} { *this = other.get(); }
  TxField& operator=(const TxField& other) {
    *this = other.get();
    return *this;
  }

  operator T() const { return htm::read(&value_); }  // NOLINT
  T get() const { return htm::read(&value_); }

  TxField& operator=(T v) {
    htm::write(&value_, v);
    return *this;
  }

  // Pre-publication initialization of freshly allocated nodes: bypasses the
  // write buffer (the node is still private), keeping write sets small.
  void init(T v) noexcept { value_ = v; }

  // Plain (uninstrumented) atomic load, for advisory reads outside any
  // transaction — e.g. look-aside hints consulted by should_help. The value
  // may be stale relative to in-flight transactions.
  T load_plain() const noexcept { return detail::atomic_load_acquire(&value_); }

  // Pointer-like sugar for TxField<U*>.
  T operator->() const
    requires std::is_pointer_v<T>
  {
    return get();
  }

 private:
  T value_;
};

}  // namespace hcf::htm
