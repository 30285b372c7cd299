// Dynamic checker for the simulated HTM's documented usage restrictions
// (htm.hpp header comment): strong operations must not run inside a
// transaction, instrumented accesses must be naturally aligned ≤ 8-byte
// words, and a transaction that commits while an elidable lock is held
// should have subscribed to a lock.
//
// Compiled in only when HCF_CHECK_PROTOCOL is defined (CMake option, ON by
// default outside Release); otherwise every hook folds to nothing. With the
// checker compiled in, a runtime mode selects the response:
//
//   * Trap  (default) — print the violation and abort(). Debug/CI builds
//     die at the first protocol break instead of corrupting data silently.
//   * Count — bump the violation counters in htm::Stats and continue.
//     Tests use this (via ScopedMode) to provoke violations on purpose and
//     assert they are detected.
//   * Off   — hooks stay compiled but do nothing.
//
// The commit-without-subscription check is *always* count-only, even in
// Trap mode: a transaction on structure A is not required to subscribe to
// structure B's lock, and this checker cannot know which lock guards which
// structure. The counter is precise in single-structure scenarios (all of
// tests/protocol_checker_test.cpp) and a useful smell elsewhere.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "sim_htm/stats.hpp"

namespace hcf::htm::protocol {

#if defined(HCF_CHECK_PROTOCOL)
inline constexpr bool kEnabled = true;
#else
inline constexpr bool kEnabled = false;
#endif

enum class Mode : std::uint8_t { Off = 0, Count = 1, Trap = 2 };

namespace detail {

inline std::atomic<Mode>& mode_ref() noexcept {
  static std::atomic<Mode> m{Mode::Trap};
  return m;
}

// Number of currently held elidable locks (TxLock / FairTxLock), across all
// lock instances. Maintained only when the checker is compiled in.
inline std::atomic<std::int64_t>& held_locks_ref() noexcept {
  static std::atomic<std::int64_t> n{0};
  return n;
}

[[noreturn]] inline void trap(const char* rule, const char* detail) noexcept {
  std::fprintf(stderr, "[hcf-protocol] violation: %s (%s)\n", rule, detail);
  std::abort();
}

}  // namespace detail

inline Mode mode() noexcept {
  if constexpr (!kEnabled) return Mode::Off;
  return detail::mode_ref().load(std::memory_order_relaxed);
}

inline void set_mode(Mode m) noexcept {
  detail::mode_ref().store(m, std::memory_order_relaxed);
}

// RAII mode override for tests.
class ScopedMode {
 public:
  explicit ScopedMode(Mode m) noexcept : old_(mode()) { set_mode(m); }
  ~ScopedMode() { set_mode(old_); }
  ScopedMode(const ScopedMode&) = delete;
  ScopedMode& operator=(const ScopedMode&) = delete;

 private:
  Mode old_;
};

// ---- Lock tracking (called from sync/tx_lock.hpp) -------------------------

inline void note_lock_acquired() noexcept {
  if constexpr (kEnabled) {
    detail::held_locks_ref().fetch_add(1, std::memory_order_relaxed);
  }
}

inline void note_lock_released() noexcept {
  if constexpr (kEnabled) {
    detail::held_locks_ref().fetch_sub(1, std::memory_order_relaxed);
  }
}

inline std::int64_t held_elidable_locks() noexcept {
  if constexpr (!kEnabled) return 0;
  return detail::held_locks_ref().load(std::memory_order_relaxed);
}

// ---- Checks (called from sim_htm/htm.{hpp,cpp}) ---------------------------

// Strong (non-transactional) operation attempted with a transaction active
// on this thread.
inline void check_strong_op(bool in_tx, const char* what) noexcept {
  if constexpr (!kEnabled) return;
  if (!in_tx) return;
  const Mode m = mode();
  if (m == Mode::Off) return;
  if (m == Mode::Trap) detail::trap("strong-op-inside-tx", what);
  util::bump(stats().local().proto_strong_in_tx);
}

// Instrumented access that is not naturally aligned for its size. Returns
// true when the access may proceed (Count/Off modes still perform it; on
// x86 the misaligned atomic works, it is merely outside the documented
// contract and outside what real HTM guarantees).
inline void check_access_alignment(const void* addr,
                                   std::size_t size) noexcept {
  if constexpr (!kEnabled) return;
  if ((reinterpret_cast<std::uintptr_t>(addr) & (size - 1)) == 0) return;
  const Mode m = mode();
  if (m == Mode::Off) return;
  if (m == Mode::Trap) detail::trap("misaligned-access", "htm::read/write");
  util::bump(stats().local().proto_misaligned);
}

// Commit of a transaction that never subscribed to any elidable lock while
// at least one such lock was held somewhere in the process. Count-only by
// design (see header comment).
inline void check_commit_subscription(bool subscribed) noexcept {
  if constexpr (!kEnabled) return;
  if (subscribed || mode() == Mode::Off) return;
  if (held_elidable_locks() > 0) {
    util::bump(stats().local().proto_unsubscribed_commits);
  }
}

}  // namespace hcf::htm::protocol
