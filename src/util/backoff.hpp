// Randomized exponential backoff used between failed HTM attempts and in
// spinlock acquisition loops. Mirrors the standard TLE retry discipline:
// short pauses that grow exponentially with a random jitter, capped.
#pragma once

#include <cstdint>

#include "util/rng.hpp"
#include "util/thread_id.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace hcf::util {

// Single CPU relax hint.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#else
  asm volatile("" ::: "memory");
#endif
}

// Spin for roughly `iters` relax hints.
inline void spin_for(std::uint64_t iters) noexcept {
  for (std::uint64_t i = 0; i < iters; ++i) cpu_relax();
}

// NOTE: the old SpinWait / ProportionalWait waiters lived here. Both are
// unified behind util::TieredWait (util/parking.hpp), which adds the
// kernel-parking tier and moves their spin/yield limits into the
// per-WaitSite tuning table. This header keeps only the raw pause
// primitives and the jittered inter-attempt backoff.

// Registry of per-site backoff seed bases. Every ExpBackoff call site
// derives its seed here — site base + thread id — so two threads (or two
// sites) never walk the same jitter sequence in lockstep, and the magic
// numbers live in one table instead of being copy-pasted per engine.
enum class BackoffSite : std::uint64_t {
  kPhasePrivate = 0x4cf1,     // shared phase machine, TryPrivate attempts
  kPhaseVisible = 0x4cf2,     // shared phase machine, TryVisible attempts
  kPhaseCombining = 0x4cf3,   // combine core, speculative combining rounds
  kScmSpeculate = 0x5c30,     // SCM free/aux speculation rounds
  kLockAcquire = 0x51ed2701,  // TxLock acquisition loop
};

inline std::uint64_t backoff_seed(BackoffSite site) noexcept {
  return static_cast<std::uint64_t>(site) +
         static_cast<std::uint64_t>(this_thread_id());
}

class ExpBackoff {
 public:
  explicit ExpBackoff(std::uint64_t seed = 0x9e3779b97f4a7c15ULL,
                      std::uint64_t min_spins = 4,
                      std::uint64_t max_spins = 1024) noexcept
      : rng_(seed), min_(min_spins), max_(max_spins), current_(min_spins) {}

  // Pause for a random duration in [0, current), then double the window.
  void pause() noexcept {
    spin_for(rng_.next_bounded(current_ + 1));
    if (current_ < max_) current_ *= 2;
  }

  void reset() noexcept { current_ = min_; }

  std::uint64_t window() const noexcept { return current_; }

 private:
  Xoshiro256 rng_;
  std::uint64_t min_;
  std::uint64_t max_;
  std::uint64_t current_;
};

}  // namespace hcf::util
