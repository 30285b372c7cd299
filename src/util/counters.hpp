// Lightweight per-thread event counters. A Counter owns one cache line per
// thread slot; increments are plain (relaxed) stores to the caller's own
// slot, and reads aggregate across slots. Used for all simulator and engine
// statistics so that instrumentation does not perturb the contention being
// measured.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "util/cacheline.hpp"
#include "util/thread_id.hpp"

namespace hcf::util {

class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t delta = 1) noexcept {
    add_at(this_thread_id(), delta);
  }

  // add() for a caller that already holds its thread id (`tid` must be
  // this_thread_id()): saves the thread-local lookup on hot paths.
  void add_at(std::size_t tid, std::uint64_t delta = 1) noexcept {
    auto& slot = slots_[tid].value;
    slot.store(slot.load(std::memory_order_relaxed) + delta,
               std::memory_order_relaxed);
  }

  std::uint64_t total() const noexcept {
    std::uint64_t sum = 0;
    for (const auto& s : slots_) sum += s.value.load(std::memory_order_relaxed);
    return sum;
  }

  void reset() noexcept {
    for (auto& s : slots_) s.value.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<CacheAligned<std::atomic<std::uint64_t>>, kMaxThreads> slots_{};
};

// A named bundle of counters with snapshot/delta support, for reporting
// per-measurement-interval statistics.
struct CounterSnapshot {
  std::uint64_t value = 0;
};

}  // namespace hcf::util
