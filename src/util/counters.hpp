// Per-thread event counters. A counter set is declared once, as a plain
// aggregate of std::uint64_t scalars and arrays deriving from
// CounterSet<S>; that struct is also its own snapshot value. A
// CounterBlock<S> keeps one cache-line-padded copy of S per thread id. The
// owning thread bumps its copy with relaxed atomic_ref stores (no RMW, no
// shared line), and readers sum the copies of every id below
// ThreadRegistry::high_water(). Sum, reset, delta and accumulate are
// written once here, over the struct's words, so a new metric is one field.
// Used for all simulator, engine and reclamation statistics so that
// instrumentation does not perturb the contention being measured.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "util/cacheline.hpp"
#include "util/thread_id.hpp"

namespace hcf::util {

namespace detail {

template <typename S>
inline constexpr std::size_t kCounterWords = sizeof(S) / sizeof(std::uint64_t);

template <typename S>
using CounterWords = std::array<std::uint64_t, kCounterWords<S>>;

// A counter set must be an array of words in all but name: the generic
// operations below walk it as one.
template <typename S>
inline constexpr bool kIsCounterSet =
    std::is_aggregate_v<S> && std::is_standard_layout_v<S> &&
    std::is_trivially_copyable_v<S> &&
    std::has_unique_object_representations_v<S> &&
    alignof(S) == alignof(std::uint64_t) &&
    sizeof(S) % sizeof(std::uint64_t) == 0;

}  // namespace detail

// Base of every counter set (CRTP): the element-wise value operations.
template <typename S>
struct CounterSet {
  // Element-wise *this - base: the counts of an interval.
  S delta_since(const S& base) const noexcept {
    static_assert(detail::kIsCounterSet<S>);
    auto words = std::bit_cast<detail::CounterWords<S>>(self());
    const auto base_words = std::bit_cast<detail::CounterWords<S>>(base);
    for (std::size_t i = 0; i < words.size(); ++i) words[i] -= base_words[i];
    return std::bit_cast<S>(words);
  }

  // Element-wise *this += other: merges sets counted apart (shards).
  S& accumulate(const S& other) noexcept {
    static_assert(detail::kIsCounterSet<S>);
    auto words = std::bit_cast<detail::CounterWords<S>>(self());
    const auto other_words = std::bit_cast<detail::CounterWords<S>>(other);
    for (std::size_t i = 0; i < words.size(); ++i) words[i] += other_words[i];
    return static_cast<S&>(*this) = std::bit_cast<S>(words);
  }

 private:
  const S& self() const noexcept { return static_cast<const S&>(*this); }
};

// Adds n to one word of the calling thread's own copy (CounterBlock::local).
// A relaxed load and store, not an RMW: the owner is the only writer.
inline void bump(std::uint64_t& word, std::uint64_t n = 1) noexcept {
  std::atomic_ref<std::uint64_t> ref(word);
  ref.store(ref.load(std::memory_order_relaxed) + n,
            std::memory_order_relaxed);
}

// One copy of counter set S per thread id, each on its own cache lines.
template <typename S>
class CounterBlock {
  static_assert(detail::kIsCounterSet<S>,
                "a counter set is an aggregate of std::uint64_t scalars and "
                "arrays");

 public:
  CounterBlock() = default;
  CounterBlock(const CounterBlock&) = delete;
  CounterBlock& operator=(const CounterBlock&) = delete;

  // The calling thread's copy. Write it only through bump().
  S& local() noexcept { return local(this_thread_id()); }
  // local() for a caller that already holds its id (`tid` must be
  // this_thread_id()): saves the thread-local lookup on hot paths.
  S& local(std::size_t tid) noexcept { return slots_[tid].value; }

  // Element-wise sum over every thread's copy. Ids at or above the
  // high-water mark were never handed out, so their copies are still zero.
  S sum() const noexcept {
    detail::CounterWords<S> total{};
    const std::size_t n = ThreadRegistry::instance().high_water();
    for (std::size_t t = 0; t < n; ++t) {
      for (std::size_t i = 0; i < total.size(); ++i) {
        total[i] += word(t, i).load(std::memory_order_relaxed);
      }
    }
    return std::bit_cast<S>(total);
  }

  // Zeroes every thread's copy. A bump racing with it may survive.
  void reset() noexcept {
    const std::size_t n = ThreadRegistry::instance().high_water();
    for (std::size_t t = 0; t < n; ++t) {
      for (std::size_t i = 0; i < detail::kCounterWords<S>; ++i) {
        word(t, i).store(0, std::memory_order_relaxed);
      }
    }
  }

 private:
  // Word i of thread t's copy; S is laid out as consecutive words.
  std::atomic_ref<std::uint64_t> word(std::size_t t,
                                      std::size_t i) const noexcept {
    auto* words = reinterpret_cast<std::uint64_t*>(
        const_cast<S*>(&slots_[t].value));
    return std::atomic_ref<std::uint64_t>(words[i]);
  }

  std::array<CacheAligned<S>, kMaxThreads> slots_{};
};

// A standalone counter: the one-field case of CounterBlock.
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    bump(block_.local().value, delta);
  }
  std::uint64_t total() const noexcept { return block_.sum().value; }
  void reset() noexcept { block_.reset(); }

 private:
  struct Value : CounterSet<Value> {
    std::uint64_t value = 0;
  };
  CounterBlock<Value> block_;
};

}  // namespace hcf::util
