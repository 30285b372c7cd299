// Dense thread-id registry. The simulator, publication arrays and EBR all
// need small integer thread ids to index per-thread slots. Ids are assigned
// on first use, cached in a thread_local, and recycled when the thread (or
// an explicit guard) releases them, so tests that spawn thousands of
// short-lived threads do not exhaust the id space.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdio>
#include <cstdlib>

namespace hcf::util {

inline constexpr std::size_t kMaxThreads = 128;

class ThreadRegistry {
 public:
  static ThreadRegistry& instance() noexcept {
    static ThreadRegistry reg;
    return reg;
  }

  // Claims the lowest free id and raises the high-water mark above it
  // before returning. Aborts the process in every build type if more than
  // kMaxThreads threads are simultaneously registered: no caller can make
  // progress without an id, and silently sharing one would corrupt every
  // per-thread slot indexed by it.
  std::size_t acquire() noexcept {
    for (std::size_t i = 0; i < kMaxThreads; ++i) {
      bool expected = false;
      if (!used_[i].load(std::memory_order_relaxed) &&
          used_[i].compare_exchange_strong(expected, true,
                                           std::memory_order_acq_rel)) {
        raise_high_water(i + 1);
        return i;
      }
    }
    std::fputs("hcf: thread id space exhausted (more than kMaxThreads live "
               "threads)\n",
               stderr);
    std::abort();
  }

  void release(std::size_t id) noexcept {
    assert(id < kMaxThreads);
    used_[id].store(false, std::memory_order_release);
  }

  // One past the largest id ever handed out; never decreases, so it also
  // covers recycled ids. Scans over per-thread slots (the sim-HTM
  // write-back drain, the EBR epoch advance) stop here instead of at
  // kMaxThreads.
  std::size_t high_water() const noexcept {
    // seq_cst: raise_high_water is seq_cst too, so a load that follows in
    // the total order any seq_cst operation a thread made after it got its
    // id sees that thread's mark (EbrDomain::try_advance relies on it).
    // Same instruction as an acquire load on x86 and AArch64.
    return high_water_.load(std::memory_order_seq_cst);
  }

 private:
  ThreadRegistry() = default;

  // Monotone max. The load or CAS here is sequenced before the id is
  // returned, so a thread always has read a mark above its own id before it
  // uses that id. The write-back drain (htm.cpp) and the EBR epoch advance
  // (mem/ebr.hpp) rely on exactly this.
  void raise_high_water(std::size_t mark) noexcept {
    // seq_cst: puts the mark in the total order ahead of the thread's
    // later seq_cst operations (see high_water()). Runs once per thread.
    std::size_t cur = high_water_.load(std::memory_order_seq_cst);
    while (cur < mark && !high_water_.compare_exchange_weak(
                             cur, mark, std::memory_order_seq_cst)) {
    }
  }

  std::atomic<bool> used_[kMaxThreads]{};
  std::atomic<std::size_t> high_water_{0};
};

namespace detail {
struct ThreadIdHolder {
  std::size_t id;
  ThreadIdHolder() : id(ThreadRegistry::instance().acquire()) {}
  ~ThreadIdHolder() { ThreadRegistry::instance().release(id); }
};
}  // namespace detail

// Returns this thread's dense id in [0, kMaxThreads). First call registers.
inline std::size_t this_thread_id() noexcept {
  thread_local detail::ThreadIdHolder holder;
  return holder.id;
}

}  // namespace hcf::util
