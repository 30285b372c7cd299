// Runtime-tunable parameters of the simulated HTM. Capacity limits model
// the L1-bounded read/write sets of real RTM; tests shrink them to exercise
// capacity-abort paths deterministically.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace hcf::htm {

// Number of ownership records. Power of two; 2^16 orecs * 8B = 512 KiB,
// large enough that false conflicts are rare for our data-structure sizes.
inline constexpr std::size_t kOrecCountLog2 = 16;
inline constexpr std::size_t kOrecCount = std::size_t{1} << kOrecCountLog2;

// htm::read deduplicates against this many most-recent read-set entries
// before appending, keeping read sets compact in pointer-chasing loops
// without an O(n) scan. A window of 8 was tried and measured slower on
// distinct-address read sets (BM_TxnReadOnly/32: ~+2.4 ns per read from
// the longer miss scan) with no read-set shrinkage to show for it on the
// figure workloads, so the window stays at 4; see DESIGN.md §8.
inline constexpr std::size_t kReadDedupWindow = 4;

// Bound on how long htm::read waits for an orec held by another thread
// before aborting with Conflict, in re-load + util::cpu_relax iterations.
// An orec is held only for the few hundred ns of a commit write-back or a
// strong store; RTM commits atomically, so a reader there never sees one
// half done and never aborts for it. Waiting one write-back out keeps that
// property for the common case instead of wasting the whole transaction.
// 64 iterations measure ≈ 1.1 µs on a 2.1 GHz Xeon (one orec load plus a
// `pause`, ≈ 18 ns each): enough for a write-back under load (hcfbench's
// sim_htm.write_commit_ns.loaded measured 575–704 ns there), while a
// preempted holder costs the reader no more than that before it falls back
// to the abort. On cores with a short `pause` (≈ 10 cycles) the bound
// shrinks to ≈ 0.3 µs. Commit-time orec acquisition never waits: committers
// hold orecs, so it could deadlock.
inline constexpr std::uint32_t kReadLockedOrecSpins = 64;

struct Config {
  // Maximum tracked read locations per transaction (≈ L1 lines on RTM).
  std::atomic<std::size_t> read_capacity{8192};
  // Maximum buffered writes per transaction.
  std::atomic<std::size_t> write_capacity{2048};
};

Config& config() noexcept;

// RAII helper for tests: temporarily overrides capacities.
class ScopedCapacity {
 public:
  ScopedCapacity(std::size_t reads, std::size_t writes) noexcept
      : old_reads_(config().read_capacity.load()),
        old_writes_(config().write_capacity.load()) {
    config().read_capacity.store(reads);
    config().write_capacity.store(writes);
  }
  ~ScopedCapacity() {
    config().read_capacity.store(old_reads_);
    config().write_capacity.store(old_writes_);
  }
  ScopedCapacity(const ScopedCapacity&) = delete;
  ScopedCapacity& operator=(const ScopedCapacity&) = delete;

 private:
  std::size_t old_reads_;
  std::size_t old_writes_;
};

}  // namespace hcf::htm
