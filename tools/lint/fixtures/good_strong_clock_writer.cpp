// lint:zone(sim_htm)
// The sanctioned shape: one bump_strong_clock() in the substrate is the
// only writer of strong_clock(); everyone else reads it, directly or
// through a const reference, and comparisons are not assignments.
#include <atomic>
#include <cstdint>

namespace hcf::htm::detail {

std::atomic<std::uint64_t>& strong_clock() noexcept;

void bump_strong_clock() noexcept {
  strong_clock().fetch_add(1, std::memory_order_acq_rel);
}

bool clock_moved(std::uint64_t seen) noexcept {
  return strong_clock().load(std::memory_order_acquire) != seen;
}

std::uint64_t read_through_const_ref() noexcept {
  const auto& clock = strong_clock();
  return clock.load(std::memory_order_relaxed);
}

}  // namespace hcf::htm::detail
