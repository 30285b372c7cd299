// lint:zone(sim_htm)
// Known-bad: strong_clock() moved outside bump_strong_clock(). Every
// running transaction revalidates its whole read set when the strong clock
// moves, so a writer that moves it on every strong store makes each one
// cost every in-flight reader a full extension.
#include <atomic>
#include <cstdint>

namespace hcf::htm::detail {

std::atomic<std::uint64_t>& strong_clock() noexcept;

void strong_unlock_orec_that_also_bumps() noexcept {
  strong_clock().fetch_add(1, std::memory_order_acq_rel);  // expect-lint: strong-clock-writer
}

void reset_clock() noexcept {
  strong_clock().store(0, std::memory_order_release);  // expect-lint: strong-clock-writer
  hcf::htm::detail::strong_clock() = 0;  // expect-lint: strong-clock-writer
}

void operators() noexcept {
  ++strong_clock();  // expect-lint: strong-clock-writer
  strong_clock() += 2;  // expect-lint: strong-clock-writer
}

void aliases() noexcept {
  auto& clock = strong_clock();  // expect-lint: strong-clock-writer
  clock.fetch_add(1);
  std::atomic<std::uint64_t>* p = &strong_clock();  // expect-lint: strong-clock-writer
  p->fetch_add(1);
}

// The clock's header-inline storage is the same word by another name.
struct {
  std::atomic<std::uint64_t> value;
} g_strong_clock;

void storage() noexcept {
  g_strong_clock.value.fetch_add(1, std::memory_order_acq_rel);  // expect-lint: strong-clock-writer
  auto& word = g_strong_clock.value;  // expect-lint: strong-clock-writer
  word.store(0);
}

}  // namespace hcf::htm::detail
