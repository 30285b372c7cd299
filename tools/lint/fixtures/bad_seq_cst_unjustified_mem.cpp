// lint:zone(mem)
// Known-bad: memory_order_seq_cst in the reclamation layer without the
// required '// seq_cst:' justification. EBR's guard and epoch scan need
// exactly one store-load pair; any other seq_cst there is either a
// leftover or an unproven assumption.
#include <atomic>
#include <cstdint>

std::atomic<std::uint64_t> global_epoch{0};
std::atomic<std::uint64_t> reservation{0};

void unjustified_announce(std::uint64_t seen) {
  reservation.store((seen << 1) | 1, std::memory_order_seq_cst);  // expect-lint: seq-cst-justification
}

bool unjustified_scan() {
  // Scans the reservation before advancing (an explanatory comment, not
  // a justification marker).
  const std::uint64_t g = global_epoch.load(std::memory_order_seq_cst);  // expect-lint: seq-cst-justification
  return reservation.load(std::memory_order_acquire) == ((g << 1) | 1);
}
