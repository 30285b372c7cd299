// lint:zone(mem)
// The reclamation layer's sanctioned shape: each seq_cst carries a
// '// seq_cst:' marker, on the same line or in the comment block directly
// above. Acquire/release operations need none.
#include <atomic>
#include <cstdint>

std::atomic<std::uint64_t> global_epoch{0};
std::atomic<std::uint64_t> reservation{0};

void announce(std::uint64_t seen) {
  for (;;) {
    // seq_cst: store-load pair with the epoch scan; either the scan sees
    // this store or the re-read below sees the scan's advance.
    reservation.store((seen << 1) | 1, std::memory_order_seq_cst);
    const std::uint64_t now =
        global_epoch.load(std::memory_order_seq_cst);  // seq_cst: as above
    if (now == seen) return;
    seen = now;
  }
}

void leave() { reservation.store(0, std::memory_order_release); }
