// Global transaction statistics, kept per thread (util/counters.hpp).
// Engines and benchmarks snapshot these around measurement intervals.
#pragma once

#include <cstdint>

#include "sim_htm/abort.hpp"
#include "util/counters.hpp"

namespace hcf::htm {

// The simulator's counter set: one declaration, also the plain-value
// snapshot for interval deltas.
struct StatsSnapshot : util::CounterSet<StatsSnapshot> {
  std::uint64_t starts = 0;
  std::uint64_t commits = 0;
  std::uint64_t read_only_commits = 0;
  std::uint64_t aborts[kNumAbortCodes] = {};
  // Shared-memory accesses made through the instrumentation (the paper's
  // cache-traffic proxy; see DESIGN.md on Figure 4).
  std::uint64_t tx_reads = 0;
  std::uint64_t tx_writes = 0;
  std::uint64_t strong_stores = 0;
  // Read-set revalidations (snapshot extensions): on a read that sees a
  // version newer than its snapshot or a moved strong clock, and on a
  // read-only commit after the global clock moved; see DESIGN.md §8.3.
  std::uint64_t snapshot_extensions = 0;
  // Protocol-checker violation counters (sim_htm/protocol_check.hpp).
  // Always present so release and checker builds share one layout; only
  // bumped when HCF_CHECK_PROTOCOL is compiled in and the mode is Count.
  std::uint64_t proto_strong_in_tx = 0;
  std::uint64_t proto_misaligned = 0;
  std::uint64_t proto_unsubscribed_commits = 0;

  static StatsSnapshot capture() noexcept;

  std::uint64_t total_aborts() const noexcept {
    std::uint64_t sum = 0;
    for (auto a : aborts) sum += a;
    return sum;
  }

  std::uint64_t total_protocol_violations() const noexcept {
    return proto_strong_in_tx + proto_misaligned + proto_unsubscribed_commits;
  }
};

using Stats = util::CounterBlock<StatsSnapshot>;
static_assert(sizeof(Stats) <= 16 * 1024);

Stats& stats() noexcept;

inline StatsSnapshot StatsSnapshot::capture() noexcept {
  return stats().sum();
}

}  // namespace hcf::htm
