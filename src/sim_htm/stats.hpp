// Global transaction statistics, aggregated from per-thread counters.
// Engines and benchmarks snapshot these around measurement intervals.
#pragma once

#include <cstdint>

#include "sim_htm/abort.hpp"
#include "util/counters.hpp"

namespace hcf::htm {

struct Stats {
  util::Counter starts;
  util::Counter commits;
  util::Counter read_only_commits;
  util::Counter aborts[kNumAbortCodes];
  // Shared-memory accesses made through the instrumentation (the paper's
  // cache-traffic proxy; see DESIGN.md on Figure 4).
  util::Counter tx_reads;
  util::Counter tx_writes;
  util::Counter strong_stores;
  // Read-set revalidations (snapshot extensions): on a read that sees a
  // version newer than its snapshot or a moved strong clock, and on a
  // read-only commit after the global clock moved; see DESIGN.md §8.3.
  util::Counter snapshot_extensions;
  // Protocol-checker violation counters (sim_htm/protocol_check.hpp).
  // Always present so release and checker builds share one layout; only
  // bumped when HCF_CHECK_PROTOCOL is compiled in and the mode is Count.
  util::Counter proto_strong_in_tx;
  util::Counter proto_misaligned;
  util::Counter proto_unsubscribed_commits;

  std::uint64_t total_aborts() const noexcept {
    std::uint64_t sum = 0;
    for (const auto& c : aborts) sum += c.total();
    return sum;
  }

  std::uint64_t total_protocol_violations() const noexcept {
    return proto_strong_in_tx.total() + proto_misaligned.total() +
           proto_unsubscribed_commits.total();
  }

  void reset() noexcept {
    starts.reset();
    commits.reset();
    read_only_commits.reset();
    for (auto& c : aborts) c.reset();
    tx_reads.reset();
    tx_writes.reset();
    strong_stores.reset();
    snapshot_extensions.reset();
    proto_strong_in_tx.reset();
    proto_misaligned.reset();
    proto_unsubscribed_commits.reset();
  }
};

Stats& stats() noexcept;

// Plain-value snapshot for interval deltas.
struct StatsSnapshot {
  std::uint64_t starts = 0;
  std::uint64_t commits = 0;
  std::uint64_t read_only_commits = 0;
  std::uint64_t aborts[kNumAbortCodes] = {};
  std::uint64_t tx_reads = 0;
  std::uint64_t tx_writes = 0;
  std::uint64_t strong_stores = 0;
  std::uint64_t snapshot_extensions = 0;

  static StatsSnapshot capture() noexcept {
    StatsSnapshot s;
    auto& g = stats();
    s.starts = g.starts.total();
    s.commits = g.commits.total();
    s.read_only_commits = g.read_only_commits.total();
    for (int i = 0; i < kNumAbortCodes; ++i) s.aborts[i] = g.aborts[i].total();
    s.tx_reads = g.tx_reads.total();
    s.tx_writes = g.tx_writes.total();
    s.strong_stores = g.strong_stores.total();
    s.snapshot_extensions = g.snapshot_extensions.total();
    return s;
  }

  StatsSnapshot delta_since(const StatsSnapshot& base) const noexcept {
    StatsSnapshot d;
    d.starts = starts - base.starts;
    d.commits = commits - base.commits;
    d.read_only_commits = read_only_commits - base.read_only_commits;
    for (int i = 0; i < kNumAbortCodes; ++i) d.aborts[i] = aborts[i] - base.aborts[i];
    d.tx_reads = tx_reads - base.tx_reads;
    d.tx_writes = tx_writes - base.tx_writes;
    d.strong_stores = strong_stores - base.strong_stores;
    d.snapshot_extensions = snapshot_extensions - base.snapshot_extensions;
    return d;
  }

  std::uint64_t total_aborts() const noexcept {
    std::uint64_t sum = 0;
    for (auto a : aborts) sum += a;
    return sum;
  }
};

}  // namespace hcf::htm
