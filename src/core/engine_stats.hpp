// Per-engine statistics: which phase completed each operation (paper
// Fig. 3), split by operation class, plus combining metrics (Fig. 4).
#pragma once

#include <array>
#include <cstdint>

#include "core/types.hpp"
#include "util/counters.hpp"

namespace hcf::core {

inline constexpr int kMaxOpClasses = 4;

// The engine's counter set: one declaration, also the plain-value snapshot
// for measurement intervals (util/counters.hpp).
struct EngineStatsSnapshot : util::CounterSet<EngineStatsSnapshot> {
  // completions[cls][phase]
  std::array<std::array<std::uint64_t, kNumPhases>, kMaxOpClasses>
      completions{};
  // Failed HTM attempts per class (any phase) — the contention signal the
  // adaptive controller consumes; completions alone hide retry storms.
  std::array<std::uint64_t, kMaxOpClasses> attempt_failures{};
  std::uint64_t combiner_sessions = 0;   // times a thread became a combiner
  std::uint64_t ops_selected = 0;        // total ops chosen by combiners
  std::uint64_t combine_rounds = 0;      // run_multi invocations by combiners
  std::uint64_t helped_ops = 0;          // ops completed by a thread != owner
  // Combiner fast-path telemetry (DESIGN.md §9): occupancy words the
  // selection scan never touched, and the key-grouping shape of selected
  // batches (sum of group sizes over count of groups = mean group size).
  std::uint64_t scan_words_skipped = 0;  // empty 64-slot words skipped/scan
  std::uint64_t batch_groups = 0;        // distinct combine-key groups formed
  std::uint64_t batch_group_sizes = 0;   // ops covered by those groups
  // Parallel combining (core/delegation.hpp, DESIGN.md §13).
  std::uint64_t delegated_groups = 0;    // groups published for delegates
  std::uint64_t delegated_ops = 0;       // ops inside those groups
  std::uint64_t delegate_applies = 0;    // groups applied by their delegate
  std::uint64_t delegate_fallbacks = 0;  // unclaimed groups applied by combiner
  std::uint64_t delegate_conflict_aborts = 0;  // HTM conflicts in delegation

  static EngineStatsSnapshot capture(
      const util::CounterBlock<EngineStatsSnapshot>& s) noexcept {
    return s.sum();
  }

  std::uint64_t phase_total(Phase phase) const noexcept {
    std::uint64_t sum = 0;
    for (const auto& cls : completions) {
      sum += cls[static_cast<std::size_t>(phase)];
    }
    return sum;
  }

  std::uint64_t class_total(int cls) const noexcept {
    std::uint64_t sum = 0;
    for (auto v : completions[static_cast<std::size_t>(cls)]) sum += v;
    return sum;
  }

  std::uint64_t total() const noexcept {
    std::uint64_t sum = 0;
    for (int p = 0; p < kNumPhases; ++p) {
      sum += phase_total(static_cast<Phase>(p));
    }
    return sum;
  }

  // Average operations applied per combiner session (the paper's
  // "combining degree").
  double combining_degree() const noexcept {
    return combiner_sessions == 0
               ? 0.0
               : static_cast<double>(ops_selected) /
                     static_cast<double>(combiner_sessions);
  }
};

// The live per-thread counters of one engine.
struct EngineStats : util::CounterBlock<EngineStatsSnapshot> {
  void record_completion(int cls, Phase phase) noexcept {
    util::bump(local().completions[static_cast<std::size_t>(
        cls % kMaxOpClasses)][static_cast<std::size_t>(phase)]);
  }

  void record_attempt_failure(int cls) noexcept {
    util::bump(local().attempt_failures[static_cast<std::size_t>(
        cls % kMaxOpClasses)]);
  }
};
static_assert(sizeof(EngineStats) <= 32 * 1024);

}  // namespace hcf::core
