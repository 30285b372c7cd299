// Adaptive HCF — the paper's "future work" (§2.4): "the customization may
// be dynamic — we can begin with a certain number of publication arrays and
// the way operations are assigned to them, and change that on-the-fly to
// better fit the given workload. ... calling for an adaptive runtime
// mechanism to tune the HCF performance."
//
// This engine wraps a phase-machine engine with a feedback controller.
// The controller targets the unified policy surface (PolicyConfigurable in
// core/phase_exec.hpp) — num_classes / class_config / set_class_policy —
// so any engine exposing it can be adapted; HcfEngine is the default.
// Every adaptation window (kWindow operations), one thread inspects the
// per-class phase histogram and retunes that class's trial budgets:
//
//   * mostly TryPrivate completions  -> speculate more  (TLE-leaning)
//   * mostly combining / under lock  -> announce early  (FC-leaning)
//   * mixed                          -> the paper's (2,3,5) default
//
// Correctness is configuration-independent (§2.1: "the configuration of
// HCF ... cannot affect the correctness, but only the performance"), so the
// controller may update a policy while other threads execute — readers of a
// half-updated policy just run with a hybrid budget for one operation.
#pragma once

#include <atomic>
#include <cstdint>
#include <string_view>
#include <vector>

#include "core/hcf_engine.hpp"
#include "util/parking.hpp"

namespace hcf::core {

struct AdaptiveOptions {
  std::uint64_t window = 8192;  // ops between adaptations
  // Lean thresholds. frac_private = fraction of the window's completions
  // in TryPrivate; failures_per_op = failed HTM attempts per completion.
  double speculate_threshold = 0.90;   // frac_private above -> Speculative
  double combine_threshold = 0.50;     // frac_private below -> Combining
  double failure_ceiling = 0.25;       // failures/op above blocks Speculative
  double failure_floor = 1.50;         // failures/op above -> Combining
  PhasePolicy speculative{6, 2, 2, true};
  PhasePolicy balanced = PhasePolicy::paper_default();
  PhasePolicy combining{1, 1, 8, true};

  // Wait-policy controller (ROADMAP item 3 follow-on): flip every class
  // SpinYield -> SpinPark when the yield tier shows sustained
  // oversubscription — waiters burning scheduler quanta that the combiner
  // needs — and back once the pressure stays low for `park_dwell`
  // consecutive windows (hysteresis, so a borderline workload does not
  // thrash between a syscall tier and a yield tier every window). The
  // signal is util::park_stats().yields per operation over the window;
  // yields are only taken once spinning failed, so a high rate means
  // threads genuinely cannot run, not merely that waits are long.
  bool adapt_wait = true;
  double park_flip_up = 0.5;    // yields/op at or above -> SpinPark
  double park_flip_down = 0.05; // yields/op at or below counts as quiet
  int park_dwell = 3;           // quiet windows required to flip back
};

template <typename DS, sync::ElidableLock Lock = sync::TxLock,
          sync::ElidableLock SelectionLock = sync::TxLock,
          PolicyConfigurable InnerEngine = HcfEngine<DS, Lock, SelectionLock>>
class AdaptiveHcfEngine {
 public:
  using Op = Operation<DS>;
  using Inner = InnerEngine;

  AdaptiveHcfEngine(DS& ds, std::vector<ClassConfig> classes,
                    std::size_t num_arrays = 1, AdaptiveOptions options = {})
      : inner_(ds, std::move(classes), num_arrays), options_(options) {
    // The wait policy each class returns to when the controller unparks.
    for (std::size_t cls = 0; cls < inner_.num_classes(); ++cls) {
      base_wait_[cls].store(
          static_cast<std::uint8_t>(inner_.class_config(cls).policy.wait),
          std::memory_order_relaxed);
    }
  }

  explicit AdaptiveHcfEngine(DS& ds,
                             PhasePolicy initial = PhasePolicy::paper_default())
      : AdaptiveHcfEngine(ds, {ClassConfig{0, initial}}, 1) {}

  static std::string_view name() noexcept { return "HCF-adaptive"; }

  Phase execute(Op& op) {
    const Phase phase = inner_.execute(op);
    if ((ops_since_adapt_.fetch_add(1, std::memory_order_relaxed) + 1) %
            options_.window ==
        0) {
      adapt();
    }
    return phase;
  }

  EngineStats& stats() noexcept { return inner_.stats(); }
  std::uint64_t lock_acquisitions() const noexcept {
    return inner_.lock_acquisitions();
  }
  void reset_stats() noexcept { inner_.reset_stats(); }
  DS& data() noexcept { return inner_.data(); }
  Inner& inner() noexcept { return inner_; }
  auto& lock() noexcept { return inner_.lock(); }

  // Policy pass-through: the adaptive engine is itself PolicyConfigurable,
  // so meta-engines can wrap it (ShardedEngine<AdaptiveHcfEngine> runs one
  // independent controller per shard). External updates compete with the
  // controller on equal terms — both funnel through the inner engine's
  // per-class detail::AtomicPolicy slot.
  std::size_t num_classes() const noexcept { return inner_.num_classes(); }
  ClassConfig class_config(std::size_t cls) const noexcept {
    return inner_.class_config(cls);
  }
  void set_class_policy(std::size_t cls, const PhasePolicy& policy) noexcept {
    // An external update redefines the class's baseline wait policy; the
    // controller re-imposes SpinPark next window if still oversubscribed.
    base_wait_[cls].store(static_cast<std::uint8_t>(policy.wait),
                          std::memory_order_relaxed);
    inner_.set_class_policy(cls, policy);
  }

  // Commutativity pass-through (parallel combining).
  void seed_commutes(int a, int b, bool on = true) noexcept
    requires requires(Inner& e) { e.seed_commutes(a, b, on); }
  {
    inner_.seed_commutes(a, b, on);
  }

  // Introspection for tests/benches: the lean currently applied per class.
  enum class Lean : std::uint8_t { Balanced = 0, Speculative = 1, Combining = 2 };
  Lean current_lean(std::size_t cls) const noexcept {
    return static_cast<Lean>(lean_[cls].load(std::memory_order_relaxed));
  }
  std::uint64_t adaptations() const noexcept {
    return adaptations_.load(std::memory_order_relaxed);
  }

  // Wait-policy controller introspection: whether every class is currently
  // forced to SpinPark, and how many flips (either direction) happened.
  bool parked_wait() const noexcept {
    return parked_mode_.load(std::memory_order_relaxed);
  }
  std::uint64_t wait_flips() const noexcept {
    return wait_flips_.load(std::memory_order_relaxed);
  }

 private:
  void adapt() {
    // Single adapter at a time; skip if someone else is adapting.
    bool expected = false;
    if (!adapting_.compare_exchange_strong(expected, true,
                                           std::memory_order_acq_rel)) {
      return;
    }
    const auto snap = EngineStatsSnapshot::capture(inner_.stats());
    // The wait-mode controller runs on whole-engine signals, so it decides
    // once per window; a flip must reach every class, including ones the
    // lean logic skips for lack of samples.
    const bool wait_flipped = update_park_mode();
    const bool parked = parked_wait();
    for (std::size_t cls = 0; cls < inner_.num_classes(); ++cls) {
      const auto window = snap.delta_since(last_window_[cls]);
      const std::uint64_t window_total =
          window.class_total(static_cast<int>(cls));
      const std::uint64_t window_private =
          window.completions[cls][static_cast<std::size_t>(Phase::Private)];
      if (window_total < options_.window / 8) {  // too few lean samples
        if (wait_flipped) {
          PhasePolicy policy = inner_.class_config(cls).policy;
          policy.wait = class_wait(cls, parked);
          inner_.set_class_policy(cls, policy);
        }
        continue;
      }
      const double frac =
          static_cast<double>(window_private) /
          static_cast<double>(window_total);
      const double failures_per_op =
          static_cast<double>(window.attempt_failures[cls]) /
          static_cast<double>(window_total);
      Lean lean = Lean::Balanced;
      PhasePolicy policy = options_.balanced;
      if (failures_per_op >= options_.failure_floor ||
          frac <= options_.combine_threshold) {
        // Retry storms or frequent fallbacks: announce early and combine.
        lean = Lean::Combining;
        policy = options_.combining;
      } else if (frac >= options_.speculate_threshold &&
                 failures_per_op <= options_.failure_ceiling) {
        lean = Lean::Speculative;
        policy = options_.speculative;
      }
      // Preserve the class's announce and delegate choices: a
      // never-announcing class must stay that way (its descriptors may not
      // support helping), and the lean templates must not silently turn
      // parallel combining off (or on) for a class.
      const PhasePolicy current = inner_.class_config(cls).policy;
      policy.announce = current.announce;
      policy.delegate = current.delegate;
      // The wait tier belongs to the park controller, not the lean
      // templates: always carry the controller's current choice so a lean
      // change never clobbers a park flip (and vice versa).
      policy.wait = class_wait(cls, parked);
      const bool lean_changed = lean != current_lean(cls);
      if (lean_changed || wait_flipped) {
        inner_.set_class_policy(cls, policy);
        lean_[cls].store(static_cast<std::uint8_t>(lean),
                         std::memory_order_relaxed);
        if (lean_changed) {
          adaptations_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      last_window_[cls] = snap;
    }
    adapting_.store(false, std::memory_order_release);
  }

  util::WaitPolicy class_wait(std::size_t cls, bool parked) const noexcept {
    return parked ? util::WaitPolicy::SpinPark
                  : static_cast<util::WaitPolicy>(
                        base_wait_[cls].load(std::memory_order_relaxed));
  }

  // One wait-mode decision per window, from the global parking counters
  // (process-wide — like the scheduler pressure it measures). Returns true
  // iff the mode changed this window. Runs under the adapting_ guard, so
  // the plain last_*/quiet_windows_ fields have a single writer.
  bool update_park_mode() noexcept {
    if (!options_.adapt_wait) return false;
    const std::uint64_t ops_now =
        ops_since_adapt_.load(std::memory_order_relaxed);
    const std::uint64_t yields_now = util::park_stats().yields.total();
    const std::uint64_t ops_delta = ops_now - last_adapt_ops_;
    const std::uint64_t yields_delta = yields_now - last_yields_;
    last_adapt_ops_ = ops_now;
    last_yields_ = yields_now;
    if (ops_delta == 0) return false;
    const double yields_per_op = static_cast<double>(yields_delta) /
                                 static_cast<double>(ops_delta);
    if (!parked_wait()) {
      if (yields_per_op >= options_.park_flip_up) {
        parked_mode_.store(true, std::memory_order_relaxed);
        quiet_windows_ = 0;
        wait_flips_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      return false;
    }
    // Parked: require park_dwell consecutive quiet windows to flip back —
    // a single calm window under a bursty load must not cost a re-flip.
    if (yields_per_op <= options_.park_flip_down) {
      if (++quiet_windows_ >= options_.park_dwell) {
        parked_mode_.store(false, std::memory_order_relaxed);
        quiet_windows_ = 0;
        wait_flips_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    } else {
      quiet_windows_ = 0;
    }
    return false;
  }

  Inner inner_;
  AdaptiveOptions options_;
  // Adaptation bookkeeping, never accessed inside a transaction (execute()
  // adapts only after inner_.execute() returns), so raw atomics are safe
  // here — they don't need to doom subscribers.
  std::atomic<std::uint64_t> ops_since_adapt_{0};   // lint:allow(raw-atomic-in-core)
  std::atomic<bool> adapting_{false};               // lint:allow(raw-atomic-in-core)
  std::atomic<std::uint64_t> adaptations_{0};       // lint:allow(raw-atomic-in-core)
  std::atomic<std::uint8_t> lean_[kMaxOpClasses]{};  // lint:allow(raw-atomic-in-core)
  EngineStatsSnapshot last_window_[kMaxOpClasses];
  // Wait-mode controller state. parked_mode_/wait_flips_/base_wait_ are
  // read outside the adapting_ guard (introspection, class_wait), hence
  // atomic; the window bookkeeping is guard-private.
  std::atomic<bool> parked_mode_{false};        // lint:allow(raw-atomic-in-core)
  std::atomic<std::uint64_t> wait_flips_{0};    // lint:allow(raw-atomic-in-core)
  std::atomic<std::uint8_t> base_wait_[kMaxOpClasses]{};  // lint:allow(raw-atomic-in-core)
  int quiet_windows_ = 0;
  std::uint64_t last_adapt_ops_ = 0;
  std::uint64_t last_yields_ = 0;
};

}  // namespace hcf::core
