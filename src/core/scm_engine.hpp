// SCM: TLE with software-assisted conflict management (Afek, Levy &
// Morrison). Threads whose transactions abort on conflicts serialize on an
// *auxiliary* lock and retry speculatively while holding it — conflicting
// transactions run one at a time, but non-conflicting threads continue to
// run concurrently because the auxiliary lock is never subscribed to.
// Only when the auxiliary-phase budget is also exhausted does the thread
// acquire the real data-structure lock.
#pragma once

#include <string_view>

#include "core/engine_stats.hpp"
#include "core/operation.hpp"
#include "mem/ebr.hpp"
#include "sim_htm/htm.hpp"
#include "sync/spinlock.hpp"
#include "sync/tx_lock.hpp"
#include "telemetry/telemetry.hpp"
#include "util/backoff.hpp"

namespace hcf::core {

template <typename DS, sync::ElidableLock Lock = sync::TxLock>
class ScmEngine {
 public:
  using Op = Operation<DS>;

  // The total budget matches the paper's setup (ten attempts for every
  // HTM-based engine), split between the free phase and the aux-lock phase.
  explicit ScmEngine(DS& ds, int free_budget = 5, int aux_budget = 5) noexcept
      : ds_(ds), free_budget_(free_budget), aux_budget_(aux_budget) {}

  static std::string_view name() noexcept { return "SCM"; }

  Phase execute(Op& op) {
    mem::Guard ebr;
    op.prepare();

    bool capacity = false;
    // Both speculative rounds (free and aux-serialized) count as the
    // private phase for telemetry; hooks stay outside htm::attempt bodies.
    telemetry::phase_enter(static_cast<int>(Phase::Private));
    if (try_speculative(op, free_budget_, &capacity)) {
      telemetry::phase_exit(static_cast<int>(Phase::Private), true);
      op.mark_own_done(Phase::Private);
      stats_.record_completion(op.class_id(), Phase::Private);
      return Phase::Private;
    }

    if (!capacity) {
      // Conflict path: serialize conflicting threads on the aux lock and
      // retry. The aux lock is not elided and not subscribed — holders
      // still run speculatively against the main lock.
      aux_lock_.lock();
      const bool ok = try_speculative(op, aux_budget_, &capacity);
      aux_lock_.unlock();
      if (ok) {
        telemetry::phase_exit(static_cast<int>(Phase::Private), true);
        op.mark_own_done(Phase::Private);
        stats_.record_completion(op.class_id(), Phase::Private);
        return Phase::Private;
      }
    }
    telemetry::phase_exit(static_cast<int>(Phase::Private), false);

    telemetry::phase_enter(static_cast<int>(Phase::UnderLock));
    {
      sync::LockGuard<Lock> guard(lock_);
      op.run_seq(ds_);
    }
    telemetry::phase_exit(static_cast<int>(Phase::UnderLock), true);
    op.mark_own_done(Phase::UnderLock);
    stats_.record_completion(op.class_id(), Phase::UnderLock);
    return Phase::UnderLock;
  }

  EngineStats& stats() noexcept { return stats_; }
  std::uint64_t lock_acquisitions() const noexcept {
    return lock_.acquisition_count();
  }
  void reset_stats() noexcept {
    stats_.reset();
    lock_.reset_stats();
  }

  DS& data() noexcept { return ds_; }
  Lock& lock() noexcept { return lock_; }

 private:
  bool try_speculative(Op& op, int budget, bool* capacity) {
    util::ExpBackoff backoff(
        util::backoff_seed(util::BackoffSite::kScmSpeculate));
    for (int attempt = 0; attempt < budget; ++attempt) {
      lock_.wait_until_free();
      const bool committed = htm::attempt([&] {
        lock_.subscribe();
        op.run_seq(ds_);
      });
      if (committed) return true;
      if (htm::last_abort_code() == htm::AbortCode::Capacity) {
        *capacity = true;
        return false;
      }
      if (htm::last_abort_code() == htm::AbortCode::Conflict) backoff.pause();
    }
    return false;
  }

  DS& ds_;
  int free_budget_;
  int aux_budget_;
  Lock lock_;
  sync::SpinLock aux_lock_;
  EngineStats stats_;
};

}  // namespace hcf::core
