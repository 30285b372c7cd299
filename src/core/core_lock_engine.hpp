// Core locks (Diegues, Romano & Marques — cited in the paper's §4 related
// work): TLE where threads that abort for *capacity* reasons serialize on a
// per-core auxiliary lock and retry speculatively while holding it. The
// rationale on real hardware is that two hyperthreads sharing an L1 halve
// each other's transactional capacity, so serializing same-core siblings
// restores it. Under the simulator the capacity model is per-transaction,
// but the engine faithfully reproduces the control flow so policies can be
// compared (and it degenerates gracefully: with generous capacity it is
// plain TLE).
//
// Conflict aborts retry without the core lock, exactly like TLE.
#pragma once

#include <string_view>

#include "core/engine_stats.hpp"
#include "core/operation.hpp"
#include "core/phase_exec.hpp"
#include "mem/ebr.hpp"
#include "sim_htm/htm.hpp"
#include "sync/spinlock.hpp"
#include "sync/tx_lock.hpp"
#include "telemetry/telemetry.hpp"
#include "util/affinity.hpp"
#include "util/backoff.hpp"
#include "util/cacheline.hpp"
#include "util/thread_id.hpp"

namespace hcf::core {

template <typename DS, sync::ElidableLock Lock = sync::TxLock>
class CoreLockEngine {
 public:
  using Op = Operation<DS>;

  explicit CoreLockEngine(DS& ds, int budget = kDefaultHtmBudget,
                          int core_budget = kDefaultHtmBudget / 2) noexcept
      : ds_(ds),
        budget_(budget),
        core_budget_(core_budget),
        num_cores_(util::hardware_threads()) {}

  static std::string_view name() noexcept { return "CoreLock"; }

  Phase execute(Op& op) {
    mem::Guard ebr;
    op.prepare();

    // Telemetry hooks between attempts, outside htm::attempt bodies; the
    // core-lock retries count toward the private phase like SCM's aux phase.
    telemetry::phase_enter(static_cast<int>(Phase::Private));
    util::ExpBackoff backoff(
        util::backoff_seed(util::BackoffSite::kCoreLockMain));
    for (int attempt = 0; attempt < budget_; ++attempt) {
      lock_.wait_until_free();
      const bool committed = htm::attempt([&] {
        lock_.subscribe();
        op.run_seq(ds_);
      });
      if (committed) {
        telemetry::phase_exit(static_cast<int>(Phase::Private), true);
        op.mark_own_done(Phase::Private);
        stats_.record_completion(op.class_id(), Phase::Private);
        return Phase::Private;
      }
      if (htm::last_abort_code() == htm::AbortCode::Capacity) {
        // Serialize with same-core siblings and retry speculatively.
        if (try_under_core_lock(op)) {
          telemetry::phase_exit(static_cast<int>(Phase::Private), true);
          op.mark_own_done(Phase::Private);
          stats_.record_completion(op.class_id(), Phase::Private);
          return Phase::Private;
        }
        break;  // still failing: take the real lock
      }
      if (htm::last_abort_code() == htm::AbortCode::Conflict) backoff.pause();
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

  std::uint64_t core_lock_acquisitions() const noexcept {
    return core_acquisitions_.total();
  }

 private:
  bool try_under_core_lock(Op& op) {
    auto& core_lock =
        core_locks_[util::this_thread_id() % num_cores_].value;
    core_lock.lock();
    core_acquisitions_.add();
    util::ExpBackoff backoff(
        util::backoff_seed(util::BackoffSite::kCoreLockAux));
    bool done = false;
    for (int attempt = 0; attempt < core_budget_; ++attempt) {
      lock_.wait_until_free();
      done = htm::attempt([&] {
        lock_.subscribe();
        op.run_seq(ds_);
      });
      if (done) break;
      stats_.record_attempt_failure(op.class_id());
      if (htm::last_abort_code() == htm::AbortCode::Conflict) backoff.pause();
      // Keep retrying even on capacity here: that is the point of the
      // scheme on hardware (capacity may recover once siblings paused).
    }
    core_lock.unlock();
    return done;
  }

  DS& ds_;
  int budget_;
  int core_budget_;
  std::size_t num_cores_;
  Lock lock_;
  util::CacheAligned<sync::SpinLock> core_locks_[util::kMaxThreads];
  util::Counter core_acquisitions_;
  EngineStats stats_;
};

}  // namespace hcf::core
