// Low-overhead event tracing for the engines and the simulated HTM.
//
// Layering (see docs/observability.md):
//
//   * compile-time kill switch — building with -DHCF_TELEMETRY=OFF (the
//     CMake option; it drops the HCF_TELEMETRY define) turns every hook in
//     this header into an empty inline function: zero instructions, zero
//     data, benchmarking builds pay nothing.
//   * runtime gate — with telemetry compiled in, recording still defaults
//     to OFF; hooks cost one relaxed bool load until telemetry::set_enabled
//     (or the HCF_TELEMETRY_ENABLE=1 environment variable) switches them
//     on. Benchmarks expose this as --trace=FILE.
//
// Recording writes one 16-byte event into the calling thread's private
// lock-free ring (ring_buffer.hpp); no hook blocks, allocates, or touches
// shared mutable state, so hooks may sit directly on engine hot paths —
// but NEVER inside an htm::attempt transaction body (the linter's
// tx-telemetry-call rule): an event record is a non-transactional side
// effect that would survive an abort and replay on retry, and the paper's
// phases are delimited outside transactions anyway.
//
// Sampled operation latency additionally feeds a util::LatencyHistogram so
// summaries can report p50/p99/p999 without tracing every operation.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "telemetry/event.hpp"
#include "telemetry/ring_buffer.hpp"
#include "util/histogram.hpp"
#include "util/thread_id.hpp"

namespace hcf::telemetry {

// Every 64th operation gets timed when telemetry is enabled; cheap enough
// to leave on and dense enough for stable percentiles over a bench window.
inline constexpr std::uint32_t kLatencySamplePeriod = 64;

#if defined(HCF_TELEMETRY)
inline constexpr bool kCompiledIn = true;
#else
inline constexpr bool kCompiledIn = false;
#endif

#if defined(HCF_TELEMETRY)

namespace detail {

// The runtime gate lives OUTSIDE Domain on purpose: the rings are ~100 KiB
// of atomics per registered thread, and value-initializing them on first
// use is far too expensive to hide inside the disabled-mode fast path
// (under TSan it takes longer than a whole bench measurement window). The
// gate itself is constinit — constant-initialized at load time, so
// `enabled()` is exactly one relaxed load with no magic-static guard in
// front of it — and `enabled()` never forces the Domain into existence;
// the rings materialize only once someone actually turns recording on.
inline constinit RuntimeGate g_gate;

inline RuntimeGate& gate() noexcept { return g_gate; }

// One-time start-up hook: honour the HCF_TELEMETRY_ENABLE environment
// variable. Runs during static initialization; reading g_gate before that
// is safe (constinit zero-state = disabled).
struct EnvGateInit {
  EnvGateInit() noexcept {
    const char* env = std::getenv("HCF_TELEMETRY_ENABLE");
    if (env != nullptr && std::strcmp(env, "0") != 0) g_gate.set(true);
  }
};
inline EnvGateInit g_env_gate_init;

}  // namespace detail

// Holds the heavyweight telemetry state: one event ring per dense thread
// id plus the sampled-latency histogram. Constructed lazily on the first
// enabled record (or snapshot/reset), never by the disabled fast path.
class Domain {
 public:
  static Domain& instance() noexcept {
    static Domain d;
    return d;
  }

  RuntimeGate& gate() noexcept { return detail::gate(); }
  EventRing<>& ring(std::size_t tid) noexcept { return rings_[tid].value; }
  util::LatencyHistogram& latency() noexcept { return latency_; }
  util::LatencyHistogram& park_latency() noexcept { return park_latency_; }

  std::chrono::steady_clock::time_point epoch() const noexcept {
    return epoch_;
  }

  std::uint64_t now_ns() const noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  // Snapshot of every thread's retained events plus drop accounting.
  // Safe concurrent with recording (events arriving mid-snapshot may or
  // may not be included).
  void snapshot_all(
      std::vector<std::pair<std::size_t, std::vector<Event>>>& out) const {
    for (std::size_t tid = 0; tid < util::kMaxThreads; ++tid) {
      const auto& ring = rings_[tid].value;
      if (ring.pushed() == 0) continue;
      std::vector<Event> events;
      ring.snapshot(events);
      out.emplace_back(tid, std::move(events));
    }
  }

  std::uint64_t total_pushed() const noexcept {
    std::uint64_t sum = 0;
    for (const auto& r : rings_) sum += r.value.pushed();
    return sum;
  }

  std::uint64_t total_dropped() const noexcept {
    std::uint64_t sum = 0;
    for (const auto& r : rings_) sum += r.value.dropped();
    return sum;
  }

  // Test/bench hook: callers must quiesce recording threads first.
  void reset() noexcept {
    for (auto& r : rings_) {
      // Writer ownership: reset()'s contract quiesces every recording
      // thread, so claiming each ring's writer capability here is sound.
      r.value.assume_writer();
      r.value.clear();
    }
    latency_.reset();
    park_latency_.reset();
  }

 private:
  Domain() : epoch_(std::chrono::steady_clock::now()) {}

  std::chrono::steady_clock::time_point epoch_;
  util::LatencyHistogram latency_;
  util::LatencyHistogram park_latency_;
  std::array<util::CacheAligned<EventRing<>>, util::kMaxThreads> rings_{};
};

inline bool enabled() noexcept { return detail::gate().enabled(); }

inline void set_enabled(bool on) noexcept { detail::gate().set(on); }

namespace detail {
// The shard the calling thread is currently executing in (sharded
// meta-engines scope it around the inner engine's execute), stamped onto
// every event so exporters can roll traffic up per shard. Plain
// thread_local — only the owning thread ever touches it.
inline thread_local std::uint8_t t_current_shard = kNoShardId;
}  // namespace detail

inline std::uint8_t current_shard() noexcept {
  return detail::t_current_shard;
}

// RAII shard tag: every event recorded while the scope is alive carries
// the shard index. Nests (saves/restores), so a meta-engine wrapping
// another meta-engine keeps the innermost tag.
class ShardScope {
 public:
  explicit ShardScope(std::size_t shard) noexcept
      : saved_(detail::t_current_shard) {
    detail::t_current_shard =
        shard < kNoShardId ? static_cast<std::uint8_t>(shard) : kNoShardId;
  }
  ~ShardScope() { detail::t_current_shard = saved_; }
  ShardScope(const ShardScope&) = delete;
  ShardScope& operator=(const ShardScope&) = delete;

 private:
  std::uint8_t saved_;
};

inline void record(EventType type, std::uint8_t code = 0,
                   std::uint32_t arg = 0) noexcept {
  if (!enabled()) return;
  Domain& d = Domain::instance();
  Event e;
  e.ts_ns = d.now_ns();
  e.type = type;
  e.code = code;
  e.shard = detail::t_current_shard;
  e.arg = arg;
  auto& ring = d.ring(util::this_thread_id());
  // Writer ownership: rings are indexed by dense thread id, so the ring
  // selected above belongs to the calling thread by construction.
  ring.assume_writer();
  ring.push(e);
}

// True on the sampled subset of operations (drivers wrap those in clock
// reads and report via op_latency). Advances this thread's sample phase
// only while enabled, so disabled runs stay branch-predictable.
inline bool should_sample_op() noexcept {
  if (!enabled()) return false;
  thread_local std::uint32_t phase = 0;
  return ++phase % kLatencySamplePeriod == 0;
}

inline void op_latency(std::uint64_t ns) noexcept {
  if (!enabled()) return;
  Domain& d = Domain::instance();
  d.latency().record(ns);
  record(EventType::OpLatency, 0,
         ns > UINT32_MAX ? UINT32_MAX : static_cast<std::uint32_t>(ns));
}

// ---- parking hooks (util/parking.hpp calls these around kernel waits) ----
// park_begin records the Park event and returns the timestamp park_end
// subtracts for the park-latency histogram; both fold to one relaxed load
// while telemetry is disabled (the syscall they bracket dwarfs the clock
// reads when it is enabled).

inline std::uint64_t park_begin() noexcept {
  if (!enabled()) return 0;
  record(EventType::Park);
  return Domain::instance().now_ns();
}

inline void park_end(std::uint64_t t0, bool spurious) noexcept {
  if (!enabled()) return;
  Domain& d = Domain::instance();
  const std::uint64_t ns = t0 == 0 ? 0 : d.now_ns() - t0;
  d.park_latency().record(ns);
  record(EventType::Unpark, spurious ? 1 : 0,
         ns > UINT32_MAX ? UINT32_MAX : static_cast<std::uint32_t>(ns));
}

inline void reset() noexcept { Domain::instance().reset(); }

// ---- Mode-independent snapshot API (exporters build on these) ----------

// Appends (thread id, events oldest-first) for every thread that recorded.
inline void snapshot_all(
    std::vector<std::pair<std::size_t, std::vector<Event>>>& out) {
  Domain::instance().snapshot_all(out);
}

inline std::uint64_t total_pushed() noexcept {
  return Domain::instance().total_pushed();
}
inline std::uint64_t total_dropped() noexcept {
  return Domain::instance().total_dropped();
}
// Upper bound of the latency bucket containing quantile q, in ns.
inline std::uint64_t latency_percentile(double q) noexcept {
  return Domain::instance().latency().percentile(q);
}
inline std::uint64_t latency_samples() noexcept {
  return Domain::instance().latency().total();
}
// Same, for time spent parked in kernel waits.
inline std::uint64_t park_latency_percentile(double q) noexcept {
  return Domain::instance().park_latency().percentile(q);
}
inline std::uint64_t park_latency_samples() noexcept {
  return Domain::instance().park_latency().total();
}

#else  // !HCF_TELEMETRY — every hook folds to nothing.

inline bool enabled() noexcept { return false; }
inline void set_enabled(bool) noexcept {}
inline std::uint8_t current_shard() noexcept { return kNoShardId; }
class ShardScope {
 public:
  explicit ShardScope(std::size_t) noexcept {}
  ShardScope(const ShardScope&) = delete;
  ShardScope& operator=(const ShardScope&) = delete;
};
inline void record(EventType, std::uint8_t = 0, std::uint32_t = 0) noexcept {}
inline bool should_sample_op() noexcept { return false; }
inline void op_latency(std::uint64_t) noexcept {}
inline std::uint64_t park_begin() noexcept { return 0; }
inline void park_end(std::uint64_t, bool) noexcept {}
inline void reset() noexcept {}

inline void snapshot_all(
    std::vector<std::pair<std::size_t, std::vector<Event>>>&) {}
inline std::uint64_t total_pushed() noexcept { return 0; }
inline std::uint64_t total_dropped() noexcept { return 0; }
inline std::uint64_t latency_percentile(double) noexcept { return 0; }
inline std::uint64_t latency_samples() noexcept { return 0; }
inline std::uint64_t park_latency_percentile(double) noexcept { return 0; }
inline std::uint64_t park_latency_samples() noexcept { return 0; }

#endif  // HCF_TELEMETRY

// ---- Typed convenience hooks (the event vocabulary engines call) ----------
// `phase` parameters are core::Phase values; taken as integers so this
// header does not depend on core/.

inline void phase_enter(int phase) noexcept {
  record(EventType::PhaseEnter, static_cast<std::uint8_t>(phase));
}
// `applied_in` is the phase that applied a completed op, when that is
// not the phase being exited: an owner whose op a combiner or delegate
// applied exits the phase it waited in (the B/E slices stay paired) but
// the op completed in the helper's phase, which is what the counters
// credit. Negative means the exited phase itself.
inline void phase_exit(int phase, bool completed,
                       int applied_in = -1) noexcept {
  const int applied = applied_in < 0 ? phase : applied_in;
  record(EventType::PhaseExit, static_cast<std::uint8_t>(phase),
         completed ? static_cast<std::uint32_t>(applied) + 1 : 0);
}
inline void htm_commit(bool read_only) noexcept {
  record(EventType::HtmCommit, read_only ? 1 : 0);
}
inline void htm_abort(int cause) noexcept {
  record(EventType::HtmAbort, static_cast<std::uint8_t>(cause));
}
inline void combine_begin(std::size_t ops_selected) noexcept {
  record(EventType::CombineBegin, 0,
         static_cast<std::uint32_t>(ops_selected));
}
inline void combine_end(std::size_t ops_applied) noexcept {
  record(EventType::CombineEnd, 0, static_cast<std::uint32_t>(ops_applied));
}
inline void sel_lock_acquired() noexcept {
  record(EventType::SelLockAcquire);
}
inline void sel_lock_released() noexcept {
  record(EventType::SelLockRelease);
}
inline void shard_route(std::size_t shard) noexcept {
  record(EventType::ShardRoute, static_cast<std::uint8_t>(shard));
}
inline void cross_shard_begin(std::size_t num_shards) noexcept {
  record(EventType::CrossShardBegin, 0,
         static_cast<std::uint32_t>(num_shards));
}
inline void cross_shard_end(std::size_t num_shards) noexcept {
  record(EventType::CrossShardEnd, 0,
         static_cast<std::uint32_t>(num_shards));
}
// Parallel combining (core/delegation.hpp): a combiner published `groups`
// delegated groups covering `ops` operations ...
inline void delegate_groups(std::size_t groups, std::size_t ops) noexcept {
  record(EventType::Delegate, static_cast<std::uint8_t>(groups),
         static_cast<std::uint32_t>(ops));
}
// ... and one group of `ops` operations was applied, either by its
// delegate (true) or by the combiner's serial fallback sweep (false).
inline void delegate_apply(bool by_delegate, std::size_t ops) noexcept {
  record(EventType::DelegateApply, by_delegate ? 1 : 0,
         static_cast<std::uint32_t>(ops));
}
// Batched reclamation (mem/pool.hpp): `n` blocks published to pool slot
// `owner`'s MPSC inbox with one CAS ...
inline void remote_retire_flush(std::size_t owner, std::size_t n) noexcept {
  record(EventType::RemoteRetire, static_cast<std::uint8_t>(owner),
         static_cast<std::uint32_t>(n));
}
// ... and `n` blocks drained out of an inbox by its owner.
inline void remote_drain(std::size_t n) noexcept {
  record(EventType::RemoteDrain, 0, static_cast<std::uint32_t>(n));
}

}  // namespace hcf::telemetry
