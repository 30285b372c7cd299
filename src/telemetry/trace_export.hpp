// Exporters for recorded telemetry: Chrome trace_event JSON (load the file
// in chrome://tracing or https://ui.perfetto.dev) and a compact aggregate
// summary for terminals and logs. Both read the rings through the
// mode-independent snapshot API in telemetry.hpp, so they compile — and
// emit an empty trace/summary — even when telemetry is compiled out.
//
// Not a hot path: exporters run after (or at worst concurrently with) the
// measured region, and snapshotting is wait-free for the recording threads.
#pragma once

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "telemetry/event.hpp"
#include "telemetry/telemetry.hpp"

namespace hcf::telemetry {

namespace detail {

// Local name tables: telemetry sits below core/ and sim_htm/, so it names
// their enums without including them. Kept in sync with core::Phase and
// htm::AbortCode (telemetry_trace_test pins the correspondence).
inline const char* phase_name(std::uint8_t p) noexcept {
  switch (p) {
    case 0: return "try-private";
    case 1: return "try-visible";
    case 2: return "try-combining";
    case 3: return "combine-under-lock";
  }
  return "phase-?";
}

inline const char* abort_name(std::uint8_t c) noexcept {
  switch (c) {
    case 0: return "none";
    case 1: return "conflict";
    case 2: return "capacity";
    case 3: return "explicit";
    case 4: return "lock-busy";
  }
  return "abort-?";
}

inline void write_ts_us(std::ostream& os, std::uint64_t ts_ns) {
  // trace_event "ts" is microseconds; keep ns resolution as a decimal.
  os << ts_ns / 1000 << '.' << ts_ns % 1000 / 100 << ts_ns % 100 / 10
     << ts_ns % 10;
}

}  // namespace detail

// Aggregate view of everything currently retained in the rings, plus the
// latency percentiles from the sampled-op histogram.
struct TraceSummary {
  // Per-shard rollup (sharded meta-engines tag events with a shard index;
  // indices >= kMaxShardSlots fold into the last slot).
  static constexpr int kMaxShardSlots = 64;

  std::uint64_t by_type[kNumEventTypes] = {};
  std::uint64_t aborts_by_code[16] = {};
  // Completed PhaseExit events by the phase that applied the op.
  std::uint64_t phase_completions[16] = {};
  std::uint64_t ops_selected = 0;  // summed over combine-begin events
  std::uint64_t ops_delegated = 0;     // summed over delegate events
  std::uint64_t delegated_groups = 0;  // summed over delegate events
  std::uint64_t delegate_applies = 0;    // delegate-apply with code=1
  std::uint64_t delegate_fallbacks = 0;  // delegate-apply with code=0
  std::uint64_t events_by_shard[kMaxShardSlots] = {};  // any tagged event
  std::uint64_t routed_by_shard[kMaxShardSlots] = {};  // shard-route events
  std::uint64_t cross_shard_sweeps = 0;  // all-shard-lock operations begun
  std::uint64_t remote_retire_blocks = 0;  // summed over remote-retire events
  std::uint64_t remote_drain_blocks = 0;   // summed over remote-drain events
  int max_shard = -1;  // highest shard index seen; -1 = nothing sharded
  std::uint64_t events_pushed = 0;
  std::uint64_t events_dropped = 0;
  std::uint64_t latency_samples = 0;
  std::uint64_t latency_p50_ns = 0;
  std::uint64_t latency_p99_ns = 0;
  std::uint64_t latency_p999_ns = 0;
  int threads = 0;

  std::uint64_t count(EventType t) const noexcept {
    return by_type[static_cast<int>(t)];
  }
};

inline TraceSummary collect_summary() {
  TraceSummary s;
  std::vector<std::pair<std::size_t, std::vector<Event>>> per_thread;
  snapshot_all(per_thread);
  s.threads = static_cast<int>(per_thread.size());
  for (const auto& [tid, events] : per_thread) {
    (void)tid;
    for (const Event& e : events) {
      const int t = static_cast<int>(e.type);
      if (t >= 0 && t < kNumEventTypes) ++s.by_type[t];
      if (e.shard != kNoShardId) {
        const int slot = std::min<int>(e.shard, TraceSummary::kMaxShardSlots - 1);
        ++s.events_by_shard[slot];
        if (e.shard > s.max_shard) s.max_shard = e.shard;
      }
      switch (e.type) {
        case EventType::HtmAbort:
          ++s.aborts_by_code[e.code & 0xf];
          break;
        case EventType::PhaseExit:
          if (e.arg != 0) ++s.phase_completions[(e.arg - 1) & 0xf];
          break;
        case EventType::CombineBegin:
          s.ops_selected += e.arg;
          break;
        case EventType::Delegate:
          s.delegated_groups += e.code;
          s.ops_delegated += e.arg;
          break;
        case EventType::DelegateApply:
          if (e.code != 0) {
            ++s.delegate_applies;
          } else {
            ++s.delegate_fallbacks;
          }
          break;
        case EventType::ShardRoute: {
          const int slot = std::min<int>(e.code, TraceSummary::kMaxShardSlots - 1);
          ++s.routed_by_shard[slot];
          if (e.code > s.max_shard) s.max_shard = e.code;
          break;
        }
        case EventType::CrossShardBegin:
          ++s.cross_shard_sweeps;
          break;
        case EventType::RemoteRetire:
          s.remote_retire_blocks += e.arg;
          break;
        case EventType::RemoteDrain:
          s.remote_drain_blocks += e.arg;
          break;
        default:
          break;
      }
    }
  }
  s.events_pushed = total_pushed();
  s.events_dropped = total_dropped();
  s.latency_samples = latency_samples();
  s.latency_p50_ns = latency_percentile(0.50);
  s.latency_p99_ns = latency_percentile(0.99);
  s.latency_p999_ns = latency_percentile(0.999);
  return s;
}

// Human-readable aggregate block, e.g. appended to bench stderr output.
inline void write_summary(std::ostream& os, const TraceSummary& s) {
  os << "[telemetry] events=" << s.events_pushed
     << " dropped=" << s.events_dropped << " threads=" << s.threads << '\n';
  os << "[telemetry] phase completions:";
  for (int p = 0; p < 4; ++p) {
    os << ' ' << detail::phase_name(static_cast<std::uint8_t>(p)) << '='
       << s.phase_completions[p];
  }
  os << '\n';
  os << "[telemetry] htm: commits=" << s.count(EventType::HtmCommit)
     << " aborts=" << s.count(EventType::HtmAbort);
  for (int c = 1; c < 5; ++c) {
    if (s.aborts_by_code[c] == 0) continue;
    os << ' ' << detail::abort_name(static_cast<std::uint8_t>(c)) << '='
       << s.aborts_by_code[c];
  }
  os << '\n';
  os << "[telemetry] combining: sessions="
     << s.count(EventType::CombineBegin)
     << " ops-selected=" << s.ops_selected << " sel-lock-acquires="
     << s.count(EventType::SelLockAcquire) << '\n';
  if (s.delegated_groups != 0 || s.delegate_fallbacks != 0) {
    os << "[telemetry] delegation: groups=" << s.delegated_groups
       << " ops=" << s.ops_delegated
       << " delegate-applies=" << s.delegate_applies
       << " combiner-fallbacks=" << s.delegate_fallbacks << '\n';
  }
  if (s.count(EventType::RemoteRetire) != 0 ||
      s.count(EventType::RemoteDrain) != 0) {
    os << "[telemetry] reclamation: remote-flushes="
       << s.count(EventType::RemoteRetire)
       << " blocks-flushed=" << s.remote_retire_blocks
       << " drains=" << s.count(EventType::RemoteDrain)
       << " blocks-drained=" << s.remote_drain_blocks << '\n';
  }
  if (s.max_shard >= 0) {
    const int shown =
        std::min(s.max_shard, TraceSummary::kMaxShardSlots - 1);
    os << "[telemetry] shards: routed-ops";
    for (int i = 0; i <= shown; ++i) {
      os << " s" << i << '=' << s.routed_by_shard[i];
    }
    os << " cross-shard-sweeps=" << s.cross_shard_sweeps << '\n';
  }
  if (s.latency_samples > 0) {
    os << "[telemetry] op latency (" << s.latency_samples
       << " samples): p50=" << s.latency_p50_ns
       << "ns p99=" << s.latency_p99_ns << "ns p999=" << s.latency_p999_ns
       << "ns\n";
  }
}

inline void write_summary(std::ostream& os) {
  write_summary(os, collect_summary());
}

// Chrome trace_event JSON. Phase/combine/selection-lock events become
// nested "B"/"E" duration slices per thread; HTM commit/abort and latency
// samples become "i" instants. Because the ring keeps only the most recent
// events, an exit whose matching begin was overwritten is skipped (tracked
// per slice kind) so every emitted "E" closes an emitted "B".
inline void write_chrome_trace(std::ostream& os) {
  std::vector<std::pair<std::size_t, std::vector<Event>>> per_thread;
  snapshot_all(per_thread);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto emit = [&](std::size_t tid, const Event& e, char ph,
                  const std::string& name, const std::string& args) {
    if (!first) os << ',';
    first = false;
    os << "{\"ph\":\"" << ph << "\",\"pid\":1,\"tid\":" << tid
       << ",\"ts\":";
    detail::write_ts_us(os, e.ts_ns);
    os << ",\"name\":\"" << name << '"';
    if (ph == 'i') os << ",\"s\":\"t\"";
    // Shard-tagged events carry the shard as a slice arg so the viewer
    // can filter one shard's activity.
    std::string full_args = args;
    if (e.shard != kNoShardId) {
      if (!full_args.empty()) full_args += ',';
      full_args += "\"shard\":" + std::to_string(e.shard);
    }
    if (!full_args.empty()) os << ",\"args\":{" << full_args << '}';
    os << '}';
  };
  for (const auto& [tid, events] : per_thread) {
    // Open-slice depth per kind: phases, combine sessions, selection lock,
    // cross-shard sweeps.
    int phase_depth = 0, combine_depth = 0, lock_depth = 0, cross_depth = 0;
    for (const Event& e : events) {
      switch (e.type) {
        case EventType::PhaseEnter:
          ++phase_depth;
          emit(tid, e, 'B', detail::phase_name(e.code), "");
          break;
        case EventType::PhaseExit:
          if (phase_depth == 0) break;  // begin fell off the ring
          --phase_depth;
          emit(tid, e, 'E', detail::phase_name(e.code),
               e.arg == 0 ? std::string("\"completed\":0")
                          : std::string("\"completed\":1,\"applied_in\":\"") +
                                detail::phase_name(
                                    static_cast<std::uint8_t>(e.arg - 1)) +
                                '"');
          break;
        case EventType::CombineBegin:
          ++combine_depth;
          emit(tid, e, 'B', "combine",
               "\"ops_selected\":" + std::to_string(e.arg));
          break;
        case EventType::CombineEnd:
          if (combine_depth == 0) break;
          --combine_depth;
          emit(tid, e, 'E', "combine",
               "\"ops_applied\":" + std::to_string(e.arg));
          break;
        case EventType::SelLockAcquire:
          ++lock_depth;
          emit(tid, e, 'B', "selection-lock", "");
          break;
        case EventType::SelLockRelease:
          if (lock_depth == 0) break;
          --lock_depth;
          emit(tid, e, 'E', "selection-lock", "");
          break;
        case EventType::HtmCommit:
          emit(tid, e, 'i', e.code != 0 ? "htm-commit-ro" : "htm-commit",
               "");
          break;
        case EventType::HtmAbort:
          emit(tid, e, 'i',
               std::string("htm-abort:") + detail::abort_name(e.code), "");
          break;
        case EventType::OpLatency:
          emit(tid, e, 'i', "op-sample",
               "\"latency_ns\":" + std::to_string(e.arg));
          break;
        case EventType::Delegate:
          emit(tid, e, 'i', "delegate",
               "\"groups\":" + std::to_string(e.code) +
                   ",\"ops\":" + std::to_string(e.arg));
          break;
        case EventType::DelegateApply:
          emit(tid, e, 'i',
               e.code != 0 ? "delegate-apply" : "delegate-fallback",
               "\"ops\":" + std::to_string(e.arg));
          break;
        case EventType::CrossShardBegin:
          ++cross_depth;
          emit(tid, e, 'B', "cross-shard",
               "\"shards\":" + std::to_string(e.arg));
          break;
        case EventType::CrossShardEnd:
          if (cross_depth == 0) break;
          --cross_depth;
          emit(tid, e, 'E', "cross-shard", "");
          break;
        case EventType::RemoteRetire:
          emit(tid, e, 'i', "remote-retire-flush",
               "\"owner\":" + std::to_string(e.code) +
                   ",\"blocks\":" + std::to_string(e.arg));
          break;
        case EventType::RemoteDrain:
          emit(tid, e, 'i', "remote-drain",
               "\"blocks\":" + std::to_string(e.arg));
          break;
        // ShardRoute is deliberately not drawn: one instant per routed
        // operation would swamp the timeline; the aggregate summary's
        // per-shard rollup carries that information instead (slices still
        // expose their shard via the args tag above).
        default:
          break;
      }
    }
    // Close any slices left open at snapshot time so the JSON is balanced.
    std::uint64_t end_ts =
        events.empty() ? 0 : events.back().ts_ns;
    Event closer;
    closer.ts_ns = end_ts;
    closer.shard = kNoShardId;
    while (cross_depth-- > 0) emit(tid, closer, 'E', "cross-shard", "");
    while (lock_depth-- > 0) emit(tid, closer, 'E', "selection-lock", "");
    while (combine_depth-- > 0) emit(tid, closer, 'E', "combine", "");
    while (phase_depth-- > 0) emit(tid, closer, 'E', "phase", "");
  }
  os << "],\"otherData\":{\"events_pushed\":" << total_pushed()
     << ",\"events_dropped\":" << total_dropped() << "}}\n";
}

}  // namespace hcf::telemetry
