// Telemetry event vocabulary (docs/observability.md).
//
// One Event is 16 bytes and packs into two 64-bit words so the ring buffer
// (ring_buffer.hpp) can publish it with two relaxed atomic stores — the
// whole recording path stays lock-free and sanitizer-clean.
#pragma once

#include <cstdint>

namespace hcf::telemetry {

enum class EventType : std::uint8_t {
  None = 0,
  PhaseEnter = 1,      // code = core::Phase the thread is entering
  PhaseExit = 2,       // code = core::Phase exited; arg = 0 if the op is
                       // not complete, else 1 + the core::Phase that
                       // applied it (a helper's, for a helped owner)
  HtmCommit = 3,       // code = 1 iff read-only
  HtmAbort = 4,        // code = htm::AbortCode of the failed attempt
  CombineBegin = 5,    // arg = number of ops selected for this session
  CombineEnd = 6,      // arg = ops applied by the session
  SelLockAcquire = 7,  // publication-array selection lock taken
  SelLockRelease = 8,
  OpLatency = 9,       // arg = sampled whole-operation latency (ns)
  ShardRoute = 10,     // code = shard index an operation was routed to
  CrossShardBegin = 11,  // arg = shard count of an all-shard sweep
  CrossShardEnd = 12,    // arg = shard count of an all-shard sweep
  Park = 13,             // thread entered a kernel wait (futex/parking lot)
  Unpark = 14,  // thread left a kernel wait; code = 1 iff spurious,
                // arg = time parked (ns, saturated at u32)
  Delegate = 15,       // code = groups published; arg = ops delegated
  DelegateApply = 16,  // code = 1 iff applied by the delegate (0 = the
                       // combiner's serial fallback); arg = ops in group
  RemoteRetire = 17,   // code = destination pool slot; arg = blocks flushed
                       // to that owner's MPSC inbox in one CAS
  RemoteDrain = 18,    // arg = blocks an owner moved out of its inbox
                       // (free lists + epoch-stamped limbo batch)
};

inline constexpr int kNumEventTypes = 19;

// Event::shard when the recording thread was not executing inside any
// shard of a sharded meta-engine.
inline constexpr std::uint8_t kNoShardId = 0xff;

inline const char* to_string(EventType t) noexcept {
  switch (t) {
    case EventType::None: return "none";
    case EventType::PhaseEnter: return "phase-enter";
    case EventType::PhaseExit: return "phase-exit";
    case EventType::HtmCommit: return "htm-commit";
    case EventType::HtmAbort: return "htm-abort";
    case EventType::CombineBegin: return "combine-begin";
    case EventType::CombineEnd: return "combine-end";
    case EventType::SelLockAcquire: return "sel-lock-acquire";
    case EventType::SelLockRelease: return "sel-lock-release";
    case EventType::OpLatency: return "op-latency";
    case EventType::ShardRoute: return "shard-route";
    case EventType::CrossShardBegin: return "cross-shard-begin";
    case EventType::CrossShardEnd: return "cross-shard-end";
    case EventType::Park: return "park";
    case EventType::Unpark: return "unpark";
    case EventType::Delegate: return "delegate";
    case EventType::DelegateApply: return "delegate-apply";
    case EventType::RemoteRetire: return "remote-retire";
    case EventType::RemoteDrain: return "remote-drain";
  }
  return "?";
}

struct Event {
  std::uint64_t ts_ns = 0;  // nanoseconds since the telemetry epoch
  EventType type = EventType::None;
  std::uint8_t code = 0;  // phase id / abort code, by type
  std::uint8_t shard = kNoShardId;  // shard the recording thread ran in
  std::uint32_t arg = 0;  // batch size / latency, by type

  // Two-word transport for the ring buffer's seqlock slots. The shard tag
  // rides in word1 bits 16-23 (previously unused padding).
  std::uint64_t word0() const noexcept { return ts_ns; }
  std::uint64_t word1() const noexcept {
    return static_cast<std::uint64_t>(type) |
           (static_cast<std::uint64_t>(code) << 8) |
           (static_cast<std::uint64_t>(shard) << 16) |
           (static_cast<std::uint64_t>(arg) << 32);
  }
  static Event unpack(std::uint64_t w0, std::uint64_t w1) noexcept {
    Event e;
    e.ts_ns = w0;
    e.type = static_cast<EventType>(w1 & 0xff);
    e.code = static_cast<std::uint8_t>((w1 >> 8) & 0xff);
    e.shard = static_cast<std::uint8_t>((w1 >> 16) & 0xff);
    e.arg = static_cast<std::uint32_t>(w1 >> 32);
    return e;
  }
};

}  // namespace hcf::telemetry
