// Unit tests for the telemetry ring buffer and the recording API: event
// packing, wrap-around/drop accounting, snapshot consistency under a
// concurrent writer, and the disabled-is-a-no-op contract.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "telemetry/ring_buffer.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace hcf;
using telemetry::Event;
using telemetry::EventType;

Event make_event(std::uint64_t ts, EventType type, std::uint8_t code,
                 std::uint32_t arg) {
  Event e;
  e.ts_ns = ts;
  e.type = type;
  e.code = code;
  e.arg = arg;
  return e;
}

TEST(TelemetryEvent, PackingRoundTrips) {
  const Event e = make_event(0x0123456789abcdefULL, EventType::HtmAbort, 4,
                             0xdeadbeef);
  const Event r = Event::unpack(e.word0(), e.word1());
  EXPECT_EQ(r.ts_ns, e.ts_ns);
  EXPECT_EQ(r.type, e.type);
  EXPECT_EQ(r.code, e.code);
  EXPECT_EQ(r.arg, e.arg);
}

TEST(TelemetryRing, EmptySnapshot) {
  telemetry::EventRing<4> ring;
  EXPECT_EQ(ring.pushed(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
  std::vector<Event> out;
  ring.snapshot(out);
  EXPECT_TRUE(out.empty());
}

TEST(TelemetryRing, RetainsInOrderBelowCapacity) {
  telemetry::EventRing<4> ring;  // capacity 16
  ring.assume_writer();  // single-threaded test: this thread is the writer
  for (std::uint32_t i = 0; i < 10; ++i) {
    ring.push(make_event(i, EventType::PhaseEnter, 0, i));
  }
  std::vector<Event> out;
  ring.snapshot(out);
  ASSERT_EQ(out.size(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(out[i].arg, i);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(TelemetryRing, WrapAroundKeepsNewestAndCountsDrops) {
  telemetry::EventRing<4> ring;  // capacity 16
  ring.assume_writer();  // single-threaded test: this thread is the writer
  constexpr std::uint32_t kTotal = 40;
  for (std::uint32_t i = 0; i < kTotal; ++i) {
    ring.push(make_event(i, EventType::PhaseEnter, 0, i));
  }
  EXPECT_EQ(ring.pushed(), kTotal);
  EXPECT_EQ(ring.dropped(), kTotal - 16);
  std::vector<Event> out;
  ring.snapshot(out);
  ASSERT_EQ(out.size(), 16u);
  // Oldest-first suffix of the history: args 24..39.
  for (std::uint32_t i = 0; i < 16; ++i) {
    EXPECT_EQ(out[i].arg, kTotal - 16 + i);
    EXPECT_EQ(out[i].ts_ns, kTotal - 16 + i);
  }
}

TEST(TelemetryRing, ClearResets) {
  telemetry::EventRing<4> ring;
  ring.assume_writer();  // single-threaded test: this thread is the writer
  for (std::uint32_t i = 0; i < 20; ++i) {
    ring.push(make_event(i, EventType::PhaseEnter, 0, i));
  }
  ring.clear();
  EXPECT_EQ(ring.pushed(), 0u);
  std::vector<Event> out;
  ring.snapshot(out);
  EXPECT_TRUE(out.empty());
  ring.push(make_event(99, EventType::PhaseExit, 1, 99));
  out.clear();
  ring.snapshot(out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].arg, 99u);
}

// One writer hammers the ring while a reader snapshots concurrently. Every
// snapshot must be a clean (gap-tolerant, torn-slot-free) ascending slice
// of the history: args strictly increasing, types valid.
TEST(TelemetryRing, SnapshotIsConsistentUnderConcurrentWriter) {
  telemetry::EventRing<6> ring;  // capacity 64: wraps constantly
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    ring.assume_writer();  // only this thread ever pushes
    std::uint32_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      ring.push(make_event(i, EventType::OpLatency, 7, i));
      ++i;
    }
  });
  std::vector<Event> out;
  for (int round = 0; round < 2000; ++round) {
    out.clear();
    ring.snapshot(out);
    std::uint64_t prev_arg = 0;
    bool have_prev = false;
    for (const Event& e : out) {
      ASSERT_EQ(e.type, EventType::OpLatency);
      ASSERT_EQ(e.code, 7);
      ASSERT_EQ(e.ts_ns, e.arg);  // torn slots would break this pairing
      if (have_prev) {
        ASSERT_GT(e.arg, prev_arg);
      }
      prev_arg = e.arg;
      have_prev = true;
    }
  }
  stop.store(true);
  writer.join();
}

TEST(TelemetryGate, DefaultsOff) {
  telemetry::RuntimeGate gate;
  EXPECT_FALSE(gate.enabled());
  gate.set(true);
  EXPECT_TRUE(gate.enabled());
  gate.set(false);
  EXPECT_FALSE(gate.enabled());
}

// ---- Recording API (the process-wide Domain) ---------------------------

TEST(TelemetryApi, DisabledRecordingIsANoOp) {
  if (!telemetry::kCompiledIn) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  telemetry::set_enabled(false);
  telemetry::reset();
  telemetry::phase_enter(0);
  telemetry::htm_commit(false);
  telemetry::op_latency(123);
  EXPECT_EQ(telemetry::total_pushed(), 0u);
  EXPECT_EQ(telemetry::latency_samples(), 0u);
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(telemetry::should_sample_op());
}

TEST(TelemetryApi, EnabledRecordingIsVisibleInSnapshots) {
  if (!telemetry::kCompiledIn) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  telemetry::set_enabled(false);
  telemetry::reset();
  telemetry::set_enabled(true);
  telemetry::phase_enter(2);
  telemetry::combine_begin(5);
  telemetry::combine_end(5);
  telemetry::phase_exit(2, true);
  telemetry::op_latency(1000);
  telemetry::set_enabled(false);

  EXPECT_EQ(telemetry::total_pushed(), 5u);  // incl. the OpLatency event
  EXPECT_EQ(telemetry::latency_samples(), 1u);
  EXPECT_GE(telemetry::latency_percentile(0.5), 1000u);

  std::vector<std::pair<std::size_t, std::vector<Event>>> per_thread;
  telemetry::snapshot_all(per_thread);
  ASSERT_EQ(per_thread.size(), 1u);
  const auto& events = per_thread[0].second;
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[0].type, EventType::PhaseEnter);
  EXPECT_EQ(events[0].code, 2);
  EXPECT_EQ(events[1].type, EventType::CombineBegin);
  EXPECT_EQ(events[1].arg, 5u);
  EXPECT_EQ(events[3].type, EventType::PhaseExit);
  EXPECT_EQ(events[3].arg, 3u);  // completed, applied in phase 2
  EXPECT_EQ(events[4].type, EventType::OpLatency);
  telemetry::reset();
}

TEST(TelemetryApi, SamplingHitsOncePerPeriod) {
  if (!telemetry::kCompiledIn) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  telemetry::set_enabled(true);
  int hits = 0;
  const int kWindows = 100;
  for (std::uint32_t i = 0;
       i < kWindows * telemetry::kLatencySamplePeriod; ++i) {
    if (telemetry::should_sample_op()) ++hits;
  }
  telemetry::set_enabled(false);
  // The thread-local phase may start mid-window, so allow one of slack.
  EXPECT_GE(hits, kWindows - 1);
  EXPECT_LE(hits, kWindows + 1);
}

}  // namespace
