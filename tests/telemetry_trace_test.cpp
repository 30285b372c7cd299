// Tests for the telemetry exporters: aggregate summary counting, the
// Chrome trace_event emitter's slice balancing, the pinned
// correspondence between telemetry's local name tables and the core/ and
// sim_htm/ enums they mirror, and the reconciliation of a traced engine
// run with the engine, sim-HTM and reclamation counters.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "adapters/ht_ops.hpp"
#include "core/hcf_engine.hpp"
#include "core/types.hpp"
#include "mem/ebr.hpp"
#include "mem/pool.hpp"
#include "sim_htm/abort.hpp"
#include "sim_htm/stats.hpp"
#include "util/rng.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_export.hpp"

namespace {

using namespace hcf;
using telemetry::EventType;

std::size_t count_occurrences(const std::string& haystack,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

// telemetry/ sits below core/ and sim_htm/, so trace_export.hpp carries
// its own name tables; this pins them to the enums they must track.
TEST(TelemetryTrace, NameTablesMatchEnums) {
  using telemetry::detail::abort_name;
  using telemetry::detail::phase_name;
  EXPECT_STREQ(phase_name(static_cast<int>(core::Phase::Private)),
               "try-private");
  EXPECT_STREQ(phase_name(static_cast<int>(core::Phase::Visible)),
               "try-visible");
  EXPECT_STREQ(phase_name(static_cast<int>(core::Phase::Combining)),
               "try-combining");
  EXPECT_STREQ(phase_name(static_cast<int>(core::Phase::UnderLock)),
               "combine-under-lock");
  EXPECT_STREQ(abort_name(static_cast<int>(htm::AbortCode::Conflict)),
               "conflict");
  EXPECT_STREQ(abort_name(static_cast<int>(htm::AbortCode::Capacity)),
               "capacity");
  EXPECT_STREQ(abort_name(static_cast<int>(htm::AbortCode::Explicit)),
               "explicit");
  EXPECT_STREQ(abort_name(static_cast<int>(htm::AbortCode::LockBusy)),
               "lock-busy");
}

TEST(TelemetryTrace, SummaryCountsKnownSequence) {
  if (!telemetry::kCompiledIn) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  telemetry::set_enabled(false);
  telemetry::reset();
  telemetry::set_enabled(true);
  telemetry::phase_enter(0);
  telemetry::phase_exit(0, false);
  telemetry::phase_enter(2);
  telemetry::sel_lock_acquired();
  telemetry::combine_begin(3);
  telemetry::combine_end(3);
  telemetry::sel_lock_released();
  telemetry::phase_exit(2, true);
  telemetry::htm_commit(true);
  telemetry::htm_abort(static_cast<int>(htm::AbortCode::Conflict));
  telemetry::op_latency(2000);
  telemetry::set_enabled(false);

  const telemetry::TraceSummary s = telemetry::collect_summary();
  EXPECT_EQ(s.count(EventType::PhaseEnter), 2u);
  EXPECT_EQ(s.count(EventType::PhaseExit), 2u);
  EXPECT_EQ(s.count(EventType::HtmCommit), 1u);
  EXPECT_EQ(s.count(EventType::HtmAbort), 1u);
  EXPECT_EQ(s.count(EventType::CombineBegin), 1u);
  EXPECT_EQ(s.count(EventType::SelLockAcquire), 1u);
  EXPECT_EQ(s.count(EventType::OpLatency), 1u);
  EXPECT_EQ(s.aborts_by_code[static_cast<int>(htm::AbortCode::Conflict)], 1u);
  EXPECT_EQ(s.phase_completions[0], 0u);  // exit with completed=false
  EXPECT_EQ(s.phase_completions[2], 1u);
  EXPECT_EQ(s.ops_selected, 3u);
  EXPECT_EQ(s.latency_samples, 1u);
  EXPECT_EQ(s.threads, 1);
  EXPECT_EQ(s.events_dropped, 0u);

  std::ostringstream os;
  telemetry::write_summary(os, s);
  const std::string text = os.str();
  EXPECT_NE(text.find("[telemetry]"), std::string::npos);
  EXPECT_NE(text.find("try-combining=1"), std::string::npos);
  EXPECT_NE(text.find("conflict=1"), std::string::npos);
  EXPECT_NE(text.find("ops-selected=3"), std::string::npos);
  telemetry::reset();
}

// An owner whose op a helper applied exits the phase it waited in, so
// its B/E slices pair, but the completion counts for the helper's phase.
TEST(TelemetryTrace, HelpedExitCountsTheApplyingPhase) {
  if (!telemetry::kCompiledIn) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  telemetry::set_enabled(false);
  telemetry::reset();
  telemetry::set_enabled(true);
  telemetry::phase_enter(1);
  telemetry::phase_exit(1, true, 3);  // waited in Visible, applied UnderLock
  telemetry::phase_enter(1);
  telemetry::phase_exit(1, false, 3);  // not complete: the phase is ignored
  telemetry::set_enabled(false);

  const telemetry::TraceSummary s = telemetry::collect_summary();
  EXPECT_EQ(s.phase_completions[1], 0u);
  EXPECT_EQ(s.phase_completions[3], 1u);

  std::ostringstream os;
  telemetry::write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"B\",\"pid\":1"), 2u);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"E\",\"pid\":1"), 2u);
  EXPECT_EQ(count_occurrences(json, "\"name\":\"try-visible\""), 4u);
  EXPECT_EQ(count_occurrences(
                json, "\"completed\":1,\"applied_in\":\"combine-under-lock\""),
            1u);
  EXPECT_EQ(count_occurrences(json, "\"completed\":0"), 1u);
  telemetry::reset();
}

TEST(TelemetryTrace, ChromeTraceIsBalanced) {
  if (!telemetry::kCompiledIn) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  telemetry::set_enabled(false);
  telemetry::reset();
  telemetry::set_enabled(true);
  telemetry::phase_enter(0);
  telemetry::phase_exit(0, true);
  telemetry::sel_lock_acquired();
  telemetry::combine_begin(4);
  telemetry::combine_end(4);
  telemetry::sel_lock_released();
  telemetry::htm_commit(false);
  telemetry::htm_abort(static_cast<int>(htm::AbortCode::Capacity));
  telemetry::set_enabled(false);

  std::ostringstream os;
  telemetry::write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"try-private\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"combine\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"selection-lock\""), std::string::npos);
  EXPECT_NE(json.find("htm-abort:capacity"), std::string::npos);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"B\""),
            count_occurrences(json, "\"ph\":\"E\""));
  EXPECT_EQ(count_occurrences(json, "{"), count_occurrences(json, "}"));
  telemetry::reset();
}

// An exit whose begin fell off the ring must be dropped, and a begin with
// no exit at snapshot time must be closed, so B/E always balance.
TEST(TelemetryTrace, ChromeTraceHandlesOrphansAndDanglers) {
  if (!telemetry::kCompiledIn) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  telemetry::set_enabled(false);
  telemetry::reset();
  telemetry::set_enabled(true);
  telemetry::phase_exit(1, true);   // orphan exit: begin was never recorded
  telemetry::combine_end(9);        // orphan combine end
  telemetry::phase_enter(3);        // dangling begin, never exited
  telemetry::sel_lock_acquired();   // dangling lock slice
  telemetry::set_enabled(false);

  std::ostringstream os;
  telemetry::write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"B\""),
            count_occurrences(json, "\"ph\":\"E\""));
  EXPECT_EQ(count_occurrences(json, "{"), count_occurrences(json, "}"));
  telemetry::reset();
}

TEST(TelemetryTrace, TraceReconcilesWithCounters) {
  if (!telemetry::kCompiledIn) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  using Table = ds::HashTable<std::uint64_t, std::uint64_t>;
  constexpr std::uint64_t kKeys = 64;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 400;
  Table table(kKeys);
  for (std::uint64_t k = 0; k < kKeys; k += 2) table.insert(k, k);
  core::HcfEngine<Table> engine(table, adapters::ht_delegate_config(),
                                adapters::kHtNumArrays);
  adapters::ht_seed_commutes(engine);
  // Collect often, so owners also drain their inboxes inside the window.
  const std::size_t collect_threshold = mem::collect_threshold();
  mem::set_collect_threshold(8);

  telemetry::set_enabled(false);
  telemetry::reset();
  const auto eng0 = core::EngineStatsSnapshot::capture(engine.stats());
  const auto htm0 = htm::StatsSnapshot::capture();
  const auto mem0 = mem::ReclaimSnapshot::capture();
  telemetry::set_enabled(true);
  // A small contended mix: preemption inside the critical section makes
  // operations overlap, so combining, delegation and cross-thread frees
  // (a remove of a node another thread inserted) all occur.
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      util::Xoshiro256 rng(9100 + static_cast<std::uint64_t>(t));
      adapters::HtFindOp<std::uint64_t, std::uint64_t> find;
      adapters::HtInsertOp<std::uint64_t, std::uint64_t> insert;
      adapters::HtRemoveOp<std::uint64_t, std::uint64_t> remove;
      insert.set_work(60);
      insert.set_preempt(true);
      remove.set_work(60);
      remove.set_preempt(true);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::uint64_t key = rng.next_bounded(kKeys);
        switch (rng.next_bounded(3)) {
          case 0:
            find.set(key);
            engine.execute(find);
            break;
          case 1:
            insert.set(key, key);
            engine.execute(insert);
            break;
          default:
            remove.set(key);
            engine.execute(remove);
            break;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  telemetry::set_enabled(false);
  mem::set_collect_threshold(collect_threshold);

  const auto eng = core::EngineStatsSnapshot::capture(engine.stats())
                       .delta_since(eng0);
  const auto tx = htm::StatsSnapshot::capture().delta_since(htm0);
  const auto mem = mem::ReclaimSnapshot::capture().delta_since(mem0);
  const telemetry::TraceSummary s = telemetry::collect_summary();
  // Rings keep a suffix of the history; the counts below are exact only
  // when no event was dropped.
  ASSERT_EQ(s.events_dropped, 0u);
  ASSERT_EQ(eng.total(), std::uint64_t{kThreads} * kOpsPerThread);

  // An owner emits one completed PhaseExit per op, naming the phase that
  // applied it — a combiner's or delegate's for a helped op — which is
  // the phase the counters credit, so the two agree phase by phase.
  for (int p = 0; p < core::kNumPhases; ++p) {
    EXPECT_EQ(s.phase_completions[p],
              eng.phase_total(static_cast<core::Phase>(p)))
        << "phase " << p;
  }

  for (int c = 0; c < htm::kNumAbortCodes; ++c) {
    EXPECT_EQ(s.aborts_by_code[c], tx.aborts[c]) << "abort code " << c;
  }
  EXPECT_EQ(s.ops_selected, eng.ops_selected);
  EXPECT_EQ(s.delegated_groups, eng.delegated_groups);
  EXPECT_EQ(s.ops_delegated, eng.delegated_ops);
  EXPECT_EQ(s.delegate_applies, eng.delegate_applies);
  EXPECT_EQ(s.delegate_fallbacks, eng.delegate_fallbacks);
  EXPECT_EQ(s.count(EventType::RemoteRetire), mem.remote_flushes);
  EXPECT_EQ(s.count(EventType::RemoteDrain), mem.remote_drains);
  EXPECT_EQ(s.remote_drain_blocks, mem.drained_blocks);

  RecordProperty("ops_selected", static_cast<int>(eng.ops_selected));
  RecordProperty("delegated_groups", static_cast<int>(eng.delegated_groups));
  RecordProperty("remote_flushes", static_cast<int>(mem.remote_flushes));
  RecordProperty("remote_drains", static_cast<int>(mem.remote_drains));
  telemetry::reset();
  mem::EbrDomain::instance().drain();
}

TEST(TelemetryTrace, EmptyTraceIsValid) {
  if (telemetry::kCompiledIn) {
    telemetry::set_enabled(false);
    telemetry::reset();
  }
  std::ostringstream os;
  telemetry::write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_EQ(count_occurrences(json, "{"), count_occurrences(json, "}"));

  std::ostringstream summary;
  telemetry::write_summary(summary);
  EXPECT_NE(summary.str().find("events=0"), std::string::npos);
}

}  // namespace
