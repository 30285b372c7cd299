// The §2.4 degeneration theorem as an executable check: the unified phase
// machine (core/phase_exec.hpp) configured with tle_like / fc_like policies
// must behave observably like the dedicated TLE / FC engines — same Phase
// returned for every operation of a scripted single-threaded sequence, same
// per-class completion histogram, same final structure contents. This pins
// the policy table in DESIGN.md §10 to the engines that implement it.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "adapters/stack_ops.hpp"
#include "core/engine.hpp"
#include "mem/ebr.hpp"

namespace hcf::test {
namespace {

using St = ds::Stack<std::uint64_t>;

// Deterministic single-threaded script: push-heavy prefix, drain-heavy
// suffix, pops past empty at the end. Returns the Phase per operation.
template <typename Engine>
std::vector<core::Phase> run_script(Engine& engine) {
  adapters::StackPushOp<std::uint64_t> push;
  adapters::StackPopOp<std::uint64_t> pop;
  std::vector<core::Phase> phases;
  for (std::uint64_t i = 0; i < 200; ++i) {
    if (i % 3 != 2) {
      push.set(i);
      phases.push_back(engine.execute(push));
    } else {
      phases.push_back(engine.execute(pop));
    }
  }
  for (int i = 0; i < 160; ++i) {
    phases.push_back(engine.execute(pop));
  }
  return phases;
}

std::vector<std::uint64_t> contents(St& s) {
  std::vector<std::uint64_t> out;
  s.for_each([&](std::uint64_t v) { out.push_back(v); });
  return out;
}

void expect_same_histogram(core::EngineStats& a, core::EngineStats& b) {
  const auto sa = core::EngineStatsSnapshot::capture(a);
  const auto sb = core::EngineStatsSnapshot::capture(b);
  for (int c = 0; c < core::kMaxOpClasses; ++c) {
    for (int p = 0; p < core::kNumPhases; ++p) {
      EXPECT_EQ(sa.completions[c][p], sb.completions[c][p])
          << "class " << c << " phase " << p;
    }
  }
}

TEST(PhaseEquivalence, TleLikeUnifiedMatchesDedicatedTle) {
  St s_unified, s_dedicated;
  core::HcfEngine<St> unified(s_unified, core::PhasePolicy::tle_like());
  core::TleEngine<St> dedicated(s_dedicated);

  const auto unified_phases = run_script(unified);
  const auto dedicated_phases = run_script(dedicated);

  EXPECT_EQ(unified_phases, dedicated_phases);
  expect_same_histogram(unified.stats(), dedicated.stats());
  EXPECT_EQ(contents(s_unified), contents(s_dedicated));
  // A TLE-like class never announces, so the unified core must not have
  // opened a combining session on its behalf.
  EXPECT_EQ(unified.stats().sum().combiner_sessions, 0u);
  mem::EbrDomain::instance().drain();
}

TEST(PhaseEquivalence, FcLikeUnifiedMatchesDedicatedFc) {
  St s_unified, s_dedicated;
  core::HcfEngine<St> unified(s_unified, core::PhasePolicy::fc_like());
  core::FcEngine<St> dedicated(s_dedicated);

  const auto unified_phases = run_script(unified);
  const auto dedicated_phases = run_script(dedicated);

  EXPECT_EQ(unified_phases, dedicated_phases);
  // fc_like starts zero transactions: every op goes under the lock.
  for (core::Phase p : unified_phases) {
    EXPECT_EQ(p, core::Phase::UnderLock);
  }
  expect_same_histogram(unified.stats(), dedicated.stats());
  EXPECT_EQ(contents(s_unified), contents(s_dedicated));
  mem::EbrDomain::instance().drain();
}

TEST(PhaseEquivalence, PaperDefaultCompletesPrivatelyWhenUncontended) {
  // Single-threaded, the paper_default policy should never need to
  // announce: everything commits in TryPrivate, in both combiner modes.
  St s_multi, s_single;
  core::HcfEngine<St> multi(s_multi);
  core::HcfSingleCombinerEngine<St> single(s_single);

  const auto multi_phases = run_script(multi);
  const auto single_phases = run_script(single);

  EXPECT_EQ(multi_phases, single_phases);
  for (core::Phase p : multi_phases) {
    EXPECT_EQ(p, core::Phase::Private);
  }
  expect_same_histogram(multi.stats(), single.stats());
  EXPECT_EQ(contents(s_multi), contents(s_single));
  mem::EbrDomain::instance().drain();
}

}  // namespace
}  // namespace hcf::test
