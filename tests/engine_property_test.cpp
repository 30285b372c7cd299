// Parameterized property sweeps: operation accounting must reconcile for
// every (engine, thread count, operation mix, key range) combination. This
// is the broad-coverage net over the per-engine suites.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "engine_test_util.hpp"
#include "mem/ebr.hpp"
#include "util/rng.hpp"

namespace hcf::test {
namespace {

using Table = ds::HashTable<std::uint64_t, std::uint64_t>;

struct SweepParam {
  const char* engine;
  int threads;
  int find_pct;
  std::uint64_t key_range;
};

std::ostream& operator<<(std::ostream& os, const SweepParam& p) {
  return os << p.engine << "_t" << p.threads << "_f" << p.find_pct << "_k"
            << p.key_range;
}

// Type-erased engine handle.
struct AnyEngine {
  std::function<void(core::Operation<Table>&)> execute;
  std::function<std::uint64_t()> total_completions;
};

template <typename E>
AnyEngine wrap(std::shared_ptr<E> e) {
  return {
      [e](core::Operation<Table>& op) { e->execute(op); },
      [e] { return e->stats().sum().total(); },
  };
}

AnyEngine make_engine(const std::string& name, Table& table) {
  const HcfConfig cfg{adapters::ht_paper_config(), adapters::kHtNumArrays};
  if (name == "Lock") return wrap(std::make_shared<core::LockEngine<Table>>(table));
  if (name == "TLE") return wrap(std::make_shared<core::TleEngine<Table>>(table));
  if (name == "SCM") return wrap(std::make_shared<core::ScmEngine<Table>>(table));
  if (name == "FC") return wrap(std::make_shared<core::FcEngine<Table>>(table));
  if (name == "TLE+FC") return wrap(std::make_shared<core::TleFcEngine<Table>>(table));
  if (name == "HCF") {
    return wrap(std::make_shared<core::HcfEngine<Table>>(table, cfg.classes,
                                                         cfg.num_arrays));
  }
  if (name == "HCF-1C") {
    return wrap(std::make_shared<core::HcfSingleCombinerEngine<Table>>(
        table, cfg.classes, cfg.num_arrays));
  }
  ADD_FAILURE() << "unknown engine " << name;
  return {};
}

class EngineSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(EngineSweepTest, AccountingReconciles) {
  const SweepParam p = GetParam();
  Table table(p.key_range);
  std::vector<bool> initially_present(p.key_range, false);
  for (std::uint64_t k = 0; k < p.key_range; k += 2) {
    table.insert(k, k * 2 + 1);
    initially_present[k] = true;
  }
  AnyEngine engine = make_engine(p.engine, table);

  const int ops_per_thread = 24000 / p.threads;
  std::vector<std::vector<std::int64_t>> net(p.threads);
  std::vector<std::thread> threads;
  for (int t = 0; t < p.threads; ++t) {
    net[t].assign(p.key_range, 0);
    threads.emplace_back([&, t] {
      util::Xoshiro256 rng(40000 + t);
      adapters::HtFindOp<std::uint64_t, std::uint64_t> find;
      adapters::HtInsertOp<std::uint64_t, std::uint64_t> insert;
      adapters::HtRemoveOp<std::uint64_t, std::uint64_t> remove;
      for (int i = 0; i < ops_per_thread; ++i) {
        const std::uint64_t key = rng.next_bounded(p.key_range);
        const int roll = static_cast<int>(rng.next_bounded(100));
        if (roll < p.find_pct) {
          find.set(key);
          engine.execute(find);
          if (find.result().has_value()) {
            ASSERT_EQ(*find.result(), key * 2 + 1);
          }
        } else if (roll < p.find_pct + (100 - p.find_pct) / 2) {
          insert.set(key, key * 2 + 1);
          engine.execute(insert);
          if (insert.result()) ++net[t][key];
        } else {
          remove.set(key);
          engine.execute(remove);
          if (remove.result()) --net[t][key];
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  for (std::uint64_t k = 0; k < p.key_range; ++k) {
    std::int64_t expected = initially_present[k] ? 1 : 0;
    for (int t = 0; t < p.threads; ++t) expected += net[t][k];
    ASSERT_TRUE(expected == 0 || expected == 1) << "key " << k;
    ASSERT_EQ(table.contains(k), expected == 1) << "key " << k;
  }
  EXPECT_TRUE(table.check_invariants());
  EXPECT_EQ(engine.total_completions(),
            static_cast<std::uint64_t>(p.threads) * ops_per_thread);
  mem::EbrDomain::instance().drain();
}

std::vector<SweepParam> sweep_params() {
  std::vector<SweepParam> params;
  for (const char* engine : {"Lock", "TLE", "SCM", "FC", "TLE+FC", "HCF",
                             "HCF-1C"}) {
    for (int threads : {1, 2, 4}) {
      for (int find_pct : {0, 40, 90}) {
        // Tiny range for contention, larger for parallelism.
        for (std::uint64_t range : {std::uint64_t{16}, std::uint64_t{1024}}) {
          params.push_back({engine, threads, find_pct, range});
        }
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(AllEnginesMixesThreads, EngineSweepTest,
                         ::testing::ValuesIn(sweep_params()),
                         [](const auto& param_info) {
                           std::ostringstream os;
                           os << param_info.param;
                           std::string s = os.str();
                           for (char& c : s) {
                             if (c == '+' || c == '-') c = '_';
                           }
                           return s;
                         });

}  // namespace
}  // namespace hcf::test
