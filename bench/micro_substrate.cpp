// Substrate microbenchmarks (google-benchmark): raw costs of the simulated
// HTM primitives, locks, publication array, and workload generators. These
// quantify the simulator's constant factors — useful context when reading
// the figure benchmarks' absolute numbers.
//
// Custom main (instead of benchmark_main) so this binary speaks the same
// machine-readable protocol as the figure benches:
//   --json=FILE   write an hcf-bench-v1 report (one row per benchmark run)
//   --quick       short measurement window (maps to --benchmark_min_time)
// All --benchmark_* flags pass through to google-benchmark unchanged.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "harness/report.hpp"

#include "core/publication_array.hpp"
#include "mem/ebr.hpp"
#include "sim_htm/htm.hpp"
#include "sim_htm/txcell.hpp"
#include "sync/spinlock.hpp"
#include "sync/tx_lock.hpp"
#include "util/cacheline.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"

namespace {

using namespace hcf;

void BM_TxnEmptyCommit(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(htm::attempt([] {}));
  }
}
BENCHMARK(BM_TxnEmptyCommit);

void BM_TxnReadOnly(benchmark::State& state) {
  static std::uint64_t data[64] = {};
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    htm::attempt([&] {
      std::uint64_t sum = 0;
      for (std::size_t i = 0; i < n; ++i) sum += htm::read(&data[i]);
      benchmark::DoNotOptimize(sum);
    });
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TxnReadOnly)->Arg(1)->Arg(8)->Arg(32);

void BM_TxnWrite(benchmark::State& state) {
  static std::uint64_t data[256] = {};
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    htm::attempt([&] {
      for (std::size_t i = 0; i < n; ++i) htm::write(&data[i], i);
    });
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TxnWrite)->Arg(1)->Arg(8)->Arg(32)->Arg(128);

// The write-set lookup workload: buffer n writes, then read each one back
// through the write buffer. With the linear-scan write set this was
// quadratic in n; the signature + index make it linear.
void BM_TxnReadAfterWrite(benchmark::State& state) {
  static std::uint64_t data[256] = {};
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    htm::attempt([&] {
      for (std::size_t i = 0; i < n; ++i) htm::write(&data[i], i);
      std::uint64_t sum = 0;
      for (std::size_t i = 0; i < n; ++i) sum += htm::read(&data[i]);
      benchmark::DoNotOptimize(sum);
    });
  }
  state.SetItemsProcessed(state.iterations() * 2 * n);
}
BENCHMARK(BM_TxnReadAfterWrite)->Arg(8)->Arg(32)->Arg(128);

// Commit-path contention: every thread commits small disjoint write
// transactions (private padded slots, so no orec conflicts). What remains
// is the shared commit machinery — version clock and write-back counter.
void BM_TxnContendedCommit(benchmark::State& state) {
  static util::CacheAligned<std::uint64_t> slots[16];
  auto& slot = slots[static_cast<std::size_t>(state.thread_index()) & 15]
                   .value;
  for (auto _ : state) {
    htm::attempt([&] { htm::write(&slot, htm::read(&slot) + 1); });
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TxnContendedCommit)->Threads(2)->Threads(4)->Threads(8);

// Read-mostly transactions next to an unrelated writer: thread 0 commits
// write transactions on a private word, the rest run 32-word read-only
// transactions over untouched data. Reads poll no global clock, so the
// writer costs a reader at most one incremental extension at its
// read-only commit.
void BM_TxnReadMostly(benchmark::State& state) {
  static std::uint64_t data[32] = {};
  static util::CacheAligned<std::uint64_t> writer_word;
  if (state.thread_index() == 0) {
    for (auto _ : state) {
      htm::attempt([&] {
        htm::write(&writer_word.value, htm::read(&writer_word.value) + 1);
      });
    }
  } else {
    for (auto _ : state) {
      htm::attempt([&] {
        std::uint64_t sum = 0;
        for (auto& d : data) sum += htm::read(&d);
        benchmark::DoNotOptimize(sum);
      });
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TxnReadMostly)->Threads(4);

void BM_UninstrumentedRead(benchmark::State& state) {
  static std::uint64_t data[64] = {};
  for (auto _ : state) {
    std::uint64_t sum = 0;
    for (auto& d : data) sum += htm::read(&d);  // no txn: plain path
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_UninstrumentedRead);

void BM_TxCellStrongStore(benchmark::State& state) {
  static htm::TxCell<std::uint64_t> cell{0};
  std::uint64_t v = 0;
  for (auto _ : state) cell.store(++v);
}
BENCHMARK(BM_TxCellStrongStore);

void BM_TxLockUncontended(benchmark::State& state) {
  static sync::TxLock lock;
  for (auto _ : state) {
    lock.lock();
    lock.unlock();
  }
}
BENCHMARK(BM_TxLockUncontended);

void BM_FairTxLockUncontended(benchmark::State& state) {
  static sync::FairTxLock lock;
  for (auto _ : state) {
    lock.lock();
    lock.unlock();
  }
}
BENCHMARK(BM_FairTxLockUncontended);

void BM_SpinLockUncontended(benchmark::State& state) {
  static sync::SpinLock lock;
  for (auto _ : state) {
    lock.lock();
    lock.unlock();
  }
}
BENCHMARK(BM_SpinLockUncontended);

void BM_EbrGuard(benchmark::State& state) {
  for (auto _ : state) {
    mem::Guard guard;
    benchmark::DoNotOptimize(&guard);
  }
}
BENCHMARK(BM_EbrGuard);

struct NullDs {};
struct NullOp : core::Operation<NullDs> {
  void run_seq(NullDs&) override {}
};

void BM_PubArrayAddRemove(benchmark::State& state) {
  static core::PublicationArray<NullDs> pa;
  NullOp op;
  for (auto _ : state) {
    pa.add(&op);
    pa.remove_strong();
  }
}
BENCHMARK(BM_PubArrayAddRemove);

void BM_ZipfDraw(benchmark::State& state) {
  util::Xoshiro256 rng(1);
  util::ZipfianGenerator zipf(16 * 1024, 0.9);
  for (auto _ : state) benchmark::DoNotOptimize(zipf.next(rng));
}
BENCHMARK(BM_ZipfDraw);

void BM_UniformDraw(benchmark::State& state) {
  util::Xoshiro256 rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next_bounded(16 * 1024));
}
BENCHMARK(BM_UniformDraw);

void BM_TxnConflictAbortCost(benchmark::State& state) {
  // Cost of a doomed transaction: subscribe to a held lock, abort.
  static sync::TxLock lock;
  lock.lock();
  for (auto _ : state) {
    benchmark::DoNotOptimize(htm::attempt([&] { lock.subscribe(); }));
  }
  lock.unlock();
}
BENCHMARK(BM_TxnConflictAbortCost);

// Console output plus a side-channel capture of every run, so we can emit
// the hcf-bench-v1 JSON rows after google-benchmark finishes.
class CollectingReporter final : public benchmark::ConsoleReporter {
 public:
  struct Sample {
    std::string name;
    int threads;
    std::uint64_t iterations;
    double real_seconds;
  };

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      samples_.push_back({run.benchmark_name(),
                          static_cast<int>(run.threads),
                          static_cast<std::uint64_t>(run.iterations),
                          run.real_accumulated_time});
    }
    ConsoleReporter::ReportRuns(reports);
  }

  const std::vector<Sample>& samples() const { return samples_; }

 private:
  std::vector<Sample> samples_;
};

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::vector<char*> bench_args;
  bench_args.push_back(argv[0]);
  // Injected first so an explicit --benchmark_min_time later wins.
  static char quick_flag[] = "--benchmark_min_time=0.05";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
      if (json_path.empty()) {
        std::fprintf(stderr, "error: --json requires a file path\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      bench_args.insert(bench_args.begin() + 1, quick_flag);
    } else {
      bench_args.push_back(argv[i]);
    }
  }

  int bench_argc = static_cast<int>(bench_args.size());
  benchmark::Initialize(&bench_argc, bench_args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_args.data())) {
    return 2;
  }

  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (!json_path.empty()) {
    hcf::harness::JsonReport report("micro_substrate");
    for (const auto& s : reporter.samples()) {
      hcf::harness::RunResult result;
      result.total_ops = s.iterations;
      result.duration_s = s.real_seconds;
      report.add_row(s.name, "substrate",
                     static_cast<std::size_t>(s.threads), 0, result);
    }
    if (!report.write_file(json_path)) {
      std::fprintf(stderr, "error: failed to write %s\n", json_path.c_str());
      return 1;
    }
  }
  return 0;
}
