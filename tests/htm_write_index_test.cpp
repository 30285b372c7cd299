// Write-set index (Bloom signature + open-addressed index) and epoch
// coverage: collision-heavy address patterns, capacity boundaries, index
// state isolation across transactions, and snapshot-extension opacity
// under concurrency (run under TSan in the sanitizer CI jobs).
#include "sim_htm/htm.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <unordered_map>
#include <vector>

#include "sim_htm/config.hpp"
#include "sim_htm/stats.hpp"

namespace hcf::htm {
namespace {

TEST(HtmWriteIndex, LargeWriteSetReadAfterWriteAndUpsert) {
  ScopedCapacity caps(8192, 4096);
  std::vector<std::uint64_t> arr(1000, 0);
  const bool ok = attempt([&] {
    for (std::size_t i = 0; i < arr.size(); ++i) {
      write(&arr[i], static_cast<std::uint64_t>(i + 1));
    }
    // Read-after-write resolves through the index, not memory.
    for (std::size_t i = 0; i < arr.size(); ++i) {
      EXPECT_EQ(read(&arr[i]), i + 1);
      EXPECT_EQ(arr[i], 0u);  // lazy versioning: memory untouched
    }
    // Upserts must hit the existing entries, not append duplicates.
    for (std::size_t i = 0; i < arr.size(); ++i) {
      write(&arr[i], static_cast<std::uint64_t>(i + 2));
    }
    for (std::size_t i = 0; i < arr.size(); ++i) {
      EXPECT_EQ(read(&arr[i]), i + 2);
    }
  });
  EXPECT_TRUE(ok);
  for (std::size_t i = 0; i < arr.size(); ++i) {
    EXPECT_EQ(arr[i], i + 2);
  }
}

TEST(HtmWriteIndex, CollisionHeavyProbing) {
  // Adversarial probe pattern: pick only addresses whose initial index
  // slot collides (same top hash bits), forcing maximal linear-probe
  // chains and wraparound in the open-addressed table.
  static std::uint64_t pool[4096];
  std::vector<std::uint64_t*> picks;
  for (auto& w : pool) {
    const auto h =
        detail::addr_hash(reinterpret_cast<std::uintptr_t>(&w));
    if ((h >> 58) == 7) picks.push_back(&w);
  }
  ASSERT_GT(picks.size(), 8u) << "hash spread defeated the fixture";
  const bool ok = attempt([&] {
    for (std::size_t k = 0; k < picks.size(); ++k) {
      write(picks[k], static_cast<std::uint64_t>(k + 1));
    }
    for (std::size_t k = 0; k < picks.size(); ++k) {
      EXPECT_EQ(read(picks[k]), k + 1);
    }
  });
  EXPECT_TRUE(ok);
  for (std::size_t k = 0; k < picks.size(); ++k) {
    EXPECT_EQ(*picks[k], k + 1);
  }
}

TEST(HtmWriteIndex, TwoAddressesSharingAnOrecCommitTogether) {
  // Distinct addresses can hash to one orec; the write set must keep both
  // entries while the commit path locks the shared orec exactly once.
  // Fibonacci hashing maps consecutive addresses to a low-discrepancy
  // sequence, so the pool must exceed the orec table for the pigeonhole
  // principle to guarantee a collision.
  static std::vector<std::uint64_t> pool(kOrecCount + 1);
  std::unordered_map<const void*, std::size_t> seen;
  std::uint64_t* a = nullptr;
  std::uint64_t* b = nullptr;
  for (std::size_t i = 0; i < pool.size() && a == nullptr; ++i) {
    const auto [it, fresh] = seen.emplace(&detail::orec_for(&pool[i]), i);
    if (!fresh) {
      a = &pool[it->second];
      b = &pool[i];
    }
  }
  ASSERT_NE(a, nullptr) << "no orec collision found";
  const bool ok = attempt([&] {
    write(a, std::uint64_t{11});
    write(b, std::uint64_t{22});
    EXPECT_EQ(read(a), 11u);
    EXPECT_EQ(read(b), 22u);
  });
  EXPECT_TRUE(ok);
  EXPECT_EQ(*a, 11u);
  EXPECT_EQ(*b, 22u);
}

TEST(HtmWriteIndex, CapacityAbortAtExactlyWriteCapacity) {
  ScopedCapacity caps(8192, 32);
  static std::uint64_t arr[40] = {};
  // Exactly write_capacity distinct addresses commit.
  EXPECT_TRUE(attempt([&] {
    for (std::size_t i = 0; i < 32; ++i) {
      write(&arr[i], static_cast<std::uint64_t>(i));
    }
  }));
  // One more distinct address is a capacity abort.
  const bool ok = attempt([&] {
    for (std::size_t i = 0; i < 33; ++i) {
      write(&arr[i], static_cast<std::uint64_t>(i));
    }
  });
  EXPECT_FALSE(ok);
  EXPECT_EQ(last_abort_code(), AbortCode::Capacity);
  // Upserts of already-buffered addresses never count against capacity.
  EXPECT_TRUE(attempt([&] {
    for (std::size_t i = 0; i < 32; ++i) {
      write(&arr[i], static_cast<std::uint64_t>(i));
    }
    for (std::size_t i = 0; i < 32; ++i) {
      write(&arr[i], static_cast<std::uint64_t>(i + 100));
    }
  }));
  EXPECT_EQ(arr[0], 100u);
}

TEST(HtmWriteIndex, IndexStateDoesNotLeakAcrossTransactions) {
  static std::uint64_t arr[8] = {};
  EXPECT_TRUE(attempt([&] {
    for (auto& w : arr) write(&w, std::uint64_t{1});
  }));
  // A new transaction's reads must miss the (stale) index entries of the
  // previous one and see committed memory.
  EXPECT_TRUE(attempt([&] {
    for (auto& w : arr) EXPECT_EQ(read(&w), 1u);
  }));
  // Same after an abort: the discarded buffer must be unreachable.
  (void)attempt([&] {
    for (auto& w : arr) write(&w, std::uint64_t{2});
    abort_tx();
  });
  EXPECT_TRUE(attempt([&] {
    for (auto& w : arr) EXPECT_EQ(read(&w), 1u);
  }));
}

TEST(HtmWriteIndexDeathTest, MixedSizeSameAddressAsserts) {
  static std::uint64_t word = 0;
  // Debug builds assert on a mixed-size hit in the write buffer; NDEBUG
  // builds execute the (documented-unsupported) truncating read.
  EXPECT_DEBUG_DEATH(
      attempt([&] {
        write(&word, std::uint64_t{0x1122334455667788ULL});
        auto* half = reinterpret_cast<std::uint32_t*>(&word);
        volatile std::uint32_t sink = read(half);
        (void)sink;
      }),
      "mixed-size");
}

// ---- Epochs ----------------------------------------------------------------

// Runs `mid` on a helper thread while a transaction is open on this one.
template <typename Mid, typename Body>
bool run_with_interference(Mid mid, Body body) {
  return attempt([&] {
    body(/*phase=*/0);
    std::thread t(mid);
    t.join();  // lint:allow(tx-blocking-call) — helper never blocks on us
    body(/*phase=*/1);
  });
}

// The epoch contract, in two halves. Reads follow the sampled rule: a
// writer commit to an unrelated word costs a concurrent reader nothing
// while its body runs, because reads poll no global clock.
TEST(HtmEpochMode, SampledSkipsRevalidationOnUnrelatedCommit) {
  static std::uint64_t x = 1;
  static std::uint64_t y = 2;
  std::uint64_t body_extensions = ~std::uint64_t{0};
  const bool ok = run_with_interference(
      [] { EXPECT_TRUE(attempt([] { write(&y, read(&y) + 1); })); },
      [&](int phase) {
        (void)read(&x);
        if (phase == 1) body_extensions = detail::txn().n_extensions;
      });
  EXPECT_TRUE(ok);
  EXPECT_EQ(body_extensions, 0u);
}

// The read-only commit follows the tick rule: the global clock moved since
// the snapshot, so the commit validates exactly once, and it commits
// because nothing the reader read changed.
TEST(HtmEpochMode, TickRevalidatesOnUnrelatedCommit) {
  static std::uint64_t x = 1;
  static std::uint64_t y = 2;
  const auto before = StatsSnapshot::capture();
  const bool ok = run_with_interference(
      [] { EXPECT_TRUE(attempt([] { write(&y, read(&y) + 1); })); },
      [](int) { (void)read(&x); });
  EXPECT_TRUE(ok);
  const auto d = StatsSnapshot::capture().delta_since(before);
  EXPECT_EQ(d.snapshot_extensions, 1u);
  EXPECT_EQ(d.aborts[static_cast<std::size_t>(AbortCode::Conflict)], 0u);
}

TEST(HtmEpochMode, SampledStrongStoreOnReadWordAborts) {
  static std::uint64_t x = 5;
  const bool ok = run_with_interference(
      [] { strong_store(&x, std::uint64_t{9}); },
      [](int) { (void)read(&x); });
  EXPECT_FALSE(ok);
  EXPECT_EQ(last_abort_code(), AbortCode::Conflict);
  EXPECT_EQ(x, 9u);
}

// A strong store to a word the reader never read leaves its evidence on
// that word's orec only; the strong clock does not move, so the running
// body pays no extension. The read-only commit still extends once (the
// version clock moved), finds x untouched, and commits.
TEST(HtmEpochMode, StrongStoreElsewhereCostsBodyNothing) {
  static std::uint64_t x = 5;
  static std::uint64_t z = 0;
  std::uint64_t body_extensions = ~std::uint64_t{0};
  const bool ok = run_with_interference(
      [] { strong_store(&z, std::uint64_t{1}); },
      [&](int phase) {
        (void)read(&x);
        if (phase == 1) body_extensions = detail::txn().n_extensions;
      });
  EXPECT_TRUE(ok);
  EXPECT_EQ(body_extensions, 0u);
}

// Bank-invariant opacity stress: transfers preserve the
// total; read-only sum transactions and a strong-store "pulse" run
// alongside. Any zombie read (torn snapshot) shows up as a wrong sum in a
// committed transaction. TSan builds additionally check the HB edges.
TEST(HtmEpochMode, SampledOpacityStress) {
  constexpr std::size_t kAccounts = 64;
  constexpr std::uint64_t kInitial = 100;
  constexpr int kWriters = 3;
  constexpr int kReaders = 2;
  constexpr int kWriterOps = 6000;
  constexpr int kReaderOps = 3000;
  static std::uint64_t accounts[kAccounts];
  static std::uint64_t pulse_word;
  pulse_word = 0;
  for (auto& a : accounts) a = kInitial;
  const std::uint64_t total = kAccounts * kInitial;

  std::atomic<bool> bad{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([w] {
      std::uint64_t rng = 0x9e3779b97f4a7c15ULL * (w + 1);
      for (int op = 0; op < kWriterOps; ++op) {
        rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
        const std::size_t i = (rng >> 33) % kAccounts;
        const std::size_t j = (rng >> 13) % kAccounts;
        const std::uint64_t amount = 1 + (rng % 7);
        while (!attempt([&] {
          const std::uint64_t a = read(&accounts[i]);
          const std::uint64_t b = read(&accounts[j]);
          if (i != j && a >= amount) {
            write(&accounts[i], a - amount);
            write(&accounts[j], b + amount);
          }
        })) {
        }
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&bad, total] {
      for (int op = 0; op < kReaderOps; ++op) {
        std::uint64_t sum = 0;
        if (attempt([&] {
              sum = 0;
              (void)read(&pulse_word);
              for (const auto& a : accounts) sum += read(&a);
            })) {
          if (sum != total) bad.store(true);
        }
      }
    });
  }
  // Strong-store pulses: a strong store no longer moves the strong clock;
  // readers catch a pulse through pulse_word's orec, which the store locks
  // and re-versions.
  threads.emplace_back([] {
    for (int p = 0; p < 200; ++p) {
      strong_store(&pulse_word, static_cast<std::uint64_t>(p));
      std::this_thread::yield();
    }
  });
  for (auto& t : threads) t.join();

  EXPECT_FALSE(bad.load()) << "committed read-only txn saw a torn sum";
  std::uint64_t final_sum = 0;
  for (const auto& a : accounts) final_sum += a;
  EXPECT_EQ(final_sum, total);
}

}  // namespace
}  // namespace hcf::htm
