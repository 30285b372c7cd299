// The benchmark's three workloads, the closed-loop clients that drive them
// through the public core::HcfEngine, and the machinery shared by the
// untraced and traced runs: a TSC clock, per-thread result and span
// buffers (merged once, after the threads join), pinned worker crews and
// the end-of-run correctness checks.
//
// Every measurement here is taken from outside the library: by timing
// calls into a layer's public functions and by reading its public stats
// snapshots. Nothing in src/ is instrumented for the benchmark.
#pragma once

#include <pthread.h>
#include <sched.h>
#include <x86intrin.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "adapters/ht_ops.hpp"
#include "adapters/pq_ops.hpp"
#include "core/hcf_engine.hpp"
#include "ds/hash_table.hpp"
#include "ds/skiplist_pq.hpp"
#include "mem/ebr.hpp"
#include "sim_htm/htm.hpp"
#include "util/cacheline.hpp"
#include "util/rng.hpp"

namespace hcfbench {

using Key = std::uint64_t;
using Phase = hcf::core::Phase;
using Table = hcf::ds::HashTable<Key, Key>;
using Pq = hcf::ds::SkipListPq<Key>;

// Hash-table workloads: 16K keys over 16K buckets, half of them present.
inline constexpr Key kHtKeys = 16 * 1024;
inline constexpr std::size_t kHtBuckets = 16 * 1024;
inline constexpr std::size_t kHtPrefill = 8 * 1024;
// Priority-queue workload: 64K keys drawn from [0, 2^20).
inline constexpr Key kPqKeyRange = Key{1} << 20;
inline constexpr std::size_t kPqPrefill = 64 * 1024;

// Every hash-table value is a function of its key, so any Find hit can be
// checked on the spot.
constexpr Key ht_value(Key k) noexcept { return 2 * k + 1; }

// Independent, reproducible random stream `stream` of a run's seed.
constexpr std::uint64_t stream_seed(std::uint64_t seed,
                                    std::uint64_t stream) noexcept {
  return hcf::util::mix64(hcf::util::mix64(seed) ^ (stream + 1));
}

// ---- Clock -------------------------------------------------------------
// One rdtsc per boundary: cheap enough to sample ops without a visible
// observer effect, and fine-grained enough that percentiles are not
// quantized to whole nanoseconds.
inline std::uint64_t ticks() noexcept { return __rdtsc(); }

// Converts ticks to nanoseconds with a rate measured against
// steady_clock over an interval the caller chose.
class TickClock {
 public:
  void start() noexcept {
    t0_ = ticks();
    s0_ = std::chrono::steady_clock::now();
  }
  void stop() noexcept {
    const std::uint64_t t1 = ticks();
    const double ns =
        std::chrono::duration<double, std::nano>(
            std::chrono::steady_clock::now() - s0_)
            .count();
    ns_per_tick_ = ns / static_cast<double>(t1 - t0_);
  }
  double ns(double tick_count) const noexcept {
    return tick_count * ns_per_tick_;
  }
  double ns_per_tick() const noexcept { return ns_per_tick_; }

 private:
  std::uint64_t t0_ = 0;
  std::chrono::steady_clock::time_point s0_{};
  double ns_per_tick_ = 0.0;
};

// ---- Spans -------------------------------------------------------------
// One record per call into a layer. Each thread appends to its own
// buffer; the buffers are written out once, after every thread joined.
struct Span {
  const char* name;
  std::uint64_t start;   // ticks
  std::uint64_t end;     // ticks
  std::uint64_t id;
  std::uint64_t parent;  // 0: root
  std::uint64_t op;      // per-thread op index, 0 when not an op
  std::uint32_t thread;
};

class SpanBuffer {
 public:
  static constexpr std::size_t kCapacity = 8 * 1024;

  explicit SpanBuffer(std::uint32_t thread) : thread_(thread) {}

  // Reserves an id for a span whose end is not known yet.
  std::uint64_t next_id() noexcept {
    return (static_cast<std::uint64_t>(thread_) + 1) << 40 | ++seq_;
  }

  void add(const char* name, std::uint64_t start, std::uint64_t end,
           std::uint64_t parent, std::uint64_t op = 0) noexcept {
    add_with_id(next_id(), name, start, end, parent, op);
  }

  void add_with_id(std::uint64_t id, const char* name, std::uint64_t start,
                   std::uint64_t end, std::uint64_t parent,
                   std::uint64_t op = 0) noexcept {
    if (spans_.size() == kCapacity) {
      ++dropped_;
      return;
    }
    spans_.push_back({name, start, end, id, parent, op, thread_});
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }
  std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  std::uint32_t thread_;
  std::uint64_t seq_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<Span> spans_;
};

// ---- Samples -------------------------------------------------------------

// A fixed-capacity uniform sample of a stream of latencies (reservoir
// sampling). The buffer is allocated and touched once, before the first
// sample, so sampling never allocates mid-run and the benchmark's own
// memory does not grow with throughput.
class Reservoir {
 public:
  void allocate(std::size_t capacity) {
    if (buf_.size() != capacity) buf_.assign(capacity, 0);
  }

  void add(std::uint32_t v, hcf::util::Xoshiro256& rng) noexcept {
    ++seen_;
    if (size_ < buf_.size()) {
      buf_[size_++] = v;
    } else if (const std::uint64_t j = rng.next_bounded(seen_);
               j < buf_.size()) {
      buf_[j] = v;
    }
  }

  // Appends the kept samples to `out`.
  void append_to(std::vector<std::uint32_t>& out) const {
    out.insert(out.end(), buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(size_));
  }

  std::uint64_t seen() const noexcept { return seen_; }

 private:
  std::vector<std::uint32_t> buf_;
  std::size_t size_ = 0;
  std::uint64_t seen_ = 0;
};

// ---- Clients -------------------------------------------------------------

struct Outcome {
  bool ok;      // the op's result passed its per-op check
  Phase phase;  // the phase that completed it (engine.execute's return)
};

// Which layers an op goes through: the bare sequential body, the body
// wrapped in one htm::attempt (retried until it commits), or the engine.
enum class Layer { Body, Attempt, Execute };

template <Layer L, typename Engine, typename Op>
Phase run_in(Engine& engine, Op& op) {
  if constexpr (L == Layer::Body) {
    op.run_seq(engine.data());
    return Phase::Private;
  } else if constexpr (L == Layer::Attempt) {
    while (!hcf::htm::attempt([&] { op.run_seq(engine.data()); })) {
    }
    return Phase::Private;
  } else {
    return engine.execute(op);
  }
}

struct HtMix {
  int find_pct;
  int insert_pct;  // the rest are Removes
};

// Closed-loop hash-table client: issues its next op only after the
// previous one returned. FindOp is a template parameter so the tests can
// substitute a fault-injecting wrapper.
template <typename Engine, Layer L = Layer::Execute,
          typename FindOp = hcf::adapters::HtFindOp<Key, Key>>
class HtClient {
 public:
  HtClient(Engine& engine, HtMix mix, std::uint64_t seed)
      : engine_(engine), mix_(mix), rng_(seed) {}

  Outcome operator()() {
    const Key key = rng_.next_bounded(kHtKeys);
    const int p = static_cast<int>(rng_.next_bounded(100));
    if (p < mix_.find_pct) {
      find_.set(key);
      const Phase phase = run_in<L>(engine_, find_);
      const auto& found = find_.result();
      return {!found.has_value() || *found == ht_value(key), phase};
    }
    if (p < mix_.find_pct + mix_.insert_pct) {
      insert_.set(key, ht_value(key));
      const Phase phase = run_in<L>(engine_, insert_);
      if (insert_.result()) ++size_delta_;
      return {true, phase};
    }
    remove_.set(key);
    const Phase phase = run_in<L>(engine_, remove_);
    if (remove_.result()) --size_delta_;
    return {true, phase};
  }

  // Net change in table size caused by this client.
  std::int64_t size_delta() const noexcept { return size_delta_; }

 private:
  Engine& engine_;
  HtMix mix_;
  hcf::util::Xoshiro256 rng_;
  FindOp find_;
  hcf::adapters::HtInsertOp<Key, Key> insert_;
  hcf::adapters::HtRemoveOp<Key, Key> remove_;
  std::int64_t size_delta_ = 0;
};

// Key count and key sum of a multiset, for conservation checks. Sums wrap
// modulo 2^64 on both sides of the comparison.
struct KeyTally {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  void add(Key k) noexcept {
    ++count;
    sum += k;
  }
  KeyTally& operator+=(const KeyTally& o) noexcept {
    count += o.count;
    sum += o.sum;
    return *this;
  }
};

// Closed-loop priority-queue client: 50% Insert of a uniform key, 50%
// RemoveMin. The mix keeps the queue size stationary.
template <typename Engine, Layer L = Layer::Execute>
class PqClient {
 public:
  PqClient(Engine& engine, std::uint64_t seed) : engine_(engine), rng_(seed) {}

  Outcome operator()() {
    if (rng_.next_bounded(2) == 0) {
      const Key key = rng_.next_bounded(kPqKeyRange);
      insert_.set(key);
      const Phase phase = run_in<L>(engine_, insert_);
      inserted_.add(key);
      return {true, phase};
    }
    const Phase phase = run_in<L>(engine_, remove_min_);
    const auto& got = remove_min_.result();
    if (!got.has_value()) return {true, phase};  // empty queue
    removed_.add(*got);
    return {*got < kPqKeyRange, phase};
  }

  const KeyTally& inserted() const noexcept { return inserted_; }
  const KeyTally& removed() const noexcept { return removed_; }

 private:
  Engine& engine_;
  hcf::util::Xoshiro256 rng_;
  hcf::adapters::PqInsertOp<Key> insert_;
  hcf::adapters::PqRemoveMinOp<Key> remove_min_;
  KeyTally inserted_;
  KeyTally removed_;
};

// ---- Structures under test ------------------------------------------------
// Members are declared so that the engine is destroyed before the
// structure it references.

struct HtInstance {
  using Engine = hcf::core::HcfEngine<Table>;

  std::unique_ptr<Table> ds = std::make_unique<Table>(kHtBuckets);
  std::unique_ptr<Engine> engine = std::make_unique<Engine>(
      *ds, hcf::adapters::ht_paper_config(), hcf::adapters::kHtNumArrays);
  std::size_t prefilled = 0;

  // Inserts kHtPrefill distinct keys, chosen by the seed, through the
  // engine on the calling thread.
  void prefill(std::uint64_t seed) {
    std::vector<Key> keys(kHtKeys);
    for (Key k = 0; k < kHtKeys; ++k) keys[k] = k;
    hcf::util::Xoshiro256 rng(stream_seed(seed, 0));
    hcf::adapters::HtInsertOp<Key, Key> insert;
    for (std::size_t i = 0; i < kHtPrefill; ++i) {
      std::swap(keys[i], keys[i + rng.next_bounded(kHtKeys - i)]);
      insert.set(keys[i], ht_value(keys[i]));
      engine->execute(insert);
      if (insert.result()) ++prefilled;
    }
  }
};

struct PqInstance {
  using Engine = hcf::core::HcfEngine<Pq>;

  std::unique_ptr<Pq> ds = std::make_unique<Pq>();
  std::unique_ptr<Engine> engine = std::make_unique<Engine>(
      *ds, hcf::adapters::pq_paper_config(), hcf::adapters::kPqNumArrays);
  KeyTally prefilled;

  void prefill(std::uint64_t seed) {
    hcf::util::Xoshiro256 rng(stream_seed(seed, 0));
    hcf::adapters::PqInsertOp<Key> insert;
    for (std::size_t i = 0; i < kPqPrefill; ++i) {
      const Key key = rng.next_bounded(kPqKeyRange);
      insert.set(key);
      engine->execute(insert);
      prefilled.add(key);
    }
  }
};

// End-of-run checks; each returns the number of failed checks (0 = pass).
// Only call once every client has stopped.

// `size_delta`: the net size change all clients reported.
inline std::uint64_t check_table(const HtInstance& inst,
                                 std::int64_t size_delta) {
  const auto expected = static_cast<std::int64_t>(inst.prefilled) + size_delta;
  std::uint64_t failed = 0;
  if (static_cast<std::int64_t>(inst.ds->size_slow()) != expected) ++failed;
  if (!inst.ds->check_invariants()) ++failed;
  inst.ds->for_each([&](Key k, Key v) {
    if (k >= kHtKeys || v != ht_value(k)) ++failed;
  });
  return failed;
}

// Drains the queue: the keys left in it must be exactly the prefill plus
// every inserted key minus every removed one, by count and by sum, and
// must come out in order. (SkipListPq::check_invariants is quadratic in
// the queue size, too slow for a 64K-key queue.)
inline std::uint64_t check_queue(PqInstance& inst, const KeyTally& inserted,
                                 const KeyTally& removed) {
  KeyTally expect_in = inst.prefilled;
  expect_in += inserted;
  std::uint64_t failed = 0;
  KeyTally left;
  Key prev = 0;
  while (const auto k = inst.ds->remove_min()) {
    if (*k < prev || *k >= kPqKeyRange) ++failed;
    prev = *k;
    left.add(*k);
  }
  if (left.count + removed.count != expect_in.count) ++failed;
  if (left.sum + removed.sum != expect_in.sum) ++failed;
  return failed;
}

// ---- Threads -------------------------------------------------------------

// The CPUs this process may run on, in order.
inline std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  if (cpus.empty()) cpus.push_back(0);
  return cpus;
}

inline void pin_to(int cpu) noexcept {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

// Runs fn(t) on n threads, thread t pinned to cpus[t % cpus.size()], and
// joins them all before returning.
template <typename F>
void run_pinned(std::size_t n, const std::vector<int>& cpus, F&& fn) {
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      pin_to(cpus[t % cpus.size()]);
      fn(t);
    });
  }
  for (auto& th : threads) th.join();
}

// How a crew segment treats its ops.
enum class Mode : int {
  Plain,    // no timing at all (warm-up)
  Sampled,  // time 1 op in latency_every, as the untraced run does
  Traced,   // time 1 op in trace_every, keep its span and phase
  Exit,
};

// What one worker accumulates; read by the main thread only after the
// crew is stopped.
struct ThreadLog {
  static constexpr std::size_t kLatencySamples = 256 * 1024;
  static constexpr std::size_t kPhaseSamples = 64 * 1024;

  explicit ThreadLog(std::uint32_t thread)
      : rng(stream_seed(thread, 300)), spans(thread) {}

  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  hcf::util::Xoshiro256 rng;  // reservoir replacement draws
  Reservoir latency;          // Sampled segments, in ticks
  std::array<Reservoir, hcf::core::kNumPhases> by_phase;  // Traced, ticks
  SpanBuffer spans;
};

// A closed-loop crew: n pinned threads, each owning one client built by
// `make_client(t)`, driven through segments by the main thread. The
// constructor returns once every thread has built its client and is
// waiting, so its duration is the thread start-up part of set-up time.
template <typename Client>
class Crew {
 public:
  // make_client(t) returns std::unique_ptr<Client>; it runs on thread t.
  template <typename MakeClient>
  Crew(std::size_t n, const std::vector<int>& cpus, MakeClient make_client)
      : progress_(n) {
    logs_.reserve(n);
    for (std::size_t t = 0; t < n; ++t) {
      logs_.push_back(
          std::make_unique<ThreadLog>(static_cast<std::uint32_t>(t)));
    }
    clients_.resize(n);
    threads_.reserve(n);
    for (std::size_t t = 0; t < n; ++t) {
      threads_.emplace_back([this, t, cpu = cpus[t % cpus.size()],
                             make_client] {
        pin_to(cpu);
        clients_[t] = make_client(t);
        ready_.fetch_add(1, std::memory_order_acq_rel);
        worker(t);
      });
    }
    while (ready_.load(std::memory_order_acquire) != n) {
      std::this_thread::yield();
    }
  }

  ~Crew() {
    if (running_) stop();
    command(Mode::Exit, 0);
    for (auto& th : threads_) th.join();
  }

  Crew(const Crew&) = delete;
  Crew& operator=(const Crew&) = delete;

  // Starts a segment; every thread runs it until stop().
  // `every`: the sampling interval for Sampled/Traced segments.
  // `parent`: the span every traced op span hangs off.
  void start(Mode mode, std::uint32_t every, std::uint64_t parent = 0) {
    parent_.store(parent, std::memory_order_relaxed);
    command(mode, every);
    running_ = true;
  }

  void stop() {
    stop_.store(true, std::memory_order_release);
    while (done_.load(std::memory_order_acquire) != threads_.size()) {
      std::this_thread::yield();
    }
    running_ = false;
  }

  // Ops completed so far by all threads (relaxed; for windowed rates).
  std::uint64_t progress() const noexcept {
    std::uint64_t sum = 0;
    for (const auto& p : progress_) {
      sum += p.value.load(std::memory_order_relaxed);
    }
    return sum;
  }

  std::size_t size() const noexcept { return threads_.size(); }
  ThreadLog& log(std::size_t t) noexcept { return *logs_[t]; }
  const Client& client(std::size_t t) const noexcept { return *clients_[t]; }

 private:
  void command(Mode mode, std::uint32_t every) {
    mode_.store(mode, std::memory_order_relaxed);
    every_.store(every, std::memory_order_relaxed);
    stop_.store(false, std::memory_order_relaxed);
    done_.store(0, std::memory_order_relaxed);
    seq_.fetch_add(1, std::memory_order_release);
  }

  void worker(std::size_t t) {
    std::uint64_t seen = 0;
    for (;;) {
      std::uint64_t s;
      while ((s = seq_.load(std::memory_order_acquire)) == seen) {
        std::this_thread::yield();
      }
      seen = s;
      const Mode mode = mode_.load(std::memory_order_relaxed);
      if (mode == Mode::Exit) return;
      const std::uint32_t every = every_.load(std::memory_order_relaxed);
      switch (mode) {
        case Mode::Plain: loop<Mode::Plain>(t, every); break;
        case Mode::Sampled: loop<Mode::Sampled>(t, every); break;
        case Mode::Traced: loop<Mode::Traced>(t, every); break;
        case Mode::Exit: break;
      }
      done_.fetch_add(1, std::memory_order_acq_rel);
    }
  }

  template <Mode kMode>
  void loop(std::size_t t, std::uint32_t every) {
    Client& client = *clients_[t];
    ThreadLog& log = *logs_[t];
    auto& progress = progress_[t].value;
    const std::uint64_t parent = parent_.load(std::memory_order_relaxed);
    if constexpr (kMode == Mode::Sampled) {
      log.latency.allocate(ThreadLog::kLatencySamples);
    } else if constexpr (kMode == Mode::Traced) {
      for (auto& r : log.by_phase) r.allocate(ThreadLog::kPhaseSamples);
    }
    std::uint64_t ops = log.ops;
    std::uint32_t countdown = every;
    while (!stop_.load(std::memory_order_relaxed)) {
      Outcome out;
      if (kMode != Mode::Plain && every != 0 && --countdown == 0) {
        countdown = every;
        const std::uint64_t t0 = ticks();
        out = client();
        const std::uint64_t t1 = ticks();
        const auto d = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(t1 - t0, UINT32_MAX));
        if constexpr (kMode == Mode::Sampled) {
          log.latency.add(d, log.rng);
        } else {
          log.by_phase[static_cast<std::size_t>(out.phase)].add(d, log.rng);
          log.spans.add("core.execute", t0, t1, parent, ops + 1);
        }
      } else {
        out = client();
      }
      if (!out.ok) ++log.failed;
      progress.store(++ops, std::memory_order_relaxed);
    }
    log.ops = ops;
  }

  std::vector<hcf::util::CacheAligned<std::atomic<std::uint64_t>>> progress_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;
  std::vector<std::unique_ptr<Client>> clients_;
  alignas(hcf::util::kCacheLineSize) std::atomic<std::uint64_t> seq_{0};
  std::atomic<Mode> mode_{Mode::Plain};
  std::atomic<std::uint32_t> every_{0};
  std::atomic<std::uint64_t> parent_{0};
  alignas(hcf::util::kCacheLineSize) std::atomic<bool> stop_{false};
  std::atomic<std::size_t> done_{0};
  std::atomic<std::size_t> ready_{0};
  bool running_ = false;  // main thread only
  // Declared last: the threads use every member above.
  std::vector<std::thread> threads_;
};

}  // namespace hcfbench
