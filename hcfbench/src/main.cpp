// hcfbench: the repository benchmark. Drives core::HcfEngine through one
// closed-loop workload and prints one JSON object as the last line of
// standard output.
//
//   hcfbench --workload ht-read|ht-update|pq-mixed --seed N --seconds S
//            --trace 0|1 [--latency-every N] [--trace-out FILE]
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics and, with --trace-out, writes the spans it recorded as
// a Chrome trace_event file. --latency-every 0 turns latency sampling off
// (the self-test's sampling-cost check). hcfbench/README.md maps every
// metric to the layer it measures and the end-to-end metric it should
// move.
#include <sys/resource.h>

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "mem/alloc.hpp"
#include "sim_htm/htm.hpp"
#include "sync/spinlock.hpp"
#include "sync/tx_lock.hpp"
#include "util/parking.hpp"
#include "workloads.hpp"

namespace hcfbench {
namespace {

using Clock = std::chrono::steady_clock;
using Seconds = std::chrono::duration<double>;

// Worker threads: one per CPU of the 4-vCPU reference host, or one per
// allowed CPU where there are fewer.
constexpr std::size_t kThreads = 4;
constexpr int kSetupRepeats = 9;
constexpr Seconds kWarmup{0.5};
constexpr Seconds kWindow{0.5};
// Default 1-in-N latency sampling of the untraced run, and of the traced
// run's op spans. One sampled op costs two rdtsc and a vector append.
constexpr std::uint32_t kLatencyEvery = 64;
constexpr std::uint32_t kTraceEvery = 8;

// ---- Options ---------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::size_t threads = kThreads;
  std::uint32_t latency_every = kLatencyEvery;
  std::string trace_out;
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr, "hcfbench: %s\n", msg.c_str());
  std::exit(2);
}

std::uint64_t parse_uint(const char* flag, const char* text) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    usage_error(std::string("malformed value for ") + flag + ": " + text);
  }
  return v;
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + flag);
    const char* value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = parse_uint("--seed", value);
    } else if (flag == "--seconds") {
      o.seconds = static_cast<double>(parse_uint("--seconds", value));
    } else if (flag == "--trace") {
      const std::uint64_t t = parse_uint("--trace", value);
      if (t > 1) usage_error("--trace must be 0 or 1");
      o.trace = t == 1;
    } else if (flag == "--latency-every") {
      o.latency_every = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(parse_uint("--latency-every", value),
                                  UINT32_MAX));
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else {
      usage_error("unknown option " + flag);
    }
  }
  if (o.workload.empty()) usage_error("--workload is required");
  if (o.seconds < 1 || o.seconds > 600) usage_error("--seconds out of range");
  return o;
}

// ---- Small helpers ------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo = *std::max_element(
      v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lo + hi) / 2;
}

// Nearest-rank percentile of `v` (reordered in place); 0 when empty.
double percentile(std::vector<std::uint32_t>& v, double q) {
  if (v.empty()) return 0.0;
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return v[rank];
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Clock::duration to_clock(Seconds s) {
  return std::chrono::duration_cast<Clock::duration>(s);
}

void sleep_for(Seconds s) { std::this_thread::sleep_for(to_clock(s)); }

// Metrics in print order, each with its unit.
class Metrics {
 public:
  void set(std::string name, double value, const char* unit) {
    if (!std::isfinite(value)) value = 0.0;
    entries_.push_back({std::move(name), value, unit});
  }

  std::string json() const {
    std::ostringstream out;
    out.precision(17);
    out << '{';
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      out << (i ? ", " : "") << '"' << e.name << "\": {\"value\": " << e.value
          << ", \"unit\": \"" << e.unit << "\"}";
    }
    out << '}';
    return out.str();
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
  Metrics info;  // printed under "summary", outside the metric contract
};

// ---- Workload descriptions -------------------------------------------------
// Each names its structure, builds its clients for a given layer, and
// sums what the clients report into the end-of-run check.

struct HtWorkload {
  using Instance = HtInstance;
  template <Layer L = Layer::Execute>
  using Client = HtClient<HtInstance::Engine, L>;
  HtMix mix;

  template <Layer L = Layer::Execute>
  std::unique_ptr<Client<L>> client(Instance& inst, std::uint64_t seed) const {
    return std::make_unique<Client<L>>(*inst.engine, mix, seed);
  }

  struct Tally {
    std::int64_t size_delta = 0;
    template <typename C>
    void add(const C& c) {
      size_delta += c.size_delta();
    }
  };
  static std::uint64_t check(Instance& inst, const Tally& t) {
    return check_table(inst, t.size_delta);
  }
};

struct PqWorkload {
  using Instance = PqInstance;
  template <Layer L = Layer::Execute>
  using Client = PqClient<PqInstance::Engine, L>;

  template <Layer L = Layer::Execute>
  std::unique_ptr<Client<L>> client(Instance& inst, std::uint64_t seed) const {
    return std::make_unique<Client<L>>(*inst.engine, seed);
  }

  struct Tally {
    KeyTally inserted;
    KeyTally removed;
    template <typename C>
    void add(const C& c) {
      inserted += c.inserted();
      removed += c.removed();
    }
  };
  static std::uint64_t check(Instance& inst, const Tally& t) {
    return check_queue(inst, t.inserted, t.removed);
  }
};

// A structure, prefilled, with its crew of client threads started.
template <typename W>
struct Loaded {
  Loaded() = default;
  Loaded(const Loaded&) = delete;
  Loaded& operator=(const Loaded&) = delete;
  ~Loaded() { reset(); }

  // Stops the clients before the structure they use goes away.
  void reset() {
    crew.reset();
    inst.reset();
  }

  std::unique_ptr<typename W::Instance> inst;
  std::unique_ptr<Crew<typename W::template Client<>>> crew;
};

template <typename W>
void set_up(Loaded<W>& l, const W& w, const Options& o,
            const std::vector<int>& cpus) {
  l.inst = std::make_unique<typename W::Instance>();
  l.inst->prefill(o.seed);
  auto* inst = l.inst.get();
  l.crew = std::make_unique<Crew<typename W::template Client<>>>(
      o.threads, cpus, [&w, inst, seed = o.seed](std::size_t t) {
        return w.client(*inst, stream_seed(seed, 100 + t));
      });
}

// Finishes a loaded run: every per-op check plus the end-of-run check.
template <typename W>
void settle(Loaded<W>& l, Result& r) {
  typename W::Tally tally;
  for (std::size_t t = 0; t < l.crew->size(); ++t) {
    r.attempted += l.crew->log(t).ops;
    r.failed += l.crew->log(t).failed;
    tally.add(l.crew->client(t));
  }
  const std::uint64_t end_failures = W::check(*l.inst, tally);
  r.failed += end_failures;
  r.correct = r.failed == 0;
  r.info.set("end_check_failures", end_failures, "count");
}

// ---- Untraced run: end-to-end metrics -----------------------------------

template <typename W>
Result run_untraced(const W& w, const Options& o,
                    const std::vector<int>& cpus) {
  Result r;
  // Set-up is repeated and its median reported; the last one is kept.
  std::vector<double> setup_s;
  Loaded<W> l;
  for (int i = 0; i < kSetupRepeats; ++i) {
    l.reset();
    hcf::mem::EbrDomain::instance().drain();
    const auto t0 = Clock::now();
    set_up(l, w, o, cpus);
    setup_s.push_back(Seconds(Clock::now() - t0).count());
  }
  auto& crew = *l.crew;

  TickClock clock;
  clock.start();
  crew.start(Mode::Plain, 0);
  sleep_for(kWarmup);
  crew.stop();
  clock.stop();

  // Windowed rates: a stall on this shared host costs one window, not the
  // run, and the median window is the reported throughput.
  crew.start(Mode::Sampled, o.latency_every);
  const auto start = Clock::now();
  const auto windows = std::lround(o.seconds / kWindow.count());
  std::vector<double> rates;
  std::uint64_t prev_ops = crew.progress();
  auto prev_t = start;
  for (long i = 1; i <= windows; ++i) {
    std::this_thread::sleep_until(start + to_clock(kWindow * i));
    const std::uint64_t ops = crew.progress();
    const auto now = Clock::now();
    rates.push_back(static_cast<double>(ops - prev_ops) /
                    Seconds(now - prev_t).count());
    prev_ops = ops;
    prev_t = now;
  }
  crew.stop();

  std::vector<std::uint32_t> lat;
  std::uint64_t sampled = 0;
  for (std::size_t t = 0; t < crew.size(); ++t) {
    crew.log(t).latency.append_to(lat);
    sampled += crew.log(t).latency.seen();
  }
  settle(l, r);

  r.metrics.set("throughput_mops", median(rates) / 1e6, "Mops/s");
  if (o.latency_every != 0) {
    const double us = clock.ns_per_tick() / 1000;
    r.metrics.set("latency_p50_us", percentile(lat, 0.50) * us, "us");
    r.metrics.set("latency_p99_us", percentile(lat, 0.99) * us, "us");
    r.metrics.set("latency_p999_us", percentile(lat, 0.999) * us, "us");
  }
  r.metrics.set("setup_s", median(setup_s), "s");
  l.reset();
  r.metrics.set("peak_rss_mb", peak_rss_mb(), "MB");

  r.info.set("threads", o.threads, "count");
  r.info.set("latency_every", o.latency_every, "ops");
  r.info.set("latency_samples", lat.size(), "count");
  r.info.set("latency_sampled_ops", sampled, "count");
  r.info.set("windows", rates.size(), "count");
  r.info.set("failed_op_share", ratio(r.failed, r.attempted), "share");
  r.info.set("ns_per_tick", clock.ns_per_tick(), "ns");
  return r;
}

// ---- Traced run: per-layer metrics ----------------------------------------

constexpr const char* layer_span_name(Layer l) {
  switch (l) {
    case Layer::Body: return "ds.run_seq";
    case Layer::Attempt: return "sim_htm.attempt";
    case Layer::Execute: return "core.execute";
  }
  return "?";
}

// Times `n` ops of one client; every kLatencyEvery-th op also gets its
// own span under the chunk's span.
template <Layer L, typename Client>
double time_chunk(Client& client, std::size_t n, const TickClock& clock,
                  SpanBuffer& spans, std::uint64_t parent,
                  std::uint64_t& failed) {
  const std::uint64_t chunk_id = spans.next_id();
  const std::uint64_t t0 = ticks();
  for (std::size_t i = 0; i < n; ++i) {
    if (i % kLatencyEvery == 0) {
      const std::uint64_t s = ticks();
      if (!client().ok) ++failed;
      spans.add(layer_span_name(L), s, ticks(), chunk_id, i + 1);
    } else if (!client().ok) {
      ++failed;
    }
  }
  const std::uint64_t t1 = ticks();
  spans.add_with_id(chunk_id, "ledger.chunk", t0, t1, parent);
  return clock.ns(static_cast<double>(t1 - t0)) / static_cast<double>(n);
}

struct SoloLedger {
  double body_ns = 0;
  double tx_overhead_ns = 0;
  double protocol_ns = 0;
  std::uint64_t failed = 0;
};

// The workload's op mix at one thread, on one prefilled instance, through
// three clients: bare run_seq, attempt-wrapped run_seq, and
// engine.execute. Chunks rotate through the three so drift and cache state
// hit them alike; the layer costs are medians of per-round differences.
template <typename W>
SoloLedger solo_ledger(const W& w, const Options& o, Seconds budget,
                       const TickClock& clock, SpanBuffer& spans,
                       std::uint64_t parent) {
  constexpr std::size_t kChunk = 1024;
  typename W::Instance inst;
  inst.prefill(o.seed);
  auto body = w.template client<Layer::Body>(inst, stream_seed(o.seed, 200));
  auto attempt =
      w.template client<Layer::Attempt>(inst, stream_seed(o.seed, 201));
  auto exec = w.template client<Layer::Execute>(inst, stream_seed(o.seed, 202));

  std::vector<double> b, tx, proto;
  SoloLedger out;
  const auto deadline = Clock::now() + to_clock(budget);
  while (Clock::now() < deadline || b.size() < 5) {
    const double nb = time_chunk<Layer::Body>(*body, kChunk, clock, spans,
                                              parent, out.failed);
    const double na = time_chunk<Layer::Attempt>(*attempt, kChunk, clock,
                                                 spans, parent, out.failed);
    const double ne = time_chunk<Layer::Execute>(*exec, kChunk, clock, spans,
                                                 parent, out.failed);
    b.push_back(nb);
    tx.push_back(na - nb);
    proto.push_back(ne - na);
  }
  typename W::Tally tally;
  tally.add(*body);
  tally.add(*attempt);
  tally.add(*exec);
  out.failed += W::check(inst, tally);
  out.body_ns = median(b);
  out.tx_overhead_ns = median(tx);
  out.protocol_ns = median(proto);
  return out;
}

// Median ns per call of fn(), timed in batches until the budget is spent.
// The first kTracedBatches batches are spans, each with one extra call
// timed as its child span, so every microbenchmark shows in the trace.
template <typename F>
double ns_per_call(F&& fn, Seconds budget, const TickClock& clock,
                   SpanBuffer& spans, const char* name, std::uint64_t parent) {
  constexpr int kBatch = 256;
  constexpr std::size_t kTracedBatches = 64;
  std::vector<double> per_call;
  const auto deadline = Clock::now() + to_clock(budget);
  while (Clock::now() < deadline || per_call.size() < 5) {
    const std::uint64_t t0 = ticks();
    for (int i = 0; i < kBatch; ++i) fn();
    const std::uint64_t t1 = ticks();
    per_call.push_back(clock.ns(t1 - t0) / kBatch);
    if (per_call.size() <= kTracedBatches) {
      const std::uint64_t batch_id = spans.next_id();
      fn();
      spans.add(name, t1, ticks(), batch_id);
      spans.add_with_id(batch_id, "micro.batch", t0, t1, parent);
    }
  }
  return median(per_call);
}

struct alignas(hcf::util::kCacheLineSize) Cell {
  std::uint64_t v = 0;
};

struct Node48 {
  std::uint64_t words[6];
};

// Substrate microbenchmarks: an attempt that commits one write, and one
// that reads and then aborts explicitly. Each thread works on its own
// cell, so loaded runs contend only on the substrate's shared state (the
// global version clock).
double write_commit_ns(Cell& c, Seconds budget, const TickClock& clock,
                       SpanBuffer& spans, std::uint64_t parent) {
  std::uint64_t n = 0;
  return ns_per_call(
      [&] { hcf::htm::attempt([&] { hcf::htm::write(&c.v, ++n); }); },
      budget, clock, spans, "sim_htm.attempt.write", parent);
}

double abort_ns(Cell& c, Seconds budget, const TickClock& clock,
                SpanBuffer& spans, std::uint64_t parent) {
  return ns_per_call(
      [&c] {
        hcf::htm::attempt([&c] {
          if (hcf::htm::read(&c.v) != ~std::uint64_t{0}) hcf::htm::abort_tx();
        });
      },
      budget, clock, spans, "sim_htm.attempt.abort", parent);
}

// Runs `bench(cell, spans)` on every crew thread at once; median result.
template <typename Bench>
double loaded(const Options& o, const std::vector<int>& cpus,
              std::vector<std::unique_ptr<SpanBuffer>>& buffers, Bench bench) {
  std::vector<Cell> cells(o.threads);
  std::vector<double> per_thread(o.threads);
  std::vector<SpanBuffer*> mine(o.threads);
  for (std::size_t t = 0; t < o.threads; ++t) {
    buffers.push_back(std::make_unique<SpanBuffer>(
        static_cast<std::uint32_t>(100 + buffers.size())));
    mine[t] = buffers.back().get();
  }
  run_pinned(o.threads, cpus, [&](std::size_t t) {
    per_thread[t] = bench(cells[t], *mine[t]);
  });
  return median(per_thread);
}

void write_trace(const std::string& path, const std::string& workload,
                 const TickClock& clock, std::uint64_t origin,
                 const std::vector<const SpanBuffer*>& buffers) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out.precision(15);
  out << "{\"traceEvents\": [\n";
  bool first = true;
  for (const SpanBuffer* b : buffers) {
    for (const Span& s : b->spans()) {
      out << (first ? "" : ",\n") << "{\"name\": \"" << s.name
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.thread
          << ", \"ts\": " << clock.ns(s.start - origin) / 1000
          << ", \"dur\": " << clock.ns(s.end - s.start) / 1000
          << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
          << ", \"op\": " << s.op << ", \"workload\": \"" << workload << "\"}}";
      first = false;
    }
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("failed writing " + path);
}

constexpr std::array<const char*, hcf::core::kNumPhases> kPhaseNames = {
    "private", "visible", "combining", "under_lock"};

template <typename W>
Result run_traced(const W& w, const Options& o, const std::vector<int>& cpus) {
  namespace htm = hcf::htm;
  Result r;
  const Seconds total{o.seconds};
  const Seconds a_budget = total * 0.3;  // each of the two loaded segments
  const Seconds solo_budget = total * 0.25;
  const Seconds micro_budget = total * 0.15 / 10;  // ten microbenchmarks

  // Span thread ids: 0..threads-1 the crew, `threads` the main thread,
  // 100 and up the solo-ledger and microbenchmark threads.
  SpanBuffer main_spans(static_cast<std::uint32_t>(o.threads));
  std::vector<std::unique_ptr<SpanBuffer>> extra;

  Loaded<W> l;
  set_up(l, w, o, cpus);
  auto& crew = *l.crew;
  auto& engine = *l.inst->engine;

  TickClock clock;
  clock.start();
  const std::uint64_t origin = ticks();
  crew.start(Mode::Plain, 0);
  sleep_for(kWarmup);
  crew.stop();
  clock.stop();

  // A0: the untraced configuration, with the layers' counters snapshotted
  // around it.
  const auto park0 = std::array{hcf::util::park_stats().parks.total(),
                                hcf::util::park_stats().yields.total(),
                                hcf::util::park_stats().spurious_wakes.total()};
  const auto htm0 = htm::StatsSnapshot::capture();
  const auto eng0 = hcf::core::EngineStatsSnapshot::capture(engine.stats());
  const auto mem0 = hcf::mem::ReclaimSnapshot::capture();
  const std::uint64_t lock0 = engine.lock_acquisitions();
  const std::uint64_t ops0 = crew.progress();
  std::uint64_t seg_t0 = ticks();
  auto wall0 = Clock::now();
  crew.start(Mode::Sampled, o.latency_every);
  sleep_for(a_budget);
  crew.stop();
  const double a0_s = Seconds(Clock::now() - wall0).count();
  main_spans.add("run.untraced", seg_t0, ticks(), 0);
  const auto ops = static_cast<double>(crew.progress() - ops0);
  const auto hs = htm::StatsSnapshot::capture().delta_since(htm0);
  const auto es =
      hcf::core::EngineStatsSnapshot::capture(engine.stats()).delta_since(eng0);
  const auto ms = hcf::mem::ReclaimSnapshot::capture().delta_since(mem0);
  const auto locks = static_cast<double>(engine.lock_acquisitions() - lock0);
  const double parks =
      static_cast<double>(hcf::util::park_stats().parks.total() - park0[0]);
  const double yields =
      static_cast<double>(hcf::util::park_stats().yields.total() - park0[1]);
  const double spurious = static_cast<double>(
      hcf::util::park_stats().spurious_wakes.total() - park0[2]);
  const double a0_rate = ops / a0_s;

  // A1: the same crew with op spans on.
  const std::uint64_t a1_id = main_spans.next_id();
  const std::uint64_t ops1 = crew.progress();
  seg_t0 = ticks();
  wall0 = Clock::now();
  crew.start(Mode::Traced, kTraceEvery, a1_id);
  sleep_for(a_budget);
  crew.stop();
  const double a1_rate = static_cast<double>(crew.progress() - ops1) /
                         Seconds(Clock::now() - wall0).count();
  main_spans.add_with_id(a1_id, "run.traced", seg_t0, ticks(), 0);

  std::array<std::vector<std::uint32_t>, hcf::core::kNumPhases> by_phase;
  for (std::size_t t = 0; t < crew.size(); ++t) {
    for (std::size_t p = 0; p < by_phase.size(); ++p) {
      crew.log(t).by_phase[p].append_to(by_phase[p]);
    }
  }
  settle(l, r);
  std::vector<SpanBuffer> crew_spans;
  for (std::size_t t = 0; t < crew.size(); ++t) {
    crew_spans.push_back(std::move(crew.log(t).spans));
  }
  const std::size_t crew_size = crew.size();
  // B and C run on pinned threads of their own, with the crew gone.
  l.reset();
  SoloLedger solo;
  double empty_ns = 0, read64_ns = 0, write_solo = 0, abort_solo = 0;
  double txlock_ns = 0, spinlock_ns = 0, guard_ns = 0, alloc_retire_ns = 0;
  extra.push_back(std::make_unique<SpanBuffer>(100));
  SpanBuffer& solo_spans = *extra.back();
  extra.push_back(std::make_unique<SpanBuffer>(101));
  SpanBuffer& micro_spans = *extra.back();
  // The segment spans go to the main thread's buffer, which is idle (it
  // joins this thread) and so never full of the segment's own spans.
  run_pinned(1, cpus, [&](std::size_t) {
    const std::uint64_t ledger_id = main_spans.next_id();
    const std::uint64_t t0 = ticks();
    solo = solo_ledger(w, o, solo_budget, clock, solo_spans, ledger_id);
    main_spans.add_with_id(ledger_id, "ledger.solo", t0, ticks(), 0);

    const std::uint64_t micro_id = main_spans.next_id();
    const std::uint64_t m0 = ticks();
    Cell cell;
    std::vector<Cell> cells(64);
    empty_ns = ns_per_call([] { hcf::htm::attempt([] {}); }, micro_budget,
                           clock, micro_spans, "sim_htm.attempt.empty",
                           micro_id);
    read64_ns = ns_per_call(
        [&] {
          hcf::htm::attempt([&] {
            // Acquire loads through the substrate; never elided.
            for (auto& c : cells) (void)hcf::htm::read(&c.v);
          });
        },
        micro_budget, clock, micro_spans, "sim_htm.attempt.read64", micro_id);
    write_solo =
        write_commit_ns(cell, micro_budget, clock, micro_spans, micro_id);
    abort_solo = abort_ns(cell, micro_budget, clock, micro_spans, micro_id);
    hcf::sync::TxLock txlock;
    txlock_ns = ns_per_call(
        [&] {
          txlock.lock();
          txlock.unlock();
        },
        micro_budget, clock, micro_spans, "sync.txlock", micro_id);
    hcf::sync::SpinLock spinlock;
    spinlock_ns = ns_per_call(
        [&] {
          spinlock.lock();
          spinlock.unlock();
        },
        micro_budget, clock, micro_spans, "sync.spinlock", micro_id);
    guard_ns = ns_per_call([] { hcf::mem::Guard g; }, micro_budget, clock,
                           micro_spans, "mem.guard", micro_id);
    alloc_retire_ns = ns_per_call(
        [] { hcf::mem::retire(hcf::mem::alloc<Node48>()); }, micro_budget,
        clock, micro_spans, "mem.alloc_retire", micro_id);
    main_spans.add_with_id(micro_id, "micro.solo", m0, ticks(), 0);
  });
  const double write_loaded =
      loaded(o, cpus, extra, [&](Cell& c, SpanBuffer& sb) {
        return write_commit_ns(c, micro_budget, clock, sb, 0);
      });
  const double abort_loaded =
      loaded(o, cpus, extra, [&](Cell& c, SpanBuffer& sb) {
        return abort_ns(c, micro_budget, clock, sb, 0);
      });
  r.failed += solo.failed;
  r.correct = r.failed == 0;

  // Integer counts convert to double implicitly at these calls.
  auto& m = r.metrics;
  const double total_ops = es.total();
  const double aborts = hs.total_aborts();
  auto per_op = [&](double v) { return ratio(v, ops); };
  auto per_kop = [&](double v) { return 1000 * ratio(v, ops); };
  auto aborts_of = [&](htm::AbortCode c) {
    return per_op(hs.aborts[static_cast<int>(c)]);
  };

  m.set("ds.body_ns", solo.body_ns, "ns");
  m.set("sim_htm.tx_overhead_ns", solo.tx_overhead_ns, "ns");
  m.set("sim_htm.empty_commit_ns", empty_ns, "ns");
  m.set("sim_htm.read_ns", (read64_ns - empty_ns) / 64, "ns");
  m.set("sim_htm.write_commit_ns.solo", write_solo, "ns");
  m.set("sim_htm.write_commit_ns.loaded", write_loaded, "ns");
  m.set("sim_htm.abort_ns.solo", abort_solo, "ns");
  m.set("sim_htm.abort_ns.loaded", abort_loaded, "ns");
  m.set("sim_htm.ro_commit_share", ratio(hs.read_only_commits, hs.commits),
        "share");
  m.set("sim_htm.commit_ratio", ratio(hs.commits, hs.starts), "share");
  m.set("sim_htm.reads_per_op", per_op(hs.tx_reads), "1/op");
  m.set("sim_htm.writes_per_op", per_op(hs.tx_writes), "1/op");
  m.set("sim_htm.strong_stores_per_op", per_op(hs.strong_stores), "1/op");
  m.set("sim_htm.extensions_per_op", per_op(hs.snapshot_extensions), "1/op");
  m.set("sim_htm.aborts_per_op", per_op(aborts), "1/op");
  m.set("sim_htm.conflict_aborts_per_op",
        aborts_of(htm::AbortCode::Conflict), "1/op");
  m.set("sim_htm.capacity_aborts_per_op",
        aborts_of(htm::AbortCode::Capacity), "1/op");
  m.set("sim_htm.lock_busy_aborts_per_op",
        aborts_of(htm::AbortCode::LockBusy), "1/op");

  m.set("core.protocol_ns", solo.protocol_ns, "ns");
  for (int p = 0; p < hcf::core::kNumPhases; ++p) {
    m.set(std::string("core.share.") + kPhaseNames[p],
          ratio(es.phase_total(static_cast<Phase>(p)), total_ops), "share");
  }
  m.set("core.combine_degree", es.combining_degree(), "ops/session");
  m.set("core.helped_share", ratio(es.helped_ops, total_ops), "share");
  m.set("core.sessions_per_kop", per_kop(es.combiner_sessions), "1/kop");
  double attempt_failures = 0;
  for (auto f : es.attempt_failures) attempt_failures += f;
  m.set("core.attempt_failures_per_op", per_op(attempt_failures), "1/op");
  m.set("core.lock_acq_per_kop", per_kop(locks), "1/kop");
  for (int p = 0; p < hcf::core::kNumPhases; ++p) {
    m.set(std::string("core.op_p50_ns.") + kPhaseNames[p],
          clock.ns(percentile(by_phase[p], 0.50)), "ns");
    m.set(std::string("core.op_p99_ns.") + kPhaseNames[p],
          clock.ns(percentile(by_phase[p], 0.99)), "ns");
  }

  m.set("sync.txlock_ns", txlock_ns, "ns");
  m.set("sync.spinlock_ns", spinlock_ns, "ns");

  const double retires = ms.local_retires + ms.remote_retires;
  m.set("mem.retires_per_op", per_op(retires), "1/op");
  m.set("mem.remote_share", ratio(ms.remote_retires, retires), "share");
  m.set("mem.blocks_per_flush", ratio(ms.remote_retires, ms.remote_flushes),
        "blocks");
  m.set("mem.drains_per_kop", per_kop(ms.remote_drains), "1/kop");
  m.set("mem.refills_per_kop", per_kop(ms.pool_refills), "1/kop");
  m.set("mem.guard_ns", guard_ns, "ns");
  m.set("mem.alloc_retire_ns", alloc_retire_ns, "ns");

  m.set("parking.parks_per_kop", per_kop(parks), "1/kop");
  m.set("parking.yields_per_op", per_op(yields), "1/op");
  m.set("parking.spurious_share", ratio(spurious, parks), "share");

  const double op_ns = ratio(crew_size * 1e9, a0_rate);
  const double solo_ns = solo.body_ns + solo.tx_overhead_ns + solo.protocol_ns;
  m.set("ledger.op_ns", op_ns, "ns");
  m.set("ledger.solo_ns", solo_ns, "ns");
  m.set("ledger.contention_ns", op_ns - solo_ns, "ns");
  m.set("ledger.abort_est_ns", per_op(aborts) * abort_loaded, "ns");
  m.set("trace.overhead_share", 1 - ratio(a1_rate, a0_rate), "share");

  std::uint64_t spans = 0, dropped = 0;
  std::vector<const SpanBuffer*> buffers{&main_spans};
  for (const auto& b : crew_spans) buffers.push_back(&b);
  for (const auto& b : extra) buffers.push_back(b.get());
  for (const SpanBuffer* b : buffers) {
    spans += b->spans().size();
    dropped += b->dropped();
  }
  if (!o.trace_out.empty()) {
    write_trace(o.trace_out, o.workload, clock, origin, buffers);
  }

  r.info.set("threads", crew_size, "count");
  r.info.set("ops_untraced", ops, "count");
  r.info.set("spans", spans, "count");
  r.info.set("spans_dropped", dropped, "count");
  r.info.set("failed_op_share", ratio(r.failed, r.attempted), "share");
  for (int p = 0; p < hcf::core::kNumPhases; ++p) {
    r.info.set(std::string("phase_samples.") + kPhaseNames[p],
               by_phase[p].size(), "count");
  }
  return r;
}

template <typename W>
Result run(const W& w, const Options& o, const std::vector<int>& cpus) {
  return o.trace ? run_traced(w, o, cpus) : run_untraced(w, o, cpus);
}

}  // namespace
}  // namespace hcfbench

int main(int argc, char** argv) {
  using namespace hcfbench;
  Options o = parse_options(argc, argv);
  const std::vector<int> cpus = allowed_cpus();
  o.threads = std::min(o.threads, cpus.size());

  Result r;
  try {
    if (o.workload == "ht-read") {
      r = run(HtWorkload{{100, 0}}, o, cpus);
    } else if (o.workload == "ht-update") {
      r = run(HtWorkload{{40, 30}}, o, cpus);
    } else if (o.workload == "pq-mixed") {
      r = run(PqWorkload{}, o, cpus);
    } else {
      usage_error("unknown workload " + o.workload);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hcfbench: %s\n", e.what());
    return 1;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s, \"summary\": %s}\n",
      r.correct ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), r.metrics.json().c_str(),
      r.info.json().c_str());
  return 0;
}
