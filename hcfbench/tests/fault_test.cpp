// The benchmark's correctness gate must catch wrong results. A
// fault-injecting Find wrapper corrupts 1 in kEvery reported hits: the
// per-op check must flag them, so failed_op_share rises above 0, while the
// same run with the real Find op reports no failure. Tampering with a
// structure behind the clients' backs must fail the end-of-run checks.
//
// Built by hcfbench/CMakeLists.txt; run by hcfbench/selftest.py. Exits 0
// when every check holds.
#include <cstdio>
#include <thread>

#include "workloads.hpp"

namespace {

using namespace hcfbench;

// Same class and execution as the adapter's Find (the engine runs the real
// lookup), but every kEvery-th hit is reported with a wrong value. Find
// ops are never announced, so no combiner hands this wrapper to another
// op's run_multi.
class FaultyFind final : public hcf::core::Operation<Table> {
 public:
  static constexpr std::uint64_t kEvery = 97;

  FaultyFind() : Operation(hcf::adapters::kHtReadWriteClass) {}

  void set(Key key) noexcept { inner_.set(key); }
  void run_seq(Table& t) override { inner_.run_seq(t); }

  std::optional<Key> result() noexcept {
    std::optional<Key> r = inner_.result();
    if (r.has_value() && ++hits_ % kEvery == 0) *r += 1;
    return r;
  }

 private:
  hcf::adapters::HtFindOp<Key, Key> inner_;
  std::uint64_t hits_ = 0;
};

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s: %s\n", ok ? "PASS" : "FAIL", what);
  if (!ok) ++failures;
}

// Runs ht-read's mix with two closed-loop clients of type Client for
// 200 ms; returns {attempted, failed}.
template <typename Client>
std::pair<std::uint64_t, std::uint64_t> run_ht_read(HtInstance& inst) {
  Crew<Client> crew(2, allowed_cpus(), [&inst](std::size_t t) {
    return std::make_unique<Client>(*inst.engine, HtMix{100, 0},
                                    stream_seed(7, t));
  });
  crew.start(Mode::Plain, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  crew.stop();
  std::uint64_t ops = 0, failed = 0;
  for (std::size_t t = 0; t < crew.size(); ++t) {
    ops += crew.log(t).ops;
    failed += crew.log(t).failed;
  }
  return {ops, failed};
}

}  // namespace

int main() {
  HtInstance table;
  table.prefill(7);

  const auto [clean_ops, clean_failed] =
      run_ht_read<HtClient<HtInstance::Engine>>(table);
  expect(clean_ops > 0 && clean_failed == 0,
         "real Find ops: failed_op_share == 0");

  const auto [ops, failed] =
      run_ht_read<HtClient<HtInstance::Engine, Layer::Execute, FaultyFind>>(
          table);
  const double share =
      ops == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(ops);
  std::printf("fault-injected run: attempted=%llu failed=%llu share=%.5f\n",
              static_cast<unsigned long long>(ops),
              static_cast<unsigned long long>(failed), share);
  expect(share > 0, "fault-injecting Find wrapper: failed_op_share > 0");
  // Half the keys are present, so about 1 op in 2 * kEvery is corrupted.
  expect(share > 0.25 / FaultyFind::kEvery && share < 1.0 / FaultyFind::kEvery,
         "failed_op_share matches the injected fault rate");

  expect(check_table(table, 0) == 0, "untouched table passes the end check");
  Key present = 0;
  table.ds->for_each([&present](Key k, Key) { present = k; });
  table.ds->remove(present);
  expect(check_table(table, 0) > 0,
         "key removed behind the clients' backs fails the end check");

  PqInstance clean, tampered;
  clean.prefill(7);
  tampered.prefill(7);
  expect(check_queue(clean, {}, {}) == 0,
         "untouched queue passes the drain check");
  tampered.ds->insert(kPqKeyRange / 2);
  expect(check_queue(tampered, {}, {}) > 0,
         "key inserted behind the clients' backs fails the drain check");
  return failures == 0 ? 0 : 1;
}
