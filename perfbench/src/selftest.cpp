// Self-test of the benchmark itself: the tail-percentile rule, span
// self-time arithmetic, and that a wrong expected digest is counted as a
// failure (error_rate > 0) while the right one is not.
//
//   perfbench_selftest        (run.py --selftest builds and runs it)
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <algorithm>

#include "workloads.h"

namespace perfbench {
namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void test_percentile_rule() {
  // Nearest rank: p99 of 1000 samples is rank 990, leaving 10 beyond it.
  expect(samples_beyond(1000, 99) == 10, "1000 samples leave 10 beyond p99");
  expect(samples_beyond(999, 99) == 9, "999 samples leave 9 beyond p99");
  expect(highest_supported_percentile(1000) == 99, "p99 reported at n=1000");
  expect(highest_supported_percentile(999) == 95, "p95 reported at n=999");
  expect(highest_supported_percentile(200) == 95, "p95 reported at n=200");
  expect(highest_supported_percentile(100) == 90, "p90 reported at n=100");
  expect(highest_supported_percentile(19) == 0, "no tail at n=19");
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  expect(near(percentile(v, 50), 50) && near(percentile(v, 99), 99) &&
             near(percentile(v, 100), 100),
         "nearest-rank values on 1..100");
  expect(near(median({3, 1, 2}), 2) && near(median({4, 1, 3, 2}), 2.5),
         "median of odd and even samples");
}

void test_self_times() {
  std::vector<Span> spans(6);
  const auto set = [&](int id, int parent, double a, double b) {
    spans[static_cast<size_t>(id)] = {id, parent, 0, "s", a, b};
  };
  set(0, -1, 0.0, 10.0);
  set(1, 0, 1.0, 3.0);   // overlaps the next child: union [1, 5]
  set(2, 0, 2.0, 5.0);
  set(3, 0, 7.0, 8.0);
  set(4, 0, 9.0, 12.0);  // clipped to the parent: [9, 10]
  set(5, 2, 2.5, 3.5);   // grandchild: counts against span 2 only
  const std::vector<double> self = self_times(spans);
  expect(near(self[0], 10.0 - 4.0 - 1.0 - 1.0), "parent self = 10 - union(children)");
  expect(near(self[1], 2.0), "leaf self = duration");
  expect(near(self[2], 3.0 - 1.0), "child self excludes grandchild");
  const std::vector<SpanSummary> sum = summarize_spans(spans);
  expect(sum.size() == 1 && sum[0].count == 6, "summary groups by name");
}

void test_digest_gate() {
  Options o;
  o.workload = "inception-a";
  o.seed = 7;
  o.seconds = 0.01;
  o.nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  Trace off(false);
  const Outcome clean = run_workload(o, off);
  expect(clean.failed == 0 && clean.attempted > 0, "clean run has no failures");

  o.expected_digest = clean.digest;
  const Outcome right = run_workload(o, off);
  expect(right.digest_checked && right.failed == 0,
         "matching committed digest passes");

  o.expected_digest = clean.digest ^ 1ULL;
  const Outcome wrong = run_workload(o, off);
  expect(wrong.failed > 0 && wrong.error_rate() > 0.0,
         "corrupted committed digest drives error_rate above 0");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::test_percentile_rule();
  perfbench::test_self_times();
  perfbench::test_digest_gate();
  std::printf("%s\n", perfbench::failures == 0 ? "selftest passed"
                                               : "selftest FAILED");
  return perfbench::failures == 0 ? 0 : 1;
}
