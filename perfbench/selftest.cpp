// Self-tests of the benchmark's own arithmetic (bench_core.hpp):
//
//   * percentile selection — nearest rank, samples beyond a percentile, the
//     highest percentile with at least ten samples beyond it, and the
//     segmented tail;
//   * due-time latency accounting — a generator stalled inside submit must
//     charge the stall to every request that was due during it;
//   * span self-time arithmetic — overlapping, nested and clipped children;
//   * the closed loop's outstanding bound, and the Zipf and Poisson draws.
//
// Build and run: python3 perfbench/run.py --selftest (or the bench_selftest
// target of perfbench/CMakeLists.txt). Exits nonzero if any check fails.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <thread>
#include <vector>

#include "bench_core.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

bool near(double a, double b, double eps = 1e-9) { return std::fabs(a - b) <= eps; }

std::vector<double> iota(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

void testPercentiles() {
  // Nearest rank over 1..100: p50 is 50, p99 is 99, p100 is 100.
  const auto v = iota(100);
  CHECK(near(percentile(v, 50), 50));
  CHECK(near(percentile(v, 99), 99));
  CHECK(near(percentile(v, 100), 100));
  CHECK(near(percentile({}, 50), 0));
  CHECK(near(percentile({7}, 99), 7));
  // Order does not matter.
  CHECK(near(percentile({3, 1, 2}, 50), 2));

  // Samples beyond p99: 1000 leave exactly 10, 999 leave 9.
  CHECK(samplesBeyond(1000, 99) == 10);
  CHECK(samplesBeyond(999, 99) == 9);
  CHECK(samplesBeyond(100, 50) == 50);
  CHECK(samplesBeyond(0, 99) == 0);
  CHECK(minSamplesFor(99) == 1000);
  CHECK(minSamplesFor(50) == 20);

  // The highest percentile with at least ten beyond it.
  CHECK(highestSupportedPercentile(10000) == 99.9);
  CHECK(highestSupportedPercentile(9999) == 99.0);
  CHECK(highestSupportedPercentile(1000) == 99.0);
  CHECK(highestSupportedPercentile(999) == 95.0);
  CHECK(highestSupportedPercentile(200) == 95.0);
  CHECK(highestSupportedPercentile(100) == 90.0);
  CHECK(highestSupportedPercentile(20) == 50.0);
  CHECK(!highestSupportedPercentile(19).has_value());

  // Segmented tail: with one segment it is the plain percentile; with
  // three, one stalled segment cannot move the median of the tails.
  const auto one = iota(1500);
  CHECK(near(segmentedPercentile(one, 99), percentile(one, 99)));
  std::vector<double> three(3000, 1.0);
  for (std::size_t i = 0; i < 1000; ++i) three[i] = 100.0;  // stalled segment
  three[1500] = 5.0;
  CHECK(near(segmentedPercentile(three, 99), 1.0));
  CHECK(near(percentile(three, 99), 100.0));
}

void testStallAccounting() {
  // One slot, an instant service, requests due every 2 ms; the submit
  // function stalls 30 ms on request 5. Requests due during the stall are
  // submitted late, and their latency must run from their due time.
  using namespace std::chrono;
  constexpr std::size_t kN = 30;
  constexpr auto kGap = milliseconds(2);
  constexpr auto kStall = milliseconds(30);
  LoadGenerator<int> gen(1, [&](std::size_t i) {
    if (i == 5) std::this_thread::sleep_for(kStall);
    std::promise<int> p;
    p.set_value(static_cast<int>(i));
    return p.get_future();
  });
  std::vector<std::size_t> requests(kN);
  std::vector<Clock::duration> offsets(kN);
  std::vector<std::size_t> slotOf(kN, 0);
  for (std::size_t i = 0; i < kN; ++i) {
    requests[i] = i;
    offsets[i] = kGap * static_cast<int>(i);
  }
  const auto start = Clock::now() + milliseconds(5);
  const auto r = gen.runOpen(requests, offsets, slotOf, start, start + seconds(10));
  CHECK(r.samples.size() == kN);
  CHECK(r.completedInWindow == kN);
  const auto stallEnd = r.samples[5].submitted;
  CHECK(stallEnd - r.samples[5].due >= kStall);
  std::size_t charged = 0;
  for (const auto& s : r.samples) {
    CHECK(s.ok());
    CHECK(s.result == static_cast<int>(s.request));
    // Every request from the stalled one on that was due before the stall
    // ended was submitted after it, and its latency counts the wait.
    if (s.request >= 5 && s.due < stallEnd) {
      CHECK(s.lateMs() + 0.01 >= msBetween(s.due, stallEnd));
      CHECK(s.latencyMs() + 0.01 >= msBetween(s.due, stallEnd));
      ++charged;
    }
    // ...and is at least the generator's lateness for every request.
    CHECK(s.latencyMs() + 1e-9 >= s.lateMs());
  }
  // Requests 5.. due inside the 30 ms stall: at least 5, 6, ..., 19.
  CHECK(charged >= 15);
  // The same samples timed from submission would hide the stall.
  CHECK(msBetween(r.samples[10].submitted, r.samples[10].done) <
        r.samples[10].latencyMs());
  CHECK(r.outstandingMax >= 1);
}

void testClosedLoop() {
  // A closed loop never exceeds its outstanding bound and counts only
  // completions inside the window.
  using namespace std::chrono;
  std::vector<std::size_t> requests(10000);
  for (std::size_t i = 0; i < requests.size(); ++i) requests[i] = i;
  std::vector<std::size_t> slotOf(requests.size());
  for (std::size_t i = 0; i < slotOf.size(); ++i) slotOf[i] = i % 2;
  LoadGenerator<int> gen(2, [](std::size_t i) {
    return std::async(std::launch::async, [i] {
      std::this_thread::sleep_for(microseconds(200));
      return static_cast<int>(i);
    });
  });
  bool called = false;
  const auto windowEnd = Clock::now() + milliseconds(100);
  const auto r = gen.runClosed(requests, slotOf, 3, windowEnd,
                               windowEnd + seconds(5), [&] { called = true; });
  CHECK(called);
  CHECK(!r.exhausted);
  CHECK(r.outstandingMax <= 3);
  CHECK(r.completedInWindow > 0);
  CHECK(r.completedInWindow <= r.samples.size());
  for (const auto& s : r.samples) CHECK(s.ok());
}

void testSpans() {
  // Parent [0, 100). Children [10, 30) and [20, 50) overlap: union 40.
  CHECK(coveredNs({0, 100}, {{10, 30}, {20, 50}}) == 40);
  CHECK(selfNs({0, 100}, {{10, 30}, {20, 50}}) == 60);
  // Nested child adds nothing; a disjoint one adds its length.
  CHECK(coveredNs({0, 100}, {{10, 50}, {20, 30}, {60, 70}}) == 50);
  // Children are clipped to the parent.
  CHECK(coveredNs({0, 100}, {{-20, 10}, {90, 150}}) == 20);
  CHECK(coveredNs({0, 100}, {{200, 300}}) == 0);
  // Touching children do not double count; unordered input is fine.
  CHECK(coveredNs({0, 100}, {{50, 60}, {40, 50}}) == 20);
  CHECK(selfNs({0, 100}, {}) == 100);
  CHECK(selfNs({0, 100}, {{0, 100}, {0, 100}}) == 0);
}

void testZipf() {
  const Zipf z(4, 1.0);
  // Weights 1, 1/2, 1/3, 1/4 over 25/12: rank 0 holds 12/25 of the mass.
  CHECK(z(0.0) == 0);
  CHECK(z(0.47) == 0);
  CHECK(z(0.49) == 1);
  CHECK(z(0.9999) == 3);
  double t = 0.0;
  int calls = 0;
  const auto s = poissonSchedule(1000.0, 2000, [&] {
    ++calls;
    return std::fmod(0.618033988749895 * ++t, 1.0);
  });
  CHECK(s.size() == 2000);
  CHECK(calls == 2000);
  for (std::size_t i = 1; i < s.size(); ++i) CHECK(s[i] >= s[i - 1]);
}

}  // namespace

int main() {
  testPercentiles();
  testStallAccounting();
  testClosedLoop();
  testSpans();
  testZipf();
  if (g_failures != 0) {
    std::fprintf(stderr, "bench_selftest: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("bench_selftest: all checks passed\n");
  return 0;
}
