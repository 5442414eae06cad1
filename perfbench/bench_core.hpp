// The benchmark's own arithmetic and load generator, kept free of fsw types
// so the self-tests (selftest.cpp) exercise exactly the code the fleet
// benchmark (fleet_bench.cpp) measures with.
//
//   * percentiles: nearest-rank, and the rule for which tail percentile a
//     sample count supports (at least ten samples beyond it);
//   * spans: a layer's self time is its span minus the union of its child
//     spans clipped to it (children may run in parallel and overlap);
//   * LoadGenerator: one submit thread plus one completion waiter per
//     router slot. Open loop: request i is due at a fixed offset from the
//     phase start and its latency runs from that due time, so a stalled
//     generator shows up as latency, and its lateness is reported.
//     Closed loop: a fixed number of requests outstanding.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---- percentiles -----------------------------------------------------------
// Nearest rank (not fsw::percentile's interpolation): "samples beyond the
// p-th percentile" is then an exact count.

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it. 0 for an empty set.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()) / 100.0);
  const auto idx = static_cast<std::size_t>(std::clamp(
      rank, 1.0, static_cast<double>(v.size())));
  return v[idx - 1];
}

/// Samples strictly beyond the nearest-rank p-th percentile of n samples.
inline std::size_t samplesBeyond(std::size_t n, double p) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(n) / 100.0));
  return n - std::min(n, std::max<std::size_t>(rank, 1));
}

/// The highest of the usual tail percentiles that has at least `minBeyond`
/// samples beyond it, or nullopt when not even the median does.
inline std::optional<double> highestSupportedPercentile(
    std::size_t n, std::size_t minBeyond = 10) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 50.0}) {
    if (n > 0 && samplesBeyond(n, p) >= minBeyond) return p;
  }
  return std::nullopt;
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 50); }

/// The smallest sample count with at least `minBeyond` samples beyond the
/// p-th percentile (1000 for p99 and ten beyond).
inline std::size_t minSamplesFor(double p, std::size_t minBeyond = 10) {
  std::size_t n = 1;
  while (samplesBeyond(n, p) < minBeyond) ++n;
  return n;
}

/// A tail percentile that a few isolated stalls cannot carry: the samples,
/// in the order they were due, are cut into as many consecutive segments as
/// still hold minSamplesFor(p) samples each; the result is the median of
/// the segments' p-th percentiles (one segment: the plain percentile).
inline double segmentedPercentile(const std::vector<double>& ordered, double p,
                                  std::size_t minBeyond = 10) {
  const std::size_t segments =
      std::max<std::size_t>(1, ordered.size() / minSamplesFor(p, minBeyond));
  std::vector<double> tails;
  for (std::size_t k = 0; k < segments; ++k) {
    const auto lo = ordered.begin() + static_cast<std::ptrdiff_t>(k * ordered.size() / segments);
    const auto hi = ordered.begin() + static_cast<std::ptrdiff_t>((k + 1) * ordered.size() / segments);
    tails.push_back(percentile(std::vector<double>(lo, hi), p));
  }
  return median(std::move(tails));
}

// ---- spans ------------------------------------------------------------------

struct Interval {
  std::int64_t start = 0;  ///< ns
  std::int64_t end = 0;    ///< ns, >= start
};

/// Length of the union of `children` clipped to `parent`.
inline std::int64_t coveredNs(Interval parent, std::vector<Interval> children) {
  for (auto& c : children) {
    c.start = std::max(c.start, parent.start);
    c.end = std::min(c.end, parent.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  std::int64_t covered = 0;
  std::int64_t reach = parent.start;
  for (const auto& c : children) {
    if (c.end <= c.start) continue;
    const std::int64_t from = std::max(c.start, reach);
    if (c.end > from) {
      covered += c.end - from;
      reach = c.end;
    }
  }
  return covered;
}

/// A span's self time: its duration minus what its children cover.
inline std::int64_t selfNs(Interval parent, std::vector<Interval> children) {
  return (parent.end - parent.start) - coveredNs(parent, std::move(children));
}

// ---- load generator ---------------------------------------------------------

/// One request's life as the generator saw it.
template <class T>
struct Sample {
  std::size_t request = 0;  ///< index into the caller's request list
  std::size_t slot = 0;     ///< router slot the request was routed to
  Clock::time_point due{};  ///< open loop: schedule; closed loop: = submitted
  Clock::time_point submitted{};
  Clock::time_point done{};
  bool completed = false;  ///< the future became ready before the deadline
  std::optional<T> result;
  std::string error;  ///< non-empty when the request failed

  [[nodiscard]] bool ok() const { return completed && result.has_value(); }
  [[nodiscard]] double latencyMs() const { return msBetween(due, done); }
  [[nodiscard]] double lateMs() const { return msBetween(due, submitted); }
};

template <class T>
struct PhaseResult {
  /// In submit order. A deque, so the submit thread can append while the
  /// waiters fill in earlier samples through stable references.
  std::deque<Sample<T>> samples;
  Clock::time_point start{};
  Clock::time_point end{};  ///< closed loop: end of the counting window
  std::size_t completedInWindow = 0;
  std::size_t outstandingMax = 0;
  bool exhausted = false;  ///< closed loop: ran out of requests in the window
};

/// Drives a submit -> future service from one submit thread (the caller)
/// and one waiter thread per slot. The service must complete each slot's
/// requests in submit order, as PlanRouter does (one FIFO per host slot), so
/// a waiter stamps each completion when its future becomes ready.
template <class T>
class LoadGenerator {
 public:
  using SubmitFn = std::function<std::future<T>(std::size_t request)>;

  LoadGenerator(std::size_t slots, SubmitFn submit)
      : slots_(std::max<std::size_t>(slots, 1)), submit_(std::move(submit)) {}

  /// Open loop: request `requests[k]` is due at `start + offsets[k]` and is
  /// submitted then (or as soon as the generator gets to it). Returns once
  /// every request completed or `drainDeadline` passed.
  PhaseResult<T> runOpen(const std::vector<std::size_t>& requests,
                         const std::vector<Clock::duration>& offsets,
                         const std::vector<std::size_t>& slotOf,
                         Clock::time_point start,
                         Clock::time_point drainDeadline) {
    PhaseResult<T> out;
    out.start = start;
    Waiters waiters(*this, out, drainDeadline, nullptr);
    for (std::size_t k = 0; k < requests.size(); ++k) {
      const auto due = start + offsets[k];
      std::this_thread::sleep_until(due);
      submitOne(out, waiters, requests[k], slotOf[requests[k]], due);
    }
    waiters.finish();
    out.end = Clock::now();
    out.completedInWindow = waiters.completed();
    return out;
  }

  /// Closed loop: keeps `outstanding` requests in flight, taking them from
  /// `requests` in order, until `windowEnd`; completions inside the window
  /// are counted. Returns once the stragglers completed or `drainDeadline`
  /// passed.
  /// `atWindowEnd` runs on the submit thread as the window closes (e.g. to
  /// sample CPU time). `exhausted` is set when `requests` ran out first.
  PhaseResult<T> runClosed(const std::vector<std::size_t>& requests,
                           const std::vector<std::size_t>& slotOf,
                           std::size_t outstanding, Clock::time_point windowEnd,
                           Clock::time_point drainDeadline,
                           const std::function<void()>& atWindowEnd = {}) {
    PhaseResult<T> out;
    out.start = Clock::now();
    out.end = windowEnd;
    Waiters waiters(*this, out, drainDeadline, &windowEnd);
    std::size_t k = 0;
    for (; k < requests.size(); ++k) {
      if (!waiters.awaitBelow(std::max<std::size_t>(outstanding, 1), windowEnd)) {
        break;
      }
      submitOne(out, waiters, requests[k], slotOf[requests[k]], Clock::now());
    }
    out.exhausted = k == requests.size();
    if (atWindowEnd) atWindowEnd();
    waiters.finish();
    out.completedInWindow = waiters.completedInWindow();
    return out;
  }

 private:
  struct Pending {
    Sample<T>* sample = nullptr;  ///< written only by the slot's waiter
    std::future<T> future;
  };

  /// The per-slot waiter threads and the in-flight count they share with
  /// the submit thread.
  class Waiters {
   public:
    Waiters(LoadGenerator& gen, PhaseResult<T>& out,
            Clock::time_point drainDeadline, const Clock::time_point* window)
        : out_(out), deadline_(drainDeadline), window_(window),
          queues_(gen.slots_) {
      threads_.reserve(gen.slots_);
      for (std::size_t s = 0; s < gen.slots_; ++s) {
        threads_.emplace_back([this, s] { loop(s); });
      }
    }
    ~Waiters() { finish(); }
    Waiters(const Waiters&) = delete;
    Waiters& operator=(const Waiters&) = delete;

    void push(std::size_t slot, Pending p) {
      std::lock_guard lk(mu_);
      queues_[slot].push_back(std::move(p));
      ++inFlight_;
      out_.outstandingMax = std::max(out_.outstandingMax, inFlight_);
      cv_.notify_all();
    }

    /// Blocks until fewer than `limit` requests are in flight; false when
    /// `until` passed first.
    bool awaitBelow(std::size_t limit, Clock::time_point until) {
      std::unique_lock lk(mu_);
      return cv_.wait_until(lk, until, [&] { return inFlight_ < limit; }) &&
             Clock::now() < until;
    }

    void finish() {
      {
        std::lock_guard lk(mu_);
        closing_ = true;
        cv_.notify_all();
      }
      for (auto& t : threads_) {
        if (t.joinable()) t.join();
      }
    }

    [[nodiscard]] std::size_t completed() const { return completed_; }
    [[nodiscard]] std::size_t completedInWindow() const { return inWindow_; }

   private:
    void loop(std::size_t slot) {
      for (;;) {
        Pending p;
        {
          std::unique_lock lk(mu_);
          cv_.wait(lk, [&] { return closing_ || !queues_[slot].empty(); });
          if (queues_[slot].empty()) return;
          p = std::move(queues_[slot].front());
          queues_[slot].pop_front();
        }
        Sample<T>& s = *p.sample;
        if (p.future.wait_until(deadline_) == std::future_status::ready) {
          s.done = Clock::now();
          s.completed = true;
          try {
            s.result.emplace(p.future.get());
          } catch (const std::exception& e) {
            s.error = e.what();
            if (s.error.empty()) s.error = "exception";
          }
        } else {
          s.done = deadline_;
          s.error = "outstanding at the drain deadline";
        }
        std::lock_guard lk(mu_);
        --inFlight_;
        if (s.completed) {
          ++completed_;
          if (window_ != nullptr && s.done <= *window_) ++inWindow_;
        }
        cv_.notify_all();
      }
    }

    PhaseResult<T>& out_;
    Clock::time_point deadline_;
    const Clock::time_point* window_;
    std::mutex mu_;  ///< guards every member below
    std::condition_variable cv_;
    std::vector<std::deque<Pending>> queues_;
    std::size_t inFlight_ = 0;
    std::size_t completed_ = 0;
    std::size_t inWindow_ = 0;
    bool closing_ = false;
    std::vector<std::thread> threads_;  ///< declared last: joined first
  };

  void submitOne(PhaseResult<T>& out, Waiters& waiters, std::size_t request,
                 std::size_t slot, Clock::time_point due) {
    Sample<T>& s = out.samples.emplace_back();
    s.request = request;
    s.slot = slot % slots_;
    s.due = due;
    std::future<T> f;
    try {
      f = submit_(request);
    } catch (...) {
      std::promise<T> failed;
      failed.set_exception(std::current_exception());
      f = failed.get_future();
    }
    s.submitted = Clock::now();
    waiters.push(s.slot, Pending{&s, std::move(f)});
  }

  std::size_t slots_;
  SubmitFn submit_;
};

// ---- open-loop schedules ------------------------------------------------------

/// `count` Poisson arrivals at `ratePerSec`, from a uniform [0,1) source:
/// the due offsets of an open-loop phase. A fixed count (rather than a fixed
/// duration) keeps the sample set a function of the seed alone.
template <class Uniform>
std::vector<Clock::duration> poissonSchedule(double ratePerSec,
                                             std::size_t count,
                                             Uniform&& uniform) {
  std::vector<Clock::duration> out;
  out.reserve(count);
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    t += -std::log(1.0 - uniform()) / ratePerSec;
    out.push_back(std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(t)));
  }
  return out;
}

/// Zipf(s) sampler over ranks 0..n-1 (rank 0 hottest), by inverse CDF.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[k] = total;
    }
    for (auto& c : cdf_) c /= total;
  }
  [[nodiscard]] std::size_t operator()(double u) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                 cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace perfbench
