// fleet_bench: the serving path of fsw measured end to end and layer by
// layer.
//
// One process stands up the real fleet over loopback — a PlanRouter, two
// PlanServiceHosts (each a PlanServer over a PlanEngine), one shared
// ResultStoreHost and one BoundBoard — and drives it from outside with one
// of three workloads:
//
//   cold_mix     distinct random applications (n 5-10), every model and
//                objective: every request is a cold solve;
//   drift_fleet  a generated trace of drifting / growing / shrinking
//                application streams replayed at its own timestamps: most
//                requests re-solve a near neighbour;
//   hot_repeat   4096 small requests solved during set-up, then drawn
//                Zipf(1): the read side, no solving at all.
//
// Each run has an open-loop phase (requests due on a seeded schedule,
// latency from the due time), a closed-loop phase (a fixed number of
// requests outstanding, giving throughput) and, after timing ends, a check
// phase: every served plan must pass validate(), replay to the value it
// claims, and be bit-identical to a cold serial solve by an engine that
// served no benchmark traffic.
//
// With --trace 1 the run is repeated with tracing on: spans come from a
// PlanSolver shim around each host's engine and from a portfolio whose
// sources wrap the built-in ones under the same names; codec, score,
// orchestrate and store costs come from direct timed calls. The last line
// of stdout is one JSON object (see run.py); the exit code is nonzero when
// any request failed or any plan check failed.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "perfbench/bench_core.hpp"
#include "src/common/prng.hpp"
#include "src/io/serialize.hpp"
#include "src/opt/candidate.hpp"
#include "src/opt/heuristics.hpp"
#include "src/oplist/validate.hpp"
#include "src/sched/orchestrator.hpp"
#include "src/serve/bound_board.hpp"
#include "src/serve/plan_engine.hpp"
#include "src/serve/plan_router.hpp"
#include "src/serve/plan_server.hpp"
#include "src/serve/plan_service.hpp"
#include "src/serve/rendezvous.hpp"
#include "src/serve/result_store.hpp"
#include "src/sim/replay.hpp"
#include "src/workload/generator.hpp"
#include "src/workload/trace.hpp"

namespace {

using namespace fsw;
using namespace perfbench;

constexpr std::size_t kHosts = 2;
/// Share of --seconds spent in the open loop; the closed loop gets the rest.
/// The open loop takes the larger share: the printed p99 wants 1000 samples
/// a segment.
constexpr double kOpenShare = 0.8;
/// Closed-loop requests outstanding: four queued per router slot, so a slot
/// never idles between completions.
constexpr std::size_t kOutstanding = 8;
/// Set-ups per run; setup_s is their median.
constexpr std::size_t kSetups = 5;
/// Where a traced run writes its spans, relative to the working directory.
constexpr const char* kSpansDir = ".bench_traces";

// ---- command line -------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double rate = 0.0;       ///< open-loop requests/s (cold_mix, hot_repeat)
  double timeScale = 1.0;  ///< drift_fleet: trace time stretch factor
  std::string commit = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "fleet_bench: %s\n"
               "usage: fleet_bench --workload cold_mix|drift_fleet|hot_repeat "
               "--seed N --seconds S --trace 0|1 [--rate R] [--time-scale F] "
               "[--commit C]\n",
               why);
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") a.workload = v;
      else if (flag == "--seed") a.seed = std::stoull(v);
      else if (flag == "--seconds") a.seconds = std::stod(v);
      else if (flag == "--trace") a.trace = std::stoi(v) != 0;
      else if (flag == "--rate") a.rate = std::stod(v);
      else if (flag == "--time-scale") a.timeScale = std::stod(v);
      else if (flag == "--commit") a.commit = v;
      else usage(("unknown flag " + flag).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (a.workload != "cold_mix" && a.workload != "drift_fleet" &&
      a.workload != "hot_repeat") {
    usage("unknown workload");
  }
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  if (a.workload == "drift_fleet" ? !(a.timeScale > 0) : !(a.rate > 0)) {
    usage("cold_mix/hot_repeat need --rate > 0, drift_fleet --time-scale > 0");
  }
  return a;
}

// ---- workloads ------------------------------------------------------------------

/// E8's serving knobs (bench/bench_serving.cpp servingOptions).
OptimizerOptions servingOptions() {
  OptimizerOptions opt;
  opt.exactForestMaxN = 5;
  opt.heuristics.iterations = 400;
  opt.heuristics.restarts = 2;
  opt.orchestrator.order.exactCap = 120;
  opt.orchestrator.order.localSearchIters = 80;
  opt.orchestrator.outorder.restarts = 6;
  opt.orchestrator.outorder.bisectSteps = 5;
  opt.registry = &CandidateRegistry::builtin();
  return opt;
}

/// E15's replay knobs (bench/bench_serving.cpp replayOptions).
OptimizerOptions replayOptions() {
  OptimizerOptions opt;
  opt.exactForestMaxN = 5;
  opt.heuristics.iterations = 200;
  opt.heuristics.restarts = 2;
  opt.orchestrator.order.exactCap = 120;
  opt.orchestrator.outorder.restarts = 4;
  opt.orchestrator.outorder.bisectSteps = 4;
  opt.registry = &CandidateRegistry::builtin();
  return opt;
}

/// Everything a run sends, by index, and the order it is sent in.
struct Workload {
  std::vector<PlanRequest> requests;
  std::vector<std::string> keys;         ///< requestKey per request
  std::vector<std::size_t> slotOf;       ///< router slot per request
  std::vector<std::size_t> warmup;       ///< sent closed-loop during set-up
  std::vector<std::size_t> open;         ///< open-loop order
  std::vector<Clock::duration> offsets;  ///< due offsets, aligned with `open`
  std::vector<std::size_t> closed;       ///< closed-loop order
};

PlanRequest randomRequest(Prng& rng, std::size_t n, double precedenceDensity) {
  WorkloadSpec spec;
  spec.n = n;
  spec.precedenceDensity = precedenceDensity;
  PlanRequest r;
  r.app = randomApplication(spec, rng);
  r.model = kAllModels[static_cast<std::size_t>(rng.uniformInt(0, 2))];
  r.objective = rng.bernoulli(0.5) ? Objective::Period : Objective::Latency;
  r.options = servingOptions();
  return r;
}

/// Open-loop requests in a phase of nominal length `seconds`.
std::size_t openCount(double ratePerSec, double seconds) {
  return static_cast<std::size_t>(std::llround(ratePerSec * seconds));
}

/// Distinct random applications, n 5-10, precedence density 0 or 0.2, every
/// model and objective; Poisson arrivals at `rate` in the open loop, then a
/// fresh pool for the closed loop. Nothing repeats.
Workload coldMix(const Args& a, double openSeconds, double closedSeconds) {
  Workload w;
  Prng rng(a.seed * 0x9E3779B97F4A7C15ULL + 11);
  const auto add = [&] {
    const auto n = static_cast<std::size_t>(rng.uniformInt(5, 10));
    w.requests.push_back(randomRequest(rng, n, rng.bernoulli(0.5) ? 0.0 : 0.2));
    return w.requests.size() - 1;
  };
  for (int i = 0; i < 8; ++i) w.warmup.push_back(add());
  Prng sched(a.seed * 31 + 7);
  w.offsets = poissonSchedule(a.rate, openCount(a.rate, openSeconds),
                              [&] { return sched.uniform(); });
  for (std::size_t i = 0; i < w.offsets.size(); ++i) w.open.push_back(add());
  // Closed-loop pool: generously above any throughput this fleet reaches.
  const auto pool = static_cast<std::size_t>(closedSeconds * 1000.0) + 64;
  for (std::size_t i = 0; i < pool; ++i) w.closed.push_back(add());
  return w;
}

/// A generateTrace stream with E15's mix (Zipf-hot streams, 70% drift,
/// operator add/remove, n = 5, no host kills) over 24 streams rather than
/// E15's 6, so one seed's figures do not hang on a single hot stream's
/// size, replayed at its own timestamps stretched by the fixed --time-scale. The first 48 solve events
/// warm the fleet during set-up; the open loop replays every later event
/// whose stretched timestamp falls inside the phase; the closed loop
/// continues the trace.
Workload driftFleet(const Args& a, double openSeconds, double closedSeconds) {
  constexpr std::size_t kWarmup = 48;
  TraceSpec spec;
  spec.streams = 24;
  spec.hosts = kHosts;
  spec.hostKills = 0;
  spec.workload.n = 5;
  spec.workload.precedenceDensity = 0.15;
  // Bursts and the capped tail make the trace run faster than meanGapUs
  // (about 1.6x); three times the nominal count covers the open loop.
  const double nominal = openSeconds * 1e6 / (spec.meanGapUs * a.timeScale);
  spec.events = kWarmup + static_cast<std::size_t>(3.0 * nominal) +
                static_cast<std::size_t>(closedSeconds * 2000.0) + 64;
  const Trace trace = generateTrace(spec, a.seed);

  Workload w;
  std::vector<std::uint64_t> atUs;
  std::vector<StreamState> streams(spec.streams);
  for (const TraceEvent& e : trace.events) {
    if (!isSolveEvent(e.kind)) continue;
    StreamState& s = streams.at(e.stream);
    applyTraceEvent(s, e);
    w.requests.push_back(PlanRequest{s.app, s.model, s.objective, replayOptions()});
    atUs.push_back(e.atUs);
  }
  std::size_t i = 0;
  for (; i < kWarmup && i < w.requests.size(); ++i) w.warmup.push_back(i);
  for (; i < w.requests.size(); ++i) {
    const double offsetS =
        static_cast<double>(atUs[i] - atUs[kWarmup]) * 1e-6 * a.timeScale;
    if (offsetS >= openSeconds) break;
    w.open.push_back(i);
    w.offsets.push_back(std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(offsetS)));
  }
  if (i == w.requests.size()) {
    throw std::runtime_error("drift_fleet: the trace ended inside the open loop");
  }
  for (; i < w.requests.size(); ++i) w.closed.push_back(i);
  return w;
}

/// 4096 distinct small requests (n = 4), all solved during set-up, then
/// drawn Zipf(1) — hot ranks spread over both hosts by a seeded permutation.
Workload hotRepeat(const Args& a, double openSeconds, double closedSeconds) {
  constexpr std::size_t kKeys = 4096;
  Workload w;
  Prng rng(a.seed * 0x9E3779B97F4A7C15ULL + 13);
  for (std::size_t i = 0; i < kKeys; ++i) {
    w.requests.push_back(randomRequest(rng, 4, rng.bernoulli(0.5) ? 0.0 : 0.2));
    w.warmup.push_back(i);
  }
  const std::vector<std::size_t> byRank = rng.permutation(kKeys);
  const Zipf zipf(kKeys, 1.0);
  Prng draw(a.seed * 131 + 3);
  const auto next = [&] { return byRank[zipf(draw.uniform())]; };
  w.offsets = poissonSchedule(a.rate, openCount(a.rate, openSeconds),
                              [&] { return draw.uniform(); });
  for (std::size_t i = 0; i < w.offsets.size(); ++i) w.open.push_back(next());
  const auto pool = static_cast<std::size_t>(closedSeconds * 40000.0) + 64;
  for (std::size_t i = 0; i < pool; ++i) w.closed.push_back(next());
  return w;
}

Workload makeWorkload(const Args& a, double openSeconds, double closedSeconds) {
  if (a.workload == "cold_mix") return coldMix(a, openSeconds, closedSeconds);
  if (a.workload == "drift_fleet") return driftFleet(a, openSeconds, closedSeconds);
  return hotRepeat(a, openSeconds, closedSeconds);
}

// ---- tracing ------------------------------------------------------------------

enum class Layer : std::uint8_t { Engine = 0, Generate = 1 };

struct Span {
  Layer layer = Layer::Engine;
  std::uint16_t host = 0;
  std::uint16_t source = 0;  ///< Generate: index in the built-in portfolio
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< Generate: the engine span it ran under
  std::int64_t start = 0;    ///< ns since the log's origin
  std::int64_t end = 0;
  std::string key;  ///< Engine: requestKey of the batch's first request
};

/// In-memory span store; written out once, when the run ends.
class SpanLog {
 public:
  SpanLog() : current_(kHosts) { spans_.reserve(1 << 16); }

  [[nodiscard]] std::int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }
  [[nodiscard]] std::uint64_t newId() { return nextId_.fetch_add(1) + 1; }
  /// The engine span host `h` is inside (0 = none): one solve at a time
  /// per host, because the router keeps one request in flight per host.
  std::atomic<std::uint64_t>& current(std::size_t h) { return current_[h]; }

  void add(Span s) {
    std::lock_guard lk(mu_);
    spans_.push_back(std::move(s));
  }
  [[nodiscard]] std::vector<Span> take() {
    std::lock_guard lk(mu_);
    return std::exchange(spans_, {});
  }

 private:
  Clock::time_point origin_ = Clock::now();
  std::atomic<std::uint64_t> nextId_{0};
  std::vector<std::atomic<std::uint64_t>> current_;
  std::mutex mu_;  ///< guards spans_
  std::vector<Span> spans_;
};

/// A built-in source under its own name, timing each generate() call.
class TimedSource final : public CandidateSource {
 public:
  TimedSource(const CandidateSource& inner, std::uint16_t index,
              std::uint16_t host, SpanLog& log)
      : inner_(inner), index_(index), host_(host), log_(log) {}

  [[nodiscard]] std::string_view name() const override { return inner_.name(); }
  [[nodiscard]] bool applicable(const CandidateContext& ctx) const override {
    return inner_.applicable(ctx);
  }
  [[nodiscard]] std::vector<ExecutionGraph> generate(
      const CandidateContext& ctx) const override {
    const std::int64_t t0 = log_.now();
    auto out = inner_.generate(ctx);
    const std::int64_t t1 = log_.now();
    log_.add(Span{Layer::Generate, host_, index_, log_.newId(),
                  log_.current(host_).load(), t0, t1, {}});
    return out;
  }

 private:
  const CandidateSource& inner_;
  std::uint16_t index_;
  std::uint16_t host_;
  SpanLog& log_;
};

/// The built-in portfolio, source by source wrapped in TimedSource, under
/// the built-in's name: its fingerprint — and so every request key — is the
/// built-in's.
CandidateRegistry timedBuiltin(std::uint16_t host, SpanLog& log) {
  CandidateRegistry reg(CandidateRegistry::builtin().name());
  const auto& sources = CandidateRegistry::builtin().sources();
  for (std::size_t i = 0; i < sources.size(); ++i) {
    reg.add(std::make_unique<TimedSource>(*sources[i],
                                          static_cast<std::uint16_t>(i), host,
                                          log));
  }
  return reg;
}

/// PlanSolver shim around a host's engine: one span per optimizeBatch.
class SolveShim final : public PlanSolver {
 public:
  SolveShim(PlanEngine& engine, std::uint16_t host, SpanLog& log)
      : engine_(engine), host_(host), log_(log) {}

  [[nodiscard]] std::vector<OptimizedPlan> optimizeBatch(
      std::span<const PlanRequest> requests) override {
    const std::uint64_t id = log_.newId();
    log_.current(host_).store(id);
    const std::int64_t t0 = log_.now();
    auto out = engine_.optimizeBatch(requests);
    const std::int64_t t1 = log_.now();
    log_.current(host_).store(0);
    log_.add(Span{Layer::Engine, host_, 0, id, 0, t0, t1,
                  requests.empty() ? std::string{}
                                   : PlanEngine::requestKey(requests[0])});
    return out;
  }
  [[nodiscard]] std::string dedupKey(const PlanRequest& request) const override {
    return engine_.dedupKey(request);
  }

 private:
  PlanEngine& engine_;
  std::uint16_t host_;
  SpanLog& log_;
};

// ---- the fleet ------------------------------------------------------------------

/// Router -> 2 x (PlanServiceHost -> PlanServer -> PlanEngine), one shared
/// ResultStoreHost and BoundBoard, all over loopback. Members are declared
/// in dependency order, so destruction tears the front end down first.
struct Fleet {
  explicit Fleet(SpanLog* log) {
    for (std::size_t h = 0; h < kHosts; ++h) {
      const auto host = static_cast<std::uint16_t>(h);
      storeClients.push_back(
          std::make_unique<RemoteResultStore>("127.0.0.1", store.port()));
      EngineConfig ec;
      ec.boundBoard = &board;
      ec.resultStore = storeClients.back().get();
      engines.push_back(std::make_unique<PlanEngine>(ec));
      ServerConfig sc;
      sc.engine = engines.back().get();
      sc.maxBatch = 8;
      sc.drainThreads = 2;
      ServiceHostConfig hc;
      if (log != nullptr) {
        shims.push_back(std::make_unique<SolveShim>(*engines.back(), host, *log));
        sc.solver = shims.back().get();
        portfolios.push_back(
            std::make_unique<CandidateRegistry>(timedBuiltin(host, *log)));
        const CandidateRegistry* timed = portfolios.back().get();
        hc.resolvePortfolio = [timed](const std::string& name) {
          return name == timed->name() ? timed : nullptr;
        };
      }
      servers.push_back(std::make_unique<PlanServer>(sc));
      hc.server = servers.back().get();
      hosts.push_back(std::make_unique<PlanServiceHost>(hc));
    }
    RouterConfig rc;
    for (const auto& h : hosts) rc.hosts.push_back(RouterHost{"127.0.0.1", h->port()});
    router = std::make_unique<PlanRouter>(rc);
  }

  BoundBoard board;
  ResultStoreHost store{ResultStoreConfig{}};
  std::vector<std::unique_ptr<RemoteResultStore>> storeClients;
  std::vector<std::unique_ptr<PlanEngine>> engines;
  std::vector<std::unique_ptr<CandidateRegistry>> portfolios;
  std::vector<std::unique_ptr<SolveShim>> shims;
  std::vector<std::unique_ptr<PlanServer>> servers;
  std::vector<std::unique_ptr<PlanServiceHost>> hosts;
  std::unique_ptr<PlanRouter> router;
};

/// Counters of every layer, snapshotted around the measured phases.
struct FleetCounters {
  PlanRouter::Stats router;
  std::vector<PlanServiceHost::Stats> hosts;
  std::vector<PlanServer::Stats> servers;
  ResultStoreHost::Stats store;
  BoundBoard::Stats board;
};

FleetCounters snapshot(Fleet& f) {
  FleetCounters c;
  c.router = f.router->stats();
  for (auto& h : f.hosts) c.hosts.push_back(h->stats());
  for (auto& s : f.servers) c.servers.push_back(s->stats());
  c.store = f.store.stats();
  c.board = f.board.stats();
  return c;
}

using Phase = PhaseResult<OptimizedPlan>;
using Generator = LoadGenerator<OptimizedPlan>;

Generator generatorFor(Fleet& f, const Workload& w) {
  return Generator(kHosts, [&f, &w](std::size_t i) {
    return f.router->submit(w.requests[i]);
  });
}

double cpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// One set-up: fleet start-up, request generation and routing, warm-up.
struct Stood {
  std::unique_ptr<Fleet> fleet;
  Workload work;
  Phase warm;
  double seconds = 0.0;
};

Stood standUp(const Args& a, SpanLog* log, double openSeconds,
              double closedSeconds) {
  Stood s;
  const auto t0 = Clock::now();
  s.fleet = std::make_unique<Fleet>(log);
  s.work = makeWorkload(a, openSeconds, closedSeconds);
  s.work.keys.reserve(s.work.requests.size());
  for (const auto& r : s.work.requests) {
    s.work.keys.push_back(PlanEngine::requestKey(r));
    s.work.slotOf.push_back(rendezvousPick(s.work.keys.back(), kHosts));
  }
  Generator gen = generatorFor(*s.fleet, s.work);
  s.warm = gen.runClosed(s.work.warmup, s.work.slotOf, kOutstanding,
                         Clock::now() + std::chrono::seconds(120),
                         Clock::now() + std::chrono::seconds(150));
  s.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return s;
}

// ---- checks (outside the timed window) -------------------------------------------

bool bitsEqual(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool identicalWinner(const OptimizedPlan& got, const OptimizedPlan& ref) {
  return bitsEqual(got.value, ref.value) && got.strategy == ref.strategy &&
         graphSignature(got.plan.graph) == graphSignature(ref.plan.graph) &&
         toString(got.plan.ol) == toString(ref.plan.ol);
}

/// Runs fn(t, i) for i in [0, n) on `threads` threads (t = thread index).
template <class Fn>
void parallelFor(std::size_t n, std::size_t threads, Fn&& fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < std::max<std::size_t>(threads, 1); ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = next++; i < n; i = next++) fn(t, i);
    });
  }
  for (auto& th : pool) th.join();
}

/// Per distinct key: the cold serial reference, and the baseline value of
/// orchestrate(app, greedyForest(app, m, obj), m, obj).
struct Reference {
  OptimizedPlan plan;
  double greedyValue = 0.0;
};

class Checker {
 public:
  explicit Checker(const Workload& w) : w_(w) {}

  /// Checks every sample of `phase`; returns the failures it found.
  std::size_t check(const Phase& phase, const char* label) {
    std::size_t failed = 0;
    for (const auto& s : phase.samples) {
      if (!s.ok()) {
        note(label, s.request, s.error.empty() ? "failed" : s.error);
        ++failed;
        continue;
      }
      const std::string& key = w_.keys[s.request];
      auto [it, fresh] = checked_.emplace(key, true);
      if (fresh) it->second = checkPlan(s.request, *s.result, label);
      bool ok = it->second;
      const auto ref = refs_.find(key);
      if (ok && !identicalWinner(*s.result, ref->second.plan)) {
        note(label, s.request, "winner differs from the cold serial solve (value " +
                                   std::to_string(s.result->value) + " vs " +
                                   std::to_string(ref->second.plan.value) + ")");
        ok = false;
      }
      failed += ok ? 0 : 1;
    }
    return failed;
  }

  /// Computes the references of every key `phases` served, in parallel, on
  /// engines that served no benchmark traffic.
  void prepare(const std::vector<const Phase*>& phases) {
    std::vector<std::size_t> todo;
    std::set<std::string> seen;
    for (const Phase* p : phases) {
      for (const auto& s : p->samples) {
        const std::string& key = w_.keys[s.request];
        if (!refs_.count(key) && seen.insert(key).second) todo.push_back(s.request);
      }
    }
    const std::size_t threads =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    std::vector<std::unique_ptr<PlanEngine>> engines;
    for (std::size_t t = 0; t < threads; ++t) {
      engines.push_back(std::make_unique<PlanEngine>(EngineConfig{.threads = 1}));
    }
    std::vector<Reference> out(todo.size());
    parallelFor(todo.size(), threads, [&](std::size_t t, std::size_t i) {
      PlanEngine* engine = engines[t].get();
      PlanRequest r = w_.requests[todo[i]];
      r.options.threads = 1;
      r.options.pool = nullptr;
      out[i].plan = engine->optimize(r);
      const auto greedy = orchestrate(r.app, greedyForest(r.app, r.model, r.objective),
                                      r.model, r.objective);
      out[i].greedyValue = greedy.result.value;
    });
    for (std::size_t i = 0; i < todo.size(); ++i) {
      refs_.emplace(w_.keys[todo[i]], std::move(out[i]));
    }
    refSolves_ += todo.size();
  }

  /// Geometric mean, over the distinct keys `phase` served, of the served
  /// value over the greedy-forest baseline's. Distinct keys keep a few hot
  /// keys from carrying the figure; the open loop's key set is a function
  /// of the seed alone, so the figure is too.
  [[nodiscard]] double planValueRatio(const Phase& phase) const {
    double logSum = 0.0;
    std::size_t n = 0;
    std::set<std::string> seen;
    for (const auto& s : phase.samples) {
      if (!s.ok() || !seen.insert(w_.keys[s.request]).second) continue;
      const auto& ref = refs_.at(w_.keys[s.request]);
      if (s.result->value > 0 && ref.greedyValue > 0 &&
          std::isfinite(s.result->value) && std::isfinite(ref.greedyValue)) {
        logSum += std::log(s.result->value / ref.greedyValue);
        ++n;
      }
    }
    return n == 0 ? 0.0 : std::exp(logSum / static_cast<double>(n));
  }

  [[nodiscard]] const std::vector<std::string>& notes() const { return notes_; }
  [[nodiscard]] std::size_t refSolves() const { return refSolves_; }

 private:
  /// Appendix A validity and the replayed value of one served plan.
  bool checkPlan(std::size_t i, const OptimizedPlan& got, const char* label) {
    const PlanRequest& r = w_.requests[i];
    const ValidationReport v =
        validate(r.app, got.plan.graph, got.plan.ol, r.model);
    if (!v.valid) {
      note(label, i, "invalid plan: " + v.summary());
      return false;
    }
    const SimResult sim =
        replayOperationList(r.app, got.plan.graph, got.plan.ol, r.model);
    const double achieved =
        r.objective == Objective::Period ? sim.measuredPeriod : sim.firstLatency;
    if (!sim.ok || std::fabs(achieved - got.value) >
                       1e-9 * std::max(1.0, std::fabs(got.value))) {
      note(label, i, "replay does not reproduce the claimed value (" +
                         std::to_string(achieved) + " vs " +
                         std::to_string(got.value) + ")");
      return false;
    }
    return true;
  }

  void note(const char* label, std::size_t i, const std::string& what) {
    if (notes_.size() < 8) {
      notes_.push_back(std::string(label) + " request " + std::to_string(i) +
                       ": " + what);
    }
  }

  const Workload& w_;
  std::unordered_map<std::string, Reference> refs_;
  std::unordered_map<std::string, bool> checked_;  ///< key -> plan checks passed
  std::vector<std::string> notes_;
  std::size_t refSolves_ = 0;
};

// ---- one pass ---------------------------------------------------------------------

struct Pass {
  Stood stood;
  Phase open;
  Phase closed;
  bool ranClosed = false;
  double closedCpuS = 0.0;
  FleetCounters before;  ///< after set-up
  FleetCounters after;   ///< after the measured phases
};

/// Open loop, then (optionally) closed loop, on a stood-up fleet.
void runPhases(Pass& p, bool withClosed, double closedSeconds) {
  Fleet& f = *p.stood.fleet;
  const Workload& w = p.stood.work;
  Generator gen = generatorFor(f, w);
  p.before = snapshot(f);
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const auto openEnd = start + (w.offsets.empty() ? Clock::duration{} : w.offsets.back());
  p.open = gen.runOpen(w.open, w.offsets, w.slotOf, start,
                       openEnd + std::chrono::seconds(60));
  if (withClosed) {
    const double cpu0 = cpuSeconds();
    const auto windowEnd = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                              std::chrono::duration<double>(closedSeconds));
    p.closed = gen.runClosed(w.closed, w.slotOf, kOutstanding, windowEnd,
                             windowEnd + std::chrono::seconds(60),
                             [&] { p.closedCpuS = cpuSeconds() - cpu0; });
    p.ranClosed = true;
  }
  p.after = snapshot(f);
}

/// Closed-loop throughput: the median completion rate over 0.5 s windows
/// of the counting window, so a short stall of the machine moves one window
/// rather than the whole figure. A window's rate is its completions after
/// the first over the time from its first completion to its last.
double windowedRate(const Phase& p) {
  constexpr double kWindowMs = 500.0;
  const auto windows = static_cast<std::size_t>(msBetween(p.start, p.end) / kWindowMs);
  std::vector<std::vector<Clock::time_point>> done(std::max<std::size_t>(windows, 1));
  for (const auto& s : p.samples) {
    if (!s.ok() || s.done > p.end) continue;
    const auto w = static_cast<std::size_t>(msBetween(p.start, s.done) / kWindowMs);
    done[std::min(w, done.size() - 1)].push_back(s.done);
  }
  std::vector<double> rates;
  for (auto& d : done) {
    if (d.size() < 2) continue;
    const auto [lo, hi] = std::minmax_element(d.begin(), d.end());
    const double spanMs = msBetween(*lo, *hi);
    if (spanMs > 0) rates.push_back(static_cast<double>(d.size() - 1) * 1e3 / spanMs);
  }
  return median(rates);
}

std::vector<double> okLatencies(const Phase& p) {
  std::vector<double> out;
  for (const auto& s : p.samples) {
    if (s.ok()) out.push_back(s.latencyMs());
  }
  return out;
}

// ---- output -------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void printResult(bool correct, std::size_t attempted, std::size_t failed,
                 const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) {
    std::printf("  %-42s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            jsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---- per-layer metrics (traced pass) -----------------------------------------------

std::vector<Metric> layerMetrics(const Args& a, Pass& p, std::vector<Span> spans,
                                 double untracedP50, double tracedP50,
                                 std::size_t& failed) {
  std::vector<Metric> m;
  const Workload& w = p.stood.work;
  Fleet& f = *p.stood.fleet;
  std::vector<const Sample<OptimizedPlan>*> all;
  for (const auto& s : p.open.samples) all.push_back(&s);
  for (const auto& s : p.closed.samples) all.push_back(&s);
  const double completions = static_cast<double>(
      std::count_if(all.begin(), all.end(), [](auto* s) { return s->ok(); }));
  const double phaseMs =
      msBetween(p.open.start, p.ranClosed ? p.closed.end : p.open.end);

  // gen: validity of the generator itself.
  std::vector<double> late;
  for (const auto& s : p.open.samples) late.push_back(s.lateMs());
  m.push_back({"gen.late_p99_ms", percentile(late, 99), "ms"});
  m.push_back({"gen.outstanding_max", static_cast<double>(p.open.outstandingMax), "count"});

  // Engine spans in the measured phases, per host in solve order.
  std::vector<Span> engineSpans;
  std::multimap<std::uint64_t, const Span*> children;
  for (const auto& s : spans) {
    if (s.layer == Layer::Engine) engineSpans.push_back(s);
  }
  std::sort(engineSpans.begin(), engineSpans.end(),
            [](const Span& x, const Span& y) { return x.start < y.start; });
  for (const auto& s : spans) {
    if (s.layer == Layer::Generate) children.emplace(s.parent, &s);
  }
  std::vector<std::vector<const Span*>> perHost(kHosts);
  for (const auto& s : engineSpans) perHost[s.host].push_back(&s);

  // serve.router: queueing behind the slot's in-flight request; and
  // serve.transport: what remains of the latency beyond router wait and
  // engine span (open loop, matched to the k-th solve on the slot's host).
  std::vector<double> waits;
  std::vector<double> overheads;
  std::vector<std::size_t> nth(kHosts, 0);
  std::vector<Clock::time_point> prevDone(kHosts);
  std::vector<bool> hasPrev(kHosts, false);
  std::size_t unmatched = 0;
  for (const auto& s : p.open.samples) {
    if (!s.ok()) continue;
    const double wait =
        hasPrev[s.slot] ? std::max(0.0, msBetween(s.submitted, prevDone[s.slot])) : 0.0;
    prevDone[s.slot] = s.done;
    hasPrev[s.slot] = true;
    waits.push_back(wait);
    const std::size_t k = nth[s.slot]++;
    if (k < perHost[s.slot].size() && perHost[s.slot][k]->key == w.keys[s.request]) {
      const Span& e = *perHost[s.slot][k];
      overheads.push_back(msBetween(s.submitted, s.done) - wait -
                          static_cast<double>(e.end - e.start) * 1e-6);
    } else {
      ++unmatched;
    }
  }
  if (unmatched > 0) {
    std::printf("note: %zu open-loop requests not matched to an engine span\n", unmatched);
  }
  std::size_t routerBytes = 0;
  for (std::size_t h = 0; h < kHosts; ++h) {
    const auto& x = p.after.router.perHost[h];
    const auto& y = p.before.router.perHost[h];
    routerBytes += (x.bytesSent + x.bytesReceived) - (y.bytesSent + y.bytesReceived);
  }
  const std::size_t failovers = f.router->stats().failovers;
  m.push_back({"router.wait_p50_ms", percentile(waits, 50), "ms"});
  m.push_back({"router.wait_p99_ms", percentile(waits, 99), "ms"});
  m.push_back({"router.bytes_per_req", ratio(static_cast<double>(routerBytes), completions), "B"});
  m.push_back({"router.failovers", static_cast<double>(failovers), "count"});
  if (failovers != 0) {
    std::printf("FAILURE: %zu router failovers (the fleet never loses a host)\n", failovers);
    ++failed;
  }

  // serve.transport and io.
  std::size_t hostBytes = 0;
  PlanServer::Stats sv{};
  for (std::size_t h = 0; h < kHosts; ++h) {
    hostBytes += (p.after.hosts[h].bytesIn + p.after.hosts[h].bytesOut) -
                 (p.before.hosts[h].bytesIn + p.before.hosts[h].bytesOut);
    sv.submitted += p.after.servers[h].submitted - p.before.servers[h].submitted;
    sv.coalesced += p.after.servers[h].coalesced - p.before.servers[h].coalesced;
    sv.batches += p.after.servers[h].batches - p.before.servers[h].batches;
    sv.completed += p.after.servers[h].completed - p.before.servers[h].completed;
  }
  std::vector<std::size_t> distinct;  // first served occurrence per key
  {
    std::set<std::string> seen;
    for (auto* s : all) {
      if (s->ok() && seen.insert(w.keys[s->request]).second) distinct.push_back(s->request);
    }
  }
  std::unordered_map<std::size_t, const OptimizedPlan*> servedPlan;
  for (auto* s : all) {
    if (s->ok()) servedPlan.emplace(s->request, &*s->result);
  }
  const std::size_t codecN = std::min<std::size_t>(distinct.size(), 2000);
  double encodeUs = 0.0;
  double decodeUs = 0.0;
  {
    constexpr int kReps = 8;
    std::size_t sink = 0;
    const auto t0 = Clock::now();
    for (int r = 0; r < kReps; ++r) {
      for (std::size_t i = 0; i < codecN; ++i) {
        sink += encodePlanRequest(w.requests[distinct[i]]).size();
      }
    }
    const auto t1 = Clock::now();
    std::vector<std::string> payloads;
    for (std::size_t i = 0; i < codecN; ++i) {
      payloads.push_back(encodeOptimizedPlan(*servedPlan.at(distinct[i])));
    }
    const auto t2 = Clock::now();
    for (int r = 0; r < kReps; ++r) {
      for (const auto& pl : payloads) sink += decodeOptimizedPlan(pl).plan.ol.size();
    }
    const auto t3 = Clock::now();
    const double calls = static_cast<double>(std::max<std::size_t>(codecN, 1) * kReps);
    encodeUs = msBetween(t0, t1) * 1e3 / calls;
    decodeUs = msBetween(t2, t3) * 1e3 / calls;
    if (sink == 0) std::printf("note: empty codec payloads\n");
  }
  m.push_back({"transport.overhead_p50_ms", percentile(overheads, 50), "ms"});
  m.push_back({"transport.bytes_per_req", ratio(static_cast<double>(hostBytes), completions), "B"});
  m.push_back({"io.encode_request_us", encodeUs, "us"});
  m.push_back({"io.decode_response_us", decodeUs, "us"});

  // serve.server.
  double busyNs = 0.0;
  std::vector<double> solveMs;
  for (const auto& s : engineSpans) {
    busyNs += static_cast<double>(s.end - s.start);
    solveMs.push_back(static_cast<double>(s.end - s.start) * 1e-6);
  }
  m.push_back({"server.batch_size_mean", ratio(static_cast<double>(sv.completed),
                                               static_cast<double>(sv.batches)), "count"});
  m.push_back({"server.coalesced_frac", ratio(static_cast<double>(sv.coalesced),
                                              static_cast<double>(sv.submitted)), "fraction"});
  m.push_back({"server.busy_frac", ratio(busyNs * 1e-6, phaseMs * kHosts), "fraction"});

  // serve.engine: shim spans and the EngineStats every reply carries.
  EngineStats sum{};
  std::size_t solves = 0;
  for (auto* s : all) {
    if (!s->ok()) continue;
    const EngineStats& e = s->result->stats;
    sum.resultCacheHits += e.resultCacheHits;
    sum.scoreCacheHits += e.scoreCacheHits;
    sum.generated += e.generated;
    sum.boundAborts += e.boundAborts;
    sum.seedBoundAborts += e.seedBoundAborts;
    sum.repairBoundAborts += e.repairBoundAborts;
    sum.orchestrated += e.orchestrated;
    sum.evalProbes += e.evalProbes;
    sum.scratchHeapAllocs += e.scratchHeapAllocs;
    solves += e.resultCacheHits == 0 && e.crossRequestHits == 0 ? 1 : 0;
  }
  const auto perSolve = [&](double x) { return ratio(x, static_cast<double>(solves)); };
  m.push_back({"engine.solve_p50_ms", percentile(solveMs, 50), "ms"});
  m.push_back({"engine.solve_p99_ms", percentile(solveMs, 99), "ms"});
  m.push_back({"engine.result_hit_ratio", ratio(static_cast<double>(sum.resultCacheHits), completions), "fraction"});
  m.push_back({"engine.score_hit_ratio", ratio(static_cast<double>(sum.scoreCacheHits),
                                               static_cast<double>(sum.generated)), "fraction"});
  m.push_back({"engine.bound_aborts_per_solve", perSolve(static_cast<double>(sum.boundAborts)), "count"});
  m.push_back({"engine.seed_aborts_per_solve", perSolve(static_cast<double>(sum.seedBoundAborts)), "count"});
  m.push_back({"engine.repair_aborts_per_solve", perSolve(static_cast<double>(sum.repairBoundAborts)), "count"});
  m.push_back({"engine.orchestrated_per_solve", perSolve(static_cast<double>(sum.orchestrated)), "count"});
  m.push_back({"engine.eval_probes_per_solve", perSolve(static_cast<double>(sum.evalProbes)), "count"});
  m.push_back({"engine.allocs_per_probe", ratio(static_cast<double>(sum.scratchHeapAllocs),
                                                static_cast<double>(sum.evalProbes)), "count"});

  // opt.generate: the timed portfolio's spans under each engine span.
  const auto& builtin = CandidateRegistry::builtin().sources();
  std::vector<double> perSourceNs(builtin.size(), 0.0);
  double engineSelfNs = 0.0;  // engine span time outside every generate call
  for (const auto& e : engineSpans) {
    std::vector<Interval> kids;
    const auto [lo, hi] = children.equal_range(e.id);
    for (auto it = lo; it != hi; ++it) {
      kids.push_back({it->second->start, it->second->end});
      perSourceNs[it->second->source] +=
          static_cast<double>(it->second->end - it->second->start);
    }
    engineSelfNs += static_cast<double>(selfNs({e.start, e.end}, std::move(kids)));
  }
  const double coveredNsSum = busyNs - engineSelfNs;
  m.push_back({"opt.generate.ms_per_solve", perSolve(coveredNsSum * 1e-6), "ms"});
  m.push_back({"opt.generate.share", ratio(coveredNsSum, busyNs), "fraction"});
  for (std::size_t i = 0; i < builtin.size(); ++i) {
    m.push_back({"opt.generate." + std::string(builtin[i]->name()) + "_ms_per_solve",
                 perSolve(perSourceNs[i] * 1e-6), "ms"});
  }

  // opt.score and sched.orchestrate: direct calls on the served winners.
  const std::size_t directN = std::min<std::size_t>(distinct.size(), 400);
  double scoreUs = 0.0;
  double orchestrateMs = 0.0;
  {
    constexpr int kReps = 16;
    double sink = 0.0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < directN; ++i) {
      const PlanRequest& r = w.requests[distinct[i]];
      const ExecutionGraph& g = servedPlan.at(distinct[i])->plan.graph;
      for (int k = 0; k < kReps; ++k) sink += surrogateScore(r.app, g, r.model, r.objective);
    }
    const auto t1 = Clock::now();
    std::size_t calls = 0;
    const auto budgetEnd = t1 + std::chrono::seconds(4);
    for (std::size_t i = 0; i < directN && Clock::now() < budgetEnd; ++i, ++calls) {
      const PlanRequest& r = w.requests[distinct[i]];
      const ExecutionGraph& g = servedPlan.at(distinct[i])->plan.graph;
      sink += orchestrate(r.app, g, r.model, r.objective, r.options.orchestrator)
                  .result.value;
    }
    const auto t2 = Clock::now();
    scoreUs = msBetween(t0, t1) * 1e3 / static_cast<double>(std::max<std::size_t>(directN, 1) * kReps);
    orchestrateMs = msBetween(t1, t2) / static_cast<double>(std::max<std::size_t>(calls, 1));
    if (!(sink == sink)) std::printf("note: NaN in direct calls\n");
  }
  m.push_back({"opt.score.us_per_call", scoreUs, "us"});
  m.push_back({"opt.score.ms_per_solve",
               perSolve(static_cast<double>(sum.generated - sum.scoreCacheHits)) * scoreUs * 1e-3,
               "ms"});
  m.push_back({"sched.orchestrate.ms_per_call", orchestrateMs, "ms"});
  m.push_back({"sched.orchestrate.share",
               ratio(orchestrateMs * static_cast<double>(sum.orchestrated), busyNs * 1e-6),
               "fraction"});

  // serve.store: counter deltas over the phases, then timed calls through a
  // separate client replaying the phases' keys against the same host.
  const auto& s0 = p.before.store;
  const auto& s1 = p.after.store;
  const double storeBytes =
      static_cast<double>((s1.bytesIn + s1.bytesOut) - (s0.bytesIn + s0.bytesOut));
  std::vector<double> getUs, nearUs, putUs;
  {
    RemoteResultStore client("127.0.0.1", f.store.port());
    const std::size_t n = std::min<std::size_t>(distinct.size(), 1000);
    for (std::size_t i = 0; i < n; ++i) {
      const std::string& key = w.keys[distinct[i]];
      const std::string prefix = structuralPrefixOfKey(key);
      const auto t0 = Clock::now();
      (void)client.get(key);
      const auto t1 = Clock::now();
      (void)client.getNear(prefix);
      const auto t2 = Clock::now();
      client.put(key, *servedPlan.at(distinct[i]));
      const auto t3 = Clock::now();
      getUs.push_back(msBetween(t0, t1) * 1e3);
      nearUs.push_back(msBetween(t1, t2) * 1e3);
      putUs.push_back(msBetween(t2, t3) * 1e3);
    }
    if (client.stats().failures != 0) {
      std::printf("FAILURE: the store replay client saw transport failures\n");
      ++failed;
    }
  }
  m.push_back({"store.get_p50_us", percentile(getUs, 50), "us"});
  m.push_back({"store.near_get_p50_us", percentile(nearUs, 50), "us"});
  m.push_back({"store.put_p50_us", percentile(putUs, 50), "us"});
  m.push_back({"store.hit_ratio", ratio(static_cast<double>(s1.hits - s0.hits),
                                        static_cast<double>(s1.gets - s0.gets)), "fraction"});
  m.push_back({"store.near_hit_ratio", ratio(static_cast<double>(s1.nearHits - s0.nearHits),
                                             static_cast<double>(s1.nearGets - s0.nearGets)),
               "fraction"});
  m.push_back({"store.bytes_per_req", ratio(storeBytes, completions), "B"});

  // serve.board.
  const auto& b0 = p.before.board;
  const auto& b1 = p.after.board;
  m.push_back({"board.hit_ratio", ratio(static_cast<double>(b1.hits - b0.hits),
                                        static_cast<double>(b1.consulted - b0.consulted)),
               "fraction"});
  m.push_back({"board.near_hit_ratio",
               ratio(static_cast<double>(b1.nearHits - b0.nearHits),
                     static_cast<double>(b1.nearConsulted - b0.nearConsulted)),
               "fraction"});

  m.push_back({"trace.overhead_frac", ratio(tracedP50, untracedP50) - 1.0, "fraction"});

  // Spans go to disk only now, when the run is over.
  std::error_code ec;
  std::filesystem::create_directories(kSpansDir, ec);
  const std::string path = std::string(kSpansDir) + "/" + a.workload + "-seed" +
                           std::to_string(a.seed) + ".spans.csv";
  std::ofstream out(path);
  out << "layer,host,source,id,parent,start_ns,end_ns\n";
  for (const auto& s : spans) {
    out << (s.layer == Layer::Engine ? "engine" : "generate") << ',' << s.host << ','
        << (s.layer == Layer::Engine ? std::string("-") : std::string(builtin[s.source]->name()))
        << ',' << s.id << ',' << s.parent << ',' << s.start << ',' << s.end << '\n';
  }
  std::printf("spans: %zu written to %s\n", spans.size(), out ? path.c_str() : "(failed)");
  return m;
}

// ---- main ------------------------------------------------------------------------------

int run(const Args& a) {
  const double openSeconds = a.seconds * kOpenShare;
  const double closedSeconds = a.seconds - openSeconds;
  std::printf("fingerprint {\"cpus\": %u, \"compiler\": \"%s\", \"build_type\": \"%s\", "
              "\"commit\": \"%s\"}\n",
              std::thread::hardware_concurrency(), FSW_BENCH_COMPILER,
              FSW_BENCH_BUILD_TYPE, a.commit.c_str());
  std::printf("workload %s seed %" PRIu64 ": open loop %.1f s, closed loop %.1f s "
              "(%zu outstanding)%s\n",
              a.workload.c_str(), a.seed, openSeconds, closedSeconds, kOutstanding,
              a.trace ? ", traced" : "");
  std::fflush(stdout);

  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool valid = true;

  if (!a.trace) {
    // Several set-ups; the last one is measured, setup_s is their median.
    std::vector<double> setupS;
    Pass p;
    for (std::size_t i = 0; i < kSetups; ++i) {
      p.stood = Stood{};  // tear the previous fleet down before timing the next
      p.stood = standUp(a, nullptr, openSeconds, closedSeconds);
      setupS.push_back(p.stood.seconds);
    }
    runPhases(p, true, closedSeconds);
    const double rssMb = peakRssMb();
    const double throughput = windowedRate(p.closed);
    const std::vector<double> lat = okLatencies(p.open);

    const auto t0 = Clock::now();
    Checker checker(p.stood.work);
    checker.prepare({&p.stood.warm, &p.open, &p.closed});
    failed += checker.check(p.stood.warm, "warm-up");
    failed += checker.check(p.open, "open");
    failed += checker.check(p.closed, "closed");
    attempted = p.stood.warm.samples.size() + p.open.samples.size() +
                p.closed.samples.size();
    std::printf("checks: %zu plans from %zu cold serial references in %.1f s\n",
                attempted, checker.refSolves(),
                std::chrono::duration<double>(Clock::now() - t0).count());
    for (const auto& n : checker.notes()) std::printf("CHECK FAILED: %s\n", n.c_str());

    const auto supported = highestSupportedPercentile(lat.size());
    std::printf("open-loop tail: %zu samples, highest supported percentile p%g; "
                "p90 %.3f ms, p95 %.3f ms, p99 %.3f ms (median over segments)\n",
                lat.size(), supported.value_or(0.0), segmentedPercentile(lat, 90),
                segmentedPercentile(lat, 95), segmentedPercentile(lat, 99));
    if (supported.value_or(0.0) < 99.0) {
      std::printf("INVALID: %zu open-loop samples leave fewer than 10 beyond p99\n",
                  lat.size());
      valid = false;
    }
    if (p.closed.exhausted) {
      std::printf("INVALID: the closed loop ran out of requests\n");
      valid = false;
    }
    const double cpuMs = ratio(p.closedCpuS * 1e3, static_cast<double>(p.closed.completedInWindow));
    const double successRate =
        ratio(static_cast<double>(attempted - failed), static_cast<double>(attempted));
    std::printf("open loop: %zu requests, %zu completed; closed loop: %zu in window; "
                "fail_rate %.6f\n",
                p.open.samples.size(), lat.size(), p.closed.completedInWindow,
                1.0 - successRate);
    printResult(valid && failed == 0, attempted, failed,
                {{"setup_s", median(setupS), "s"},
                 {"throughput_rps", throughput, "req/s"},
                 {"latency_p50_ms", percentile(lat, 50), "ms"},
                 {"latency_p95_ms", segmentedPercentile(lat, 95), "ms"},
                 {"success_rate", successRate, "fraction"},
                 {"plan_value_ratio", checker.planValueRatio(p.open), "ratio"},
                 {"cpu_ms_per_req", cpuMs, "ms"},
                 {"peak_rss_mb", rssMb, "MB"}});
    return valid && failed == 0 ? 0 : 1;
  }

  // Traced run: an untraced open loop on the same seed, then the traced
  // open and closed loops; the difference in p50 is the tracing overhead.
  // The untraced pass replays the first half of the open-loop schedule;
  // the overhead compares p50 over those same requests.
  Pass plain;
  plain.stood = standUp(a, nullptr, openSeconds, closedSeconds);
  const std::size_t half = plain.stood.work.open.size() / 2;
  plain.stood.work.open.resize(half);
  plain.stood.work.offsets.resize(half);
  runPhases(plain, false, closedSeconds);
  const double plainP50 = percentile(okLatencies(plain.open), 50);
  Phase plainWarm = std::move(plain.stood.warm);
  Phase plainOpen = std::move(plain.open);
  plain.stood.fleet.reset();

  SpanLog log;
  Pass traced;
  traced.stood = standUp(a, &log, openSeconds, closedSeconds);
  (void)log.take();  // set-up traffic is not measured
  runPhases(traced, true, closedSeconds);
  std::vector<Span> spans = log.take();
  std::vector<double> tracedHalf;
  for (std::size_t k = 0; k < half && k < traced.open.samples.size(); ++k) {
    const auto& s = traced.open.samples[k];
    if (s.ok()) tracedHalf.push_back(s.latencyMs());
  }
  const double tracedP50 = percentile(tracedHalf, 50);

  // One seed gives one request list, so the traced pass's workload indexes
  // the untraced pass's samples too.
  Checker checker(traced.stood.work);
  checker.prepare({&plainWarm, &plainOpen, &traced.stood.warm, &traced.open, &traced.closed});
  failed += checker.check(plainWarm, "untraced warm-up");
  failed += checker.check(plainOpen, "untraced open");
  failed += checker.check(traced.stood.warm, "warm-up");
  failed += checker.check(traced.open, "open");
  failed += checker.check(traced.closed, "closed");
  // Winners with tracing on must be bit-identical to those with it off.
  std::size_t divergent = 0;
  for (std::size_t k = 0; k < plainOpen.samples.size() && k < traced.open.samples.size(); ++k) {
    const auto& x = plainOpen.samples[k];
    const auto& y = traced.open.samples[k];
    if (x.ok() && y.ok() && !identicalWinner(*x.result, *y.result)) ++divergent;
  }
  if (divergent > 0) {
    std::printf("CHECK FAILED: %zu traced winners differ from the untraced run's\n", divergent);
    failed += divergent;
  }
  attempted = plainWarm.samples.size() + plainOpen.samples.size() +
              traced.stood.warm.samples.size() + traced.open.samples.size() +
              traced.closed.samples.size();
  for (const auto& n : checker.notes()) std::printf("CHECK FAILED: %s\n", n.c_str());
  std::printf("checks: %zu plans from %zu cold serial references; traced winners %s\n",
              attempted, checker.refSolves(), divergent == 0 ? "identical" : "DIVERGED");

  const std::vector<Metric> metrics =
      layerMetrics(a, traced, std::move(spans), plainP50, tracedP50, failed);
  printResult(valid && failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parseArgs(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleet_bench: %s\n", e.what());
    return 1;
  }
}
