// hayat_perfbench — the measuring half of the end-to-end benchmark.
//
// perfbench/run.py builds this program and starts it in fresh processes:
//
//   hayat_perfbench setup --workload W --seed S
//       Times the first System::create at the workload's grid (the
//       variation Cholesky factor and the aging table are built here)
//       and prints {"setup_s": ...}.
//
//   hayat_perfbench run --workload W --seed S --workdir DIR
//                       (--seconds T | --rounds R) [--traced]
//       Runs rounds of the workload until T seconds have passed (or
//       exactly R rounds), checks every result, and prints one JSON
//       object of raw measurements on the last line of stdout.  With
//       --traced, telemetry is on and each round's spans and counters
//       are folded into per-layer sums.
//
// Every round of a run is a distinct set of tasks: its population and
// base seeds derive from (seed, round), so no result, trajectory-memo
// entry or table-cache entry carries over between rounds.  The code is
// driven only through public entry points: ExperimentEngine::run,
// System::create, and ServeServer over loopback HTTP (plus GET /metrics).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/system.hpp"
#include "engine/engine.hpp"
#include "engine/result_cache.hpp"
#include "engine/wire.hpp"
#include "serve/http_client.hpp"
#include "serve/server.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace {

using hayat::System;
using hayat::SystemConfig;
using hayat::engine::EngineConfig;
using hayat::engine::ExperimentEngine;
using hayat::engine::ExperimentSpec;
using hayat::engine::RunResult;
using hayat::engine::SweepTable;
using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------ workloads

/// Concurrency of every workload: engine threads, serve lanes and serve
/// clients.  Capped by the host's core count.
int concurrency() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw == 0 ? 1u : hw, 1u, 4u));
}

struct Workload {
  const char* name;
  int grid;             ///< cores per chip edge
  int chips;            ///< chips per round (sweeps) / per job (serve)
  std::vector<double> darkFractions;
  double horizonYears;
  int failureSamples;   ///< > 0: distribution mode
  bool serve;
  int jobsPerClient;    ///< serve: jobs each client submits per round
};

constexpr double kEpochYears = 0.25;  ///< Section VI aging epoch

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"sweep_8x8", 8, 5, {0.25, 0.5}, 10.0, 0, false, 0},
      {"sweep_16x16", 16, 2, {0.5}, 10.0, 1024, false, 0},
      {"serve_jobs", 8, 1, {0.5}, 0.5, 0, true, 16},
  };
  return all;
}

const Workload& findWorkload(const std::string& name) {
  for (const Workload& w : workloads())
    if (name == w.name) return w;
  std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
  std::exit(2);
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Seed of one stream of one round (and, for serve, one client's job).
std::uint64_t derive(std::uint64_t seed, int round, int stream, int job = 0) {
  return splitmix64(splitmix64(seed) ^
                    splitmix64(static_cast<std::uint64_t>(round) << 32 |
                               static_cast<std::uint64_t>(job) << 8 |
                               static_cast<std::uint64_t>(stream)));
}

SystemConfig systemConfig(const Workload& w) {
  SystemConfig config;
  config.population.coreGrid = hayat::GridShape(w.grid, w.grid);
  return config;
}

/// The spec of one round of a sweep, or of one serve job.  Everything
/// but the grid, horizon, axes and seeds is the paper's Section V
/// default, as in `hayat sweep`.
ExperimentSpec makeSpec(const Workload& w, std::uint64_t seed, int round,
                        int job = 0) {
  ExperimentSpec spec;
  spec.name = std::string("perfbench-") + w.name;
  spec.system = systemConfig(w);
  spec.lifetime.horizon = w.horizonYears;
  spec.lifetime.epochLength = kEpochYears;
  spec.lifetime.failure.samples = w.failureSamples;
  spec.policies = {{"VAA", {}}, {"Hayat", {}}};
  spec.darkFractions = w.darkFractions;
  spec.chips.clear();
  for (int c = 0; c < w.chips; ++c) spec.chips.push_back(c);
  spec.populationSeed = derive(seed, round, 1, job);
  spec.baseSeed = derive(seed, round, 2, job);
  return spec;
}

// --------------------------------------------------------------- checks

std::uint64_t fnv1a(const std::string& bytes,
                    std::uint64_t h = 0xcbf29ce484222325ULL) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Canonical bytes of one result row: the record the result cache and
/// the serve stream carry, every simulated statistic at %.17g.
std::string rowBytes(const RunResult& run) {
  std::ostringstream out;
  hayat::engine::writeRunResult(out, run);
  return out.str();
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Checks one result row against its spec; returns "" when it is sound.
std::string checkRun(const Workload& w, const RunResult& run) {
  const auto epochs = static_cast<std::size_t>(
      std::llround(w.horizonYears / kEpochYears));
  const auto cores = static_cast<std::size_t>(w.grid * w.grid);
  if (run.lifetime.epochs.size() != epochs) return "wrong epoch count";
  if (run.lifetime.finalFmax.size() != cores) return "wrong core count";
  for (const auto& e : run.lifetime.epochs) {
    if (!std::isfinite(e.chipPeak) || !std::isfinite(e.averageFmax) ||
        e.averageFmax <= 0.0 || e.totalSteps <= 0)
      return "non-physical epoch record";
  }
  if (w.failureSamples > 0) {
    if (!run.lifetime.distribution ||
        run.lifetime.distribution->systemLifetimes.size() !=
            static_cast<std::size_t>(w.failureSamples))
      return "missing lifetime distribution";
  } else if (run.lifetime.distribution) {
    return "unexpected lifetime distribution";
  }
  return "";
}

// ---------------------------------------------------------- JSON output

class JsonOut {
 public:
  void num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    raw(key, buf);
  }
  void str(const std::string& key, const std::string& v) {
    raw(key, quote(v));
  }
  void nums(const std::string& key, const std::vector<double>& v) {
    std::string s = "[";
    char buf[40];
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%.17g", v[i]);
      s += (i ? "," : "");
      s += buf;
    }
    raw(key, s + "]");
  }
  void strs(const std::string& key, const std::vector<std::string>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
      s += (i ? "," : "") + quote(v[i]);
    raw(key, s + "]");
  }
  void raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + quote(key) + ":" + json;
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  static std::string quote(const std::string& s) {
    std::string q = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') q += '\\';
      q += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    return q + "\"";
  }
  std::string body_;
};

double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double cpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --------------------------------------------------------- traced layers

/// Per-round sums of the layers' self times, read from the spans the
/// program emits.  A span's self time is its duration minus the time its
/// direct children (same thread, nested interval) cover.
struct LayerSums {
  double lifetimeRunMs = 0;  ///< Σ lifetime.run (the share denominator)
  double windowMs = 0;       ///< self of epoch.window (the step loop)
  double luFactorMs = 0;     ///< thermal.lu_factor
  double policyMs = 0;       ///< lifetime.policy_map + policy.*.map self
  double agingMs = 0;        ///< lifetime.aging_advance
  double failureMs = 0;      ///< self of lifetime.run outside its epochs
  double engineRunMs = 0;    ///< Σ engine.run
  double epochSpans = 0;     ///< lifetime.epoch spans seen (overflow check)
};

struct LayerSamples {
  std::vector<double> windowMs, hayatMs, vaaMs, agingMs, taskMs;
};

void foldSpans(const std::vector<hayat::telemetry::SpanEvent>& all,
               std::uint64_t sinceNs, LayerSums& sums,
               LayerSamples& samples) {
  using hayat::telemetry::SpanEvent;
  std::map<std::uint32_t, std::vector<SpanEvent>> byThread;
  for (const SpanEvent& e : all)
    if (e.startNs >= sinceNs) byThread[e.threadId].push_back(e);
  const auto ms = [](std::uint64_t ns) { return static_cast<double>(ns) * 1e-6; };
  for (auto& entry : byThread) {
    std::vector<SpanEvent>& events = entry.second;
    std::sort(events.begin(), events.end(),
              [](const SpanEvent& a, const SpanEvent& b) {
                return a.startNs != b.startNs ? a.startNs < b.startNs
                                              : a.durationNs > b.durationNs;
              });
    std::vector<std::uint64_t> childNs(events.size(), 0);
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < events.size(); ++i) {
      while (!stack.empty()) {
        const SpanEvent& top = events[stack.back()];
        if (top.startNs + top.durationNs > events[i].startNs) break;
        stack.pop_back();
      }
      if (!stack.empty()) childNs[stack.back()] += events[i].durationNs;
      stack.push_back(i);
    }
    for (std::size_t i = 0; i < events.size(); ++i) {
      const SpanEvent& e = events[i];
      const std::string name = e.name;
      const double total = ms(e.durationNs);
      const double self = ms(e.durationNs - std::min(e.durationNs, childNs[i]));
      if (name == "lifetime.run") {
        sums.lifetimeRunMs += total;
        sums.failureMs += self;
        samples.taskMs.push_back(total);
      } else if (name == "epoch.window") {
        sums.windowMs += self;
        samples.windowMs.push_back(total);
      } else if (name == "thermal.lu_factor") {
        sums.luFactorMs += total;
      } else if (name == "lifetime.policy_map") {
        sums.policyMs += self;
      } else if (name == "policy.hayat.map") {
        sums.policyMs += self;
        samples.hayatMs.push_back(total);
      } else if (name == "policy.vaa.map") {
        sums.policyMs += self;
        samples.vaaMs.push_back(total);
      } else if (name == "lifetime.aging_advance") {
        sums.agingMs += self;
        samples.agingMs.push_back(total);
      } else if (name == "lifetime.epoch") {
        ++sums.epochSpans;
      } else if (name == "engine.run") {
        sums.engineRunMs += total;
      }
    }
  }
}

std::map<std::string, std::uint64_t> counterSnapshot() {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, value] :
       hayat::telemetry::Registry::global().snapshot().counters)
    out[name] = value;
  return out;
}

// ------------------------------------------------------------------ run

struct Args {
  std::string mode, workload, workdir;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int rounds = 0;  ///< > 0: run exactly this many rounds
  bool traced = false;
};

/// Everything one run reports besides the per-round arrays.
struct RunState {
  const Workload* w = nullptr;
  int tasks = 0;
  int failed = 0;
  std::vector<std::string> failures;
  std::vector<double> roundWall, roundCpu;
  std::vector<std::string> roundHash;
  std::vector<LayerSums> layers;
  LayerSamples samples;
  long dtmEventsRound0 = 0;
  int tasksRound0 = 0;

  /// Peak RSS after set-up and the first kRssRounds rounds: a fixed
  /// amount of work, so a faster program that fits more rounds into the
  /// run does not read as a bigger one.
  static constexpr std::size_t kRssRounds = 4;
  double rssMb = 0;

  void endRound(Clock::time_point t0, double cpu0) {
    roundWall.push_back(seconds(t0, Clock::now()));
    roundCpu.push_back(cpuSeconds() - cpu0);
    if (roundWall.size() <= kRssRounds) rssMb = peakRssMb();
  }

  void fail(int n, const std::string& why) {
    failed += n;
    if (failures.size() < 20) failures.push_back(why);
  }
};

double timeCreate(const SystemConfig& config, std::uint64_t populationSeed,
                  int index) {
  const auto t0 = Clock::now();
  const System system = System::create(config, populationSeed, index);
  return seconds(t0, Clock::now());
}

/// In-process engine on concurrency() threads with the result cache off.
ExperimentEngine uncachedEngine() {
  EngineConfig config;
  config.workers = concurrency();
  config.cache = false;
  return ExperimentEngine(config);
}

/// One sweep round: ExperimentEngine::run over a fresh spec.
void sweepRound(const Args& args, RunState& st, int round) {
  const Workload& w = *st.w;
  const ExperimentSpec spec = makeSpec(w, args.seed, round);
  const ExperimentEngine engine = uncachedEngine();
  const int n = spec.taskCount();
  const double cpu0 = cpuSeconds();
  const auto t0 = Clock::now();
  SweepTable table;
  try {
    table = engine.run(spec);
  } catch (const std::exception& e) {
    st.endRound(t0, cpu0);
    st.roundHash.push_back("error");
    st.tasks += n;
    st.fail(n, std::string("engine.run threw: ") + e.what());
    return;
  }
  st.endRound(t0, cpu0);
  st.tasks += n;
  std::uint64_t h = fnv1a("");
  if (static_cast<int>(table.runs.size()) != n) {
    st.fail(n, "engine returned " + std::to_string(table.runs.size()) +
                   " rows for " + std::to_string(n) + " tasks");
  } else {
    for (const RunResult& run : table.runs) {
      const std::string why = checkRun(w, run);
      if (!why.empty()) st.fail(1, why);
      h = fnv1a(rowBytes(run), h);
    }
  }
  st.roundHash.push_back(hex64(h));
  if (round == 0) {
    for (const RunResult& run : table.runs)
      st.dtmEventsRound0 += run.lifetime.totalDtmEvents();
    st.tasksRound0 = n;
  }
}

// ---------------------------------------------------------------- serve

struct JobTiming {
  double postMs = 0, firstRowS = 0, streamMs = 0, jobS = 0;
};

/// One closed-loop client's share of a serve round.  Every fourth job
/// re-submits the client's previous (completed) spec; the rest are
/// distinct.
struct ClientResult {
  std::vector<JobTiming> timings;
  std::vector<std::string> streams;   ///< per job, the streamed row bytes
  std::vector<ExperimentSpec> specs;  ///< per job
  std::vector<std::string> failures;
  int failed = 0;
};

void serveClient(const Workload& w, int port, std::uint64_t seed, int round,
                 int client, ClientResult& out) {
  const std::vector<std::pair<std::string, std::string>> headers = {
      {"X-Client", "perfbench-" + std::to_string(client)}};
  for (int j = 0; j < w.jobsPerClient; ++j) {
    const bool resubmit = j % 4 == 3;
    const ExperimentSpec spec =
        resubmit ? out.specs.back()
                 : makeSpec(w, seed, round, client * 1000 + j + 1);
    out.specs.push_back(spec);
    out.streams.emplace_back();
    JobTiming t;
    const auto t0 = Clock::now();
    hayat::serve::HttpClientResponse resp;
    const bool posted = hayat::serve::httpRequest(
        "127.0.0.1", port, "POST", "/jobs", hayat::engine::encodeSpec(spec),
        headers, resp, 60000);
    const auto tPosted = Clock::now();
    t.postMs = seconds(t0, tPosted) * 1e3;
    const std::size_t idAt = resp.body.find("id=");
    if (!posted || resp.status != 201 || idAt == std::string::npos) {
      ++out.failed;
      out.failures.push_back(resp.status == 429
                                 ? "POST /jobs refused (429)"
                                 : "POST /jobs answered " +
                                       std::to_string(resp.status));
      out.timings.push_back(t);
      continue;
    }
    const std::size_t idEnd = resp.body.find('\n', idAt);
    const std::string id = resp.body.substr(idAt + 3, idEnd - idAt - 3);
    std::string& bytes = out.streams.back();
    int chunks = 0;
    int status = 0;
    const bool complete = hayat::serve::httpStream(
        "127.0.0.1", port, "/jobs/" + id + "/results", headers,
        [&](const std::string& chunk) {
          if (chunks++ == 0) t.firstRowS = seconds(t0, Clock::now());
          bytes += chunk;
          return true;
        },
        status, 120000);
    const auto tDone = Clock::now();
    t.streamMs = seconds(tPosted, tDone) * 1e3;
    t.jobS = seconds(t0, tDone);
    if (!complete || status != 200 || chunks != spec.taskCount()) {
      ++out.failed;
      out.failures.push_back("job " + id + ": stream status " +
                             std::to_string(status) + ", " +
                             std::to_string(chunks) + " rows" +
                             (complete ? "" : ", truncated"));
    }
    out.timings.push_back(t);
  }
}

std::map<std::string, double> scrapeMetrics(int port) {
  std::map<std::string, double> out;
  hayat::serve::HttpClientResponse resp;
  if (!hayat::serve::httpRequest("127.0.0.1", port, "GET", "/metrics", "",
                                 {}, resp) ||
      resp.status != 200)
    return out;
  std::istringstream in(resp.body);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos || line.find('{') != std::string::npos)
      continue;
    out[line.substr(0, sp)] = std::strtod(line.c_str() + sp + 1, nullptr);
  }
  return out;
}

struct ServeExtras {
  std::vector<double> postMs, streamMs, jobS, firstRowS;
  std::map<std::string, double> metrics;  ///< GET /metrics, after the rounds
  std::vector<ClientResult> sample;       ///< round 0, verified afterwards
  int jobs = 0;
};

/// Serve rounds against one in-process server on a loopback port.  A
/// round is every client's closed loop of jobsPerClient jobs.  Failures
/// count per job.
void serveRounds(const Args& args, RunState& st, ServeExtras& ex,
                 const std::function<bool(int)>& more,
                 const std::function<void(std::uint64_t)>& afterRound) {
  const Workload& w = *st.w;
  hayat::serve::ServeConfig config;
  config.port = 0;
  config.queueDir = args.workdir + "/queue";
  config.cacheDir = args.workdir + "/cache";
  config.localWorkers = concurrency();
  config.maxRunningJobs = concurrency();
  hayat::serve::ServeServer server(config);
  if (!server.start()) {
    ex.jobs = 1;
    st.fail(1, "serve: cannot bind a loopback port");
    return;
  }
  const int clients = concurrency();
  for (int round = 0; more(round); ++round) {
    std::vector<ClientResult> results(static_cast<std::size_t>(clients));
    const std::uint64_t t0ns = hayat::telemetry::nowNanos();
    const double cpu0 = cpuSeconds();
    const auto t0 = Clock::now();
    {
      std::vector<std::thread> threads;
      for (int c = 0; c < clients; ++c)
        threads.emplace_back(serveClient, std::cref(w), server.port(),
                             args.seed, round, c,
                             std::ref(results[static_cast<std::size_t>(c)]));
      for (std::thread& t : threads) t.join();
    }
    st.endRound(t0, cpu0);
    std::uint64_t h = fnv1a("");
    for (const ClientResult& r : results) {
      for (const JobTiming& t : r.timings) {
        ex.postMs.push_back(t.postMs);
        ex.streamMs.push_back(t.streamMs);
        ex.jobS.push_back(t.jobS);
        ex.firstRowS.push_back(t.firstRowS);
      }
      for (std::size_t j = 0; j < r.specs.size(); ++j) {
        st.tasks += r.specs[j].taskCount();
        h = fnv1a(r.streams[j], h);
      }
      ex.jobs += static_cast<int>(r.specs.size());
      for (const std::string& why : r.failures) st.fail(0, why);
      st.failed += r.failed;
    }
    st.roundHash.push_back(hex64(h));
    if (round == 0) ex.sample = std::move(results);
    afterRound(t0ns);
  }
  ex.metrics = scrapeMetrics(server.port());
  server.stop();
}

/// Outside the timed window: the streamed rows of round 0's first
/// distinct job and first re-submit of every client must be
/// byte-identical to a one-shot ExperimentEngine::run of the same spec.
void verifyServe(const Workload& w, const ServeExtras& ex, RunState& st) {
  const ExperimentEngine engine = uncachedEngine();
  for (const ClientResult& r : ex.sample) {
    for (std::size_t j = 0; j < r.specs.size() && j < 4; j += 3) {
      std::string expected;
      const SweepTable table = engine.run(r.specs[j]);
      for (const RunResult& run : table.runs) {
        const std::string why = checkRun(w, run);
        if (!why.empty()) st.fail(0, "engine reference: " + why);
        expected += rowBytes(run);
        st.dtmEventsRound0 += run.lifetime.totalDtmEvents();
        ++st.tasksRound0;
      }
      if (r.streams[j] != expected)
        st.fail(1, "serve stream differs from ExperimentEngine::run");
    }
  }
}

int runMode(const Args& args) {
  RunState st;
  st.w = &findWorkload(args.workload);
  const Workload& w = *st.w;
  const SystemConfig config = systemConfig(w);

  // Set-up: the first System::create at this grid builds the process's
  // variation Cholesky factor and aging table.  Timed apart from rounds.
  const double setupS = timeCreate(config, derive(args.seed, 0, 1), 0);

  if (args.traced) {
    hayat::telemetry::setSpanSampling(1);
    hayat::telemetry::setEnabled(true);
  }
  const auto countersBefore = counterSnapshot();
  const auto start = Clock::now();
  const auto more = [&](int round) {
    if (args.rounds > 0) return round < args.rounds;
    return round == 0 || seconds(start, Clock::now()) < args.seconds;
  };
  const auto afterRound = [&](std::uint64_t t0ns) {
    if (!args.traced) return;
    LayerSums sums;
    foldSpans(hayat::telemetry::collectAllSpans(), t0ns, sums, st.samples);
    st.layers.push_back(sums);
  };
  ServeExtras ex;
  if (w.serve) {
    serveRounds(args, st, ex, more, afterRound);
  } else {
    for (int round = 0; more(round); ++round) {
      const std::uint64_t t0ns = hayat::telemetry::nowNanos();
      sweepRound(args, st, round);
      afterRound(t0ns);
    }
  }
  const auto countersAfter = counterSnapshot();
  hayat::telemetry::setEnabled(false);
  if (w.serve) verifyServe(w, ex, st);

  JsonOut out;
  out.str("workload", w.name);
  out.num("threads", concurrency());
  out.num("setup_s", setupS);
  out.num("tasks", st.tasks);
  // Failures count per task on sweeps and per job on serve.
  out.num("attempted", w.serve ? ex.jobs : st.tasks);
  out.num("failed", st.failed);
  out.strs("failures", st.failures);
  out.num("peak_rss_mb", st.rssMb);
  out.nums("round_wall_s", st.roundWall);
  out.nums("round_cpu_s", st.roundCpu);
  out.strs("round_hash", st.roundHash);
  out.num("dtm_events_round0", static_cast<double>(st.dtmEventsRound0));
  out.num("tasks_round0", st.tasksRound0);
  if (w.serve) {
    out.num("jobs", ex.jobs);
    out.nums("job_s", ex.jobS);
    out.nums("first_row_s", ex.firstRowS);
    out.nums("post_ms", ex.postMs);
    out.nums("stream_ms", ex.streamMs);
    JsonOut m;
    for (const auto& [k, v] : ex.metrics) m.num(k, v);
    out.raw("serve_metrics", m.text());
  }
  if (args.traced) {
    // The benchmark's own timing of System::create per chip index (warm
    // process caches: this is the per-task build cost, O(index)).
    std::vector<double> createMs;
    const ExperimentSpec spec = makeSpec(w, args.seed, 0, w.serve ? 1 : 0);
    for (const int chip : spec.chips)
      createMs.push_back(timeCreate(config, spec.populationSeed, chip) * 1e3);
    out.nums("system_create_ms", createMs);

    JsonOut c;
    for (const auto& [k, v] : countersAfter) {
      const auto it = countersBefore.find(k);
      c.num(k, static_cast<double>(v - (it == countersBefore.end() ? 0
                                                                   : it->second)));
    }
    out.raw("counters", c.text());
    const auto col = [&](double LayerSums::*field) {
      std::vector<double> v;
      for (const LayerSums& s : st.layers) v.push_back(s.*field);
      return v;
    };
    JsonOut l;
    l.nums("lifetime_run_ms", col(&LayerSums::lifetimeRunMs));
    l.nums("window_ms", col(&LayerSums::windowMs));
    l.nums("lu_factor_ms", col(&LayerSums::luFactorMs));
    l.nums("policy_ms", col(&LayerSums::policyMs));
    l.nums("aging_ms", col(&LayerSums::agingMs));
    l.nums("failure_ms", col(&LayerSums::failureMs));
    l.nums("engine_run_ms", col(&LayerSums::engineRunMs));
    l.nums("epoch_spans", col(&LayerSums::epochSpans));
    out.raw("layers", l.text());
    JsonOut s;
    s.nums("window_ms", st.samples.windowMs);
    s.nums("hayat_ms", st.samples.hayatMs);
    s.nums("vaa_ms", st.samples.vaaMs);
    s.nums("aging_ms", st.samples.agingMs);
    s.nums("task_ms", st.samples.taskMs);
    out.raw("samples", s.text());
  }
  std::printf("%s\n", out.text().c_str());
  return 0;
}

int setupMode(const Args& args) {
  const Workload& w = findWorkload(args.workload);
  const double s = timeCreate(systemConfig(w), derive(args.seed, 0, 1), 0);
  std::printf("{\"setup_s\":%.17g}\n", s);
  return 0;
}

Args parseArgs(int argc, char** argv) {
  Args a;
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: hayat_perfbench setup|run --workload W --seed S "
                 "[--seconds T | --rounds R] [--traced] [--workdir DIR]\n");
    std::exit(2);
  }
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", k.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (k == "--workload") a.workload = value();
    else if (k == "--seed") a.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(value().c_str(), nullptr);
    else if (k == "--rounds") a.rounds = std::atoi(value().c_str());
    else if (k == "--workdir") a.workdir = value();
    else if (k == "--traced") a.traced = true;
    else {
      std::fprintf(stderr, "unknown argument %s\n", k.c_str());
      std::exit(2);
    }
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parseArgs(argc, argv);
  try {
    if (args.mode == "setup") return setupMode(args);
    if (args.mode == "run") return runMode(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hayat_perfbench: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown mode %s\n", args.mode.c_str());
  return 2;
}
