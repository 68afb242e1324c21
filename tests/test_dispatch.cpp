// Distributed ExperimentEngine: wire protocol, endpoint parsing, and the
// lane scheduler's remote lanes.
//
// The contract under test is the strong one from engine.hpp: the merged
// SweepTable is *bit-identical* to a serial in-process run for any worker
// topology (forked processes, exec'd binaries, TCP workers), and the lanes
// survive their fleet — worker crashes, wedged workers, and an entirely
// unreachable fleet all degrade without changing a byte of the result.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "engine/engine.hpp"
#include "engine/fault.hpp"
#include "engine/result_cache.hpp"
#include "engine/scheduler.hpp"
#include "engine/wire.hpp"
#include "engine/worker_proc.hpp"
#include "telemetry/metrics.hpp"
#include "workload/application.hpp"

namespace hayat::engine {
namespace {

/// Sets an environment variable for the lifetime of the guard (the fault
/// hooks and HAYAT_WORKER_BIN must not leak between tests).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
};

/// Small-but-real spec: 2 chips x 2 policies = 4 tasks, 2 epochs each.
ExperimentSpec testSpec() {
  ExperimentSpec spec;
  spec.name = "dispatch-test";
  spec.system.population.coreGrid = {4, 4};
  spec.lifetime.horizon = 0.5;
  spec.lifetime.epochLength = 0.25;
  spec.policies = {{"VAA", {}}, {"Hayat", {}}};
  spec.chips = {0, 1};
  spec.darkFractions = {0.5};
  return spec;
}

/// Canonical bytes of a table via the shared run-record codec — the
/// literal form of "bit-identical" (every column, %.17g doubles).
std::string tableBytes(const SweepTable& table) {
  std::ostringstream out;
  for (const RunResult& r : table.runs) writeRunResult(out, r);
  return out.str();
}

/// Serial in-process reference run (guards against a leaked
/// HAYAT_DISPATCH turning the reference itself distributed).
SweepTable serialReference(const ExperimentSpec& spec) {
  ::unsetenv("HAYAT_DISPATCH");
  EngineConfig config;
  config.workers = 1;
  config.cache = false;
  return ExperimentEngine(config).run(spec);
}

SweepTable runDispatched(const ExperimentSpec& spec,
                         const std::string& dispatch) {
  EngineConfig config;
  config.workers = 1;
  config.cache = false;
  config.dispatch = dispatch;
  return ExperimentEngine(config).run(spec);
}

/// One job on a lane scheduler, as ExperimentEngine::run runs it, with a
/// test-chosen task timeout.
SweepTable runOnLanes(const ExperimentSpec& spec, const std::string& dispatch,
                      double taskTimeoutSeconds) {
  SchedulerConfig config;
  config.dispatch = dispatch;
  config.cache = false;
  config.taskTimeoutSeconds = taskTimeoutSeconds;
  SweepScheduler scheduler(config);
  const auto run = scheduler.attach(spec, 0, "test");
  EXPECT_TRUE(run->wait()) << run->error();
  return run->table();
}

/// The lane core's recovery counters (always collected, telemetry on or
/// off); a test subtracts a snapshot taken before it runs.
struct LaneCounters {
  std::uint64_t deaths = 0;
  std::uint64_t respawns = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t remote = 0;
  std::uint64_t fallback = 0;

  static LaneCounters now() {
    const auto value = [](const char* name) {
      return telemetry::Registry::global().counter(name).value();
    };
    LaneCounters c;
    c.deaths = value("hayat_serve_lane_deaths_total");
    c.respawns = value("hayat_serve_lane_respawns_total");
    c.timeouts = value("hayat_serve_task_timeouts_total");
    c.remote = value("hayat_serve_tasks_remote_total");
    c.fallback = value("hayat_serve_tasks_local_fallback_total");
    return c;
  }
  LaneCounters since(const LaneCounters& before) const {
    LaneCounters d;
    d.deaths = deaths - before.deaths;
    d.respawns = respawns - before.respawns;
    d.timeouts = timeouts - before.timeouts;
    d.remote = remote - before.remote;
    d.fallback = fallback - before.fallback;
    return d;
  }
};

// ---------------------------------------------------------------- framing

TEST(WireFramingTest, MessagesRoundTripAndEofIsADeadPeer) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);

  ASSERT_TRUE(writeMessage(fds[1], MsgType::Task, "index=3\nhash=0\n"));
  ASSERT_TRUE(writeMessage(fds[1], MsgType::Shutdown, ""));

  Message msg;
  ASSERT_TRUE(readMessage(fds[0], msg));
  EXPECT_EQ(msg.type, MsgType::Task);
  EXPECT_EQ(msg.payload, "index=3\nhash=0\n");
  ASSERT_TRUE(readMessage(fds[0], msg));
  EXPECT_EQ(msg.type, MsgType::Shutdown);
  EXPECT_TRUE(msg.payload.empty());

  ::close(fds[1]);
  EXPECT_FALSE(readMessage(fds[0], msg));  // EOF
  ::close(fds[0]);
}

TEST(WireFramingTest, BadMagicOrVersionIsADeadPeer) {
  for (const bool badVersion : {false, true}) {
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    char header[8] = {};
    header[0] = badVersion ? 'H' : 'X';
    header[1] = 'W';
    header[2] = static_cast<char>(badVersion ? kWireVersion + 1
                                             : kWireVersion);
    header[3] = static_cast<char>(MsgType::Task);
    ASSERT_EQ(::write(fds[1], header, sizeof(header)),
              static_cast<ssize_t>(sizeof(header)));
    Message msg;
    EXPECT_FALSE(readMessage(fds[0], msg));
    ::close(fds[0]);
    ::close(fds[1]);
  }
}

TEST(WireFramingTest, TimedReadDistinguishesTimeoutFromDeath) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);

  Message msg;
  bool timedOut = false;
  EXPECT_FALSE(readMessage(fds[0], msg, 20, timedOut));
  EXPECT_TRUE(timedOut);  // silence, not death

  ASSERT_TRUE(writeMessage(fds[1], MsgType::TaskError, "index=0\nboom\n"));
  EXPECT_TRUE(readMessage(fds[0], msg, 5000, timedOut));
  EXPECT_FALSE(timedOut);
  EXPECT_EQ(msg.type, MsgType::TaskError);

  ::close(fds[1]);
  EXPECT_FALSE(readMessage(fds[0], msg, 5000, timedOut));
  EXPECT_FALSE(timedOut);  // EOF must not masquerade as a timeout
  ::close(fds[0]);
}

// ----------------------------------------------------------------- codecs

TEST(WireCodecTest, SpecRoundTripPreservesSignatureHashAndName) {
  ExperimentSpec spec = testSpec();
  spec.repetitions = 2;
  spec.darkFractions = {0.25, 0.5};
  spec.policies[1].params["wearGamma"] = 2.5;
  spec.lifetime.dvfs = FrequencyLadder({2.0e9, 2.5e9, 3.0e9});

  const ExperimentSpec decoded = decodeSpec(encodeSpec(spec));
  EXPECT_EQ(decoded.name, spec.name);
  EXPECT_EQ(specSignature(decoded), specSignature(spec));
  EXPECT_EQ(specHash(decoded), specHash(spec));
  // The decoded spec expands to the same task product.
  EXPECT_EQ(ExperimentEngine().expand(decoded).size(),
            ExperimentEngine().expand(spec).size());
}

TEST(WireCodecTest, TaskAndTaskErrorRoundTrip) {
  int index = -1;
  std::uint64_t hash = 0;
  decodeTask(encodeTask(7, 0xDEADBEEFCAFEF00Dull), index, hash);
  EXPECT_EQ(index, 7);
  EXPECT_EQ(hash, 0xDEADBEEFCAFEF00Dull);

  std::string message;
  decodeTaskError(encodeTaskError(3, "boom\nwith detail"), index, message);
  EXPECT_EQ(index, 3);
  EXPECT_EQ(message, "boom with detail");  // newlines flattened

  EXPECT_THROW(decodeTask("hash=0\n", index, hash), Error);
}

TEST(WireCodecTest, ResultRoundTripsBitExactly) {
  const ExperimentSpec spec = testSpec();
  const std::vector<RunTask> tasks = ExperimentEngine().expand(spec);
  const RunResult computed =
      ExperimentEngine::runTask(tasks[1], spec.populationSeed);

  int index = -1;
  RunResult decoded;
  decodeResult(encodeResult(1, computed), index, decoded);
  EXPECT_EQ(index, 1);

  std::ostringstream a, b;
  writeRunResult(a, computed);
  writeRunResult(b, decoded);
  EXPECT_EQ(a.str(), b.str());

  EXPECT_THROW(decodeResult("index=0\ngarbage\n", index, decoded), Error);
}

TEST(WireCodecTest, FixedMixSpecsRefuseToCrossTheWire) {
  ExperimentSpec spec = testSpec();
  spec.lifetime.fixedMix = WorkloadMix{};
  EXPECT_THROW(encodeSpec(spec), Error);
}

// ----------------------------------------------------------- spec parsing

TEST(ParseWorkerSpecTest, AcceptsEveryEndpointKindAndLists) {
  auto eps = parseWorkerSpec("proc:4");
  ASSERT_EQ(eps.size(), 1u);
  EXPECT_EQ(eps[0].kind, WorkerEndpoint::Kind::Fork);
  EXPECT_EQ(eps[0].count, 4);

  eps = parseWorkerSpec("proc");  // bare kind defaults to one worker
  ASSERT_EQ(eps.size(), 1u);
  EXPECT_EQ(eps[0].count, 1);

  eps = parseWorkerSpec("exec:2");
  ASSERT_EQ(eps.size(), 1u);
  EXPECT_EQ(eps[0].kind, WorkerEndpoint::Kind::Exec);
  EXPECT_EQ(eps[0].count, 2);

  eps = parseWorkerSpec("tcp:10.0.0.5:7707");
  ASSERT_EQ(eps.size(), 1u);
  EXPECT_EQ(eps[0].kind, WorkerEndpoint::Kind::Tcp);
  EXPECT_EQ(eps[0].host, "10.0.0.5");
  EXPECT_EQ(eps[0].port, 7707);

  eps = parseWorkerSpec("proc:2,tcp:hostA:7707,exec:1");
  ASSERT_EQ(eps.size(), 3u);
  EXPECT_EQ(eps[0].kind, WorkerEndpoint::Kind::Fork);
  EXPECT_EQ(eps[1].kind, WorkerEndpoint::Kind::Tcp);
  EXPECT_EQ(eps[2].kind, WorkerEndpoint::Kind::Exec);
}

TEST(ParseWorkerSpecTest, RejectsMalformedSpecs) {
  EXPECT_THROW(parseWorkerSpec(""), Error);
  EXPECT_THROW(parseWorkerSpec(","), Error);
  EXPECT_THROW(parseWorkerSpec("bogus:1"), Error);
  EXPECT_THROW(parseWorkerSpec("proc:0"), Error);
  EXPECT_THROW(parseWorkerSpec("proc:x"), Error);
  EXPECT_THROW(parseWorkerSpec("proc:-2"), Error);
  EXPECT_THROW(parseWorkerSpec("tcp:hostonly"), Error);
  EXPECT_THROW(parseWorkerSpec("tcp::7707"), Error);
  EXPECT_THROW(parseWorkerSpec("tcp:host:0"), Error);
  EXPECT_THROW(parseWorkerSpec("tcp:host:70000"), Error);
}

// ------------------------------------------------------------ determinism

TEST(DispatchDeterminismTest, ForkedWorkersAreBitIdenticalToSerial) {
  const ExperimentSpec spec = testSpec();
  const SweepTable serial = serialReference(spec);
  ASSERT_EQ(serial.runs.size(), 4u);

  const SweepTable dispatched = runDispatched(spec, "proc:2");
  EXPECT_EQ(tableBytes(serial), tableBytes(dispatched));
}

TEST(DispatchDeterminismTest, TcpWorkerIsBitIdenticalToSerial) {
  // Parent binds an ephemeral port; a forked child serves the worker
  // protocol on it, exactly like `hayat worker --listen`.
  const int listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listenFd, 0);
  const int one = 1;
  ::setsockopt(listenFd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listenFd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listenFd, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listenFd, reinterpret_cast<sockaddr*>(&addr),
                          &len),
            0);
  const int port = ntohs(addr.sin_port);

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) ::_exit(serveWorkerOnListenSocket(listenFd));
  ::close(listenFd);

  const ExperimentSpec spec = testSpec();
  const SweepTable serial = serialReference(spec);
  const SweepTable dispatched =
      runDispatched(spec, "tcp:127.0.0.1:" + std::to_string(port));
  EXPECT_EQ(tableBytes(serial), tableBytes(dispatched));

  ::kill(child, SIGKILL);
  ::waitpid(child, nullptr, 0);
}

TEST(DispatchDeterminismTest, ExecWorkersRunTheRealBinary) {
  // ctest runs from build/tests; the CLI binary lives in build/tools.
  const std::filesystem::path binary =
      std::filesystem::absolute("../tools/hayat");
  if (!std::filesystem::exists(binary))
    GTEST_SKIP() << "hayat CLI binary not found at " << binary;

  const ScopedEnv bin("HAYAT_WORKER_BIN", binary.string());
  const ExperimentSpec spec = testSpec();
  const SweepTable serial = serialReference(spec);
  const SweepTable dispatched = runDispatched(spec, "exec:2");
  EXPECT_EQ(tableBytes(serial), tableBytes(dispatched));
}

TEST(SpawnWorkerTest, WorkersKeepNoInheritedDescriptors) {
  // A spawned worker holds only stdio and its own socket.  Any other fd
  // it kept (a sibling's socket, or a serve daemon's listening and client
  // sockets) would stay open after its owner closed it.  The parent
  // closes its write end of a pipe; the read end reaches EOF only once
  // the worker has dropped the copy it inherited.
  const auto expectDropsInherited = [](const auto& spawn) {
    int pipeFds[2];
    ASSERT_EQ(::pipe(pipeFds), 0);
    int fd = -1;
    const pid_t pid = spawn(fd);
    ASSERT_GT(pid, 0);
    ::close(pipeFds[1]);
    struct pollfd pfd = {pipeFds[0], POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 30000);
    EXPECT_EQ(ready, 1) << "the worker kept the pipe open";
    char byte = 0;
    if (ready == 1) {
      EXPECT_EQ(::read(pipeFds[0], &byte, 1), 0);
    }
    ::close(pipeFds[0]);
    ::close(fd);  // EOF on its socket ends the worker loop
    ::waitpid(pid, nullptr, 0);
  };
  expectDropsInherited([](int& fd) { return spawnForkWorker(fd); });

  const std::filesystem::path binary =
      std::filesystem::absolute("../tools/hayat");
  if (!std::filesystem::exists(binary))
    GTEST_SKIP() << "hayat CLI binary not found at " << binary;
  expectDropsInherited(
      [&binary](int& fd) { return spawnExecWorker(binary.string(), fd); });
}

// --------------------------------------------------------- fault handling

TEST(CrashRecoveryTest, WorkerDeathsAreRespawnedAndTableUnchanged) {
  const ExperimentSpec spec = testSpec();
  const SweepTable serial = serialReference(spec);

  // Every worker incarnation _exit(42)s after serving one result, so the
  // sweep only finishes if deaths are detected and slots respawned.
  const ScopedEnv crash("HAYAT_WORKER_EXIT_AFTER", "1");
  const LaneCounters before = LaneCounters::now();
  const SweepTable table = runDispatched(spec, "proc:2");
  const LaneCounters delta = LaneCounters::now().since(before);

  EXPECT_EQ(tableBytes(serial), tableBytes(table));
  EXPECT_GE(delta.deaths, 1u);
  EXPECT_GE(delta.respawns, 1u);
  EXPECT_EQ(delta.remote + delta.fallback, 4u);
}

TEST(CrashRecoveryTest, WedgedWorkerIsTimedOutAndItsTaskRequeued) {
  ExperimentSpec spec = testSpec();
  spec.chips = {0};  // 2 tasks: the worker serves one, wedges on the next
  const SweepTable serial = serialReference(spec);

  const ScopedEnv stall("HAYAT_WORKER_STALL_AFTER", "1");
  const LaneCounters before = LaneCounters::now();
  const SweepTable table = runOnLanes(spec, "proc:1", 2.0);
  const LaneCounters delta = LaneCounters::now().since(before);

  EXPECT_EQ(tableBytes(serial), tableBytes(table));
  EXPECT_GE(delta.timeouts, 1u);  // the wedged worker was timed out
  EXPECT_GE(delta.deaths, 1u);    // and killed
  EXPECT_GE(delta.respawns, 1u);  // its task ran on the replacement
  EXPECT_EQ(delta.remote, 2u);
}

TEST(DegradationTest, UnreachableFleetFallsBackToLocalThreads) {
  // Find a port with nothing listening: bind an ephemeral port, then
  // close it before dialing.
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const int port = ntohs(addr.sin_port);
  ::close(probe);

  const ExperimentSpec spec = testSpec();
  const SweepTable serial = serialReference(spec);
  const SweepTable degraded =
      runDispatched(spec, "tcp:127.0.0.1:" + std::to_string(port));
  EXPECT_EQ(tableBytes(serial), tableBytes(degraded));
}

// ---------------------------------------------------- fault plan grammar

TEST(FaultPlanTest, ParsesEveryVerb) {
  const FaultPlan plan = parseFaultPlan(
      "drop:frame=3;delay:worker=1,ms=500;corrupt:frame=7;"
      "die:worker=2,after=5;stall:worker=0,after=2");
  ASSERT_EQ(plan.rules.size(), 5u);
  EXPECT_EQ(plan.rules[0].kind, FaultRule::Kind::Drop);
  EXPECT_EQ(plan.rules[0].frame, 3);
  EXPECT_EQ(plan.rules[1].kind, FaultRule::Kind::Delay);
  EXPECT_EQ(plan.rules[1].worker, 1);
  EXPECT_EQ(plan.rules[1].ms, 500);
  EXPECT_EQ(plan.rules[2].kind, FaultRule::Kind::Corrupt);
  EXPECT_EQ(plan.rules[2].frame, 7);
  EXPECT_EQ(plan.rules[3].kind, FaultRule::Kind::Die);
  EXPECT_EQ(plan.rules[3].worker, 2);
  EXPECT_EQ(plan.rules[3].after, 5);
  EXPECT_EQ(plan.rules[4].kind, FaultRule::Kind::Stall);
  EXPECT_EQ(plan.rules[4].worker, 0);
  EXPECT_EQ(plan.rules[4].after, 2);
  EXPECT_TRUE(parseFaultPlan("").empty());
}

TEST(FaultPlanTest, RejectsMalformedPlans) {
  EXPECT_THROW(parseFaultPlan("explode:frame=1"), Error);
  EXPECT_THROW(parseFaultPlan("drop"), Error);            // no args
  EXPECT_THROW(parseFaultPlan("drop:worker=1"), Error);   // wrong key
  EXPECT_THROW(parseFaultPlan("drop:frame=0"), Error);    // 1-based
  EXPECT_THROW(parseFaultPlan("drop:frame=x"), Error);
  EXPECT_THROW(parseFaultPlan("delay:worker=1"), Error);  // missing ms
  EXPECT_THROW(parseFaultPlan("die:worker=-1,after=1"), Error);
  EXPECT_THROW(parseFaultPlan("die:worker=1,after=1,bogus=2"), Error);
}

// ----------------------------------------------------- wire codec fuzzing

namespace {

/// Deterministic xorshift64* byte stream — the fuzz tests must replay
/// identically run after run.
class FuzzBytes {
 public:
  explicit FuzzBytes(std::uint64_t seed) : state_(seed | 1) {}
  unsigned char next() {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return static_cast<unsigned char>((state_ * 0x2545F4914F6CDD1Dull) >>
                                      56);
  }
  std::string blob(std::size_t n) {
    std::string out(n, '\0');
    for (char& c : out) c = static_cast<char>(next());
    return out;
  }

 private:
  std::uint64_t state_;
};

/// Runs `decode` over every truncated prefix (strided for long payloads),
/// a bit-flipped copy, and pure garbage.  The decoders may accept a
/// prefix that happens to land on a record boundary; what they must
/// never do is crash or read out of bounds — which the sanitizer CI job
/// turns into a hard failure.
template <typename Decode>
void fuzzDecoder(const std::string& valid, Decode decode, FuzzBytes& fuzz) {
  const std::size_t stride = std::max<std::size_t>(1, valid.size() / 64);
  for (std::size_t len = 0; len < valid.size(); len += stride) {
    try {
      decode(valid.substr(0, len));
    } catch (const std::exception&) {
    }
  }
  std::string flipped = valid;
  for (int i = 0; i < 8 && !flipped.empty(); ++i)
    flipped[fuzz.next() % flipped.size()] ^= static_cast<char>(
        1u << (fuzz.next() % 8));
  try {
    decode(flipped);
  } catch (const std::exception&) {
  }
  for (const std::size_t n : {std::size_t{1}, std::size_t{17},
                              std::size_t{256}}) {
    try {
      decode(fuzz.blob(n));
    } catch (const std::exception&) {
    }
  }
}

}  // namespace

TEST(WireFuzzTest, EveryDecoderSurvivesTruncationAndGarbage) {
  FuzzBytes fuzz(0x48617961745F5052ull);
  const ExperimentSpec spec = testSpec();
  const std::vector<RunTask> tasks = ExperimentEngine().expand(spec);
  const RunResult computed =
      ExperimentEngine::runTask(tasks[0], spec.populationSeed);

  fuzzDecoder(encodeSpec(spec), [](const std::string& p) { decodeSpec(p); },
              fuzz);
  fuzzDecoder(encodeTask(5, specHash(spec)), [](const std::string& p) {
    int index;
    std::uint64_t hash;
    decodeTask(p, index, hash);
  }, fuzz);
  fuzzDecoder(
      encodeResult(1, computed,
                   "c,hayat_lifetime_runs_total,3\n"
                   "h,hayat_worker_task_seconds,2,0.5,0.01:0,1:2,+Inf:0\n"),
      [](const std::string& p) {
        int index;
        RunResult r;
        telemetry::MetricDeltas deltas;
        decodeResult(p, index, r, &deltas);
      },
      fuzz);
  fuzzDecoder(encodeTaskError(2, "boom"), [](const std::string& p) {
    int index;
    std::string message;
    decodeTaskError(p, index, message);
  }, fuzz);
  fuzzDecoder(encodeCachePush("dispatch-test", specHash(spec),
                              "# hayat-result-cache v3\npayload\nbytes"),
              [](const std::string& p) {
                std::string name;
                std::uint64_t hash;
                std::string bytes;
                decodeCachePush(p, name, hash, bytes);
              },
              fuzz);

  // Decoders must reject the trivially hostile inputs loudly, not just
  // quietly survive them.
  int index;
  std::uint64_t hash;
  RunResult r;
  std::string text;
  EXPECT_THROW(decodeTask("", index, hash), Error);
  EXPECT_THROW(decodeResult("", index, r), Error);
  EXPECT_THROW(decodeTaskError("", index, text), Error);
  EXPECT_THROW(decodeCachePush("", text, hash, text), Error);
  EXPECT_THROW(decodeSpec(""), std::exception);
}

TEST(WireFuzzTest, FramingRejectsGarbageStreams) {
  FuzzBytes fuzz(0xDEC0DEDBADC0FFEEull);
  for (int round = 0; round < 16; ++round) {
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const std::string noise = fuzz.blob(64);
    ASSERT_EQ(::write(fds[1], noise.data(), noise.size()),
              static_cast<ssize_t>(noise.size()));
    ::close(fds[1]);
    Message msg;
    // Random bytes essentially never spell 'H''W'<version>; a frame that
    // does pass framing still has a bounded, length-checked payload.
    while (readMessage(fds[0], msg)) {
    }
    ::close(fds[0]);
  }
}

TEST(WireCodecTest, CachePushRoundTripsAndPinsTheCacheVersion) {
  // Payload bytes are arbitrary binary: NULs and newlines included.
  std::string fileBytes = "# hayat-result-cache v" +
                          std::to_string(kCacheFormatVersion) + "\n";
  fileBytes += std::string("\0\x01\xff" "binary\nlines\n", 16);

  const std::string payload =
      encodeCachePush("sweep-a", 0xDEADBEEFCAFEF00Dull, fileBytes);
  std::string name;
  std::uint64_t hash = 0;
  std::string decoded;
  decodeCachePush(payload, name, hash, decoded);
  EXPECT_EQ(name, "sweep-a");
  EXPECT_EQ(hash, 0xDEADBEEFCAFEF00Dull);
  EXPECT_EQ(decoded, fileBytes);

  // A frame stamped with a different cache format version must be
  // rejected before any bytes reach disk.
  const std::string stamp =
      "cache.version=" + std::to_string(kCacheFormatVersion);
  std::string wrongVersion = payload;
  ASSERT_EQ(wrongVersion.compare(0, stamp.size(), stamp), 0);
  wrongVersion.replace(0, stamp.size(),
                       "cache.version=" +
                           std::to_string(kCacheFormatVersion + 1));
  EXPECT_THROW(decodeCachePush(wrongVersion, name, hash, decoded), Error);

  // Truncated payloads (byte count oversells the remaining bytes).
  EXPECT_THROW(decodeCachePush(payload.substr(0, payload.size() - 4), name,
                               hash, decoded),
               Error);
}

// ----------------------------------------------------- shared task queue

TEST(LaneQueueTest, FastLaneFinishesEveryTaskTheSlowLaneDoesNotHold) {
  const ExperimentSpec spec = testSpec();  // 4 tasks
  const SweepTable serial = serialReference(spec);

  // Worker 1 sleeps 1.5 s before every Result.  Lanes pull from one
  // queue and hold one task each, so the slow lane keeps the one task it
  // took while the fast lane runs the other three; had it been handed a
  // second task, the sweep would take 3 s or more.
  const ScopedEnv plan("HAYAT_FAULT_PLAN", "delay:worker=1,ms=1500");
  const LaneCounters before = LaneCounters::now();
  const auto start = std::chrono::steady_clock::now();
  const SweepTable table = runDispatched(spec, "proc:2");
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  const LaneCounters delta = LaneCounters::now().since(before);

  EXPECT_EQ(tableBytes(serial), tableBytes(table));
  EXPECT_LT(seconds, 3.0);
  EXPECT_EQ(delta.deaths, 0u);  // waiting, not timeout-killing
  EXPECT_EQ(delta.remote, 4u);
}

namespace {

/// Binds a loopback listen socket on an ephemeral port.
int bindLoopback(int& port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  EXPECT_EQ(::listen(fd, 4), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  port = ntohs(addr.sin_port);
  return fd;
}

std::string slurpFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// A hostile-but-plausible worker: serves the protocol correctly except
/// that every Result is sent twice.
int doubleEchoWorker(int fd) {
  Message msg;
  if (!readMessage(fd, msg) || msg.type != MsgType::Spec) return 1;
  const ExperimentSpec spec = decodeSpec(msg.payload);
  const std::vector<RunTask> tasks = ExperimentEngine().expand(spec);
  const std::uint64_t hash = specHash(spec);
  while (readMessage(fd, msg)) {
    if (msg.type == MsgType::Shutdown) return 0;
    if (msg.type != MsgType::Task) continue;
    int index = -1;
    std::uint64_t taskHash = 0;
    decodeTask(msg.payload, index, taskHash);
    if (taskHash != hash) return 1;
    const RunResult result = ExperimentEngine::runTask(
        tasks[static_cast<std::size_t>(index)], spec.populationSeed);
    const std::string payload = encodeResult(index, result);
    if (!writeMessage(fd, MsgType::Result, payload)) return 1;
    if (!writeMessage(fd, MsgType::Result, payload)) return 1;
  }
  return 0;
}

}  // namespace

TEST(LaneQueueTest, DoubleAnsweringWorkerIsDroppedAndTableUnchanged) {
  const ExperimentSpec spec = testSpec();  // 4 tasks
  const SweepTable serial = serialReference(spec);

  // The worker host serves one connection at a time, each with a fresh
  // double-answering worker, so the lane can redial after a drop.
  int port = 0;
  const int listenFd = bindLoopback(port);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    for (;;) {
      const int fd = ::accept(listenFd, nullptr, nullptr);
      if (fd < 0) ::_exit(1);
      doubleEchoWorker(fd);
      ::close(fd);
    }
  }
  ::close(listenFd);

  // A lane holds one task, so the second answer to Task k arrives where
  // the Result of Task k+1 belongs: a protocol violation that costs the
  // worker its connection.  Every task still resolves exactly once.
  const LaneCounters before = LaneCounters::now();
  const SweepTable table =
      runDispatched(spec, "tcp:127.0.0.1:" + std::to_string(port));
  const LaneCounters delta = LaneCounters::now().since(before);

  EXPECT_EQ(tableBytes(serial), tableBytes(table));
  EXPECT_GE(delta.deaths, 1u);
  EXPECT_EQ(delta.remote + delta.fallback, 4u);

  ::kill(child, SIGKILL);
  ::waitpid(child, nullptr, 0);
}

// ------------------------------------------- injected coordinator faults

TEST(FaultInjectionTest, DroppedTaskFrameIsRecoveredByTheTimeout) {
  ExperimentSpec spec = testSpec();
  spec.chips = {0};  // 2 tasks
  const SweepTable serial = serialReference(spec);

  // Frame 1 is the Spec; frame 2 is Task 0, swallowed at the transport —
  // the worker sees silence, so only the lane's per-task timeout can
  // save the task.
  const ScopedEnv plan("HAYAT_FAULT_PLAN", "drop:frame=2");
  const LaneCounters before = LaneCounters::now();
  const SweepTable table = runOnLanes(spec, "proc:1", 1.0);
  const LaneCounters delta = LaneCounters::now().since(before);

  EXPECT_EQ(tableBytes(serial), tableBytes(table));
  EXPECT_GE(delta.timeouts, 1u);
  EXPECT_GE(delta.deaths, 1u);  // the timeout kill
  EXPECT_GE(delta.respawns, 1u);
}

TEST(FaultInjectionTest, CorruptedTaskFrameKillsAndRespawnsTheWorker) {
  ExperimentSpec spec = testSpec();
  spec.chips = {0};  // 2 tasks
  const SweepTable serial = serialReference(spec);

  // Frame 2 (Task 0) keeps valid framing but a mangled payload: the
  // worker's decoder rejects it and exits, which the lane sees as an EOF
  // death — no timeout wait needed.
  const ScopedEnv plan("HAYAT_FAULT_PLAN", "corrupt:frame=2");
  const LaneCounters before = LaneCounters::now();
  const SweepTable table = runDispatched(spec, "proc:1");
  const LaneCounters delta = LaneCounters::now().since(before);

  EXPECT_EQ(tableBytes(serial), tableBytes(table));
  EXPECT_GE(delta.deaths, 1u);
  EXPECT_GE(delta.respawns, 1u);
  EXPECT_EQ(delta.timeouts, 0u);
}

TEST(FaultInjectionTest, SoakSweepSurvivesEveryWorkerDying) {
  ExperimentSpec spec = testSpec();
  spec.darkFractions = {0.25, 0.5};
  spec.repetitions = 2;  // 16 tasks
  const SweepTable serial = serialReference(spec);
  ASSERT_EQ(serial.runs.size(), 16u);

  // Every slot's incarnation _exit(43)s after serving one result, so the
  // sweep finishes only if all four slots are killed and respawned —
  // repeatedly; each served result restores a lane's respawn budget.
  const ScopedEnv plan("HAYAT_FAULT_PLAN",
                       "die:worker=0,after=1;die:worker=1,after=1;"
                       "die:worker=2,after=1;die:worker=3,after=1");
  const LaneCounters before = LaneCounters::now();
  const SweepTable table = runDispatched(spec, "proc:4");
  const LaneCounters delta = LaneCounters::now().since(before);

  EXPECT_EQ(tableBytes(serial), tableBytes(table));
  EXPECT_GE(delta.deaths, 4u);    // each slot died at least once
  EXPECT_GE(delta.respawns, 4u);  // and came back
  EXPECT_EQ(delta.remote + delta.fallback, 16u);
}

TEST(FaultInjectionTest, TransientLossesNeverExhaustTheRespawnBudget) {
  ExperimentSpec spec = testSpec();
  spec.chips = {0, 1, 2, 3};
  spec.darkFractions = {0.25, 0.5};
  spec.repetitions = 2;  // 32 tasks: slot 0 serves far more than 4
  const SweepTable serial = serialReference(spec);
  ASSERT_EQ(serial.runs.size(), 32u);

  // Slot 0's every incarnation dies after one result: far more than
  // kLaneRespawns losses over the sweep, but never two in a row, so the
  // lane keeps its worker and no task falls back in-process.
  const ScopedEnv plan("HAYAT_FAULT_PLAN", "die:worker=0,after=1");
  const LaneCounters before = LaneCounters::now();
  const SweepTable table = runDispatched(spec, "proc:2");
  const LaneCounters delta = LaneCounters::now().since(before);

  EXPECT_EQ(tableBytes(serial), tableBytes(table));
  EXPECT_EQ(delta.fallback, 0u);
  EXPECT_EQ(delta.remote, 32u);
}

TEST(FaultInjectionTest, WorkerDyingOnEveryTaskFallsBackAfterTheBudget) {
  ExperimentSpec spec = testSpec();  // 4 tasks
  const SweepTable serial = serialReference(spec);

  // The worker dies before serving anything: kLaneRespawns respawns, one
  // more loss, then the lane runs every task in-process.
  const ScopedEnv plan("HAYAT_FAULT_PLAN", "die:worker=0,after=0");
  const LaneCounters before = LaneCounters::now();
  const SweepTable table = runDispatched(spec, "proc:1");
  const LaneCounters delta = LaneCounters::now().since(before);

  EXPECT_EQ(tableBytes(serial), tableBytes(table));
  EXPECT_EQ(delta.respawns, static_cast<std::uint64_t>(kLaneRespawns));
  EXPECT_EQ(delta.deaths, static_cast<std::uint64_t>(kLaneRespawns) + 1);
  EXPECT_EQ(delta.remote, 0u);
  EXPECT_EQ(delta.fallback, 4u);
}

// --------------------------------------------------------- cache pushing

TEST(CachePushTest, CorruptPushIsRejectedWithoutKillingTheWorker) {
  const std::string dir =
      testing::TempDir() + "hayat_dispatch_push_corrupt_test";
  std::filesystem::remove_all(dir);
  const ScopedEnv cacheDir("HAYAT_CACHE_DIR", dir);

  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::close(sv[0]);
    ::_exit(runWorkerLoop(sv[1], sv[1]));
  }
  ::close(sv[1]);
  const int fd = sv[0];

  const ExperimentSpec spec = testSpec();
  ASSERT_TRUE(writeMessage(fd, MsgType::Spec, encodeSpec(spec)));

  // A CachePush whose payload is bit-rotted mid-frame: the worker must
  // reject it (decode failure) and keep serving tasks on the same
  // connection.
  std::string corrupt = encodeCachePush(
      spec.name, specHash(spec), "# hayat-result-cache v3\nbytes\n");
  corrupt[corrupt.size() / 2] ^= 0x5A;
  corrupt[3] ^= 0x5A;
  ASSERT_TRUE(writeMessage(fd, MsgType::CachePush, corrupt));

  ASSERT_TRUE(
      writeMessage(fd, MsgType::Task, encodeTask(0, specHash(spec))));
  Message msg;
  ASSERT_TRUE(readMessage(fd, msg)) << "worker died on the corrupt push";
  EXPECT_EQ(msg.type, MsgType::Result);

  // Nothing was stored for the corrupt frame.
  EXPECT_FALSE(
      std::filesystem::exists(cacheEntryPath(dir, spec.name,
                                             specHash(spec))));

  ASSERT_TRUE(writeMessage(fd, MsgType::Shutdown, ""));
  ::close(fd);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  std::filesystem::remove_all(dir);
}

TEST(CachePushTest, CoordinatorWarmsTcpWorkerCaches) {
  const std::string coordDir =
      testing::TempDir() + "hayat_push_coord_cache";
  const std::string workerDir =
      testing::TempDir() + "hayat_push_worker_cache";
  std::filesystem::remove_all(coordDir);
  std::filesystem::remove_all(workerDir);
  ::unsetenv("HAYAT_NO_CACHE");
  ::unsetenv("HAYAT_NO_SWEEP_CACHE");

  int port = 0;
  const int listenFd = bindLoopback(port);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // The worker host's own cache directory — distinct from the
    // coordinator's, as on a real remote host.
    ::setenv("HAYAT_CACHE_DIR", workerDir.c_str(), 1);
    ::_exit(serveWorkerOnListenSocket(listenFd));
  }
  ::close(listenFd);

  ExperimentSpec spec = testSpec();
  spec.name = "push-test";
  EngineConfig config;
  config.workers = 1;
  config.cacheDir = coordDir;
  config.dispatch = "tcp:127.0.0.1:" + std::to_string(port);
  const SweepTable computed = ExperimentEngine(config).run(spec);
  ASSERT_EQ(computed.runs.size(), 4u);

  // The coordinator stored its own entry and pushed the same bytes to
  // the worker (which stores asynchronously — poll briefly).
  const std::string coordEntry = cachePath(coordDir, spec);
  const std::string workerEntry =
      cacheEntryPath(workerDir, spec.name, specHash(spec));
  ASSERT_TRUE(std::filesystem::exists(coordEntry));
  for (int i = 0; i < 500 && !std::filesystem::exists(workerEntry); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(std::filesystem::exists(workerEntry))
      << "worker never stored the pushed entry";
  EXPECT_EQ(slurpFile(coordEntry), slurpFile(workerEntry));

  // A *cache hit* pushes too: delete the worker's copy, re-run, and the
  // coordinator re-warms it without recomputing anything.
  std::filesystem::remove(workerEntry);
  const SweepTable cached = ExperimentEngine(config).run(spec);
  EXPECT_EQ(tableBytes(computed), tableBytes(cached));
  for (int i = 0; i < 500 && !std::filesystem::exists(workerEntry); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(std::filesystem::exists(workerEntry))
      << "cache hit did not re-warm the worker";

  // The pushed entry is a fully valid cache file: an engine pointed at
  // the worker's directory hits it and loads the identical table.
  EngineConfig workerSide;
  workerSide.workers = 1;
  workerSide.cacheDir = workerDir;
  const SweepTable loaded = ExperimentEngine(workerSide).run(spec);
  EXPECT_EQ(tableBytes(computed), tableBytes(loaded));

  ::kill(child, SIGKILL);
  ::waitpid(child, nullptr, 0);
  std::filesystem::remove_all(coordDir);
  std::filesystem::remove_all(workerDir);
}

// ------------------------------------------------------ /metrics endpoint

TEST(MetricsEndpointTest, ListenSocketServesPrometheusTextAndWireTraffic) {
  int port = 0;
  const int listenFd = bindLoopback(port);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) ::_exit(serveWorkerOnListenSocket(listenFd));
  ::close(listenFd);

  const auto httpGet = [&](const std::string& target) {
    const int fd = connectTcpWorker("127.0.0.1", port, 2000);
    EXPECT_GE(fd, 0);
    const std::string request =
        "GET " + target + " HTTP/1.0\r\nHost: x\r\n\r\n";
    EXPECT_EQ(::write(fd, request.data(), request.size()),
              static_cast<ssize_t>(request.size()));
    std::string response;
    char buf[4096];
    ssize_t n;
    while ((n = ::read(fd, buf, sizeof(buf))) > 0)
      response.append(buf, static_cast<std::size_t>(n));
    ::close(fd);
    return response;
  };

  const std::string metrics = httpGet("/metrics");
  EXPECT_EQ(metrics.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << metrics;
  EXPECT_NE(metrics.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(metrics.find("hayat_worker_metrics_requests_total"),
            std::string::npos);

  EXPECT_EQ(httpGet("/nope").rfind("HTTP/1.0 404 Not Found\r\n", 0), 0u);

  // The same port still speaks the wire protocol to coordinators.
  const ExperimentSpec spec = testSpec();
  const SweepTable serial = serialReference(spec);
  const SweepTable dispatched =
      runDispatched(spec, "tcp:127.0.0.1:" + std::to_string(port));
  EXPECT_EQ(tableBytes(serial), tableBytes(dispatched));

  ::kill(child, SIGKILL);
  ::waitpid(child, nullptr, 0);
}

}  // namespace
}  // namespace hayat::engine
