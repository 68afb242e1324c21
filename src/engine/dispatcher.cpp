#include "engine/dispatcher.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "engine/fault.hpp"
#include "engine/task_pool.hpp"
#include "engine/wire.hpp"
#include "engine/worker_proc.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace hayat::engine {

namespace {

/// Mirrors a DispatchStats increment into a named telemetry counter so
/// retry/respawn/timeout bookkeeping shows up in exported metrics.
void countDispatch(const char* name) {
  if (!telemetry::enabled()) return;
  telemetry::Registry::global().counter(name).add();
}

void ignoreSigpipe() {
  struct sigaction sa;
  if (::sigaction(SIGPIPE, nullptr, &sa) == 0 && sa.sa_handler == SIG_DFL) {
    sa.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &sa, nullptr);
  }
}

int parsePositiveInt(const std::string& text, const char* what) {
  char* end = nullptr;
  const long value = std::strtol(text.c_str(), &end, 10);
  HAYAT_REQUIRE(end == text.c_str() + text.size() && !text.empty() &&
                    value >= 1,
                std::string("worker spec: bad ") + what + " '" + text + "'");
  return static_cast<int>(value);
}

std::string execBinary() {
  if (const char* bin = std::getenv("HAYAT_WORKER_BIN"))
    if (*bin) return bin;
  return "hayat";
}

}  // namespace

std::vector<WorkerEndpoint> parseWorkerSpec(const std::string& text) {
  std::vector<WorkerEndpoint> endpoints;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::string item =
        text.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    start = comma == std::string::npos ? text.size() + 1 : comma + 1;
    if (item.empty()) continue;

    WorkerEndpoint ep;
    if (item == "proc" || item.rfind("proc:", 0) == 0) {
      ep.kind = WorkerEndpoint::Kind::Fork;
      ep.count =
          item == "proc" ? 1 : parsePositiveInt(item.substr(5), "count");
    } else if (item == "exec" || item.rfind("exec:", 0) == 0) {
      ep.kind = WorkerEndpoint::Kind::Exec;
      ep.count =
          item == "exec" ? 1 : parsePositiveInt(item.substr(5), "count");
    } else if (item.rfind("tcp:", 0) == 0) {
      ep.kind = WorkerEndpoint::Kind::Tcp;
      const std::string rest = item.substr(4);
      const std::size_t colon = rest.rfind(':');
      HAYAT_REQUIRE(colon != std::string::npos && colon > 0,
                    "worker spec: tcp endpoint needs host:port, got '" +
                        item + "'");
      ep.host = rest.substr(0, colon);
      ep.port = parsePositiveInt(rest.substr(colon + 1), "port");
      HAYAT_REQUIRE(ep.port <= 65535,
                    "worker spec: port out of range in '" + item + "'");
    } else {
      throw Error("worker spec: unknown endpoint '" + item +
                  "' (expected proc:N, exec:N, or tcp:host:port)");
    }
    endpoints.push_back(std::move(ep));
  }
  HAYAT_REQUIRE(!endpoints.empty(), "worker spec: no endpoints in '" + text +
                                        "'");
  return endpoints;
}

Dispatcher::Dispatcher(DispatchConfig config) : config_(std::move(config)) {
  ignoreSigpipe();
  // Install the coordinator side of any fault plan now, resetting the
  // frame counter, so a fixed plan names the same frames on every run of
  // this dispatcher.  Worker-side rules travel via the environment.
  std::string planText = config_.faultPlan;
  if (planText.empty())
    if (const char* env = std::getenv("HAYAT_FAULT_PLAN")) planText = env;
  if (!planText.empty()) {
    installCoordinatorFaults(parseFaultPlan(planText));
    faultsInstalled_ = true;
  }
}

Dispatcher::~Dispatcher() {
  shutdown();
  if (faultsInstalled_) clearCoordinatorFaults();
}

bool Dispatcher::spawn(Worker& worker, int slot) {
  int fd = -1;
  pid_t pid = -1;
  switch (worker.endpoint.kind) {
    case WorkerEndpoint::Kind::Fork:
      pid = spawnForkWorker(fd, slot);
      break;
    case WorkerEndpoint::Kind::Exec:
      pid = spawnExecWorker(execBinary(), fd, slot);
      break;
    case WorkerEndpoint::Kind::Tcp:
      fd = connectTcpWorker(worker.endpoint.host, worker.endpoint.port,
                            config_.connectTimeoutMs);
      break;
  }
  if (fd < 0) return false;
  ++stats_.workersSpawned;
  countDispatch("hayat_dispatch_workers_spawned_total");

  // TelemetryOn follows the spec (not embedded in it) so the hashed spec
  // payload — and with it the task-partitioning key — is identical with
  // telemetry on or off.
  if (!writeMessage(fd, MsgType::Spec, specPayload_) ||
      (telemetry::enabled() &&
       !writeMessage(fd, MsgType::TelemetryOn, ""))) {
    ::close(fd);
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
    return false;
  }
  worker.fd = fd;
  worker.pid = pid;
  worker.queue.clear();
  return true;
}

void Dispatcher::reap(Worker& worker, bool force) {
  if (worker.pid <= 0) return;
  if (force) ::kill(worker.pid, SIGKILL);
  ::waitpid(worker.pid, nullptr, 0);
  worker.pid = -1;
}

bool Dispatcher::assignedElsewhere(int index, const Worker* except) const {
  for (const Worker& w : workers_) {
    if (&w == except || w.fd < 0) continue;
    if (std::find(w.queue.begin(), w.queue.end(), index) != w.queue.end())
      return true;
  }
  return false;
}

void Dispatcher::resolveQueued(Worker& worker, int index) {
  const auto it =
      std::find(worker.queue.begin(), worker.queue.end(), index);
  if (it == worker.queue.end()) return;
  const bool wasHead = it == worker.queue.begin();
  worker.queue.erase(it);
  if (wasHead && !worker.queue.empty()) worker.headSince = Clock::now();
}

void Dispatcher::markDead(Worker& worker, const std::vector<char>& have,
                          std::vector<int>& pending,
                          std::vector<int>& attempts,
                          std::vector<int>& local) {
  ++stats_.workerDeaths;
  countDispatch("hayat_dispatch_worker_deaths_total");
  for (const int index : worker.queue) {
    if (index < 0 || static_cast<std::size_t>(index) >= have.size())
      continue;
    if (have[static_cast<std::size_t>(index)]) continue;
    // A stolen copy of this index may still be running on a live worker;
    // re-queueing it here would triple-compute it for nothing.
    if (assignedElsewhere(index, &worker)) continue;
    ++attempts[static_cast<std::size_t>(index)];
    ++stats_.tasksRetried;
    countDispatch("hayat_dispatch_tasks_retried_total");
    if (attempts[static_cast<std::size_t>(index)] > config_.maxTaskRetries)
      local.push_back(index);
    else
      pending.push_back(index);
  }
  worker.queue.clear();
  if (worker.fd >= 0) {
    ::close(worker.fd);
    worker.fd = -1;
  }
  reap(worker, /*force=*/true);
  ++worker.deaths;
  const double backoff =
      config_.respawnBackoffSeconds *
      static_cast<double>(1 << std::min(worker.deaths - 1, 6));
  worker.nextRespawn =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(backoff));
}

void Dispatcher::stealTasks(const std::vector<char>& have,
                            std::vector<int>& stolen,
                            std::vector<int>& pending,
                            std::vector<int>& attempts,
                            std::vector<int>& local) {
  if (workers_.size() < 2) return;
  const auto now = Clock::now();
  const int stealCap = static_cast<int>(workers_.size());
  const auto headAfter = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(config_.stealHeadAfterSeconds));

  for (Worker& thief : workers_) {
    if (thief.fd < 0 || !thief.queue.empty()) continue;

    // Preferred: take the tail (not-yet-started) task of the deepest
    // queue.  The bookkeeping moves with it — the victim will still
    // compute the task (it already crossed the wire), but the first
    // Result to arrive wins and the duplicate is dropped by index.
    int index = -1;
    {
      std::vector<Worker*> victims;
      for (Worker& v : workers_)
        if (&v != &thief && v.fd >= 0 && v.queue.size() >= 2)
          victims.push_back(&v);
      std::stable_sort(victims.begin(), victims.end(),
                       [](const Worker* a, const Worker* b) {
                         return a->queue.size() > b->queue.size();
                       });
      for (Worker* victim : victims) {
        // Tails satisfied by a duplicate elsewhere are dead bookkeeping;
        // shed them while looking for a live candidate.
        while (victim->queue.size() >= 2 &&
               have[static_cast<std::size_t>(victim->queue.back())])
          victim->queue.pop_back();
        if (victim->queue.size() < 2) continue;
        const int candidate = victim->queue.back();
        if (stolen[static_cast<std::size_t>(candidate)] >= stealCap)
          continue;
        victim->queue.pop_back();
        index = candidate;
        break;
      }
    }

    // Fallback: past the configured patience, speculatively re-dispatch
    // the oldest stalled *head* — the victim keeps its copy (it is still
    // presumed computing), so this is a deliberate duplicate.
    if (index < 0 && config_.stealHeadAfterSeconds > 0.0) {
      Worker* victim = nullptr;
      for (Worker& v : workers_) {
        if (&v == &thief || v.fd < 0 || v.queue.empty()) continue;
        if (now - v.headSince < headAfter) continue;
        const int candidate = v.queue.front();
        if (have[static_cast<std::size_t>(candidate)] ||
            stolen[static_cast<std::size_t>(candidate)] >= stealCap)
          continue;
        if (victim == nullptr || v.headSince < victim->headSince)
          victim = &v;
      }
      if (victim != nullptr) index = victim->queue.front();
    }
    if (index < 0) continue;

    ++stolen[static_cast<std::size_t>(index)];
    thief.queue.push_back(index);
    thief.headSince = now;
    ++stats_.tasksStolen;
    countDispatch("hayat_dispatch_steals_total");
    if (writeMessage(thief.fd, MsgType::Task,
                     encodeTask(index, specHash_))) {
      ++stats_.tasksDispatched;
      countDispatch("hayat_dispatch_tasks_dispatched_total");
    } else {
      markDead(thief, have, pending, attempts, local);
    }
  }
}

int Dispatcher::connect(const ExperimentSpec& spec) {
  if (connected_) {
    int alive = 0;
    for (const Worker& w : workers_)
      if (w.fd >= 0) ++alive;
    return alive;
  }
  specPayload_ = encodeSpec(spec);
  specHash_ = specHash(spec);

  workers_.clear();
  for (const WorkerEndpoint& ep : config_.endpoints) {
    const int slots = ep.kind == WorkerEndpoint::Kind::Tcp ? 1 : ep.count;
    for (int i = 0; i < slots; ++i) {
      Worker w;
      w.endpoint = ep;
      w.endpoint.count = 1;
      workers_.push_back(std::move(w));
    }
  }

  int alive = 0;
  for (std::size_t slot = 0; slot < workers_.size(); ++slot) {
    Worker& w = workers_[slot];
    if (spawn(w, static_cast<int>(slot))) {
      ++stats_.workersConnected;
      countDispatch("hayat_dispatch_workers_connected_total");
      ++alive;
    } else {
      // Unreachable at startup: eligible for the run loop's backoff
      // respawn path, like any other death.
      ++w.deaths;
      w.nextRespawn = Clock::now() +
                      std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(
                              config_.respawnBackoffSeconds));
    }
  }
  connected_ = true;
  return alive;
}

std::vector<RunResult> Dispatcher::run(const ExperimentSpec& spec,
                                       const std::vector<RunTask>& tasks) {
  if (!connected_) connect(spec);

  const std::size_t n = tasks.size();
  std::vector<RunResult> results(n);
  std::vector<char> have(n, 0);
  std::vector<int> attempts(n, 0);
  std::vector<int> stolen(n, 0);
  std::vector<int> pending;
  pending.reserve(n);
  for (std::size_t i = n; i > 0; --i)
    pending.push_back(static_cast<int>(i - 1));  // pop_back serves 0 first
  std::vector<int> local;
  std::size_t done = 0;

  const int queueDepth = std::max(1, config_.workerQueueDepth);
  const auto taskTimeout = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(config_.taskTimeoutSeconds));

  while (done + local.size() < n) {
    const auto now = Clock::now();

    // Work a *new* worker could take: pending tasks, or queued/stalled
    // tasks on a sibling it could steal.
    bool workRemains = !pending.empty();
    if (!workRemains) {
      for (const Worker& w : workers_) {
        if (w.fd < 0) continue;
        if (w.queue.size() >= 2 ||
            (config_.stealHeadAfterSeconds > 0.0 && !w.queue.empty())) {
          workRemains = true;
          break;
        }
      }
    }

    // Respawn dead slots that are due, while work remains for them.
    bool anyAlive = false;
    bool anyRespawnable = false;
    for (std::size_t slot = 0; slot < workers_.size(); ++slot) {
      Worker& w = workers_[slot];
      if (w.fd >= 0) {
        anyAlive = true;
        continue;
      }
      if (w.deaths > config_.maxRespawns) continue;
      anyRespawnable = true;
      if (workRemains && now >= w.nextRespawn) {
        if (spawn(w, static_cast<int>(slot))) {
          ++stats_.workerRespawns;
          countDispatch("hayat_dispatch_worker_respawns_total");
          anyAlive = true;
        } else {
          ++w.deaths;
          const double backoff =
              config_.respawnBackoffSeconds *
              static_cast<double>(1 << std::min(w.deaths - 1, 6));
          w.nextRespawn = now + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(backoff));
        }
      }
    }
    if (!anyAlive && !anyRespawnable) break;  // fleet is gone; go local
    if (!anyAlive) {
      // Everything is dead but respawnable: sleep until the earliest
      // respawn instead of spinning.
      auto wake = Clock::time_point::max();
      for (const Worker& w : workers_)
        if (w.fd < 0 && w.deaths <= config_.maxRespawns)
          wake = std::min(wake, w.nextRespawn);
      std::this_thread::sleep_until(std::min(
          wake, Clock::now() + std::chrono::milliseconds(200)));
      continue;
    }

    // Fill worker queues from the pending list.
    for (Worker& w : workers_) {
      while (w.fd >= 0 &&
             w.queue.size() < static_cast<std::size_t>(queueDepth) &&
             !pending.empty()) {
        const int index = pending.back();
        pending.pop_back();
        // Stale entries: satisfied while queued, or re-queued while a
        // stolen copy still runs elsewhere (that owner resolves it).
        if (have[static_cast<std::size_t>(index)] ||
            assignedElsewhere(index, nullptr))
          continue;
        w.queue.push_back(index);
        if (w.queue.size() == 1) w.headSince = Clock::now();
        if (writeMessage(w.fd, MsgType::Task,
                         encodeTask(index, specHash_))) {
          ++stats_.tasksDispatched;
          countDispatch("hayat_dispatch_tasks_dispatched_total");
        } else {
          markDead(w, have, pending, attempts, local);  // re-queues it
        }
      }
    }

    // Only once the pending list is drained is imbalance worth fixing.
    if (pending.empty()) stealTasks(have, stolen, pending, attempts, local);

    if (telemetry::enabled()) {
      static telemetry::Gauge& queueDepthGauge =
          telemetry::Registry::global().gauge("hayat_dispatch_pending_tasks");
      queueDepthGauge.set(static_cast<double>(pending.size()));
      static telemetry::Gauge& inflightGauge =
          telemetry::Registry::global().gauge(
              "hayat_dispatch_inflight_tasks");
      double inflight = 0.0;
      for (const Worker& w : workers_)
        if (w.fd >= 0) inflight += static_cast<double>(w.queue.size());
      inflightGauge.set(inflight);
    }

    std::vector<struct pollfd> pfds;
    std::vector<Worker*> polled;
    for (Worker& w : workers_) {
      if (w.fd < 0) continue;
      pfds.push_back({w.fd, POLLIN, 0});
      polled.push_back(&w);
    }
    if (pfds.empty()) continue;

    // Wake for the earliest head-task deadline or respawn due date.
    int timeoutMs = 200;
    for (const Worker& w : workers_) {
      if (w.fd >= 0 && !w.queue.empty()) {
        const auto left = (w.headSince + taskTimeout) - Clock::now();
        timeoutMs = std::min(
            timeoutMs,
            static_cast<int>(
                std::chrono::duration_cast<std::chrono::milliseconds>(left)
                    .count()));
      }
    }
    timeoutMs = std::max(timeoutMs, 10);

    const int ready = ::poll(pfds.data(), pfds.size(), timeoutMs);
    if (ready > 0) {
      for (std::size_t p = 0; p < pfds.size(); ++p) {
        if ((pfds[p].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        Worker& w = *polled[p];
        if (w.fd < 0) continue;  // killed earlier in this sweep of pfds
        Message msg;
        if (!readMessage(w.fd, msg)) {
          markDead(w, have, pending, attempts, local);
          continue;
        }
        if (msg.type == MsgType::Result) {
          int index = -1;
          RunResult result;
          telemetry::MetricDeltas deltas;
          try {
            decodeResult(msg.payload, index, result, &deltas);
          } catch (const std::exception&) {
            markDead(w, have, pending, attempts, local);
            continue;
          }
          if (!deltas.counters.empty())
            telemetry::mergeWorkerCounters(deltas.counters);
          if (!deltas.histograms.empty())
            telemetry::mergeWorkerHistograms(deltas.histograms);
          resolveQueued(w, index);
          if (index >= 0 && static_cast<std::size_t>(index) < n) {
            if (!have[static_cast<std::size_t>(index)]) {
              results[static_cast<std::size_t>(index)] = std::move(result);
              have[static_cast<std::size_t>(index)] = 1;
              ++done;
              ++stats_.tasksCompletedRemotely;
              countDispatch("hayat_dispatch_tasks_completed_remote_total");
            } else {
              // The losing copy of a stolen task: same index, and (by
              // the deterministic task contract) byte-identical payload.
              ++stats_.duplicateResults;
              countDispatch("hayat_dispatch_duplicate_results_total");
            }
          }
        } else if (msg.type == MsgType::TaskError) {
          int index = -1;
          std::string error;
          try {
            decodeTaskError(msg.payload, index, error);
          } catch (const std::exception&) {
            markDead(w, have, pending, attempts, local);
            continue;
          }
          resolveQueued(w, index);
          if (index >= 0 && static_cast<std::size_t>(index) < n &&
              !have[static_cast<std::size_t>(index)]) {
            std::fprintf(stderr, "[dispatch] task %d failed remotely: %s\n",
                         index, error.c_str());
            ++attempts[static_cast<std::size_t>(index)];
            ++stats_.tasksRetried;
            if (attempts[static_cast<std::size_t>(index)] >
                config_.maxTaskRetries)
              local.push_back(index);
            else
              pending.push_back(index);
          }
        } else {
          markDead(w, have, pending, attempts, local);  // protocol violation
        }
      }
    }

    // Per-task timeout: a worker whose *head* task has been in flight
    // too long is presumed wedged — kill it and re-queue its queue.
    const auto checkpoint = Clock::now();
    for (Worker& w : workers_) {
      if (w.fd >= 0 && !w.queue.empty() &&
          checkpoint - w.headSince > taskTimeout) {
        std::fprintf(stderr,
                     "[dispatch] task %d timed out on worker pid %d; "
                     "re-queueing\n",
                     w.queue.front(), static_cast<int>(w.pid));
        countDispatch("hayat_dispatch_task_timeouts_total");
        markDead(w, have, pending, attempts, local);
      }
    }
  }

  // Last resort: anything unfinished (degraded fleet or retry-exhausted
  // tasks) runs on the local thread pool; a deterministic task error can
  // finally propagate to the caller from here.
  std::vector<int> remaining;
  for (std::size_t i = 0; i < n; ++i)
    if (!have[i]) remaining.push_back(static_cast<int>(i));
  if (!remaining.empty()) {
    const int localWorkers = config_.localFallbackWorkers > 0
                                 ? config_.localFallbackWorkers
                                 : defaultWorkerCount();
    std::vector<RunResult> localResults = parallelMap<RunResult>(
        static_cast<int>(remaining.size()), localWorkers, [&](int k) {
          const int index = remaining[static_cast<std::size_t>(k)];
          return ExperimentEngine::runTask(
              tasks[static_cast<std::size_t>(index)], spec.populationSeed);
        });
    for (std::size_t k = 0; k < remaining.size(); ++k) {
      results[static_cast<std::size_t>(remaining[k])] =
          std::move(localResults[k]);
      have[static_cast<std::size_t>(remaining[k])] = 1;
      ++stats_.tasksCompletedLocally;
      countDispatch("hayat_dispatch_tasks_completed_local_total");
    }
  }
  return results;
}

int Dispatcher::pushCacheEntry(const std::string& specName,
                               std::uint64_t hash,
                               const std::string& fileBytes) {
  const std::string payload = encodeCachePush(specName, hash, fileBytes);
  int sent = 0;
  for (Worker& w : workers_) {
    if (w.fd < 0 || w.endpoint.kind != WorkerEndpoint::Kind::Tcp) continue;
    if (writeMessage(w.fd, MsgType::CachePush, payload)) {
      ++sent;
      ++stats_.cachePushes;
      countDispatch("hayat_dispatch_cache_pushes_total");
    }
    // A failed push is not a death sentence here: the next run-loop or
    // shutdown interaction with this fd detects the broken pipe.
  }
  return sent;
}

void Dispatcher::shutdown() {
  for (Worker& w : workers_) {
    if (w.fd >= 0) {
      writeMessage(w.fd, MsgType::Shutdown, "");
      ::close(w.fd);
      w.fd = -1;
    }
  }
  for (Worker& w : workers_) {
    if (w.pid <= 0) continue;
    // Give the worker a moment to exit on the Shutdown message, then
    // force the issue (a wedged worker would otherwise hang us here).
    bool reaped = false;
    for (int i = 0; i < 200 && !reaped; ++i) {
      if (::waitpid(w.pid, nullptr, WNOHANG) != 0)
        reaped = true;
      else
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!reaped) reap(w, /*force=*/true);
    w.pid = -1;
  }
  connected_ = false;
}

}  // namespace hayat::engine
