#include "engine/scheduler.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "engine/fault.hpp"
#include "engine/result_cache.hpp"
#include "engine/wire.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace hayat::engine {

namespace {

/// Dial timeout for tcp: lanes.
constexpr int kDialTimeoutMs = 2000;

void count(const char* name, std::uint64_t n = 1) {
  telemetry::Registry::global().counter(name).add(n);
}

std::string canonicalRow(const RunResult& result) {
  std::ostringstream out;
  writeRunResult(out, result);
  return out.str();
}

}  // namespace

// ------------------------------------------------------------- SpecRun

int SpecRun::completedTasks() const {
  std::lock_guard<std::mutex> lock(owner_->mutex_);
  return done_;
}

bool SpecRun::complete() const {
  std::lock_guard<std::mutex> lock(owner_->mutex_);
  return doneLocked();
}

bool SpecRun::failed() const {
  std::lock_guard<std::mutex> lock(owner_->mutex_);
  return failed_;
}

std::string SpecRun::error() const {
  std::lock_guard<std::mutex> lock(owner_->mutex_);
  return error_;
}

std::optional<std::string> SpecRun::waitRow(int index, int timeoutMs) const {
  if (index < 0 || index >= taskCount()) return std::nullopt;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeoutMs);
  std::unique_lock<std::mutex> lock(owner_->mutex_);
  const auto& cell = cells_[static_cast<std::size_t>(index)];
  while (cell.state != CellState::Done) {
    if (failed_ || abandoned_ || owner_->stopping_) return std::nullopt;
    if (owner_->rowCv_.wait_until(lock, deadline) ==
        std::cv_status::timeout)
      return std::nullopt;
  }
  return cell.row;
}

bool SpecRun::wait() const {
  std::unique_lock<std::mutex> lock(owner_->mutex_);
  owner_->rowCv_.wait(lock, [this] {
    return doneLocked() || failed_ || abandoned_ || owner_->stopping_;
  });
  return doneLocked();
}

SweepTable SpecRun::table() const {
  std::lock_guard<std::mutex> lock(owner_->mutex_);
  SweepTable out;
  out.runs.reserve(cells_.size());
  for (const Cell& cell : cells_) out.runs.push_back(cell.result);
  return out;
}

// ------------------------------------------------------ SweepScheduler

SweepScheduler::SweepScheduler(SchedulerConfig config,
                               std::function<void()> onRunFinished)
    : config_(std::move(config)), onRunFinished_(std::move(onRunFinished)) {
  cacheEnabled_ = config_.cache && cacheAllowedByEnv();
  cacheDir_ = resolveCacheDir(config_.cacheDir);

  // One lane per endpoint slot; an empty dispatch spec means local
  // compute lanes only.
  if (!config_.dispatch.empty()) {
    for (const WorkerEndpoint& endpoint : parseWorkerSpec(config_.dispatch)) {
      const int slots =
          endpoint.kind == WorkerEndpoint::Kind::Tcp ? 1 : endpoint.count;
      for (int i = 0; i < slots; ++i) {
        Lane lane;
        lane.remote = true;
        lane.endpoint = endpoint;
        lane.endpoint.count = 1;
        lane.slot = static_cast<int>(lanes_.size());
        lanes_.push_back(std::move(lane));
      }
    }
  }
  remoteLanes_ = !lanes_.empty();
  if (!remoteLanes_)
    lanes_.resize(static_cast<std::size_t>(std::max(1, config_.localWorkers)));

  if (remoteLanes_) {
    ignoreSigpipe();
    // Installing the coordinator-side rules resets the frame counter, so
    // a fixed plan names the same frames on every run; worker-side rules
    // reach the workers through the environment.
    if (const char* plan = std::getenv("HAYAT_FAULT_PLAN"); plan && *plan) {
      installCoordinatorFaults(parseFaultPlan(plan));
      faultsInstalled_ = true;
    }
    // Spawned before this scheduler's lane threads exist, so no worker
    // forks while a sibling lane holds a lock; only respawns fork from a
    // lane thread.
    for (Lane& lane : lanes_) ensureLane(lane);
  }
  threads_.reserve(lanes_.size());
  for (Lane& lane : lanes_)
    threads_.emplace_back([this, &lane] { laneLoop(lane); });
}

SweepScheduler::~SweepScheduler() { stop(); }

void SweepScheduler::joinLanes() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  workCv_.notify_all();
  rowCv_.notify_all();
  for (std::thread& t : threads_)
    if (t.joinable()) t.join();
}

void SweepScheduler::stop() {
  joinLanes();
  if (stopped_) return;
  stopped_ = true;
  for (Lane& lane : lanes_) {
    if (lane.fd >= 0) writeMessage(lane.fd, MsgType::Shutdown, "");
    killLane(lane);
  }
  if (faultsInstalled_) clearCoordinatorFaults();
}

int SweepScheduler::stopAndPushCacheEntry(const ExperimentSpec& spec,
                                          const std::string& fileBytes) {
  joinLanes();
  const std::uint64_t hash = specHash(spec);
  const std::string specPayload = encodeSpec(spec);
  const std::string push = encodeCachePush(spec.name, hash, fileBytes);
  int sent = 0;
  for (Lane& lane : lanes_) {
    if (!lane.remote || lane.endpoint.kind != WorkerEndpoint::Kind::Tcp)
      continue;
    // A worker's first frame must be a Spec, so a lane dialed only for
    // the push sends one first.
    if (ensureLane(lane) && sendSpec(lane, hash, specPayload) &&
        writeMessage(lane.fd, MsgType::CachePush, push)) {
      ++sent;
      count("hayat_serve_cache_pushes_total");
    }
  }
  stop();
  return sent;
}

int SweepScheduler::backlog() const {
  std::lock_guard<std::mutex> lock(mutex_);
  int pending = inFlight_;
  for (const auto& run : active_)
    pending += static_cast<int>(run->pending_.size());
  return pending;
}

std::shared_ptr<SpecRun> SweepScheduler::attach(const ExperimentSpec& spec,
                                                int priority,
                                                const std::string& jobId) {
  const std::uint64_t hash = specHash(spec);

  // Fast path: an existing run (live, completed, or abandoned) for this
  // hash — the job shares every task.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = runs_.find(hash);
    if (it != runs_.end() && !it->second->failed_) {
      const std::shared_ptr<SpecRun>& run = it->second;
      run->jobs_.insert(jobId);
      run->priority_ = std::max(run->priority_, priority);
      count("hayat_serve_shared_tasks_total",
            static_cast<std::uint64_t>(run->taskCount()));
      if (run->abandoned_) {
        // Resurrect: re-queue every cell the abandonment parked.
        run->abandoned_ = false;
        run->pending_.clear();
        for (std::size_t i = 0; i < run->cells_.size(); ++i)
          if (run->cells_[i].state == SpecRun::CellState::Pending)
            run->pending_.push_back(static_cast<int>(i));
        if (!run->pending_.empty() &&
            std::find(active_.begin(), active_.end(), run) == active_.end())
          active_.push_back(run);
        workCv_.notify_all();
      }
      return run;
    }
    if (it != runs_.end()) runs_.erase(it);  // failed: retry from scratch
  }

  // Slow path: build a new run.  The disk-cache probe does file I/O, so
  // it happens outside the lock; a concurrent attach of the same hash is
  // resolved by re-checking under the lock before publishing.  Lanes read
  // the spec, tasks and wire payload without the lock: they never change
  // once published.
  auto run = std::shared_ptr<SpecRun>(new SpecRun(this));
  run->spec_ = spec;
  run->hash_ = hash;
  run->tasks_ = ExperimentEngine().expand(spec);
  // Only remote lanes need the wire form (a fixed-mix spec has none).
  if (remoteLanes_) run->wirePayload_ = encodeSpec(spec);
  run->cells_.resize(run->tasks_.size());
  run->jobs_.insert(jobId);
  run->priority_ = priority;

  bool cached = false;
  if (cacheEnabled_) {
    if (auto table = loadCachedTable(cacheDir_, spec)) {
      if (table->runs.size() == run->tasks_.size()) {
        for (std::size_t i = 0; i < table->runs.size(); ++i) {
          SpecRun::Cell& cell = run->cells_[i];
          cell.result = std::move(table->runs[i]);
          cell.row = canonicalRow(cell.result);
          cell.state = SpecRun::CellState::Done;
        }
        run->done_ = run->taskCount();
        run->stored_ = true;  // it came from the cache; no need to restore
        cached = true;
      }
    }
  }

  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = runs_.find(hash);
  if (it != runs_.end() && !it->second->failed_) {
    // Lost the race; join the winner.
    it->second->jobs_.insert(jobId);
    it->second->priority_ = std::max(it->second->priority_, priority);
    count("hayat_serve_shared_tasks_total",
          static_cast<std::uint64_t>(it->second->taskCount()));
    return it->second;
  }
  runs_[hash] = run;
  if (cached) {
    count("hayat_serve_table_cache_hits_total");
    count("hayat_serve_shared_tasks_total",
          static_cast<std::uint64_t>(run->taskCount()));
    rowCv_.notify_all();
  } else {
    for (int i = 0; i < run->taskCount(); ++i) run->pending_.push_back(i);
    active_.push_back(run);
    workCv_.notify_all();
  }
  return run;
}

void SweepScheduler::detach(const std::string& jobId,
                            const std::shared_ptr<SpecRun>& run) {
  if (!run) return;
  std::lock_guard<std::mutex> lock(mutex_);
  run->jobs_.erase(jobId);
  if (!run->jobs_.empty() || run->doneLocked()) return;
  // Last job gone mid-run: park the pending tasks.  In-flight tasks are
  // allowed to finish (their results stay shareable); nothing new is
  // dispatched.
  run->abandoned_ = true;
  run->pending_.clear();
  active_.erase(std::remove(active_.begin(), active_.end(), run),
                active_.end());
  count("hayat_serve_runs_abandoned_total");
  rowCv_.notify_all();
}

bool SweepScheduler::nextWork(Work& out) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (stopping_) return false;
    // Highest priority level with pending work, round-robin inside it.
    int best = 0;
    std::vector<std::size_t> eligible;
    for (std::size_t i = 0; i < active_.size(); ++i) {
      const auto& run = active_[i];
      if (run->pending_.empty()) continue;
      if (eligible.empty() || run->priority_ > best) {
        if (!eligible.empty() && run->priority_ > best) eligible.clear();
        best = run->priority_;
        eligible.push_back(i);
      } else if (run->priority_ == best) {
        eligible.push_back(i);
      }
    }
    if (!eligible.empty()) {
      const std::size_t pick = eligible[rrCursor_++ % eligible.size()];
      const std::shared_ptr<SpecRun>& run = active_[pick];
      out.run = run;
      out.index = run->pending_.front();
      run->pending_.pop_front();
      run->cells_[static_cast<std::size_t>(out.index)].state =
          SpecRun::CellState::InFlight;
      ++inFlight_;
      if (run->pending_.empty())
        active_.erase(active_.begin() +
                      static_cast<std::ptrdiff_t>(pick));
      return true;
    }
    workCv_.wait(lock);
  }
}

void SweepScheduler::completeWork(const Work& work, bool ok, RunResult result,
                                  const std::string& error) {
  // Every task passes through here, so the row is formatted before the
  // lock all lanes share is taken.
  std::string row = ok ? canonicalRow(result) : std::string();
  bool finished = false;
  bool storeNow = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    --inFlight_;
    SpecRun& run = *work.run;
    SpecRun::Cell& cell = run.cells_[static_cast<std::size_t>(work.index)];
    if (!ok) {
      // A task that fails even locally is deterministic: the whole run
      // fails loudly rather than hanging its jobs forever.
      run.failed_ = true;
      run.error_ = error;
      run.pending_.clear();
      active_.erase(std::remove(active_.begin(), active_.end(), work.run),
                    active_.end());
      count("hayat_serve_runs_failed_total");
      finished = true;
    } else if (cell.state != SpecRun::CellState::Done) {
      cell.result = std::move(result);
      cell.row = std::move(row);
      cell.state = SpecRun::CellState::Done;
      ++run.done_;
      count("hayat_serve_tasks_executed_total");
      finished = run.doneLocked();
    }
    if (finished && !run.failed_ && !run.stored_ && cacheEnabled_) {
      run.stored_ = true;
      storeNow = true;
    }
    rowCv_.notify_all();
  }
  if (storeNow) {
    // File I/O outside the lock; the cache is shared with one-shot CLI
    // sweeps and future daemon incarnations.
    if (storeCachedTable(cacheDir_, work.run->spec_, work.run->table()))
      count("hayat_serve_table_cache_stores_total");
  }
  // After the store, so a job the listener retires as completed has its
  // table on disk.
  if (finished && onRunFinished_) onRunFinished_();
}

void SweepScheduler::laneLoop(Lane& lane) {
  Work work;
  while (nextWork(work)) {
    const SpecRun& run = *work.run;
    RunResult result;
    bool ok = false;
    std::string error;
    // A worker lost mid-task is replaced and the task retried on the
    // replacement; each loss spends the lane's respawn budget, so this
    // ends.
    Remote outcome = Remote::RunLocally;
    if (lane.remote) {
      do {
        outcome =
            runRemote(lane, work.index, run.hash_, run.wirePayload_, result);
      } while (outcome == Remote::WorkerLost);
    }
    if (outcome == Remote::Done) {
      ok = true;
      count("hayat_serve_tasks_remote_total");
    } else {
      try {
        result = ExperimentEngine::runTask(
            run.tasks_[static_cast<std::size_t>(work.index)],
            run.spec_.populationSeed);
        ok = true;
        if (lane.remote) count("hayat_serve_tasks_local_fallback_total");
        count("hayat_serve_tasks_local_total");
      } catch (const std::exception& e) {
        error = e.what();
      }
    }
    completeWork(work, ok, std::move(result), error);
    work.run.reset();
  }
}

bool SweepScheduler::ensureLane(Lane& lane) {
  if (lane.fd >= 0) return true;
  if (lane.deaths > kLaneRespawns) return false;
  lane.sentSpecs.clear();
  switch (lane.endpoint.kind) {
    case WorkerEndpoint::Kind::Fork:
      lane.pid = spawnForkWorker(lane.fd, lane.slot);
      break;
    case WorkerEndpoint::Kind::Exec:
      lane.pid = spawnExecWorker(workerBinary(), lane.fd, lane.slot);
      break;
    case WorkerEndpoint::Kind::Tcp:
      lane.fd = connectTcpWorker(lane.endpoint.host, lane.endpoint.port,
                                 kDialTimeoutMs);
      lane.pid = -1;
      break;
  }
  if (lane.fd < 0) {
    ++lane.deaths;
    return false;
  }
  if (lane.deaths > 0) count("hayat_serve_lane_respawns_total");
  return true;
}

bool SweepScheduler::sendSpec(Lane& lane, std::uint64_t hash,
                              const std::string& payload) {
  if (lane.sentSpecs.count(hash) != 0) return true;
  // TelemetryOn follows the connection's first Spec (the handshake)
  // rather than riding inside it, so the hashed spec payload is the same
  // with telemetry on or off.
  const bool first = lane.sentSpecs.empty();
  if (!writeMessage(lane.fd, MsgType::Spec, payload) ||
      (first && telemetry::enabled() &&
       !writeMessage(lane.fd, MsgType::TelemetryOn, "")))
    return false;
  lane.sentSpecs.insert(hash);
  return true;
}

void SweepScheduler::dropWorker(Lane& lane) {
  killLane(lane);
  ++lane.deaths;
  count("hayat_serve_lane_deaths_total");
}

void SweepScheduler::killLane(Lane& lane) {
  if (lane.fd >= 0) {
    ::close(lane.fd);
    lane.fd = -1;
  }
  if (lane.pid > 0) {
    ::kill(lane.pid, SIGKILL);
    int status = 0;
    ::waitpid(lane.pid, &status, 0);
    lane.pid = -1;
  }
}

SweepScheduler::Remote SweepScheduler::runRemote(Lane& lane, int index,
                                                 std::uint64_t hash,
                                                 const std::string& payload,
                                                 RunResult& storage) {
  if (!ensureLane(lane)) return Remote::RunLocally;
  if (!sendSpec(lane, hash, payload) ||
      !writeMessage(lane.fd, MsgType::Task, encodeTask(index, hash))) {
    dropWorker(lane);
    return Remote::WorkerLost;
  }

  const int timeoutMs =
      std::max(1, static_cast<int>(config_.taskTimeoutSeconds * 1000.0));
  Message msg;
  bool timedOut = false;
  if (!readMessage(lane.fd, msg, timeoutMs, timedOut)) {
    if (timedOut) {
      std::fprintf(stderr,
                   "[lanes] task %d timed out on worker slot %d; replacing "
                   "the worker\n",
                   index, lane.slot);
      count("hayat_serve_task_timeouts_total");
    }
    dropWorker(lane);
    return Remote::WorkerLost;
  }
  // A TaskError leaves the worker in sync; the task reruns in-process,
  // where a genuine error surfaces.
  if (msg.type == MsgType::TaskError) return Remote::RunLocally;
  int got = -1;
  telemetry::MetricDeltas deltas;
  bool valid = msg.type == MsgType::Result;
  if (valid) {
    try {
      decodeResult(msg.payload, got, storage, &deltas);
    } catch (const std::exception&) {
      valid = false;
    }
  }
  // Anything but this task's Result (a duplicate, a stray frame, a
  // malformed payload) breaks the one-task-in-flight protocol.
  if (!valid || got != index) {
    dropWorker(lane);
    return Remote::WorkerLost;
  }
  if (!deltas.counters.empty())
    telemetry::mergeWorkerCounters(deltas.counters);
  if (!deltas.histograms.empty())
    telemetry::mergeWorkerHistograms(deltas.histograms);
  return Remote::Done;
}

}  // namespace hayat::engine
