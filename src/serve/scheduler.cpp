#include "serve/scheduler.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "engine/result_cache.hpp"
#include "engine/wire.hpp"
#include "engine/worker_proc.hpp"
#include "telemetry/metrics.hpp"

namespace hayat::serve {

namespace {

using engine::ExperimentEngine;
using engine::ExperimentSpec;
using engine::RunResult;
using engine::WorkerEndpoint;

void count(const char* name, std::uint64_t n = 1) {
  telemetry::Registry::global().counter(name).add(n);
}

std::string canonicalRow(const RunResult& result) {
  std::ostringstream out;
  engine::writeRunResult(out, result);
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
  return done_ == static_cast<int>(cells_.size());
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

engine::SweepTable SpecRun::table() const {
  std::lock_guard<std::mutex> lock(owner_->mutex_);
  engine::SweepTable out;
  out.runs.reserve(cells_.size());
  for (const Cell& cell : cells_) out.runs.push_back(cell.result);
  return out;
}

// ------------------------------------------------------ SweepScheduler

SweepScheduler::SweepScheduler(SchedulerConfig config,
                               std::function<void()> onRunFinished)
    : config_(std::move(config)), onRunFinished_(std::move(onRunFinished)) {
  cacheEnabled_ = config_.cache &&
                  std::getenv("HAYAT_NO_CACHE") == nullptr &&
                  std::getenv("HAYAT_NO_SWEEP_CACHE") == nullptr;
  cacheDir_ = config_.cacheDir;
  if (cacheDir_.empty()) {
    if (const char* env = std::getenv("HAYAT_CACHE_DIR"))
      if (*env) cacheDir_ = env;
    if (cacheDir_.empty()) cacheDir_ = "hayat_cache";
  }

  // One lane per endpoint slot; an empty dispatch spec means local
  // compute lanes only.
  if (!config_.dispatch.empty()) {
    for (const WorkerEndpoint& endpoint :
         engine::parseWorkerSpec(config_.dispatch)) {
      const int slots =
          endpoint.kind == WorkerEndpoint::Kind::Tcp ? 1 : endpoint.count;
      for (int i = 0; i < slots; ++i) {
        Lane lane;
        lane.remote = true;
        lane.endpoint = endpoint;
        lane.endpoint.count = 1;
        lanes_.push_back(std::move(lane));
      }
    }
  }
  if (lanes_.empty()) {
    const int n = std::max(1, config_.localWorkers);
    lanes_.resize(static_cast<std::size_t>(n));
  }
  threads_.reserve(lanes_.size());
  for (std::size_t i = 0; i < lanes_.size(); ++i)
    threads_.emplace_back([this, i] { laneLoop(i); });
}

SweepScheduler::~SweepScheduler() { stop(); }

void SweepScheduler::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  workCv_.notify_all();
  rowCv_.notify_all();
  for (std::thread& t : threads_) t.join();
  for (Lane& lane : lanes_) {
    if (lane.fd >= 0)
      engine::writeMessage(lane.fd, engine::MsgType::Shutdown, "");
    killLane(lane);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  stopped_ = true;
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
  const std::uint64_t hash = engine::specHash(spec);

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
  // resolved by re-checking under the lock before publishing.
  auto run = std::shared_ptr<SpecRun>(new SpecRun(this));
  run->spec_ = spec;
  run->hash_ = hash;
  run->wirePayload_ = engine::encodeSpec(spec);
  run->tasks_ = ExperimentEngine().expand(spec);
  run->cells_.resize(run->tasks_.size());
  run->jobs_.insert(jobId);
  run->priority_ = priority;

  bool cached = false;
  if (cacheEnabled_) {
    if (auto table = engine::loadCachedTable(cacheDir_, spec)) {
      if (table->runs.size() == run->tasks_.size()) {
        for (std::size_t i = 0; i < table->runs.size(); ++i) {
          SpecRun::Cell& cell = run->cells_[i];
          cell.result = table->runs[i];
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
  if (!run->jobs_.empty() ||
      run->done_ == static_cast<int>(run->cells_.size()))
    return;
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

void SweepScheduler::completeWork(const Work& work, bool ok,
                                  const RunResult& result,
                                  const std::string& error) {
  bool finished = false;
  bool storeNow = false;
  engine::SweepTable table;
  ExperimentSpec spec;
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
      cell.result = result;
      cell.row = canonicalRow(result);
      cell.state = SpecRun::CellState::Done;
      ++run.done_;
      count("hayat_serve_tasks_executed_total");
      finished = run.done_ == static_cast<int>(run.cells_.size());
    }
    if (run.done_ == static_cast<int>(run.cells_.size()) && !run.stored_ &&
        cacheEnabled_ && !run.failed_) {
      run.stored_ = true;
      storeNow = true;
      spec = run.spec_;
      engine::SweepTable merged;
      merged.runs.reserve(run.cells_.size());
      for (const SpecRun::Cell& c : run.cells_)
        merged.runs.push_back(c.result);
      table = std::move(merged);
    }
    rowCv_.notify_all();
  }
  if (storeNow) {
    // File I/O outside the lock; the cache is shared with one-shot CLI
    // sweeps and future daemon incarnations.
    if (engine::storeCachedTable(cacheDir_, spec, table))
      count("hayat_serve_table_cache_stores_total");
  }
  // After the store, so a job the listener retires as completed has its
  // table on disk.
  if (finished && onRunFinished_) onRunFinished_();
}

void SweepScheduler::laneLoop(std::size_t laneIdx) {
  Lane& lane = lanes_[laneIdx];
  Work work;
  while (nextWork(work)) {
    std::uint64_t hash = 0;
    std::string payload;
    engine::RunTask task;
    std::uint64_t populationSeed = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      hash = work.run->hash_;
      payload = work.run->wirePayload_;
      task = work.run->tasks_[static_cast<std::size_t>(work.index)];
      populationSeed = work.run->spec_.populationSeed;
    }

    RunResult storage;
    bool ok = false;
    std::string error;
    if (lane.remote && runRemote(lane, work, hash, payload, storage)) {
      ok = true;
      count("hayat_serve_tasks_remote_total");
    } else {
      try {
        storage = ExperimentEngine::runTask(task, populationSeed);
        ok = true;
        if (lane.remote) count("hayat_serve_tasks_local_fallback_total");
        count("hayat_serve_tasks_local_total");
      } catch (const std::exception& e) {
        error = e.what();
      }
    }
    completeWork(work, ok, storage, error);
    work.run.reset();
  }
}

bool SweepScheduler::ensureLane(Lane& lane) {
  if (lane.fd >= 0) return true;
  if (lane.deaths > config_.maxLaneRespawns) return false;
  lane.sentSpecs.clear();
  switch (lane.endpoint.kind) {
    case WorkerEndpoint::Kind::Fork:
      lane.pid = engine::spawnForkWorker(lane.fd);
      break;
    case WorkerEndpoint::Kind::Exec: {
      const char* bin = std::getenv("HAYAT_WORKER_BIN");
      lane.pid = engine::spawnExecWorker(bin && *bin ? bin : "hayat",
                                         lane.fd);
      break;
    }
    case WorkerEndpoint::Kind::Tcp:
      lane.fd = engine::connectTcpWorker(lane.endpoint.host,
                                         lane.endpoint.port, 2000);
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

bool SweepScheduler::runRemote(Lane& lane, const Work& work,
                               std::uint64_t hash,
                               const std::string& payload,
                               RunResult& storage) {
  if (!ensureLane(lane)) return false;
  const auto fail = [&] {
    killLane(lane);
    ++lane.deaths;
    count("hayat_serve_lane_deaths_total");
    return false;
  };
  if (lane.sentSpecs.find(hash) == lane.sentSpecs.end()) {
    if (!engine::writeMessage(lane.fd, engine::MsgType::Spec, payload))
      return fail();
    lane.sentSpecs.insert(hash);
  }
  if (!engine::writeMessage(lane.fd, engine::MsgType::Task,
                            engine::encodeTask(work.index, hash)))
    return fail();

  const int timeoutMs =
      std::max(1, static_cast<int>(config_.taskTimeoutSeconds * 1000.0));
  engine::Message msg;
  bool timedOut = false;
  if (!engine::readMessage(lane.fd, msg, timeoutMs, timedOut))
    return fail();
  if (msg.type == engine::MsgType::TaskError) return false;  // run locally
  if (msg.type != engine::MsgType::Result) return fail();
  int index = -1;
  try {
    engine::decodeResult(msg.payload, index, storage);
  } catch (const std::exception&) {
    return fail();
  }
  if (index != work.index) return fail();
  return true;
}

}  // namespace hayat::serve
