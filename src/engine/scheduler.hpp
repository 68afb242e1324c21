// The lane scheduler: the one execution core behind every sweep
// (DESIGN.md §3.6, §3.12).
//
// A one-shot ExperimentEngine::run is a one-job client of it; `hayat
// serve` attaches many jobs to one long-lived instance:
//
//   - Lanes.  A lane is either a local worker thread or one remote worker
//     process (proc:/exec:/tcp:, worker_proc.hpp), one lane per endpoint
//     slot.  Every lane pulls from one shared queue and holds one task at
//     a time, so a slow worker never strands queued tasks.  Remote lanes
//     speak the wire protocol; since v5 a worker keeps every spec it has
//     been sent (keyed by hash), so one connection interleaves tasks from
//     all concurrent jobs.
//   - Recovery.  A remote task that times out, or whose worker dies or
//     breaks the protocol, costs the lane its worker; the lane respawns
//     (or redials) it and retries the task, at most kLaneRespawns times
//     in all.  A lane whose worker is gone — past that budget, or
//     unreachable — runs its tasks in-process on its own thread, as it
//     does a task its worker reports failed.  A sweep never fails because
//     a fleet did.
//   - Deduplication.  Execution is keyed by spec hash (a SpecRun).  Two
//     jobs submitting the same spec attach to the same SpecRun — the
//     second job's tasks are served entirely from the first's results
//     (in flight or finished), never recomputed.  Completed SpecRuns are
//     stored in the on-disk result cache, and a new SpecRun first tries
//     to load from it, so serve jobs, one-shot CLI sweeps and restarts
//     after a crash all share one cache.
//   - Fair interleaving.  Lanes pick tasks from the highest-priority
//     SpecRun level with work pending and round-robin across the runs
//     inside it, so a 10,000-task job cannot starve a 4-task job at the
//     same priority, and a higher-priority job overtakes both.
//
// Remote lanes are spawned or dialed when the scheduler is built, from
// the constructing thread, each with its slot index, so HAYAT_FAULT_PLAN
// worker rules (fault.hpp) address them; the coordinator-side rules are
// installed for the scheduler's lifetime.  With telemetry on, each worker
// is sent TelemetryOn and the metric deltas on its Result frames are
// merged into this process's worker aggregates.
//
// Determinism contract: every cell of a SpecRun holds the canonical
// writeRunResult record of its task, so the concatenation of rows 0..n-1
// is byte-identical to a serial run of the same spec no matter which
// lanes computed which tasks, in which order, for which jobs.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "engine/worker_proc.hpp"

namespace hayat::engine {

struct SchedulerConfig {
  /// Worker fleet: "" runs tasks on `localWorkers` in-process lanes;
  /// otherwise an endpoint list ("proc:2", "tcp:host:port", ...) with one
  /// lane per endpoint slot.
  std::string dispatch;
  int localWorkers = 2;
  bool cache = true;     ///< consult/store the on-disk result cache
  std::string cacheDir;  ///< "": resolveCacheDir()
  /// A remote task in flight longer than this is presumed lost: the lane
  /// replaces its worker and retries the task.
  double taskTimeoutSeconds = 300.0;
};

/// Worker deaths a remote lane tolerates before it runs every further
/// task in-process.
inline constexpr int kLaneRespawns = 3;

class SweepScheduler;

/// One deduplicated execution of a spec.  All mutable state is guarded
/// by the owning scheduler's mutex; the public observers take it.
class SpecRun {
 public:
  const ExperimentSpec& spec() const { return spec_; }
  std::uint64_t hash() const { return hash_; }
  int taskCount() const { return static_cast<int>(tasks_.size()); }

  int completedTasks() const;
  bool complete() const;
  bool failed() const;
  std::string error() const;

  /// Blocks until row `index` (the canonical writeRunResult record) is
  /// available, the run fails or is abandoned (nullopt), or `timeoutMs`
  /// elapses (nullopt).
  std::optional<std::string> waitRow(int index, int timeoutMs) const;

  /// Blocks until every task is done (true), or the run fails, is
  /// abandoned, or its scheduler stops (false).
  bool wait() const;

  /// The merged table; valid once complete().
  SweepTable table() const;

 private:
  friend class SweepScheduler;

  enum class CellState { Pending, InFlight, Done };
  struct Cell {
    CellState state = CellState::Pending;
    std::string row;  ///< canonical record once Done
    RunResult result;
  };

  explicit SpecRun(SweepScheduler* owner) : owner_(owner) {}
  bool doneLocked() const {
    return done_ == static_cast<int>(cells_.size());
  }

  SweepScheduler* owner_;
  ExperimentSpec spec_;
  std::uint64_t hash_ = 0;
  std::string wirePayload_;  ///< encodeSpec(spec), when remote lanes exist
  std::vector<RunTask> tasks_;
  std::vector<Cell> cells_;
  std::deque<int> pending_;     ///< indices not yet handed to a lane
  std::set<std::string> jobs_;  ///< attached job ids
  int priority_ = 0;            ///< max over attached jobs
  int done_ = 0;
  bool failed_ = false;
  bool abandoned_ = false;  ///< every job detached before completion
  bool stored_ = false;     ///< written to the on-disk result cache
  std::string error_;
};

class SweepScheduler {
 public:
  /// `onRunFinished`, when set, is called whenever a run completes its
  /// last task or fails — from a lane thread, outside the scheduler's
  /// lock.  The serve pump wakes on it.  Throws hayat::Error on a
  /// malformed dispatch list or HAYAT_FAULT_PLAN.
  explicit SweepScheduler(SchedulerConfig config,
                          std::function<void()> onRunFinished = {});
  ~SweepScheduler();

  SweepScheduler(const SweepScheduler&) = delete;
  SweepScheduler& operator=(const SweepScheduler&) = delete;

  /// Attaches a job to the (new or existing) SpecRun for `spec`.  A
  /// fresh run consults the on-disk result cache first; an existing or
  /// cached run bumps the shared-task telemetry counters — the "two
  /// clients, one computation" path.  Throws hayat::Error for a spec
  /// that does not expand.
  std::shared_ptr<SpecRun> attach(const ExperimentSpec& spec, int priority,
                                  const std::string& jobId);

  /// Detaches a job (cancel / terminal cleanup).  A run with no jobs
  /// left stops dispatching pending tasks; in-flight tasks finish and
  /// their results are kept for a possible future attach.
  void detach(const std::string& jobId, const std::shared_ptr<SpecRun>& run);

  /// Stops the lanes, then sends one result-cache entry (the raw bytes of
  /// `spec`'s cache file) to every tcp: worker, dialing any lane whose
  /// worker is not connected.  Fork and exec workers share this host's
  /// cache directory and are skipped.  A one-shot client's last act: the
  /// lane threads are joined first, so a push never interleaves with a
  /// lane's Task frames.  Returns the number of workers sent the entry.
  int stopAndPushCacheEntry(const ExperimentSpec& spec,
                            const std::string& fileBytes);

  /// Stops lanes (joining their threads) and shuts remote workers down.
  /// Idempotent; the destructor calls it.
  void stop();

  const SchedulerConfig& config() const { return config_; }
  int laneCount() const { return static_cast<int>(lanes_.size()); }

  /// Tasks currently pending or in flight across all runs (the
  /// queue-depth gauge's source).
  int backlog() const;

 private:
  friend class SpecRun;

  struct Lane {
    bool remote = false;
    WorkerEndpoint endpoint;
    int slot = 0;  ///< index in lanes_, exported to fault rules
    int fd = -1;
    pid_t pid = -1;
    int deaths = 0;
    std::set<std::uint64_t> sentSpecs;
  };

  struct Work {
    std::shared_ptr<SpecRun> run;
    int index = -1;
  };

  void laneLoop(Lane& lane);
  bool nextWork(Work& out);
  void completeWork(const Work& work, bool ok, RunResult result,
                    const std::string& error);
  enum class Remote {
    Done,        ///< `storage` holds the task's result
    WorkerLost,  ///< timeout, death or protocol error; worker dropped
    RunLocally,  ///< no worker to be had, or the worker reported failure
  };
  Remote runRemote(Lane& lane, int index, std::uint64_t hash,
                   const std::string& payload, RunResult& storage);
  bool ensureLane(Lane& lane);
  bool sendSpec(Lane& lane, std::uint64_t hash, const std::string& payload);
  /// Kills the lane's worker after a timeout, death or protocol error.
  void dropWorker(Lane& lane);
  void killLane(Lane& lane);
  void joinLanes();

  SchedulerConfig config_;
  std::function<void()> onRunFinished_;
  bool cacheEnabled_ = true;
  std::string cacheDir_;
  bool remoteLanes_ = false;
  bool faultsInstalled_ = false;

  mutable std::mutex mutex_;
  std::condition_variable workCv_;         ///< lanes wait for work
  mutable std::condition_variable rowCv_;  ///< row/status waiters
  bool stopping_ = false;

  std::map<std::uint64_t, std::shared_ptr<SpecRun>> runs_;
  std::vector<std::shared_ptr<SpecRun>> active_;  ///< runs with pending work
  std::size_t rrCursor_ = 0;
  int inFlight_ = 0;

  std::vector<Lane> lanes_;
  std::vector<std::thread> threads_;
  bool stopped_ = false;  ///< workers shut down (stop() is never raced)
};

}  // namespace hayat::engine
