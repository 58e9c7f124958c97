#pragma once

/// \file job_engine.hpp
/// Multi-tenant job engine: a long-lived service that accepts a queue of
/// typed simulation jobs (serve/job.hpp — the examples/ workloads), runs
/// them concurrently on the shared process-wide exec pool, and checkpoints
/// running trajectories so a killed or preempted job resumes bit-exactly.
/// serve::Server puts the versioned wire protocol (serve/wire.hpp) in
/// front of this API; every method here reports failures as typed
/// serve::ErrorCode values so in-process callers and remote clients see
/// the same results.
///
/// Scheduling. Queued jobs are admitted highest-priority-first (FIFO within
/// a priority) subject to two limits: a running-slot cap (max_running, env
/// PWDFT_SERVE_SLOTS via JobEngineOptions::from_env) and a cost budget —
/// each job is priced by the calibrated performance model (perf::job_cost
/// on its Workload), and the sum of admitted costs stays under cost_budget.
/// A job too expensive for an empty engine is admitted alone rather than
/// starved. When every slot is busy and a *higher-priority* job is queued,
/// the scheduler preempts: the cheapest running job with a strictly lower
/// priority is stopped cooperatively at its next step boundary (crash
/// semantics — work since its last snapshot is lost) and requeued, freeing
/// the slot. Each admitted job runs on an engine-owned slot worker thread:
/// per docs/threading.md, concurrent parallel_for callers race for the pool
/// and losers run inline, so tenants interleave at operator granularity and
/// every trajectory stays bit-identical to its solo run (the async lane is
/// NOT used here — work submitted there can never win the pool).
///
/// Sharing. Tenants with the same cell/cutoff share one PlanewaveSetup
/// (engine-level cache) and — through fft::shared_engine — the same Fft3D
/// instances, so a newly admitted tenant replays the graph caches its
/// predecessors already built instead of rewarming them. Tenants with the
/// same simulation options also share one converged ground state
/// (serve/gs_cache.hpp):
///   - Key: the exact wire bytes of JobSpec::sim (wire::put_sim, the block
///     the submit and durable-spec codecs embed), compared byte for byte.
///     Everything else SimulationOptions carries (FockOptions, FFT dispatch,
///     pipeline mode) is bit-identical across its values in a one-rank
///     Simulation, so leaving it out of the key cannot change a result.
///   - Exactness: a hit skips Simulation::ground_state() and installs the
///     cached orbitals with restore_wavefunctions(). Every step rebuilds
///     the density, the exchange operator and the vector potential from
///     (psi, t) before using them (under MTS a non-refresh step reuses the
///     operator its own propagation froze; the first step always
///     refreshes), and a recorded sample either reads only psi or rebuilds
///     the same way, so nothing the SCF left in the Hamiltonian reaches the
///     trajectory. This is the argument that makes
///     resume exact; hit and miss give bitwise-identical traces and
///     scf_energy (tests/test_serve.cpp). A hit still writes the job's own
///     `.gs.ckpt`, which its resume needs.
///   - Bypass: ACE with a projector-refresh cadence other than every
///     registration (ace_refresh, or PWDFT_ACE_REFRESH when it is <= 0)
///     keeps projectors across registrations, so the first step would see
///     the SCF's stale projectors on a miss and fresh ones on a hit. Such
///     specs always run their own SCF.
///   - Single flight: a job whose key is being computed by another running
///     job waits for that SCF instead of starting its own; if the owner's
///     SCF throws, a waiter computes it. A waiting job keeps its running slot.
///   - Bound: least-recently-used entries are evicted beyond
///     kGroundStateCacheBytes of orbitals.
///
/// Threads. Admitted jobs run on long-lived slot workers, started on demand
/// and never more than max_running, so a finished job leaves no thread
/// behind and the next job reuses the worker's thread-local workspace and
/// malloc arena. A fresh thread per job would fill a fresh malloc arena, and
/// peak RSS would grow with the number of jobs served.
///
/// Crash safety — in-process AND across process restarts. Every submitted
/// job's spec is persisted to `<dir>/<name>.spec.ckpt` (the wire codec
/// doubles as the durability codec) and removed when the job completes.
/// Every checkpoint_every steps a running job atomically snapshots its
/// wavefunctions and recorded trace (io::checkpoint, v2 format: tmp+rename,
/// checksummed). preempt() stops a job cooperatively at the next step
/// boundary WITHOUT a fresh snapshot — deliberately equivalent to a kill:
/// work since the last snapshot is lost. resume() re-queues the job to
/// continue from its newest snapshot; because a PT-CN step is a pure
/// function of (psi, t) at the default exchange cadence, the stitched
/// trajectory is bit-identical to an uninterrupted run (tests/test_serve.cpp
/// pins this; JobSpec::validate rejects checkpointed MTS jobs). recover()
/// rescans the checkpoint directory after a process restart — e.g. a
/// `kill -9` of the serving process — and re-registers every job whose spec
/// snapshot is still on disk, so each interrupted trajectory continues from
/// its newest snapshot bit-identically (tests/test_server.cpp pins the
/// kill-mid-run → restart → bit-identical path end to end).

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "serve/gs_cache.hpp"
#include "serve/job.hpp"

namespace pwdft::serve {

struct JobEngineOptions {
  /// Maximum concurrently running jobs.
  std::size_t max_running = 2;
  /// Maximum summed perf::job_cost (model-seconds) of concurrently running
  /// jobs; 0 disables the cost gate. See the scheduling notes above.
  double cost_budget = 0.0;
  /// Directory for per-job files: `<dir>/<name>.spec.ckpt` (durable spec),
  /// `.gs/.psi/.trace.ckpt` (snapshots).
  std::string checkpoint_dir = "/tmp";
  /// Scan checkpoint_dir in the constructor and re-register every job with
  /// a spec snapshot (see recover()). The restart mode of a crashed server.
  bool recover_on_start = false;

  /// The one resolution point for every serve engine env knob (strict
  /// env:: parsing — a typo fails loudly): PWDFT_SERVE_SLOTS (max_running,
  /// [1, 64], default 2), PWDFT_SERVE_CKPT_DIR (checkpoint_dir), and
  /// PWDFT_SERVE_RECOVER (recover_on_start, default off).
  static JobEngineOptions from_env();
};

using JobId = std::size_t;

class JobEngine {
 public:
  explicit JobEngine(JobEngineOptions opt = {});
  /// Joins every worker; queued jobs that never started stay kQueued.
  ~JobEngine();
  JobEngine(const JobEngine&) = delete;
  JobEngine& operator=(const JobEngine&) = delete;

  /// Validates, durably records, and enqueues a job, starting it
  /// immediately if admission allows. Job names must be unique within the
  /// engine (they key checkpoint files).
  SubmitResult submit(JobSpec spec);

  /// Cooperative kill: a queued job is marked preempted before it starts; a
  /// running job stops at its next step boundary, keeping only state saved
  /// at its last checkpoint (crash semantics — no farewell snapshot).
  ErrorCode preempt(JobId id);

  /// Permanent stop: like preempt, but the job lands in kCancelled, its
  /// durable spec and snapshots are deleted, and it can never be resumed.
  /// Cancelling an already-terminal job is an idempotent kOk.
  ErrorCode cancel(JobId id);

  /// Re-queues a preempted (or failed) job. If a checkpoint exists the job
  /// continues from it; otherwise it restarts from scratch. Returns the
  /// same id.
  SubmitResult resume(JobId id);

  /// Resume by checkpoint key, idempotently: a queued/running job is
  /// rejected with kAlreadyActive (never a duplicate run against the same
  /// checkpoint files), a kDone job is a no-op kOk, a cancelled job is
  /// kNotResumable. Always reports the original job's id.
  SubmitResult resume(const std::string& name);

  /// Re-registers every job with a `<name>.spec.ckpt` in checkpoint_dir
  /// (skipping names already known, newest-snapshot resume semantics as
  /// resume()). Returns the ids actually re-registered, in sorted-name
  /// order. Unreadable or corrupt spec files are skipped — recovery of the
  /// healthy jobs must not be hostage to one torn file.
  std::vector<JobId> recover();

  /// Blocks until the job is terminal (kShutdown-flagged status if the
  /// engine shuts down first; kUnknownJob for a bad id).
  JobStatus wait(JobId id);
  /// Blocks until the job's steps_done differs from `seen_steps` or the job
  /// is terminal — the server's per-step streaming primitive (live progress
  /// is published at every propagation step boundary, after that step's
  /// snapshot is on disk).
  JobStatus wait_progress(JobId id, std::uint64_t seen_steps);
  /// Blocks until no job is queued or running.
  void wait_all();
  /// Non-blocking snapshot.
  JobStatus status(JobId id) const;
  /// Id lookup by job name.
  std::optional<JobId> find(const std::string& name) const;
  /// Number of jobs ever registered (ids are [0, job_count)).
  std::size_t job_count() const;

  /// Begins shutdown without joining: nothing further is admitted (already
  /// running jobs drain to their natural end) and every blocked wait*()
  /// returns a kShutdown-flagged status. Queued jobs stay kQueued with
  /// their durable specs on disk — exactly the state recover() replays.
  /// The destructor still joins; calling this first makes it a drain.
  void begin_shutdown();

  /// The admission price of a spec (perf::job_cost of its workload).
  static double cost_estimate(const JobSpec& spec);

  /// SCF runs this engine has performed (ground-state cache misses plus
  /// bypasses); a cache hit does not count.
  std::uint64_t ground_states_computed() const { return gs_computed_.load(); }

 private:
  struct Job;

  /// Starts every queued job the admission rules allow, and requests a
  /// scheduler preemption when a higher-priority job is starved by a full
  /// engine. Caller holds mu_.
  void pump_locked();
  /// Slot-worker body: runs admitted jobs until shutdown drains them.
  void worker_loop();
  /// Runs one admitted job on the calling worker.
  void run_job(Job& job);
  /// Brings `sim` to its converged ground state through the cache (or
  /// its own SCF for a bypassed spec); returns the SCF total energy.
  double ground_state(core::Simulation& sim, const core::SimulationOptions& opt);
  /// Registers a validated spec as a queued job. Caller holds mu_.
  SubmitResult register_locked(JobSpec spec, bool persist_spec);
  /// Engine-level PlanewaveSetup cache (keyed by cells/ecut/dense_factor).
  std::shared_ptr<const ham::PlanewaveSetup> setup_for(const core::SimulationOptions& sim);

  JobEngineOptions opt_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::unique_ptr<Job>> jobs_;
  std::deque<Job*> ready_;  ///< admitted (kRunning), not yet on a worker
  std::condition_variable work_cv_;  ///< ready_ grew, or shutdown
  std::size_t idle_workers_ = 0;      ///< workers without a job
  std::size_t running_ = 0;
  double running_cost_ = 0.0;
  bool shutdown_ = false;

  struct SetupKey {
    int cells[3];
    double ecut;
    int dense_factor;
  };
  std::mutex setup_mu_;
  std::vector<std::pair<SetupKey, std::shared_ptr<const ham::PlanewaveSetup>>> setups_;

  GroundStateCache gs_cache_;
  std::atomic<std::uint64_t> gs_computed_{0};

  /// Slot workers (at most max_running), joined by ~JobEngine; declared
  /// after everything they use.
  std::vector<std::thread> workers_;

};

}  // namespace pwdft::serve
