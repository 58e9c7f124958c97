#pragma once

/// \file workloads.hpp
/// The three benchmark workloads and the pieces they share. Each workload
/// records raw intervals into a Recorder; summarize() turns them into the
/// normalised metrics of the report.

#include <cstdint>
#include <span>
#include <string>

#include "bench.hpp"
#include "core/simulation.hpp"
#include "parallel/comm.hpp"
#include "td/field.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string run_dir;  ///< per-run directory under the working directory
  // Rank-process mode (ranks2 children; set by the parent).
  int rank = -1;
  int core = -1;
  std::string rendezvous;
  std::string out;
  double t_spawn = 0.0;
  bool setup_only = false;
};

/// Times the workloads' ground state is repeated to report setup_s as a
/// median.
constexpr int kSetupReps = 3;
/// Propagations run in segments of one fs (20 steps at dt = 50 as), each
/// restarting from the kicked ground state, and only whole segments are
/// measured: every run then samples the same step sequence, whatever its
/// speed. A segment is also the "job" of trajectory/ranks2.
constexpr int kSegmentSteps = 20;
constexpr double kDtAs = 50.0;

/// The default Si8 hybrid problem at a reduced cutoff (the examples'
/// setting); `gs_seed` picks the random initial guess of the ground state.
pwdft::core::SimulationOptions si8_options(std::uint64_t gs_seed);

/// Seeded delta kick of amplitude 1e-3 a.u. along an axis drawn from `seed`.
pwdft::td::DeltaKick seeded_kick(std::uint64_t seed);

/// Cores for a workload needing `n`: the last `n` of the allowed set.
std::vector<int> pick_cores(int n);

/// PT-CN steps driven directly through PtCnPropagator::step over `comm`
/// with the bands block-distributed: segments from the simulation's ground
/// state until rank 0 has spent `seconds` (collective decision). Traced
/// runs alternate untraced and TimerRegistry-traced segments. Records step
/// intervals, per-step counters, phases, and the end checks.
void direct_propagation(pwdft::par::Comm& comm, pwdft::core::Simulation& sim,
                        const pwdft::td::DeltaKick& kick, double seconds, bool traced,
                        const std::string& dir, Recorder& rec);

/// Per-layer timings at the current state through public entry points
/// (collective over comm): Hamiltonian apply, exchange rebuild, density,
/// energy, both FFT grids, and checkpoint save/load of `psi_full`.
void layer_timings(pwdft::par::Comm& comm, pwdft::core::Simulation& sim,
                   const pwdft::CMatrix& psi_local, const pwdft::CMatrix& psi_full,
                   const std::string& dir, Recorder& rec);

/// Workload entry points: fill `rep` with every metric.
void run_trajectory(const Args& a, Report& rep);
void run_ranks2(const Args& a, Report& rep);
void run_served(const Args& a, Report& rep);
/// Body of one ranks2 rank process.
int rank_main(const Args& a);

/// Shared summary of a propagation workload (trajectory, ranks2): turns the
/// recorded intervals into the end-to-end and per-layer metrics.
void summarize_propagation(const Recorder& rec, const Calibrator& cal, int nranks, bool traced,
                           Report& rep);
/// Adds the per-layer metrics recorded by layer_timings().
void summarize_layers(const Recorder& rec, const Calibrator& cal, Report& rep);
/// Prints the Summit model's phase shares and per-step comm next to the
/// measured ones (diagnostic only).
void model_check(const pwdft::ham::PlanewaveSetup& setup, int nranks, Report& rep);

}  // namespace perfbench
