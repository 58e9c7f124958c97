// The propagation workloads: `trajectory` (one Simulation, 1 core, through
// Simulation::propagate) and `ranks2` (the same physics band-distributed
// over two SocketComm rank processes, each on its own core).

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/exec.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"
#include "ham/density.hpp"
#include "ham/energy.hpp"
#include "linalg/blas.hpp"
#include "parallel/socket_comm.hpp"
#include "td/ptcn.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace pwdft;

namespace {

/// Output checks of a propagation.
constexpr double kEnergyDriftTol = 1e-5;  ///< Ha, post-kick total energy
constexpr double kOrthoTol = 1e-6;        ///< max |(Psi^H Psi - I)_ij|

const char* const kPhases[] = {"hpsi_fock", "hpsi_local", "residual", "density",
                               "anderson",  "ortho",      "others"};
constexpr par::CommOp kOps[] = {par::CommOp::kAlltoallv, par::CommOp::kAllreduce,
                                par::CommOp::kBcast, par::CommOp::kAllgatherv};
const char* const kOpNames[] = {"alltoallv", "allreduce", "bcast", "allgatherv"};

std::uint64_t gs_seed_for(std::uint64_t seed) { return 1 + seed % 1000; }

/// Total energy of a band-distributed state at the Hamiltonian's current
/// vector potential (collective).
double total_energy(par::Comm& comm, core::Simulation& sim, const CMatrix& psi_local,
                    const par::BlockPartition& bands) {
  ham::Hamiltonian& h = sim.hamiltonian();
  const auto& occ = sim.occupations();
  std::span<const double> occ_local(occ.data() + bands.offset(comm.rank()), psi_local.cols());
  auto rho = ham::compute_density(sim.setup(), h.fft_dense(), psi_local, occ_local, comm, true,
                                  h.options().op_pipeline);
  h.update_density(rho);
  if (h.hybrid_enabled()) h.set_exchange_orbitals(psi_local, occ, bands, comm);
  return ham::compute_energy(h, psi_local, occ_local, rho, comm).total();
}

/// Assembles the full band set on every rank (collective).
CMatrix gather_bands(par::Comm& comm, const CMatrix& psi_local, const par::BlockPartition& bands) {
  const std::size_t ng = psi_local.rows();
  CMatrix full(ng, bands.total());
  std::vector<std::size_t> counts(comm.size()), displs(comm.size());
  for (int r = 0; r < comm.size(); ++r) {
    counts[r] = ng * bands.count(r) * sizeof(Complex);
    displs[r] = ng * bands.offset(r) * sizeof(Complex);
  }
  comm.allgatherv_bytes(reinterpret_cast<const unsigned char*>(psi_local.data()),
                        counts[comm.rank()], reinterpret_cast<unsigned char*>(full.data()),
                        counts.data(), displs.data());
  return full;
}

double ortho_error(const CMatrix& psi) {
  const CMatrix s = linalg::overlap(psi, psi);
  double err = 0.0;
  for (std::size_t i = 0; i < s.rows(); ++i)
    for (std::size_t j = 0; j < s.cols(); ++j)
      err = std::max(err, std::abs(s(i, j) - Complex(i == j ? 1.0 : 0.0, 0.0)));
  return err;
}

void record_gs(Recorder& rec, const scf::ScfResult& gs) {
  rec.value("gs.iterations", gs.scf_iterations);
  rec.value("gs.outer", gs.outer_iterations);
  rec.value("gs.converged", gs.converged ? 1.0 : 0.0);
}

}  // namespace

void direct_propagation(par::Comm& comm, core::Simulation& sim, const td::DeltaKick& kick,
                        double seconds, bool traced, const std::string& dir, Recorder& rec) {
  const auto& setup = sim.setup();
  ham::Hamiltonian& h = sim.hamiltonian();
  const int np = comm.size();
  const int rank = comm.rank();
  par::BlockPartition bands(setup.n_bands(), np);
  CMatrix psi0(setup.n_g(), bands.count(rank));
  for (std::size_t j = 0; j < psi0.cols(); ++j)
    std::memcpy(psi0.col(j), sim.wavefunctions().col(bands.offset(rank) + j),
                setup.n_g() * sizeof(Complex));
  const auto& occ = sim.occupations();

  td::PtCnOptions po;
  po.dt = constants::attoseconds_to_au(kDtAs);
  td::PtCnPropagator prop(h, bands, po, np);

  h.set_vector_potential(kick.vector_potential(0.0));
  rec.value("energy_start", total_energy(comm, sim, psi0, bands));

  auto& pool = exec::pool();
  const double start = now_s();
  CMatrix psi;
  for (int seg = 0;; ++seg) {
    const bool traced_seg = traced && seg % 2 == 1;
    psi = psi0;
    double t = 0.0;
    for (int s = 0; s < kSegmentSteps; ++s) {
      const par::CommStats c0 = comm.stats();
      const std::uint64_t ps0 = h.fock().pair_solves(), bc0 = h.fock().broadcasts();
      const std::uint64_t gj0 = pool.graph_jobs(), rj0 = pool.range_jobs();
      TimerRegistry reg;
      const double t0 = now_s();
      const auto r = prop.step(psi, occ, t, kick, comm, traced_seg ? &reg : nullptr);
      const double t1 = now_s();
      t += po.dt;
      rec.interval(traced_seg ? "step_traced" : "step", t0, t1);
      if (seg == 0 && s == 0) rec.interval("step1", t0, t1);
      rec.value("converged", r.converged ? 1.0 : 0.0);
      rec.value("scf_iters", r.scf_iterations);
      rec.value("fock.pair_solves", static_cast<double>(h.fock().pair_solves() - ps0));
      rec.value("fock.broadcasts", static_cast<double>(h.fock().broadcasts() - bc0));
      rec.value("exec.graph_jobs", static_cast<double>(pool.graph_jobs() - gj0));
      rec.value("exec.range_jobs", static_cast<double>(pool.range_jobs() - rj0));
      for (std::size_t k = 0; k < std::size(kOps); ++k) {
        const auto& a = c0.get(kOps[k]);
        const auto& b = comm.stats().get(kOps[k]);
        const std::string base = std::string("comm.") + kOpNames[k];
        rec.value(base + ".calls", static_cast<double>(b.calls - a.calls));
        rec.value(base + ".bytes", static_cast<double>(b.bytes - a.bytes));
        rec.value(base + ".s", b.seconds - a.seconds);
      }
      if (traced_seg)
        for (const char* p : kPhases) rec.value(std::string("phase.") + p, reg.total(p));
      rec.interval("loop", t0, now_s());
    }
    // Rank 0 decides, for every rank, whether another segment starts.
    std::uint8_t more = (now_s() - start) < seconds ? 1 : 0;
    comm.bcast(&more, 1, 0);
    if (!more) break;
  }

  rec.value("energy_end", total_energy(comm, sim, psi, bands));
  const CMatrix full = gather_bands(comm, psi, bands);
  rec.value("ortho_err", ortho_error(full));
  if (traced) layer_timings(comm, sim, psi, full, dir, rec);
}

void summarize_propagation(const Recorder& rec, const Calibrator& cal, int nranks, bool traced,
                           Report& rep) {
  auto iv = [&](const std::string& name) -> const std::vector<std::pair<double, double>>& {
    static const std::vector<std::pair<double, double>> none;
    auto it = rec.intervals.find(name);
    return it == rec.intervals.end() ? none : it->second;
  };
  auto vals = [&](const std::string& name) -> const std::vector<double>& {
    static const std::vector<double> none;
    auto it = rec.values.find(name);
    return it == rec.values.end() ? none : it->second;
  };
  // Set-up (ground state) intervals are normalised with the dense probe,
  // step intervals with the pair-solve probe (bench.hpp).
  auto norm_all = [&](const std::string& name, Probe p) {
    std::vector<double> out;
    for (const auto& [a, b] : iv(name)) out.push_back(cal.norm(p, a, b));
    return out;
  };
  auto raw_all = [&](const std::string& name) {
    std::vector<double> out;
    for (const auto& [a, b] : iv(name)) out.push_back(b - a);
    return out;
  };

  // --- output checks --------------------------------------------------------
  const auto& conv = vals("converged");
  std::size_t bad_steps = 0;
  for (double c : conv) bad_steps += c > 0.5 ? 0 : 1;
  rep.attempts(conv.size());
  rep.check(!conv.empty(), "no PT-CN step was taken");
  for (std::size_t i = 0; i < bad_steps; ++i) rep.check(false, "PT-CN step did not converge");
  for (double c : vals("gs.converged")) {
    rep.attempts(1);
    rep.check(c > 0.5, "ground state did not converge");
  }
  const double drift = std::abs(rec.last("energy_end") - rec.last("energy_start"));
  const double ortho = rec.last("ortho_err", 1.0);
  rep.check(drift <= kEnergyDriftTol, "post-kick energy drift above tolerance");
  rep.check(ortho <= kOrthoTol, "|Psi^H Psi - I| above tolerance");
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "checks: %zu/%zu steps converged; post-kick |dE| = %.3g Ha (tol %.0e); "
                "max|Psi^H Psi - I| = %.3g (tol %.0e)",
                conv.size() - bad_steps, conv.size(), drift, kEnergyDriftTol, ortho, kOrthoTol);
  rep.line(buf);

  // --- end-to-end -------------------------------------------------------------
  const std::vector<double> setup_n = norm_all("setup", Probe::kDense), setup_r = raw_all("setup");
  const std::vector<double> step1_n = norm_all("step1", Probe::kFft), step1_r = raw_all("step1");
  const std::vector<double> step_n = norm_all("step", Probe::kFft), step_r = raw_all("step");
  const std::vector<double> loop_n = norm_all("loop", Probe::kFft), loop_r = raw_all("loop");
  const double fs = kDtAs * 1e-3;
  const std::size_t nstep = step_n.size();
  std::snprintf(buf, sizeof buf, "samples: %zu setups, %zu untraced steps (p90 tail has %zu beyond it)",
                setup_n.size(), nstep, nstep / 10);
  rep.line(buf);
  {
    std::string l = "setups (raw s / dense probe ms / normalised s):";
    for (const auto& [t0, t1] : iv("setup")) {
      char b[96];
      std::snprintf(b, sizeof b, "  %.3f / %.3f / %.3f", t1 - t0,
                    cal.probe_ms(Probe::kDense, t0, t1), cal.norm(Probe::kDense, t0, t1));
      l += b;
    }
    std::vector<double> sp;
    for (const auto& [t0, t1] : iv("step")) sp.push_back(cal.probe_ms(Probe::kFft, t0, t1));
    char b[96];
    std::snprintf(b, sizeof b, "; steps: fft probe ms median %.3f", median(sp));
    rep.line(l + b);
  }
  rep.timing("setup_s", median(setup_n), median(setup_r), "s");
  rep.timing("step_s.p50", median(step_n), median(step_r), "s");
  rep.timing("step_s.tail", percentile(step_n, kTailPercentile), percentile(step_r, kTailPercentile), "s");
  double loop_sum_n = 0.0, loop_sum_r = 0.0;
  for (std::size_t i = 0; i < loop_n.size(); ++i) {
    loop_sum_n += loop_n[i];
    loop_sum_r += loop_r[i];
  }
  const double nfs = std::max<std::size_t>(loop_n.size(), 1) * fs;
  rep.timing("wall_per_fs_s", loop_sum_n / nfs, loop_sum_r / nfs, "s");
  // A trajectory "job" is one setup plus one segment (one fs).
  std::vector<double> first_n, first_r;
  for (std::size_t k = 0; k < std::min(setup_n.size(), step1_n.size()); ++k) {
    first_n.push_back(setup_n[k] + step1_n[k]);
    first_r.push_back(setup_r[k] + step1_r[k]);
  }
  rep.timing("first_step_s.p50", median(first_n), median(first_r), "s");
  double job_n = median(setup_n), job_r = median(setup_r);
  for (std::size_t i = 0; i < std::min<std::size_t>(kSegmentSteps, loop_n.size()); ++i) {
    job_n += loop_n[i];
    job_r += loop_r[i];
  }
  rep.timing("job_latency_s.p50", job_n, job_r, "s");
  rep.timing("jobs_per_min", 60.0 / job_n, 60.0 / job_r, "1/min");
  double rss = 0.0;
  for (double v : vals("peak_rss_mb")) rss = std::max(rss, v);
  rep.metric("peak_rss_mb", rss, "MB", nranks > 1 ? "max over rank processes" : "");
  rep.metric("calib.dense_probe_ms", cal.probe_ms_all(Probe::kDense), "ms");
  rep.metric("calib.fft_probe_ms", cal.probe_ms_all(Probe::kFft), "ms");
  rep.metric("calib.steal_frac", cal.steal_frac_all(), "frac");

  // --- per-layer ---------------------------------------------------------------
  rep.metric("scf.gs_s", median(norm_all("gs", Probe::kDense)), "s");
  rep.metric("scf.iterations", mean(vals("gs.iterations")), "count");
  rep.metric("scf.outer_iterations", mean(vals("gs.outer")), "count");
  rep.metric("td.scf_iters_per_step", mean(vals("scf_iters")), "count");
  rep.metric("ham.fock.pair_solves_per_step", mean(vals("fock.pair_solves")), "count");
  rep.metric("ham.fock.broadcasts_per_step", mean(vals("fock.broadcasts")), "count");
  rep.metric("exec.graph_jobs_per_step", mean(vals("exec.graph_jobs")), "count");
  rep.metric("exec.range_jobs_per_step", mean(vals("exec.range_jobs")), "count");
  double comm_s = 0.0;
  for (std::size_t k = 0; k < std::size(kOpNames); ++k) {
    const std::string base = std::string("comm.") + kOpNames[k];
    rep.metric(base + ".calls_per_step", mean(vals(base + ".calls")), "count");
    rep.metric(base + ".bytes_per_step", mean(vals(base + ".bytes")), "bytes");
    rep.metric(base + ".s_per_step", mean(vals(base + ".s")), "s");
    for (double v : vals(base + ".s")) comm_s += v;
  }
  double steps_s = 0.0;
  for (double v : step_r) steps_s += v;
  for (const auto& [a, b] : iv("step_traced")) steps_s += b - a;
  rep.metric("comm.wait_frac", steps_s > 0 ? comm_s / steps_s : 0.0, "frac");
  if (!iv("mesh").empty()) rep.metric("comm.mesh_setup_s", median(norm_all("mesh", Probe::kDense)), "s");

  if (traced) {
    const auto& traced_iv = iv("step_traced");
    double attributed = 0.0;
    double traced_total = 0.0;
    for (const auto& [a, b] : traced_iv) traced_total += b - a;
    for (const char* p : kPhases) {
      const auto& v = vals(std::string("phase.") + p);
      double sum_n = 0.0;
      for (std::size_t i = 0; i < v.size() && i < traced_iv.size(); ++i) {
        sum_n += v[i] * cal.factor(Probe::kFft, traced_iv[i].first, traced_iv[i].second);
        attributed += v[i];
      }
      rep.metric(std::string("td.phase.") + p + "_s",
                 traced_iv.empty() ? 0.0 : sum_n / static_cast<double>(traced_iv.size()), "s");
    }
    rep.metric("td.unattributed_frac", traced_total > 0 ? 1.0 - attributed / traced_total : 0.0,
               "frac");
    const double traced_p50 = median(norm_all("step_traced", Probe::kFft));
    rep.metric("td.trace_overhead_s", traced_p50 - median(step_n), "s",
               "traced minus untraced step_s.p50");
    if (rec.values.count("io.psi_bytes"))
      rep.metric("io.ckpt_bytes_per_step", rec.last("io.psi_bytes"), "bytes",
                 "psi snapshot at this workload's size");
    summarize_layers(rec, cal, rep);
  }
}

// --- trajectory ----------------------------------------------------------------

void run_trajectory(const Args& a, Report& rep) {
  const std::vector<int> cores = pick_cores(1);
  pin_this_thread(cores);
  Calibrator cal(cores);
  Recorder rec;
  const auto opt = si8_options(gs_seed_for(a.seed));
  const td::DeltaKick kick = seeded_kick(a.seed);

  if (a.trace) {
    // Traced run: PtCnPropagator::step with a TimerRegistry, alternating
    // with untraced blocks, plus per-layer timings.
    const double t0 = now_s();
    core::Simulation sim(opt);
    const double tg = now_s();
    const auto gs = sim.ground_state();
    const double t1 = now_s();
    rec.interval("setup", t0, t1);
    rec.interval("gs", tg, t1);
    record_gs(rec, gs);
    par::SerialComm comm;
    direct_propagation(comm, sim, kick, a.seconds, true, a.run_dir, rec);
    rec.value("peak_rss_mb", peak_rss_mb());
    cal.stop();
    summarize_propagation(rec, cal, 1, true, rep);
    model_check(sim.setup(), 1, rep);
    return;
  }

  for (int k = 0; k < kSetupReps; ++k) {
    const double t0 = now_s();
    core::Simulation sim(opt);
    const double tg = now_s();
    const auto gs = sim.ground_state();
    const double t1 = now_s();
    rec.interval("setup", t0, t1);
    rec.interval("gs", tg, t1);
    record_gs(rec, gs);

    core::PropagateOptions p;
    p.integrator = core::Integrator::kPtCn;
    p.dt_as = kDtAs;
    p.field = &kick;
    p.record_excitation = false;
    if (k + 1 < kSetupReps) {
      // Earlier repetitions only time the first step after their setup.
      p.steps = 1;
      p.record_energy = false;
      const auto tr = sim.propagate(p);
      const double t2 = now_s();
      rec.interval("step1", t2 - tr.back().wall_seconds, t2);
      continue;
    }
    // The measured trajectory: energy right after the kick, then one-fs
    // segments from the kicked ground state until the budget is spent,
    // then the end-state checks.
    p.steps = 0;
    rec.value("energy_start", sim.propagate(p).front().energy);
    const CMatrix psi_gs = sim.wavefunctions();
    p.steps = kSegmentSteps;
    p.record_energy = false;
    p.record_initial = false;
    const double rho_tol = p.ptcn.rho_tol;
    double prev = 0.0;
    p.on_step = [&](std::uint64_t step, const std::vector<td::TimePoint>& trace, const CMatrix&,
                    double) {
      const double tn = now_s();
      const td::TimePoint& tp = trace.back();
      rec.interval("step", tn - tp.wall_seconds, tn);
      if (step == 1 && !rec.intervals.count("loop")) rec.interval("step1", tn - tp.wall_seconds, tn);
      rec.interval("loop", prev, tn);
      rec.value("converged", tp.rho_error < rho_tol ? 1.0 : 0.0);
      rec.value("scf_iters", tp.scf_iterations);
      prev = tn;
      return true;
    };
    const double start = now_s();
    do {
      sim.restore_wavefunctions(psi_gs);
      prev = now_s();
      sim.propagate(p);
    } while (now_s() - start < a.seconds);
    rec.value("energy_end", sim.current_energy().total());
    rec.value("ortho_err", ortho_error(sim.wavefunctions()));
  }
  rec.value("peak_rss_mb", peak_rss_mb());
  cal.stop();
  summarize_propagation(rec, cal, 1, false, rep);
}

// --- ranks2 --------------------------------------------------------------------

int rank_main(const Args& a) {
  pin_this_thread({a.core});
  Recorder rec;
  try {
    const double tc = now_s();
    const auto comm = par::SocketComm::connect(a.rank, 2, a.rendezvous, par::SocketCommOptions{});
    const double tg0 = now_s();
    rec.interval("mesh", tc, tg0);
    // The ground state is replicated on every rank (the serial solver run
    // per rank, as in distributed runs), then the bands are distributed.
    core::Simulation sim(si8_options(gs_seed_for(a.seed)));
    const double tg = now_s();
    const auto gs = sim.ground_state();
    rec.interval("gs", tg, now_s());
    record_gs(rec, gs);
    comm->barrier();
    rec.interval("setup", a.t_spawn, now_s());
    if (a.setup_only) {
      // Set-up launches time only their first step, like trajectory's.
      Recorder one;
      direct_propagation(*comm, sim, seeded_kick(a.seed), 0.0, false, a.run_dir, one);
      rec.intervals["step1"] = one.intervals["step1"];
    } else {
      direct_propagation(*comm, sim, seeded_kick(a.seed), a.seconds, a.trace, a.run_dir, rec);
    }
    rec.value("peak_rss_mb", peak_rss_mb());
    rec.save(a.out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[ranks2 rank %d] %s\n", a.rank, e.what());
    return 3;
  }
  return 0;
}

void run_ranks2(const Args& a, Report& rep) {
  const std::vector<int> cores = pick_cores(2);
  pin_this_thread(cores);
  Calibrator cal(cores, Calibrator::Combine::kMax);
  Recorder merged;
  const int launches = a.trace ? 1 : kSetupReps;
  for (int k = 0; k < launches; ++k) {
    const bool setup_only = k + 1 < launches;
    const std::string rv = "unix:" + a.run_dir + "/rv" + std::to_string(k);
    std::vector<std::string> outs;
    std::vector<pid_t> pids;
    const double t_spawn = now_s();
    for (int r = 0; r < 2; ++r) {
      outs.push_back(a.run_dir + "/rank" + std::to_string(r) + "-" + std::to_string(k) + ".txt");
      char tbuf[64];
      std::snprintf(tbuf, sizeof tbuf, "%.9f", t_spawn);
      std::vector<std::string> args = {"perfbench", "--workload", "ranks2",
                                       "--seed", std::to_string(a.seed),
                                       "--seconds", std::to_string(a.seconds),
                                       "--trace", a.trace ? "1" : "0",
                                       "--rank", std::to_string(r),
                                       "--core", std::to_string(cores[r]),
                                       "--rendezvous", rv,
                                       "--out", outs.back(),
                                       "--t-spawn", tbuf,
                                       "--setup-only", setup_only ? "1" : "0"};
      std::vector<char*> argv;
      for (auto& s : args) argv.push_back(s.data());
      argv.push_back(nullptr);
      std::fflush(stdout);
      const pid_t pid = ::fork();
      if (pid < 0) throw std::runtime_error("fork failed");
      if (pid == 0) {
        ::execv("/proc/self/exe", argv.data());
        ::_exit(127);
      }
      pids.push_back(pid);
    }
    // Reap both ranks under a deadline; a wedged rank is killed, and the
    // missing result counts as a failure.
    const double deadline = now_s() + a.seconds + 120.0;
    int ok = 0;
    for (pid_t pid : pids) {
      int status = 0;
      for (;;) {
        const pid_t got = ::waitpid(pid, &status, WNOHANG);
        if (got == pid) break;
        if (now_s() > deadline) {
          ::kill(pid, SIGKILL);
          ::waitpid(pid, &status, 0);
          break;
        }
        ::usleep(10000);
      }
      ok += (WIFEXITED(status) && WEXITSTATUS(status) == 0) ? 1 : 0;
    }
    rep.attempts(1);
    rep.check(ok == 2, "a ranks2 rank process failed");
    if (ok != 2) continue;
    for (int r = 0; r < 2; ++r) {
      const Recorder rr = Recorder::load(outs[r]);
      std::remove(outs[r].c_str());
      if (r == 0) {
        for (const auto& [n, v] : rr.intervals)
          merged.intervals[n].insert(merged.intervals[n].end(), v.begin(), v.end());
        for (const auto& [n, v] : rr.values)
          merged.values[n].insert(merged.values[n].end(), v.begin(), v.end());
      } else {
        for (double v : rr.values.count("peak_rss_mb") ? rr.values.at("peak_rss_mb")
                                                        : std::vector<double>{})
          merged.value("peak_rss_mb", v);
      }
    }
  }
  cal.stop();
  summarize_propagation(merged, cal, 2, a.trace, rep);
  if (a.trace) {
    ham::PlanewaveSetup setup(crystal::Crystal::silicon_supercell(1, 1, 1),
                              si8_options(1).ecut, si8_options(1).dense_factor);
    model_check(setup, 2, rep);
  }
}

}  // namespace perfbench
