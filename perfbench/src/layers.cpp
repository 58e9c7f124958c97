// Pieces shared by the workloads: the problem, core choice, per-layer
// timings through public entry points, their summary, and the model check.

#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <random>
#include <sstream>

#include "common/types.hpp"
#include "fft/fft3d.hpp"
#include "ham/density.hpp"
#include "ham/energy.hpp"
#include "io/checkpoint.hpp"
#include "perf/model.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace pwdft;

core::SimulationOptions si8_options(std::uint64_t gs_seed) {
  core::SimulationOptions o;
  o.cells[0] = o.cells[1] = o.cells[2] = 1;  // Si8
  o.ecut = 2.0;
  o.dense_factor = 1;
  o.hybrid = true;
  o.scf.tol_rho = 1e-6;
  o.scf.lobpcg.max_iter = 6;
  o.scf.hybrid_outer_max = 3;
  o.seed = gs_seed;
  return o;
}

td::DeltaKick seeded_kick(std::uint64_t seed) {
  // The axis is seeded; by the cubic symmetry of the cell every axis is the
  // same amount of work, so runs with different seeds stay comparable.
  grid::Vec3 kappa{0.0, 0.0, 0.0};
  kappa[std::mt19937_64(seed)() % 3] = 1e-3;
  return td::DeltaKick(kappa);
}

std::vector<int> pick_cores(int n) {
  const std::vector<int> cpus = allowed_cpus();
  if (static_cast<int>(cpus.size()) < n)
    throw std::runtime_error("workload needs " + std::to_string(n) + " cores, " +
                             std::to_string(cpus.size()) + " allowed");
  return std::vector<int>(cpus.end() - n, cpus.end());
}

namespace {

constexpr int kLayerReps = 5;
constexpr int kFftReps = 20;

template <class F>
void timed(Recorder& rec, const std::string& name, int reps, F&& f) {
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_s();
    f();
    rec.interval(name, t0, now_s());
  }
}

void time_fft(Recorder& rec, const std::string& name, const grid::FftGrid& g) {
  fft::Fft3D fft(g.dims());
  std::vector<Complex> data(fft.size());
  std::mt19937_64 rng(11);
  std::normal_distribution<double> nd;
  for (auto& x : data) x = {nd(rng), nd(rng)};
  timed(rec, name, kFftReps, [&] {
    fft.forward(data.data());
    fft.inverse_scaled(data.data());  // scaled, so repeats never overflow
  });
  rec.value(name + "_n", static_cast<double>(fft.size()));
}

}  // namespace

void layer_timings(par::Comm& comm, core::Simulation& sim, const CMatrix& psi_local,
                   const CMatrix& psi_full, const std::string& dir, Recorder& rec) {
  ham::Hamiltonian& h = sim.hamiltonian();
  const auto& setup = sim.setup();
  const auto& occ = sim.occupations();
  par::BlockPartition bands(setup.n_bands(), comm.size());
  std::span<const double> occ_local(occ.data() + bands.offset(comm.rank()), psi_local.cols());

  std::vector<double> rho;
  timed(rec, "ham.density", kLayerReps, [&] {
    rho = ham::compute_density(setup, h.fft_dense(), psi_local, occ_local, comm, true,
                               h.options().op_pipeline);
  });
  h.update_density(rho);
  timed(rec, "ham.exchange_rebuild", kLayerReps,
        [&] { h.set_exchange_orbitals(psi_local, occ, bands, comm); });
  CMatrix y;
  timed(rec, "ham.apply", kLayerReps, [&] { h.apply(psi_local, y, comm); });
  timed(rec, "ham.energy", kLayerReps,
        [&] { ham::compute_energy(h, psi_local, occ_local, rho, comm); });

  time_fft(rec, "fft.wfc", setup.wfc_grid);
  time_fft(rec, "fft.dense", setup.dense_grid);

  if (comm.rank() == 0) {
    const std::string path = dir + "/layer_psi.ckpt";
    const auto meta = io::CheckpointMeta::from_setup(setup, psi_full.cols(), 0.0, 0);
    timed(rec, "io.save_psi", kLayerReps, [&] { io::save_wavefunctions(path, meta, psi_full); });
    CMatrix back;
    timed(rec, "io.load_psi", kLayerReps, [&] { io::load_wavefunctions(path, back, &meta); });
    struct stat st {};
    if (::stat(path.c_str(), &st) == 0) rec.value("io.psi_bytes", static_cast<double>(st.st_size));
    std::remove(path.c_str());
  }
}

namespace {

std::vector<double> normed(const Recorder& rec, const Calibrator& cal, Probe p,
                           const std::string& name) {
  std::vector<double> out;
  auto it = rec.intervals.find(name);
  if (it == rec.intervals.end()) return out;
  for (const auto& [t0, t1] : it->second) out.push_back(cal.norm(p, t0, t1));
  return out;
}

}  // namespace

void summarize_layers(const Recorder& rec, const Calibrator& cal, Report& rep) {
  for (const char* name : {"ham.apply", "ham.exchange_rebuild", "ham.density", "ham.energy"})
    rep.metric(std::string(name) + "_s", median(normed(rec, cal, Probe::kFft, name)), "s");
  for (const char* g : {"wfc", "dense"}) {
    const std::string base = std::string("fft.") + g;
    const double t = median(normed(rec, cal, Probe::kFft, base));
    const double n = rec.last(base + "_n");
    rep.metric(base + "_fwd_bwd_s", t, "s");
    // Computed, not counted: 5 N log2 N flops per complex transform, two
    // transforms per timed pair.
    rep.metric(base + "_gflops_computed", t > 0 ? 2.0 * 5.0 * n * std::log2(n) / t * 1e-9 : 0.0,
               "GFLOP/s", "computed 5N*log2(N) per transform");
  }
  rep.metric("io.save_psi_s", median(normed(rec, cal, Probe::kDense, "io.save_psi")), "s");
  rep.metric("io.load_psi_s", median(normed(rec, cal, Probe::kDense, "io.load_psi")), "s");
}

void model_check(const ham::PlanewaveSetup& setup, int nranks, Report& rep) {
  perf::Workload w;
  w.natoms = setup.crystal.n_atoms();
  w.ne = setup.n_bands();
  w.ng = static_cast<double>(setup.n_wfc());
  w.ndense = static_cast<double>(setup.n_dense());
  const double nscf = rep.get("td.scf_iters_per_step");
  w.nscf = std::max(1, static_cast<int>(std::lround(nscf)));
  w.fock_applies = w.nscf + 1;
  perf::SummitModel model(perf::SummitMachine{}, w);
  const perf::ScfBreakdown b = model.scf_breakdown(nranks);
  const double per_scf = b.per_scf();
  struct Row {
    const char* phase;
    double model;
  };
  const Row rows[] = {{"hpsi_fock", b.fock_total()},   {"hpsi_local", b.local_semilocal},
                      {"residual", b.resid_total()},   {"density", b.density_total()},
                      {"anderson", b.anderson_total()}, {"others", b.others}};
  double measured_total = 0.0;
  for (const char* p : {"hpsi_fock", "hpsi_local", "residual", "density", "anderson", "ortho",
                        "others"})
    measured_total += rep.get(std::string("td.phase.") + p + "_s");
  std::ostringstream os;
  os << "model check (perf::SummitModel at ng=" << w.ng << " nb=" << w.ne << " nscf=" << w.nscf
     << " ranks=" << nranks << "; diagnostic, no gate)";
  rep.line(os.str());
  rep.line("  phase        model share   measured share");
  for (const Row& r : rows) {
    char buf[160];
    const double meas = measured_total > 0
                            ? rep.get(std::string("td.phase.") + r.phase + "_s") / measured_total
                            : 0.0;
    std::snprintf(buf, sizeof buf, "  %-12s %10.3f %16.3f", r.phase, r.model / per_scf, meas);
    rep.line(buf);
  }
  const perf::StepCommBreakdown c = model.comm_breakdown(nranks);
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "  model comm s/step: alltoallv %.3g allreduce %.3g bcast %.3g allgatherv %.3g; "
                "model Fock bcast bytes/step %.4g (sp)",
                c.alltoallv, c.allreduce, c.bcast, c.allgatherv,
                w.fock_bcast_bytes_per_rank(true) * w.fock_applies);
  rep.line(buf);
  std::snprintf(buf, sizeof buf,
                "  measured comm bytes/step: alltoallv %.4g allreduce %.4g bcast %.4g "
                "allgatherv %.4g",
                rep.get("comm.alltoallv.bytes_per_step"), rep.get("comm.allreduce.bytes_per_step"),
                rep.get("comm.bcast.bytes_per_step"), rep.get("comm.allgatherv.bytes_per_step"));
  rep.line(buf);
}

}  // namespace perfbench
