#include "scf/scf.hpp"

#include <cmath>
#include <iostream>

#include "common/check.hpp"
#include "common/random.hpp"
#include "ham/density.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "scf/anderson.hpp"

namespace pwdft::scf {

GroundStateSolver::GroundStateSolver(const ham::PlanewaveSetup& setup,
                                     ham::Hamiltonian& hamiltonian)
    : setup_(setup), ham_(hamiltonian) {}

CMatrix GroundStateSolver::initial_guess(std::size_t nbands, std::uint64_t seed) const {
  const std::size_t ng = setup_.n_g();
  PWDFT_CHECK(nbands <= ng, "initial_guess: more bands than planewaves");
  Rng rng(seed);
  CMatrix psi(ng, nbands);
  const auto& g2 = setup_.sphere.g2();
  for (std::size_t j = 0; j < nbands; ++j) {
    for (std::size_t i = 0; i < ng; ++i) {
      // Damp high-frequency components so LOBPCG starts near the low
      // subspace; 1/(1+|G|^2) mirrors the Teter preconditioner shape.
      psi(i, j) = rng.complex_normal() / (1.0 + g2[i]);
    }
  }
  CMatrix s = linalg::overlap(psi, psi);
  linalg::potrf_lower(s);
  linalg::trsm_right_lower_conj(psi, s);
  return psi;
}

ScfResult GroundStateSolver::scf_phase(CMatrix& psi, std::span<const double> occ,
                                       const ScfOptions& opt, int max_iter) {
  par::SerialComm comm;
  ScfResult res;

  std::vector<double> rho =
      ham::compute_density(setup_, ham_.fft_dense(), psi, occ, comm, true,
                           ham_.options().op_pipeline);
  ham_.update_density(rho);

  AndersonMixer mixer(setup_.n_dense(), opt.anderson_depth, opt.mix_beta);

  auto apply = [&](const CMatrix& in, CMatrix& out) {
    out.resize(in.rows(), in.cols());
    ham_.apply(in, out, comm);
  };

  // Exchange orbitals stay frozen within a phase; only the semi-local
  // potential responds to the mixed density.
  for (int it = 0; it < max_iter; ++it) {
    LobpcgResult lr = lobpcg(apply, ham_.kinetic(), psi, opt.lobpcg);
    res.eigenvalues = lr.eigenvalues;

    std::vector<double> rho_out =
        ham::compute_density(setup_, ham_.fft_dense(), psi, occ, comm, true,
                           ham_.options().op_pipeline);
    res.rho_error = ham::density_error(setup_, rho_out, rho);
    res.scf_iterations = it + 1;
    if (opt.verbose) {
      std::cerr << "  scf " << it + 1 << ": drho = " << res.rho_error
                << ", lobpcg res = " << lr.max_residual << "\n";
    }
    if (res.rho_error < opt.tol_rho) {
      res.converged = true;
      rho = std::move(rho_out);
      ham_.update_density(rho);
      break;
    }

    std::vector<double> f(setup_.n_dense());
    for (std::size_t i = 0; i < f.size(); ++i) f[i] = rho_out[i] - rho[i];
    mixer.mix_real(rho, f, rho);
    for (double& v : rho) v = std::max(v, 0.0);
    ham_.update_density(rho);
  }
  return res;
}

ScfResult GroundStateSolver::solve(CMatrix& psi, std::span<const double> occ,
                                   const ScfOptions& opt) {
  par::SerialComm comm;
  par::BlockPartition bands(psi.cols(), 1);

  // Phase 1: converge the semi-local (LDA) problem with exchange off.
  const bool want_hybrid = ham_.hybrid_enabled();
  ham_.set_hybrid_enabled(false);
  ScfResult res = scf_phase(psi, occ, opt, opt.max_iter);

  if (!want_hybrid) {
    std::vector<double> rho = ham::compute_density(setup_, ham_.fft_dense(), psi, occ, comm, true,
                           ham_.options().op_pipeline);
    ham_.update_density(rho);
    res.energy = ham::compute_energy(ham_, psi, occ, rho, comm);
    return res;
  }

  // Phase 2: hybrid outer loop; each outer iteration freezes VX[Phi] and
  // re-solves the inner SCF.
  ham_.set_hybrid_enabled(true);
  double e_prev = 0.0;
  bool have_prev = false;
  for (int outer = 0; outer < opt.hybrid_outer_max; ++outer) {
    // ACE refresh schedule for the ground state: rebuild the projectors at
    // every outer step (the inner LOBPCG phase then amortizes one exact
    // Fock apply over all of its H applications), independent of where the
    // PWDFT_ACE_REFRESH registration cadence happens to stand.
    ham_.request_ace_refresh();
    ham_.set_exchange_orbitals(psi, occ, bands, comm);
    ScfResult inner = scf_phase(psi, occ, opt, std::max(4, opt.max_iter / 4));
    res.scf_iterations += inner.scf_iterations;
    res.eigenvalues = inner.eigenvalues;
    res.rho_error = inner.rho_error;
    res.outer_iterations = outer + 1;

    std::vector<double> rho = ham::compute_density(setup_, ham_.fft_dense(), psi, occ, comm, true,
                           ham_.options().op_pipeline);
    ham_.update_density(rho);
    ham_.set_exchange_orbitals(psi, occ, bands, comm);
    res.energy = ham::compute_energy(ham_, psi, occ, rho, comm);
    if (opt.verbose) {
      std::cerr << "hybrid outer " << outer + 1 << ": E = " << res.energy.total() << "\n";
    }
    if (have_prev && std::abs(res.energy.total() - e_prev) < opt.hybrid_outer_tol) {
      res.converged = true;
      break;
    }
    e_prev = res.energy.total();
    have_prev = true;
  }
  return res;
}

}  // namespace pwdft::scf
