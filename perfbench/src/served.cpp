// The `served` workload: an in-process serve::Server on a unix socket,
// driven as a closed loop by two Clients over a seeded mix of short
// absorption and laser jobs that checkpoint every step.

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <random>
#include <thread>

#include "common/exec.hpp"
#include "scf/scf.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace pwdft;

namespace {

constexpr int kClients = 2;
constexpr std::size_t kSlots = 2;
constexpr int kJobSteps = 12;
/// Initial-guess seeds of the distinct ground-state specs in the mix.
constexpr std::uint64_t kGsSeeds[] = {11, 12, 13};

struct Plan {
  int variant = 0;
  serve::JobKind kind = serve::JobKind::kAbsorption;
  std::string key() const {
    return std::to_string(variant) + (kind == serve::JobKind::kLaser ? "L" : "A");
  }
};

/// Job `j` of client `c`: the ground-state spec is drawn from the seed; the
/// kinds alternate, so every run carries the same share of laser and
/// absorption steps.
Plan draw(std::mt19937_64& rng, int c, int j) {
  Plan p;
  p.variant = static_cast<int>(rng() % std::size(kGsSeeds));
  p.kind = (c + j) % 2 ? serve::JobKind::kLaser : serve::JobKind::kAbsorption;
  return p;
}

serve::JobSpec make_spec(const Plan& p, const std::string& name) {
  serve::JobSpec s;
  s.name = name;
  s.kind = p.kind;
  s.sim = si8_options(kGsSeeds[p.variant]);
  s.dt_as = kDtAs;
  s.steps = kJobSteps;
  s.checkpoint_every = 1;
  return s;
}

struct JobRec {
  std::string key;
  std::string name;
  double t_sub = 0.0, t_sub_ret = 0.0, t_run = -1.0, t_done = 0.0;
  std::vector<std::pair<double, std::uint64_t>> updates;  ///< (time, steps_done)
  serve::JobStatus final;
  bool submitted = false;
};

bool same_trace(const std::vector<td::TimePoint>& a, const std::vector<td::TimePoint>& b) {
  if (a.size() != b.size()) return false;
  auto eq = [](double x, double y) { return std::memcmp(&x, &y, sizeof x) == 0; };
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto &p = a[i], &q = b[i];
    if (!eq(p.t, q.t) || !eq(p.n_excited, q.n_excited) || !eq(p.energy, q.energy) ||
        !eq(p.rho_error, q.rho_error) || !eq(p.mts_drift, q.mts_drift) ||
        p.scf_iterations != q.scf_iterations || p.exchange_refreshed != q.exchange_refreshed)
      return false;
    for (int d = 0; d < 3; ++d)
      if (!eq(p.current[d], q.current[d])) return false;
  }
  return true;
}

double file_size(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<double>(st.st_size) : 0.0;
}

}  // namespace

void run_served(const Args& a, Report& rep) {
  const std::vector<int> cores = pick_cores(2);
  // Every thread the server and engine create inherits both cores; the
  // width-2 pool and the two slots share them.
  pin_this_thread(cores);
  Calibrator cal(cores);
  Recorder rec;
  const std::string ckpt = a.run_dir + "/ckpt";
  ::mkdir(ckpt.c_str(), 0755);
  serve::ServerOptions so;
  so.engine.max_running = kSlots;
  so.engine.checkpoint_dir = ckpt;
  so.engine.recover_on_start = false;

  std::vector<std::mt19937_64> rngs;
  for (int c = 0; c < kClients; ++c) rngs.emplace_back(a.seed * 1000003ULL + c);

  // --- set-up: Server start to the first job's first streamed step -------
  const Plan first = [&] {
    std::mt19937_64 r = rngs[0];
    return draw(r, 0, 0);
  }();
  const int reps = a.trace ? 1 : kSetupReps;
  for (int k = 0; k < reps; ++k) {
    so.listen = "unix:" + a.run_dir + "/setup" + std::to_string(k) + ".sock";
    rep.attempts(1);
    try {
      const double t0 = now_s();
      serve::Server srv(so);
      serve::Client cl(srv.address());
      serve::Client ctl(srv.address());
      const auto sub = cl.submit(make_spec(first, "setup" + std::to_string(k)));
      rep.check(sub.ok(), "setup job submit failed: " + sub.message);
      if (!sub.ok()) continue;
      double t_first = -1.0;
      cl.stream(sub.id, [&](const serve::JobStatus& s) {
        if (t_first < 0 && s.steps_done >= 1) {
          t_first = now_s();
          ctl.cancel(sub.id);  // only the time to the first step is wanted
        }
      });
      rep.check(t_first > 0, "setup job never streamed a step");
      if (t_first > 0) rec.interval("setup", t0, t_first);
      srv.stop();
    } catch (const std::exception& e) {
      rep.check(false, std::string("setup: ") + e.what());
    }
  }

  // --- closed loop -----------------------------------------------------------
  so.listen = "unix:" + a.run_dir + "/loop.sock";
  std::vector<std::vector<JobRec>> jobs(kClients);
  std::vector<std::pair<double, double>> status_iv;
  double t_loop0 = 0.0, t_loop1 = 0.0;
  std::uint64_t graph0 = 0, range0 = 0, graph1 = 0, range1 = 0;
  std::vector<std::string> errors;
  std::mutex err_mu;
  try {
    serve::Server srv(so);
    auto& pool = exec::pool();
    graph0 = pool.graph_jobs();
    range0 = pool.range_jobs();
    std::atomic<long long> last_id{-1};
    std::atomic<bool> done{false};
    t_loop0 = now_s();
    const double t_end = t_loop0 + a.seconds;
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        try {
          serve::Client cl(srv.address());
          for (int j = 0; now_s() < t_end; ++j) {
            JobRec r;
            const Plan p = draw(rngs[c], c, j);
            r.key = p.key();
            char name[32];
            std::snprintf(name, sizeof name, "c%d-j%d", c, j);
            r.name = name;
            r.t_sub = now_s();
            const auto sub = cl.submit(make_spec(p, r.name));
            r.t_sub_ret = now_s();
            r.submitted = sub.ok();
            if (!sub.ok()) {
              jobs[c].push_back(std::move(r));
              continue;
            }
            last_id.store(static_cast<long long>(sub.id));
            if (a.trace) {
              // Queue wait: first status that is no longer queued.
              for (;;) {
                const auto s = cl.status(sub.id);
                if (!s.ok() || s.state != serve::JobState::kQueued) break;
              }
              r.t_run = now_s();
            }
            r.final = cl.stream(sub.id, [&](const serve::JobStatus& s) {
              r.updates.emplace_back(now_s(), s.steps_done);
            });
            r.t_done = now_s();
            jobs[c].push_back(std::move(r));
          }
        } catch (const std::exception& e) {
          std::lock_guard<std::mutex> lock(err_mu);
          errors.push_back(e.what());
        }
      });
    }
    std::thread poller;
    if (a.trace) {
      poller = std::thread([&] {
        try {
          serve::Client pc(srv.address());
          while (!done.load()) {
            const long long id = last_id.load();
            if (id >= 0) {
              const double t0 = now_s();
              pc.status(static_cast<std::size_t>(id));
              status_iv.emplace_back(t0, now_s());
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
          }
        } catch (const std::exception& e) {
          std::lock_guard<std::mutex> lock(err_mu);
          errors.push_back(e.what());
        }
      });
    }
    for (auto& t : threads) t.join();
    done.store(true);
    if (poller.joinable()) poller.join();
    graph1 = pool.graph_jobs();
    range1 = pool.range_jobs();
    srv.stop();
  } catch (const std::exception& e) {
    errors.push_back(e.what());
  }
  for (const auto& e : errors) rep.check(false, "served loop: " + e);
  const double rss = peak_rss_mb();
  cal.stop();

  // --- checks ------------------------------------------------------------------
  std::vector<const JobRec*> all;
  for (const auto& v : jobs)
    for (const auto& r : v) all.push_back(&r);
  std::size_t steps_total = 0, steps_bad = 0, compared = 0;
  std::map<std::string, const JobRec*> reference;
  for (const JobRec* r : all) {
    rep.attempts(1);
    const bool done_ok = r->submitted && r->final.ok() && r->final.state == serve::JobState::kDone;
    rep.check(done_ok, "job " + r->name + " did not end done: " + r->final.message);
    if (!done_ok) continue;
    t_loop1 = std::max(t_loop1, r->t_done);
    for (const auto& tp : r->final.trace) {
      if (tp.scf_iterations == 0) continue;  // the t = 0 sample
      ++steps_total;
      if (!(tp.rho_error < td::PtCnOptions{}.rho_tol)) ++steps_bad;
    }
    auto [it, fresh] = reference.emplace(r->key, r);
    if (!fresh) {
      ++compared;
      rep.check(same_trace(it->second->final.trace, r->final.trace),
                "jobs " + it->second->name + " and " + r->name +
                    " share a spec but their traces differ");
    }
  }
  for (std::size_t i = 0; i < steps_bad; ++i) rep.check(false, "a served PT-CN step did not converge");
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "checks: %zu jobs (%zu distinct specs), %zu trace comparisons of repeated specs, "
                "%zu/%zu steps converged",
                all.size(), reference.size(), compared, steps_total - steps_bad, steps_total);
  rep.line(buf);

  // --- metrics -----------------------------------------------------------------
  std::vector<double> lat_n, lat_r, first_n, first_r, gap_n, gap_r, sub_n, wait_n, share;
  for (const JobRec* r : all) {
    if (!r->submitted || r->final.state != serve::JobState::kDone) continue;
    sub_n.push_back(cal.norm(Probe::kDense, r->t_sub, r->t_sub_ret));
    if (r->t_run >= 0) wait_n.push_back(cal.norm(Probe::kDense, r->t_sub_ret, r->t_run));
    // Up to the first streamed step a job is its ground state (dense
    // probe); after it, PT-CN steps and checkpoints (pair-solve probe).
    double prev_t = -1.0;
    std::uint64_t prev_s = 0;
    for (const auto& [t, s] : r->updates) {
      if (s == 0) continue;
      if (prev_t < 0) {
        first_n.push_back(cal.norm(Probe::kDense, r->t_sub, t));
        first_r.push_back(t - r->t_sub);
        share.push_back((t - r->t_sub) / (r->t_done - r->t_sub));
        lat_n.push_back(first_n.back() + cal.norm(Probe::kFft, t, r->t_done));
        lat_r.push_back(r->t_done - r->t_sub);
      } else if (s > prev_s) {
        gap_n.push_back(cal.norm(Probe::kFft, prev_t, t) / static_cast<double>(s - prev_s));
        gap_r.push_back((t - prev_t) / static_cast<double>(s - prev_s));
      }
      if (prev_t < 0 || s > prev_s) {
        prev_t = t;
        prev_s = s;
      }
    }
  }
  std::vector<double> setup_n, setup_r;
  for (const auto& [t0, t1] : rec.intervals["setup"]) {
    setup_n.push_back(cal.norm(Probe::kDense, t0, t1));
    setup_r.push_back(t1 - t0);
  }
  std::snprintf(buf, sizeof buf,
                "samples: %zu setups, %zu jobs, %zu step gaps (p90 tail has %zu beyond it)",
                setup_n.size(), lat_n.size(), gap_n.size(), gap_n.size() / 10);
  rep.line(buf);
  // The makespan overlaps ground states and steps of both slots: it is
  // scaled by the jobs' own mean normalisation.
  const double span_r = t_loop1 - t_loop0;
  const double span_n = lat_r.empty() ? 0.0 : span_r * mean(lat_n) / mean(lat_r);
  const double fs = static_cast<double>(steps_total) * kDtAs * 1e-3;
  rep.timing("setup_s", median(setup_n), median(setup_r), "s");
  rep.timing("step_s.p50", median(gap_n), median(gap_r), "s");
  rep.timing("step_s.tail", percentile(gap_n, kTailPercentile), percentile(gap_r, kTailPercentile), "s");
  rep.timing("wall_per_fs_s", fs > 0 ? span_n / fs : 0.0, fs > 0 ? span_r / fs : 0.0, "s");
  rep.timing("job_latency_s.p50", median(lat_n), median(lat_r), "s");
  rep.timing("first_step_s.p50", median(first_n), median(first_r), "s");
  rep.timing("jobs_per_min", span_n > 0 ? 60.0 * lat_n.size() / span_n : 0.0,
       span_r > 0 ? 60.0 * lat_n.size() / span_r : 0.0, "1/min");
  rep.metric("peak_rss_mb", rss, "MB");
  rep.metric("calib.dense_probe_ms", cal.probe_ms_all(Probe::kDense), "ms");
  rep.metric("calib.fft_probe_ms", cal.probe_ms_all(Probe::kFft), "ms");
  rep.metric("calib.steal_frac", cal.steal_frac_all(), "frac");

  if (!a.trace) return;
  std::vector<double> status_n;
  for (const auto& [t0, t1] : status_iv) status_n.push_back(cal.norm(Probe::kDense, t0, t1));
  rep.metric("serve.submit_rtt_s", median(sub_n), "s");
  rep.metric("serve.status_rtt_s", median(status_n), "s");
  rep.metric("serve.queue_wait_s", median(wait_n), "s");
  rep.metric("serve.gs_share", median(share), "frac", "share of job latency before its first step");
  const double steps = std::max<double>(1.0, static_cast<double>(steps_total));
  rep.metric("exec.graph_jobs_per_step", static_cast<double>(graph1 - graph0) / steps, "count",
             "pool jobs over the whole loop (ground states included) per step");
  rep.metric("exec.range_jobs_per_step", static_cast<double>(range1 - range0) / steps, "count",
             "pool jobs over the whole loop (ground states included) per step");
  for (const JobRec* r : all)
    if (r->final.state == serve::JobState::kDone) {
      rep.metric("io.ckpt_bytes_per_step",
                 file_size(ckpt + "/" + r->name + ".psi.ckpt") +
                     file_size(ckpt + "/" + r->name + ".trace.ckpt"),
                 "bytes", "psi + trace snapshot of a job's last step");
      break;
    }
  // Layer timings at this workload's configuration (width-2 pool), on a
  // fresh Hamiltonian with exchange registered from the initial guess.
  Calibrator cal2(cores);
  Recorder layers;
  core::Simulation sim(si8_options(kGsSeeds[0]));
  const CMatrix psi = scf::GroundStateSolver(sim.setup(), sim.hamiltonian())
                          .initial_guess(sim.setup().n_bands(), kGsSeeds[0]);
  par::SerialComm comm;
  layer_timings(comm, sim, psi, psi, a.run_dir, layers);
  cal2.stop();
  summarize_layers(layers, cal2, rep);
}

}  // namespace perfbench
