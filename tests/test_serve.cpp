#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/simulation.hpp"
#include "io/checkpoint.hpp"
#include "serve/client.hpp"
#include "serve/gs_cache.hpp"
#include "serve/job_engine.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "serve_test_util.hpp"

namespace pwdft {
namespace {

using serve_test::CkptDir;
using serve_test::expect_traces_identical;
using serve_test::solo_trace;
using serve_test::tiny_job;

/// Polls until the job reports kRunning (its worker started).
void wait_until_running(serve::JobEngine& engine, serve::JobId id) {
  while (engine.status(id).state != serve::JobState::kRunning)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
}

// The tentpole acceptance test: >= 4 concurrent mixed jobs (SCF probe,
// absorption kick, laser run, quiescent propagation) co-scheduled on the
// shared pool, every trajectory bit-identical to its solo run.
TEST(JobEngine, ConcurrentMixedTenantsMatchSoloRunsBitwise) {
  const auto spec_abs = tiny_job("abs", serve::JobKind::kAbsorption, 2);
  auto spec_laser = tiny_job("laser", serve::JobKind::kLaser, 2);
  spec_laser.field.laser_e0 = 0.05;
  auto spec_quiet = tiny_job("quiet", serve::JobKind::kAbsorption, 1);
  spec_quiet.field.kick = {0.0, 0.0, 0.0};

  const auto ref_abs = solo_trace(spec_abs);
  const auto ref_laser = solo_trace(spec_laser);
  const auto ref_quiet = solo_trace(spec_quiet);

  CkptDir dir(::testing::UnitTest::GetInstance()->current_test_info()->name());
  serve::JobEngineOptions eopt;
  eopt.max_running = 4;
  eopt.checkpoint_dir = dir.path;
  serve::JobEngine engine(eopt);
  const auto id_scf = engine.submit(tiny_job("scf", serve::JobKind::kScf, 0));
  const auto id_abs = engine.submit(spec_abs);
  const auto id_laser = engine.submit(spec_laser);
  const auto id_quiet = engine.submit(spec_quiet);
  ASSERT_TRUE(id_scf.ok() && id_abs.ok() && id_laser.ok() && id_quiet.ok());
  engine.wait_all();

  const auto scf = engine.wait(id_scf.id);
  ASSERT_EQ(scf.state, serve::JobState::kDone) << scf.message;
  EXPECT_TRUE(std::isfinite(scf.scf_energy));
  EXPECT_LT(scf.scf_energy, 0.0);

  const auto abs = engine.wait(id_abs.id);
  ASSERT_EQ(abs.state, serve::JobState::kDone) << abs.message;
  expect_traces_identical(abs.trace, ref_abs, "absorption");

  const auto laser = engine.wait(id_laser.id);
  ASSERT_EQ(laser.state, serve::JobState::kDone) << laser.message;
  expect_traces_identical(laser.trace, ref_laser, "laser");

  const auto quiet = engine.wait(id_quiet.id);
  ASSERT_EQ(quiet.state, serve::JobState::kDone) << quiet.message;
  expect_traces_identical(quiet.trace, ref_quiet, "quiet");
}

// The crash-restart acceptance test: kill a job mid-propagation, resume it
// from its snapshot, and require the stitched trajectory bit-identical to
// the uninterrupted run.
TEST(JobEngine, KillMidRunThenResumeIsBitIdentical) {
  auto spec = tiny_job("victim", serve::JobKind::kLaser, 3);
  spec.field.laser_e0 = 0.05;
  spec.checkpoint_every = 1;
  const auto ref = solo_trace(spec);

  CkptDir dir(::testing::UnitTest::GetInstance()->current_test_info()->name());
  serve::JobEngineOptions eopt;
  eopt.checkpoint_dir = dir.path;
  serve::JobEngine engine(eopt);

  // A second tenant runs across the kill/resume so the victim is always
  // co-scheduled, never alone on the pool.
  const auto id_bg = engine.submit(tiny_job("bg", serve::JobKind::kAbsorption, 2));

  const auto id = engine.submit(spec);
  ASSERT_TRUE(id.ok()) << id.message;
  // Kill at the first step boundary after the request lands: the job dies
  // mid-trajectory with only its checkpoint to continue from.
  EXPECT_EQ(engine.preempt(id.id), serve::ErrorCode::kOk);
  auto killed = engine.wait(id.id);
  ASSERT_EQ(killed.state, serve::JobState::kPreempted) << killed.message;
  EXPECT_LT(killed.steps_done, 3u);

  EXPECT_TRUE(engine.resume(id.id).ok());
  const auto done = engine.wait(id.id);
  ASSERT_EQ(done.state, serve::JobState::kDone) << done.message;
  EXPECT_EQ(done.steps_done, 3u);
  expect_traces_identical(done.trace, ref, "kill+resume");

  const auto bg = engine.wait(id_bg.id);
  ASSERT_EQ(bg.state, serve::JobState::kDone) << bg.message;
}

TEST(JobEngine, PreemptedBeforeStartResumesFromScratch) {
  auto spec = tiny_job("early", serve::JobKind::kAbsorption, 1);
  const auto ref = solo_trace(spec);

  CkptDir dir(::testing::UnitTest::GetInstance()->current_test_info()->name());
  serve::JobEngineOptions eopt;
  eopt.max_running = 1;
  eopt.checkpoint_dir = dir.path;
  serve::JobEngine engine(eopt);
  // A hog occupies the single slot so "early" stays queued.
  const auto id_hog = engine.submit(tiny_job("hog", serve::JobKind::kAbsorption, 1));
  const auto id = engine.submit(spec);
  EXPECT_EQ(engine.preempt(id.id), serve::ErrorCode::kOk);
  const auto pre = engine.wait(id.id);
  EXPECT_EQ(pre.state, serve::JobState::kPreempted);
  EXPECT_TRUE(pre.trace.empty());

  EXPECT_TRUE(engine.resume(id.id).ok());
  const auto done = engine.wait(id.id);
  ASSERT_EQ(done.state, serve::JobState::kDone) << done.message;
  expect_traces_identical(done.trace, ref, "requeued");
  engine.wait(id_hog.id);
}

// Scheduler preemption: a starved higher-priority submission evicts the
// running lower-priority job at its next step boundary; the victim is
// requeued, resumes from its snapshot, and still ends bit-identical.
TEST(JobEngine, HighPrioritySubmissionEvictsCheapestLowerPriorityRunner) {
  auto victim = tiny_job("victim", serve::JobKind::kLaser, 3);
  victim.field.laser_e0 = 0.05;
  victim.checkpoint_every = 1;
  const auto ref = solo_trace(victim);

  auto urgent = tiny_job("urgent", serve::JobKind::kAbsorption, 1);
  urgent.priority = 5;
  const auto ref_urgent = solo_trace(urgent);

  CkptDir dir(::testing::UnitTest::GetInstance()->current_test_info()->name());
  serve::JobEngineOptions eopt;
  eopt.max_running = 1;
  eopt.checkpoint_dir = dir.path;
  serve::JobEngine engine(eopt);

  const auto id_victim = engine.submit(victim);
  ASSERT_TRUE(id_victim.ok()) << id_victim.message;
  wait_until_running(engine, id_victim.id);
  // All slots busy + a strictly-higher-priority job queued -> the scheduler
  // marks the runner for eviction at its next step boundary.
  const auto id_urgent = engine.submit(urgent);
  ASSERT_TRUE(id_urgent.ok()) << id_urgent.message;
  engine.wait_all();

  const auto u = engine.wait(id_urgent.id);
  ASSERT_EQ(u.state, serve::JobState::kDone) << u.message;
  expect_traces_identical(u.trace, ref_urgent, "urgent");

  const auto v = engine.wait(id_victim.id);
  ASSERT_EQ(v.state, serve::JobState::kDone) << v.message;
  EXPECT_GE(v.preemptions, 1u);  // the eviction actually happened
  EXPECT_EQ(v.steps_done, 3u);
  expect_traces_identical(v.trace, ref, "evicted victim");
}

// Satellite regression pin: resume-by-name is idempotent. Resuming a job
// that is queued or running must NOT start a second run against the same
// checkpoint files; resuming a done job is a no-op kOk.
TEST(JobEngine, ResumeByNameIsIdempotent) {
  CkptDir dir(::testing::UnitTest::GetInstance()->current_test_info()->name());
  serve::JobEngineOptions eopt;
  eopt.max_running = 1;
  eopt.checkpoint_dir = dir.path;
  serve::JobEngine engine(eopt);

  auto spec = tiny_job("runner", serve::JobKind::kLaser, 2);
  spec.field.laser_e0 = 0.05;
  spec.checkpoint_every = 1;
  const auto id = engine.submit(spec);
  ASSERT_TRUE(id.ok()) << id.message;

  // Queued-behind job for the cancelled-resume case below.
  const auto id_q = engine.submit(tiny_job("doomed", serve::JobKind::kAbsorption, 1));
  ASSERT_TRUE(id_q.ok());

  wait_until_running(engine, id.id);
  const auto while_running = engine.resume(std::string("runner"));
  EXPECT_EQ(while_running.error, serve::ErrorCode::kAlreadyActive);
  EXPECT_EQ(while_running.id, id.id);
  const auto queued = engine.resume(std::string("doomed"));
  EXPECT_EQ(queued.error, serve::ErrorCode::kAlreadyActive);

  EXPECT_EQ(engine.cancel(id_q.id), serve::ErrorCode::kOk);
  EXPECT_EQ(engine.wait(id_q.id).state, serve::JobState::kCancelled);
  EXPECT_EQ(engine.resume(std::string("doomed")).error, serve::ErrorCode::kNotResumable);

  const auto done = engine.wait(id.id);
  ASSERT_EQ(done.state, serve::JobState::kDone) << done.message;
  const auto again = engine.resume(std::string("runner"));
  EXPECT_EQ(again.error, serve::ErrorCode::kOk);
  EXPECT_EQ(again.id, id.id);
  // No-op: still done, nothing requeued.
  EXPECT_EQ(engine.status(id.id).state, serve::JobState::kDone);
  EXPECT_EQ(engine.resume(std::string("nope")).error, serve::ErrorCode::kUnknownJob);
}

TEST(JobEngine, CancelDeletesCheckpointFilesAndIsTerminal) {
  CkptDir dir(::testing::UnitTest::GetInstance()->current_test_info()->name());
  serve::JobEngineOptions eopt;
  eopt.max_running = 1;
  eopt.checkpoint_dir = dir.path;
  serve::JobEngine engine(eopt);
  const auto id_hog = engine.submit(tiny_job("hog", serve::JobKind::kScf, 0));
  const auto id = engine.submit(tiny_job("gone", serve::JobKind::kAbsorption, 1));
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(std::filesystem::exists(dir.path + "/gone.spec.ckpt"));
  EXPECT_EQ(engine.cancel(id.id), serve::ErrorCode::kOk);
  EXPECT_EQ(engine.wait(id.id).state, serve::JobState::kCancelled);
  EXPECT_FALSE(std::filesystem::exists(dir.path + "/gone.spec.ckpt"));
  EXPECT_EQ(engine.cancel(id.id), serve::ErrorCode::kOk);  // idempotent
  engine.wait(id_hog.id);
}

TEST(JobEngine, CostModelGatesAdmissionButNeverStarves) {
  // Larger cells cost more in the calibrated model.
  const double small = serve::JobEngine::cost_estimate(
      tiny_job("a", serve::JobKind::kAbsorption, 2));
  auto big_spec = tiny_job("b", serve::JobKind::kAbsorption, 2);
  big_spec.sim.cells[0] = 2;
  const double big = serve::JobEngine::cost_estimate(big_spec);
  EXPECT_GT(big, small);
  // More steps cost proportionally more.
  EXPECT_EQ(serve::JobEngine::cost_estimate(tiny_job("c", serve::JobKind::kAbsorption, 4)),
            2.0 * serve::JobEngine::cost_estimate(tiny_job("c", serve::JobKind::kAbsorption, 2)));

  // A budget below any single job's cost still runs everything (one at a
  // time), and results are unchanged.
  auto spec = tiny_job("solo-budget", serve::JobKind::kAbsorption, 1);
  const auto ref = solo_trace(spec);
  CkptDir dir(::testing::UnitTest::GetInstance()->current_test_info()->name());
  serve::JobEngineOptions eopt;
  eopt.max_running = 4;
  eopt.cost_budget = small / 1e6;
  eopt.checkpoint_dir = dir.path;
  serve::JobEngine engine(eopt);
  const auto id1 = engine.submit(spec);
  const auto id2 = engine.submit(tiny_job("other", serve::JobKind::kScf, 0));
  engine.wait_all();
  const auto s1 = engine.wait(id1.id);
  ASSERT_EQ(s1.state, serve::JobState::kDone) << s1.message;
  expect_traces_identical(s1.trace, ref, "budgeted");
  EXPECT_EQ(engine.wait(id2.id).state, serve::JobState::kDone);
}

// The api_redesign pin: every rejection is a typed ErrorCode, not an
// exception — in-process callers see exactly what remote clients see.
TEST(JobEngine, RejectionsAreTypedErrorCodes) {
  CkptDir dir(::testing::UnitTest::GetInstance()->current_test_info()->name());
  serve::JobEngineOptions eopt;
  eopt.checkpoint_dir = dir.path;
  serve::JobEngine engine(eopt);
  auto spec = tiny_job("dup", serve::JobKind::kScf, 0);
  const auto id = engine.submit(spec);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(engine.submit(spec).error, serve::ErrorCode::kDuplicateName);
  EXPECT_EQ(engine.status(99).error, serve::ErrorCode::kUnknownJob);
  EXPECT_EQ(engine.preempt(99), serve::ErrorCode::kUnknownJob);
  EXPECT_EQ(engine.cancel(99), serve::ErrorCode::kUnknownJob);
  EXPECT_EQ(engine.resume(static_cast<serve::JobId>(99)).error, serve::ErrorCode::kUnknownJob);
  serve::JobSpec unnamed;
  EXPECT_EQ(engine.submit(unnamed).error, serve::ErrorCode::kInvalidSpec);
  engine.wait(id.id);
}

// --- ground-state cache ------------------------------------------------------

/// The cache tests' system: tiny_sim at a lower cutoff with a looser, still
/// converged hybrid SCF. Hit/miss identity does not depend on how tightly
/// the SCF converges, and these tests run many ground states.
serve::JobSpec gs_job(const std::string& name, serve::JobKind kind, int steps) {
  auto spec = tiny_job(name, kind, steps);
  spec.sim.ecut = 2.0;
  spec.sim.scf.tol_rho = 1e-5;
  spec.sim.scf.hybrid_outer_max = 2;
  return spec;
}

/// A job alone on a fresh engine: its ground state is always a cache miss.
serve::JobStatus fresh_engine_run(const serve::JobSpec& spec) {
  CkptDir dir(("fresh_" + spec.name).c_str());
  serve::JobEngineOptions eopt;
  eopt.checkpoint_dir = dir.path;
  serve::JobEngine engine(eopt);
  const auto id = engine.submit(spec);
  EXPECT_TRUE(id.ok()) << id.message;
  const auto s = engine.wait(id.id);
  EXPECT_EQ(engine.ground_states_computed(), 1u);
  return s;
}

/// Jobs of every kind sharing one ground-state spec on one engine match
/// their own runs on fresh engines bitwise — trace and scf_energy — with
/// one SCF for the whole set. `use_ace` selects the exchange path (ACE
/// refreshed at every registration, the cacheable ACE cadence); the direct
/// path also runs a job that records no energies, so no per-sample rebuild
/// of density and exchange precedes its first step, and an MTS job.
void expect_hits_match_fresh_engine_runs(bool use_ace, const std::string& tag) {
  auto make = [&](const std::string& name, serve::JobKind kind, int steps) {
    auto spec = gs_job(tag + name, kind, steps);
    spec.sim.use_ace = use_ace;
    spec.sim.ace_refresh = 1;
    return spec;
  };
  std::vector<serve::JobSpec> specs = {make("abs", serve::JobKind::kAbsorption, 2),
                                       make("laser", serve::JobKind::kLaser, 2),
                                       make("scf", serve::JobKind::kScf, 0)};
  specs[1].field.laser_e0 = 0.05;
  if (!use_ace) {
    specs.push_back(make("kick-y", serve::JobKind::kAbsorption, 2));
    specs.back().field.kick = {0.0, 2.0e-3, 0.0};
    specs.back().record_energy = false;
    // MTS (admitted without checkpoints): step 2 reuses the exchange
    // operator step 1 froze.
    specs.push_back(make("mts", serve::JobKind::kAbsorption, 2));
    specs.back().ptcn.mts_interval = 2;
    specs.back().checkpoint_every = 0;
  }

  // The misses run at once, each on its own engine: tenants racing for the
  // pool stay bit-identical (docs/threading.md).
  std::vector<std::future<serve::JobStatus>> misses;
  for (const auto& spec : specs)
    if (spec.kind != serve::JobKind::kScf)
      misses.push_back(std::async(std::launch::async, fresh_engine_run, spec));
  std::vector<serve::JobStatus> refs;
  std::size_t next_miss = 0;
  for (const auto& spec : specs) {
    if (spec.kind == serve::JobKind::kScf) {
      // A kScf job's whole result is its scf_energy, which every miss of
      // the spec computes identically: the absorption miss is its reference.
      serve::JobStatus scf_ref = refs.front();
      scf_ref.trace.clear();
      refs.push_back(scf_ref);
      continue;
    }
    refs.push_back(misses[next_miss++].get());
    ASSERT_EQ(refs.back().state, serve::JobState::kDone) << refs.back().message;
  }

  CkptDir dir(("hits_" + tag).c_str());
  serve::JobEngineOptions eopt;
  eopt.max_running = 2;
  eopt.checkpoint_dir = dir.path;
  serve::JobEngine engine(eopt);
  std::vector<serve::JobId> ids;
  for (const auto& spec : specs) {
    const auto r = engine.submit(spec);
    ASSERT_TRUE(r.ok()) << r.message;
    ids.push_back(r.id);
  }
  engine.wait_all();
  EXPECT_EQ(engine.ground_states_computed(), 1u);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto s = engine.wait(ids[i]);
    ASSERT_EQ(s.state, serve::JobState::kDone) << s.message;
    EXPECT_EQ(s.scf_energy, refs[i].scf_energy) << specs[i].name;
    expect_traces_identical(s.trace, refs[i].trace, specs[i].name);
  }
}

TEST(GroundStateCache, HitsMatchFreshEngineRunsBitwiseDirectExchange) {
  expect_hits_match_fresh_engine_runs(/*use_ace=*/false, "direct-");
}

TEST(GroundStateCache, HitsMatchFreshEngineRunsBitwiseAce) {
  expect_hits_match_fresh_engine_runs(/*use_ace=*/true, "ace-");
}

TEST(GroundStateCache, SimultaneousSubmissionsComputeOneGroundState) {
  CkptDir dir(::testing::UnitTest::GetInstance()->current_test_info()->name());
  serve::JobEngineOptions eopt;
  eopt.max_running = 2;
  eopt.checkpoint_dir = dir.path;
  serve::JobEngine engine(eopt);
  auto a = gs_job("twin-a", serve::JobKind::kAbsorption, 1);
  auto b = gs_job("twin-b", serve::JobKind::kAbsorption, 1);
  a.sim.hybrid = b.sim.hybrid = false;  // single flight does not care
  a.sim.seed = b.sim.seed = 7;
  const auto ida = engine.submit(a);
  const auto idb = engine.submit(b);
  ASSERT_TRUE(ida.ok() && idb.ok());
  // Both are admitted at once (two slots): the second waits on the first's
  // SCF instead of running its own.
  const auto sa = engine.wait(ida.id);
  const auto sb = engine.wait(idb.id);
  ASSERT_EQ(sa.state, serve::JobState::kDone) << sa.message;
  ASSERT_EQ(sb.state, serve::JobState::kDone) << sb.message;
  EXPECT_EQ(engine.ground_states_computed(), 1u);
  EXPECT_EQ(sa.scf_energy, sb.scf_energy);
  expect_traces_identical(sa.trace, sb.trace, "twins");
}

// Hit == miss is pinned above; here the uninterrupted reference is itself a
// hit on the same engine, so the whole test costs one SCF.
TEST(GroundStateCache, HitJobPreemptedThenResumedMatchesUninterruptedRun) {
  auto spec = gs_job("hit-victim", serve::JobKind::kLaser, 3);
  spec.field.laser_e0 = 0.05;
  spec.checkpoint_every = 1;
  auto uninterrupted = spec;
  uninterrupted.name = "hit-ref";

  CkptDir dir(::testing::UnitTest::GetInstance()->current_test_info()->name());
  serve::JobEngineOptions eopt;
  eopt.checkpoint_dir = dir.path;
  serve::JobEngine engine(eopt);
  const auto warm = engine.submit(gs_job("warm", serve::JobKind::kScf, 0));
  ASSERT_EQ(engine.wait(warm.id).state, serve::JobState::kDone);
  const auto ref_id = engine.submit(uninterrupted);
  ASSERT_TRUE(ref_id.ok()) << ref_id.message;
  const auto ref_status = engine.wait(ref_id.id);
  ASSERT_EQ(ref_status.state, serve::JobState::kDone) << ref_status.message;
  const auto& ref = ref_status.trace;
  ASSERT_EQ(ref.size(), 4u);

  const auto id = engine.submit(spec);  // a free slot: running at once, a hit
  ASSERT_TRUE(id.ok()) << id.message;
  EXPECT_EQ(engine.preempt(id.id), serve::ErrorCode::kOk);
  const auto killed = engine.wait(id.id);
  ASSERT_EQ(killed.state, serve::JobState::kPreempted) << killed.message;
  EXPECT_LT(killed.steps_done, 3u);
  EXPECT_TRUE(std::filesystem::exists(dir.path + "/hit-victim.gs.ckpt"));

  EXPECT_TRUE(engine.resume(id.id).ok());
  const auto done = engine.wait(id.id);
  ASSERT_EQ(done.state, serve::JobState::kDone) << done.message;
  EXPECT_EQ(done.steps_done, 3u);
  expect_traces_identical(done.trace, ref, "hit+preempt+resume");
  EXPECT_EQ(engine.ground_states_computed(), 1u);
}

TEST(GroundStateCache, EveryPutSimFieldChangesTheKey) {
  const core::SimulationOptions base = gs_job("base", serve::JobKind::kScf, 0).sim;
  auto key_of = [](const core::SimulationOptions& sim) {
    serve::wire::PutBuf b;
    serve::wire::put_sim(b, sim);
    return b.bytes();
  };
  // One mutator per put_sim field. The size pin below fails when a field
  // is added to the codec without a mutator here.
  const std::vector<std::function<void(core::SimulationOptions&)>> mutators = {
      [](auto& s) { s.cells[0] = 2; },
      [](auto& s) { s.cells[1] = 2; },
      [](auto& s) { s.cells[2] = 2; },
      [](auto& s) { s.ecut += 0.5; },
      [](auto& s) { s.dense_factor = 2; },
      [](auto& s) { s.hybrid = !s.hybrid; },
      [](auto& s) { s.nonlocal = !s.nonlocal; },
      [](auto& s) { s.use_ace = !s.use_ace; },
      [](auto& s) { s.ace_refresh += 3; },
      [](auto& s) { s.seed += 1; },
      [](auto& s) { s.hybrid_params.enabled = !s.hybrid_params.enabled; },
      [](auto& s) { s.hybrid_params.alpha *= 1.5; },
      [](auto& s) { s.hybrid_params.omega *= 1.5; },
      [](auto& s) { s.scf.max_iter += 1; },
      [](auto& s) { s.scf.tol_rho *= 0.5; },
      [](auto& s) { s.scf.mix_beta *= 0.5; },
      [](auto& s) { s.scf.anderson_depth += 1; },
      [](auto& s) { s.scf.lobpcg.max_iter += 1; },
      [](auto& s) { s.scf.lobpcg.tol *= 0.5; },
      [](auto& s) { s.scf.lobpcg.verbose = !s.scf.lobpcg.verbose; },
      [](auto& s) { s.scf.hybrid_outer_max += 1; },
      [](auto& s) { s.scf.hybrid_outer_tol *= 0.5; },
      [](auto& s) { s.scf.verbose = !s.scf.verbose; },
  };
  const auto base_key = key_of(base);
  EXPECT_EQ(base_key.size(), 3 * 4 + 8 + 4 + 1 + 1 + 1 + 4 + 8 + 1 + 8 + 8 + 4 + 8 + 8 + 8 + 4 +
                                 8 + 1 + 4 + 8 + 1u);
  for (std::size_t i = 0; i < mutators.size(); ++i) {
    core::SimulationOptions changed = base;
    mutators[i](changed);
    EXPECT_NE(key_of(changed), base_key) << "mutator " << i;
  }

  // End to end: a changed field is a miss, an unchanged spec a hit.
  CkptDir dir(::testing::UnitTest::GetInstance()->current_test_info()->name());
  serve::JobEngineOptions eopt;
  eopt.checkpoint_dir = dir.path;
  serve::JobEngine engine(eopt);
  auto run = [&](const std::string& name, const core::SimulationOptions& sim) {
    auto spec = gs_job(name, serve::JobKind::kScf, 0);
    spec.sim = sim;
    const auto r = engine.submit(spec);
    ASSERT_TRUE(r.ok()) << r.message;
    ASSERT_EQ(engine.wait(r.id).state, serve::JobState::kDone);
  };
  core::SimulationOptions lda = base;  // the cheapest ground state
  lda.hybrid = false;
  run("base", lda);
  EXPECT_EQ(engine.ground_states_computed(), 1u);
  lda.seed += 1;
  run("seed", lda);
  EXPECT_EQ(engine.ground_states_computed(), 2u);
  lda.seed -= 1;
  run("base-again", lda);
  EXPECT_EQ(engine.ground_states_computed(), 2u);
}

// ACE that keeps projectors across registrations makes the first step
// depend on what the SCF left behind, so such specs never share.
TEST(GroundStateCache, AceWithRefreshCadenceAboveOneBypassesTheCache) {
  CkptDir dir(::testing::UnitTest::GetInstance()->current_test_info()->name());
  serve::JobEngineOptions eopt;
  eopt.max_running = 2;
  eopt.checkpoint_dir = dir.path;
  serve::JobEngine engine(eopt);
  std::vector<serve::JobId> ids;
  for (const char* name : {"stale-1", "stale-2"}) {
    auto spec = gs_job(name, serve::JobKind::kScf, 0);
    spec.sim.use_ace = true;
    spec.sim.ace_refresh = 2;
    const auto r = engine.submit(spec);
    ASSERT_TRUE(r.ok()) << r.message;
    ids.push_back(r.id);
  }
  for (const serve::JobId id : ids) ASSERT_EQ(engine.wait(id).state, serve::JobState::kDone);
  EXPECT_EQ(engine.ground_states_computed(), 2u);  // neither shared nor waited
}

serve::GroundStateCache::Entry fake_entry(std::size_t n, double energy) {
  return {CMatrix(n, 1, Complex{energy, 0.0}), energy};
}

TEST(GroundStateCache, EvictsLeastRecentlyUsedUnderByteBudget) {
  const serve::GroundStateCache::Key ka{1}, kb{2}, kc{3}, kbig{4};
  const std::size_t entry_bytes = 64 * sizeof(Complex) + 1;
  serve::GroundStateCache cache(2 * entry_bytes);
  int computed = 0;
  auto get = [&](const serve::GroundStateCache::Key& k) {
    return cache.get_or_compute(k, [&] {
      ++computed;
      return fake_entry(64, k[0]);
    });
  };
  get(ka);
  get(kb);
  get(ka);  // hit: kb is now the least recently used
  EXPECT_EQ(computed, 2);
  get(kc);  // evicts kb
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.bytes(), 2 * entry_bytes);
  get(ka);
  EXPECT_EQ(computed, 3);
  get(kb);
  EXPECT_EQ(computed, 4);
  // Larger than the whole budget: returned but not retained, and nothing
  // else is evicted for it.
  const auto big = cache.get_or_compute(kbig, [&] { return fake_entry(1024, 9.0); });
  EXPECT_EQ(big->psi.rows(), 1024u);
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_LE(cache.bytes(), 2 * entry_bytes);
}

TEST(GroundStateCache, ConcurrentMissesComputeOnce) {
  serve::GroundStateCache cache;
  const serve::GroundStateCache::Key key{42};
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<int> computed{0};
  auto compute = [&] {
    ++computed;
    released.wait();
    return fake_entry(8, 1.0);
  };
  auto owner = std::async(std::launch::async, [&] { return cache.get_or_compute(key, compute); });
  auto other = std::async(std::launch::async, [&] { return cache.get_or_compute(key, compute); });
  release.set_value();
  const auto a = owner.get();
  const auto b = other.get();
  EXPECT_EQ(computed.load(), 1);
  EXPECT_EQ(a.get(), b.get());
}

TEST(GroundStateCache, FailedComputationIsRetriedByTheNextCaller) {
  serve::GroundStateCache cache;
  const serve::GroundStateCache::Key key{7};
  std::promise<void> claimed, release;
  std::shared_future<void> released = release.get_future().share();
  auto failing = std::async(std::launch::async, [&] {
    return cache.get_or_compute(key, [&]() -> serve::GroundStateCache::Entry {
      claimed.set_value();
      released.wait();
      throw std::runtime_error("scf diverged");
    });
  });
  claimed.get_future().wait();  // the failing caller owns the key
  // Whether this caller waits on the failing owner or arrives after it,
  // it ends up computing the entry itself.
  int computed = 0;
  auto waiter = std::async(std::launch::async, [&] {
    return cache.get_or_compute(key, [&] {
      ++computed;
      return fake_entry(8, 2.0);
    });
  });
  release.set_value();
  EXPECT_THROW(failing.get(), std::runtime_error);
  EXPECT_EQ(waiter.get()->energy, 2.0);
  EXPECT_EQ(computed, 1);
  EXPECT_EQ(cache.entries(), 1u);
}

/// Live threads of this process, from /proc/self/status.
int live_threads() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  return -1;
}

/// Live threads once they drop to `bound`, or after a minute: a handler of
/// a just-closed connection may still be on its way out under load, but
/// leaked threads never leave.
int live_threads_settled(int bound) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  int n = live_threads();
  while (n > bound && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    n = live_threads();
  }
  return n;
}

// Finished jobs and closed connections leave no threads behind: after many
// sequential jobs, each over its own connection, the process runs no more
// threads than before plus one per slot plus one per open connection.
TEST(GroundStateCache, SequentialJobsLeaveNoThreadsBehind) {
  CkptDir dir(::testing::UnitTest::GetInstance()->current_test_info()->name());
  serve::ServerOptions so;
  so.listen = "unix:" + dir.path + "/s.sock";
  so.engine.max_running = 2;
  so.engine.checkpoint_dir = dir.path;
  serve::Server server(so);
  auto run_one = [&](const std::string& name) {
    serve::Client client(server.address());
    auto spec = gs_job(name, serve::JobKind::kScf, 0);
    spec.sim.hybrid = false;  // only the thread count matters here
    const auto r = client.submit(spec);
    ASSERT_TRUE(r.ok()) << r.message;
    ASSERT_EQ(client.wait(r.id).state, serve::JobState::kDone);
  };
  run_one("warm");  // pool workers and the cache entry exist from here on
  const int baseline = live_threads();
  ASSERT_GT(baseline, 0);
  for (int i = 0; i < 12; ++i) {
    serve::Client open(server.address());  // one open connection throughout
    run_one("seq-" + std::to_string(i));
    const int bound = baseline + 2 + 2;
    EXPECT_LE(live_threads_settled(bound), bound) << "after job " << i;
  }
  EXPECT_EQ(server.engine().ground_states_computed(), 1u);
}

TEST(JobSpec, ValidateRejectsHostileAndUnphysicalSpecs) {
  const auto ok = tiny_job("fine.job-1", serve::JobKind::kAbsorption, 2);
  EXPECT_EQ(ok.validate(), serve::ErrorCode::kOk);

  std::string why;
  auto bad = ok;
  bad.name = "../../etc/passwd";  // names key checkpoint files: no traversal
  EXPECT_EQ(bad.validate(&why), serve::ErrorCode::kInvalidSpec);

  bad = ok;
  bad.name = ".hidden";
  EXPECT_EQ(bad.validate(), serve::ErrorCode::kInvalidSpec);

  bad = ok;
  bad.name.clear();
  EXPECT_EQ(bad.validate(), serve::ErrorCode::kInvalidSpec);

  bad = ok;
  bad.name.assign(200, 'x');
  EXPECT_EQ(bad.validate(), serve::ErrorCode::kInvalidSpec);

  bad = ok;
  bad.steps = -1;
  EXPECT_EQ(bad.validate(), serve::ErrorCode::kInvalidSpec);

  bad = ok;
  bad.dt_as = 0.0;
  EXPECT_EQ(bad.validate(), serve::ErrorCode::kInvalidSpec);

  bad = ok;
  bad.sim.cells[1] = 0;
  EXPECT_EQ(bad.validate(), serve::ErrorCode::kInvalidSpec);

  bad = ok;
  bad.sim.ecut = -3.0;
  EXPECT_EQ(bad.validate(), serve::ErrorCode::kInvalidSpec);

  // Checkpointed MTS is rejected: resume is bit-exact only at the default
  // per-step exchange cadence.
  bad = ok;
  bad.ptcn.mts_interval = 4;
  bad.checkpoint_every = 1;
  EXPECT_EQ(bad.validate(&why), serve::ErrorCode::kInvalidSpec);
  bad.checkpoint_every = 0;
  EXPECT_EQ(bad.validate(), serve::ErrorCode::kOk);
}

TEST(JobEngineOptions, FromEnvResolvesEveryServeKnobStrictly) {
  ::setenv("PWDFT_SERVE_SLOTS", "7", 1);
  ::setenv("PWDFT_SERVE_CKPT_DIR", "/tmp/pwdft_serve_env_dir", 1);
  ::setenv("PWDFT_SERVE_RECOVER", "off", 1);
  auto opt = serve::JobEngineOptions::from_env();
  EXPECT_EQ(opt.max_running, 7u);
  EXPECT_EQ(opt.checkpoint_dir, "/tmp/pwdft_serve_env_dir");
  EXPECT_FALSE(opt.recover_on_start);

  ::setenv("PWDFT_SERVE_RECOVER", "on", 1);
  EXPECT_TRUE(serve::JobEngineOptions::from_env().recover_on_start);

  ::setenv("PWDFT_SERVE_SLOTS", "many", 1);
  EXPECT_THROW(serve::JobEngineOptions::from_env(), Error);
  ::setenv("PWDFT_SERVE_SLOTS", "0", 1);
  EXPECT_THROW(serve::JobEngineOptions::from_env(), Error);
  ::setenv("PWDFT_SERVE_SLOTS", "7", 1);
  ::setenv("PWDFT_SERVE_CKPT_DIR", "", 1);
  EXPECT_THROW(serve::JobEngineOptions::from_env(), Error);

  ::unsetenv("PWDFT_SERVE_SLOTS");
  ::unsetenv("PWDFT_SERVE_CKPT_DIR");
  ::unsetenv("PWDFT_SERVE_RECOVER");
  const auto def = serve::JobEngineOptions::from_env();
  EXPECT_EQ(def.max_running, 2u);
  EXPECT_EQ(def.checkpoint_dir, "/tmp");
  EXPECT_FALSE(def.recover_on_start);
}

}  // namespace
}  // namespace pwdft
