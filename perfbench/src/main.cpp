// perfbench: the repository's end-to-end benchmark binary.
//
//   perfbench --workload trajectory|ranks2|served --seed N --seconds S --trace 0|1
//
// Prints a human-readable table and, as the last line, one JSON object
// {"correct", "attempted", "failed", "metrics"} holding every metric the
// run measured (perfbench/run.py selects the end-to-end or per-layer set).
// Per-run files live under .bench_run/<pid> in the working directory and
// are removed at exit.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::Args;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload trajectory|ranks2|served --seed N "
               "--seconds S --trace 0|1\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--rank") a.rank = std::stoi(v);
    else if (k == "--core") a.core = std::stoi(v);
    else if (k == "--rendezvous") a.rendezvous = v;
    else if (k == "--out") a.out = v;
    else if (k == "--t-spawn") a.t_spawn = std::stod(v);
    else if (k == "--setup-only") a.setup_only = v == "1";
    else usage(("unknown option " + k).c_str());
  }
  if (a.workload != "trajectory" && a.workload != "ranks2" && a.workload != "served")
    usage("unknown workload");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  Args a = parse(argc, argv);
  if (a.rank >= 0) {
    a.run_dir = std::filesystem::path(a.out).parent_path().string();
    return perfbench::rank_main(a);
  }
  // Relative, so unix socket paths stay short wherever the checkout lives.
  a.run_dir = ".bench_run/" + std::to_string(::getpid());
  std::filesystem::create_directories(a.run_dir);

  perfbench::Report rep;
  int code = 0;
  try {
    std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", a.workload.c_str(),
                static_cast<unsigned long long>(a.seed), a.seconds, a.trace ? 1 : 0);
    if (a.workload == "trajectory") perfbench::run_trajectory(a, rep);
    else if (a.workload == "ranks2") perfbench::run_ranks2(a, rep);
    else perfbench::run_served(a, rep);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    code = 1;
  }
  std::error_code ec;
  std::filesystem::remove_all(a.run_dir, ec);
  std::filesystem::remove(".bench_run", ec);  // only if no other run is using it
  if (code == 0) rep.print();
  return code;
}
