#pragma once

/// \file bench.hpp
/// Shared pieces of the end-to-end benchmark: core pinning, the same-core
/// calibration probe that turns raw wall times into machine-normalised
/// seconds, interval recording, percentile helpers, and the result report.
///
/// Normalisation. On a shared host each core drifts between fast and slow
/// phases that last seconds, so one fixed piece of work can take twice as
/// long from one minute to the next. A probe thread pinned to every core a
/// workload runs on times two fixed kernels about every 50 ms with its own
/// thread CPU clock (CLOCK_THREAD_CPUTIME_ID), so the workload's threads
/// taking the core slow the workload but not the yardstick:
///   - Probe::kDense, a small dense multiply-accumulate. The ground state
///     (LOBPCG, Rayleigh-Ritz) slows with it: set-up intervals use it.
///   - Probe::kFft, a complex pair product through small 3D FFTs, shaped
///     like the exchange pair solve that dominates a PT-CN step: step
///     intervals use it.
/// The two react differently to a slow phase, and each tracks its own part
/// of the workload far better than the other does. A thread's CPU clock
/// stops while the hypervisor runs another guest on the core (steal time),
/// so the probe thread also samples the core's steal counter, and the
/// stolen part of an interval is taken out before scaling. A raw interval
/// [t0, t1] is reported as
///     (t1 - t0 - steal over [t0, t1]) * kRefProbeMs / mean(probe over [t0, t1])
/// i.e. in seconds of a core on which the probe takes kRefProbeMs.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

/// CLOCK_MONOTONIC in seconds: one time base for every process on the host,
/// so rank processes and the calibrating parent agree on intervals.
double now_s();

/// The CPUs this process may run on (sched_getaffinity), ascending.
std::vector<int> allowed_cpus();
/// Restricts the calling thread to `cpus` (threads it creates inherit it).
void pin_this_thread(const std::vector<int>& cpus);

/// Peak resident set of this process in MiB (getrusage ru_maxrss).
double peak_rss_mb();

enum class Probe { kDense = 0, kFft = 1 };

class Calibrator {
 public:
  /// Reference probe time of either kernel. A normalised second is a
  /// second of a core on which the probe takes this long.
  static constexpr double kRefProbeMs = 0.5;
  static constexpr double kPeriodS = 0.05;

  /// How the cores' probes combine over an interval: kMean when the
  /// workload's threads share the cores, kMax when each core runs one rank
  /// of a bulk-synchronous computation (the slowest core sets the pace).
  enum class Combine { kMean, kMax };

  /// Starts one probe thread pinned to each of `cores` and returns once
  /// every core has its first sample.
  explicit Calibrator(std::vector<int> cores, Combine combine = Combine::kMean);
  ~Calibrator();
  Calibrator(const Calibrator&) = delete;
  Calibrator& operator=(const Calibrator&) = delete;

  /// Joins the probe threads (idempotent); samples stay readable.
  void stop();

  /// Mean probe time (ms) over [t0, t1] padded by 1.5 periods on each
  /// side: each core's samples are averaged, then the cores are combined.
  double probe_ms(Probe p, double t0, double t1) const;
  double factor(Probe p, double t0, double t1) const { return kRefProbeMs / probe_ms(p, t0, t1); }
  /// Seconds of [t0, t1] stolen from the cores (combined like the probes).
  double steal_s(double t0, double t1) const;
  /// Normalised length of the interval [t0, t1].
  double norm(Probe p, double t0, double t1) const {
    return std::max(0.0, t1 - t0 - steal_s(t0, t1)) * factor(p, t0, t1);
  }
  /// Mean probe time over everything sampled so far.
  double probe_ms_all(Probe p) const;
  /// Share of the sampled time stolen from the cores.
  double steal_frac_all() const;

 private:
  struct Sample {
    double t = 0.0;         ///< sample midpoint, now_s()
    double ms[2] = {0, 0};  ///< thread CPU time of each kernel
    double steal = 0.0;     ///< the core's cumulative steal time (s)
  };
  void run(std::size_t idx, int core);

  std::vector<int> cores_;
  Combine combine_;
  mutable std::mutex mu_;
  std::vector<std::vector<Sample>> samples_;  // guarded by mu_, one vector per core
  std::atomic<bool> stop_{false};
  std::atomic<bool> failed_{false};  ///< a probe thread could not pin itself
  std::vector<std::thread> threads_;  // declared last: uses every member above
};

/// Named raw intervals and values, in recording order. Rank processes fill
/// one each and hand it to the parent as text (save/load), so every
/// workload is normalised and summarised by the same code.
struct Recorder {
  std::map<std::string, std::vector<std::pair<double, double>>> intervals;
  std::map<std::string, std::vector<double>> values;

  void interval(const std::string& name, double t0, double t1) {
    intervals[name].emplace_back(t0, t1);
  }
  void value(const std::string& name, double v) { values[name].push_back(v); }
  double last(const std::string& name, double fallback = 0.0) const;

  void save(const std::string& path) const;
  static Recorder load(const std::string& path);
};

double median(std::vector<double> v);
/// Linear-interpolated percentile (p in [0, 100]); 0 for an empty input.
double percentile(std::vector<double> v, double p);
double mean(const std::vector<double>& v);

/// Percentile reported as every timing's tail: p90, with the number of
/// samples beyond it printed next to it (at least 10 when n >= 100).
constexpr double kTailPercentile = 90.0;

/// One run's result: metrics by name, human-readable lines, and the
/// attempted/failed/correct verdict, printed as the final JSON line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& note = "");
  /// A normalised timing plus its raw.* twin.
  void timing(const std::string& name, double norm, double raw, const std::string& unit);
  void line(const std::string& text) { lines_.push_back(text); }
  /// Counts one checked operation; a failed check also records why.
  void check(bool ok, const std::string& what);
  void attempts(std::uint64_t n) { attempted_ += n; }
  double get(const std::string& name) const;
  /// Prints the lines, a metric table and the JSON result as the last line.
  void print() const;

 private:
  struct Entry {
    double value;
    std::string unit;
    std::string note;
  };
  std::vector<std::pair<std::string, Entry>> metrics_;
  std::vector<std::string> lines_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace perfbench
