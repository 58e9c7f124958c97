#include "bench.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double now_s() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

namespace {

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Probe::kDense: c += a * b on 32x32 doubles, repeated, in L1/L2.
constexpr int kDenseN = 32;
constexpr int kDenseReps = 64;

struct DenseData {
  std::vector<double> a, b, c;
  DenseData() : a(kDenseN * kDenseN), b(kDenseN * kDenseN), c(kDenseN * kDenseN, 0.0) {
    for (int i = 0; i < kDenseN * kDenseN; ++i) {
      a[i] = 1.0 / (1.0 + i % 7);
      b[i] = 1.0 / (2.0 + i % 5);
    }
  }
};

double dense_kernel(DenseData& s) {
  constexpr int n = kDenseN;
  for (int r = 0; r < kDenseReps; ++r) {
    for (int i = 0; i < n; ++i)
      for (int k = 0; k < n; ++k) {
        const double aik = s.a[i * n + k];
        for (int j = 0; j < n; ++j) s.c[i * n + j] += aik * s.b[k * n + j];
      }
    // Keep c bounded so the values (and the timing) never drift.
    for (double& x : s.c) x *= 0.5;
  }
  return s.c[0];
}

/// Probe::kFft, shaped like the exchange pair solve: a complex pair product
/// on an 8x8x8 grid, a 3D FFT (radix-2 passes along each axis), a pointwise
/// kernel multiply, the inverse FFT, and an accumulation.
constexpr int kProbeN = 8;
constexpr int kProbeReps = 16;
using Cplx = std::complex<double>;

void fft_line(Cplx* d, int stride, const Cplx* w) {
  for (int len = 2; len <= kProbeN; len <<= 1) {
    const int h = len / 2, step = kProbeN / len;
    for (int i = 0; i < kProbeN; i += len)
      for (int j = 0; j < h; ++j) {
        const Cplx u = d[(i + j) * stride], v = d[(i + j + h) * stride] * w[j * step];
        d[(i + j) * stride] = u + v;
        d[(i + j + h) * stride] = u - v;
      }
  }
}

void fft_3d(Cplx* d, const Cplx* w) {
  constexpr int n = kProbeN;
  for (int a = 0; a < n * n; ++a) fft_line(d + a * n, 1, w);
  for (int z = 0; z < n; ++z)
    for (int x = 0; x < n; ++x) fft_line(d + z * n * n + x, n, w);
  for (int a = 0; a < n * n; ++a) fft_line(d + a, n * n, w);
}

struct ProbeData {
  static constexpr int kSize = kProbeN * kProbeN * kProbeN;
  std::vector<Cplx> p, q, d, acc, w, wi;
  std::vector<double> ker;
  ProbeData() : p(kSize), q(kSize), d(kSize), acc(kSize), w(kProbeN / 2), wi(kProbeN / 2), ker(kSize) {
    for (int i = 0; i < kProbeN / 2; ++i) {
      w[i] = std::polar(1.0, -2.0 * M_PI * i / kProbeN);
      wi[i] = std::conj(w[i]);
    }
    for (int i = 0; i < kSize; ++i) {
      p[i] = {std::sin(0.1 * i), std::cos(0.3 * i)};
      q[i] = {std::cos(0.2 * i), std::sin(0.7 * i)};
      ker[i] = 1.0 / (1.0 + i % 17);
    }
  }
};

double fft_kernel(ProbeData& s) {
  constexpr double scale = 1.0 / (double(ProbeData::kSize) * ProbeData::kSize);
  for (int r = 0; r < kProbeReps; ++r) {
    for (int i = 0; i < ProbeData::kSize; ++i) s.d[i] = std::conj(s.p[i]) * s.q[i];
    fft_3d(s.d.data(), s.w.data());
    for (int i = 0; i < ProbeData::kSize; ++i) s.d[i] *= s.ker[i];
    fft_3d(s.d.data(), s.wi.data());
    for (int i = 0; i < ProbeData::kSize; ++i) s.acc[i] += s.d[i] * s.p[i] * scale;
  }
  // Keep acc bounded so the values (and the timing) never drift.
  for (Cplx& x : s.acc) x *= 0.5;
  return s.acc[5].real();
}

/// Cumulative steal time of `cpu` in seconds, from /proc/stat (0 where the
/// counter is not available).
double steal_seconds(int cpu) {
  static const double tick = 1.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
  std::ifstream f("/proc/stat");
  const std::string tag = "cpu" + std::to_string(cpu);
  std::string line;
  while (std::getline(f, line)) {
    std::istringstream is(line);
    std::string name;
    is >> name;
    if (name != tag) continue;
    unsigned long long v[8] = {};  // user nice system idle iowait irq softirq steal
    for (auto& x : v) is >> x;
    return is ? static_cast<double>(v[7]) * tick : 0.0;
  }
  return 0.0;
}

}  // namespace

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) throw std::runtime_error("sched_getaffinity");
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

void pin_this_thread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  // pid 0 = the calling thread only.
  if (sched_setaffinity(0, sizeof(set), &set) != 0) throw std::runtime_error("sched_setaffinity");
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// --- Calibrator ------------------------------------------------------------

Calibrator::Calibrator(std::vector<int> cores, Combine combine)
    : cores_(std::move(cores)), combine_(combine), samples_(cores_.size()) {
  for (std::size_t i = 0; i < cores_.size(); ++i)
    threads_.emplace_back([this, i] {
      try {
        run(i, cores_[i]);
      } catch (const std::exception&) {
        failed_.store(true);
      }
    });
  for (;;) {
    if (failed_.load()) {
      stop();
      throw std::runtime_error("calibration probe could not start on its core");
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (std::all_of(samples_.begin(), samples_.end(), [](const auto& s) { return !s.empty(); }))
        break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

Calibrator::~Calibrator() { stop(); }

void Calibrator::stop() {
  stop_.store(true);
  for (auto& t : threads_)
    if (t.joinable()) t.join();
}

void Calibrator::run(std::size_t idx, int core) {
  pin_this_thread({core});
  DenseData dense;
  ProbeData fft;
  volatile double sink = 0.0;
  auto next = std::chrono::steady_clock::now();
  while (!stop_.load()) {
    Sample s;
    const double w0 = now_s();
    const double c0 = thread_cpu_s();
    sink = sink + dense_kernel(dense);
    const double c1 = thread_cpu_s();
    sink = sink + fft_kernel(fft);
    const double c2 = thread_cpu_s();
    s.t = 0.5 * (w0 + now_s());
    s.ms[0] = 1e3 * (c1 - c0);
    s.ms[1] = 1e3 * (c2 - c1);
    s.steal = steal_seconds(core);
    {
      std::lock_guard<std::mutex> lock(mu_);
      samples_[idx].push_back(s);
    }
    next += std::chrono::microseconds(static_cast<int>(kPeriodS * 1e6));
    const auto now = std::chrono::steady_clock::now();
    if (next < now) next = now;
    std::this_thread::sleep_until(next);
  }
}

double Calibrator::probe_ms(Probe p, double t0, double t1) const {
  const int k = static_cast<int>(p);
  const double pad = 1.5 * kPeriodS;
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  for (const auto& core : samples_) {
    double sum = 0.0;
    int n = 0;
    for (const auto& s : core)
      if (s.t >= t0 - pad && s.t <= t1 + pad) {
        sum += s.ms[k];
        ++n;
      }
    if (n == 0) {
      // No sample in the window (only at the very edges of a run): the
      // nearest sample stands in.
      const Sample* best = &core.front();
      for (const auto& s : core)
        if (std::abs(s.t - 0.5 * (t0 + t1)) < std::abs(best->t - 0.5 * (t0 + t1))) best = &s;
      sum = best->ms[k];
      n = 1;
    }
    total = combine_ == Combine::kMax ? std::max(total, sum / n) : total + sum / n;
  }
  return combine_ == Combine::kMax ? total : total / static_cast<double>(samples_.size());
}

double Calibrator::steal_s(double t0, double t1) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Cumulative steal at time t, linear between samples, clamped at the ends.
  auto at = [](const std::vector<Sample>& core, double t) {
    if (t <= core.front().t) return core.front().steal;
    if (t >= core.back().t) return core.back().steal;
    const auto hi = std::lower_bound(core.begin(), core.end(), t,
                                     [](const Sample& s, double x) { return s.t < x; });
    const auto lo = hi - 1;
    return lo->steal + (hi->steal - lo->steal) * (t - lo->t) / (hi->t - lo->t);
  };
  double total = 0.0;
  for (const auto& core : samples_) {
    const double s = at(core, t1) - at(core, t0);
    total = combine_ == Combine::kMax ? std::max(total, s) : total + s;
  }
  if (combine_ == Combine::kMean) total /= static_cast<double>(samples_.size());
  return std::clamp(total, 0.0, t1 - t0);
}

double Calibrator::steal_frac_all() const {
  std::lock_guard<std::mutex> lock(mu_);
  double frac = 0.0;
  for (const auto& core : samples_)
    if (core.back().t > core.front().t)
      frac += (core.back().steal - core.front().steal) / (core.back().t - core.front().t);
  return frac / static_cast<double>(samples_.size());
}

double Calibrator::probe_ms_all(Probe p) const {
  const int k = static_cast<int>(p);
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  for (const auto& core : samples_) {
    double sum = 0.0;
    for (const auto& s : core) sum += s.ms[k];
    total += sum / static_cast<double>(core.size());
  }
  return total / static_cast<double>(samples_.size());
}

// --- Recorder --------------------------------------------------------------

double Recorder::last(const std::string& name, double fallback) const {
  auto it = values.find(name);
  return (it == values.end() || it->second.empty()) ? fallback : it->second.back();
}

void Recorder::save(const std::string& path) const {
  std::ofstream f(path + ".tmp");
  f.precision(17);
  for (const auto& [name, iv] : intervals) {
    f << "I " << name;
    for (const auto& [a, b] : iv) f << ' ' << a << ' ' << b;
    f << '\n';
  }
  for (const auto& [name, v] : values) {
    f << "V " << name;
    for (double x : v) f << ' ' << x;
    f << '\n';
  }
  f.close();
  if (!f || std::rename((path + ".tmp").c_str(), path.c_str()) != 0)
    throw std::runtime_error("cannot write " + path);
}

Recorder Recorder::load(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot read " + path);
  Recorder r;
  std::string line;
  while (std::getline(f, line)) {
    std::istringstream is(line);
    std::string kind, name;
    is >> kind >> name;
    if (kind == "I") {
      auto& iv = r.intervals[name];
      double a = 0.0, b = 0.0;
      while (is >> a >> b) iv.emplace_back(a, b);
    } else if (kind == "V") {
      auto& v = r.values[name];
      double x = 0.0;
      while (is >> x) v.push_back(x);
    }
  }
  return r;
}

// --- statistics --------------------------------------------------------------

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

// --- Report ----------------------------------------------------------------

void Report::metric(const std::string& name, double value, const std::string& unit,
                    const std::string& note) {
  if (!std::isfinite(value)) {
    check(false, "metric " + name + " is not finite");
    value = 0.0;
  }
  for (auto& [n, e] : metrics_)
    if (n == name) {
      e = {value, unit, note};
      return;
    }
  metrics_.push_back({name, {value, unit, note}});
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) {
    ++failed_;
    lines_.push_back("CHECK FAILED: " + what);
  }
}

void Report::timing(const std::string& name, double norm, double raw, const std::string& unit) {
  char note[48];
  std::snprintf(note, sizeof note, "raw %.6g", raw);
  metric(name, norm, unit, note);
  metric("raw." + name, raw, unit);
}

double Report::get(const std::string& name) const {
  for (const auto& [n, e] : metrics_)
    if (n == name) return e.value;
  return 0.0;
}

void Report::print() const {
  for (const auto& l : lines_) std::printf("%s\n", l.c_str());
  for (const auto& [name, e] : metrics_)
    std::printf("  %-34s %16.9g %-8s %s\n", name.c_str(), e.value, e.unit.c_str(),
                e.note.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              failed_ == 0 ? "true" : "false", static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  bool first = true;
  for (const auto& [name, e] : metrics_) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}", first ? "" : ", ", name.c_str(),
                e.value, e.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
