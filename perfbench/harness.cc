#include "harness.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <queue>
#include <unordered_map>

#include <pthread.h>
#include <sched.h>
#include <time.h>

namespace perfbench {

using harmony::json::Value;

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

int Rng::Below(int n) {
  return static_cast<int>(Next() % static_cast<uint64_t>(n));
}

Zipf::Zipf(int n, double s) : cdf_(static_cast<size_t>(n)) {
  double sum = 0;
  for (int k = 0; k < n; ++k) {
    sum += 1.0 / std::pow(k + 1.0, s);
    cdf_[static_cast<size_t>(k)] = sum;
  }
  for (double& c : cdf_) c /= sum;
  cdf_.back() = 1.0;
}

int Zipf::Draw(Rng* rng) const {
  const double u = rng->Uniform();
  return static_cast<int>(std::upper_bound(cdf_.begin(), cdf_.end(), u) -
                          cdf_.begin());
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the smallest sample with at least p% of samples <= it.
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

bool PercentileSupported(size_t n, double p) {
  return static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0 - 1e-9;
}

double HighestSupportedPercentile(size_t n) {
  double best = 0;
  for (double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    if (PercentileSupported(n, p)) best = p;
  }
  return best;
}

double BlockMedianPercentile(const std::vector<double>& samples, size_t block,
                             double p) {
  std::vector<double> tails;
  for (size_t start = 0; block > 0 && start + block <= samples.size();
       start += block) {
    tails.push_back(Percentile(
        std::vector<double>(samples.begin() + static_cast<std::ptrdiff_t>(start),
                            samples.begin() + static_cast<std::ptrdiff_t>(start + block)),
        p));
  }
  return Percentile(tails, 50);
}

MixLatency MixedLatency(const std::vector<std::vector<double>>& by_kind,
                        double p, size_t block) {
  MixLatency out;
  std::vector<double> medians;
  size_t shortest = SIZE_MAX;
  double log_sum = 0;
  for (const std::vector<double>& samples : by_kind) {
    if (samples.empty()) continue;
    medians.push_back(Percentile(samples, 50));
    log_sum += std::log(medians.back());
    shortest = std::min(shortest, samples.size());
  }
  if (medians.empty()) return out;
  out.typical = std::exp(log_sum / static_cast<double>(medians.size()));
  out.block_samples = block * medians.size();
  std::vector<double> tails;
  for (size_t start = 0; block > 0 && start + block <= shortest; start += block) {
    std::vector<double> ratios;
    size_t k = 0;
    for (const std::vector<double>& samples : by_kind) {
      if (samples.empty()) continue;
      for (size_t i = start; i < start + block; ++i) {
        ratios.push_back(samples[i] / medians[k]);
      }
      ++k;
    }
    tails.push_back(Percentile(std::move(ratios), p));
  }
  out.blocks = tails.size();
  out.tail = out.typical * Percentile(tails, 50);
  return out;
}

double KneeRate(const std::vector<double>& rates,
                const std::vector<double>& tail, double limit) {
  // Pool adjacent violators over log latency: blocks of (sum, count).
  std::vector<std::pair<double, int>> blocks;
  for (double t : tail) {
    blocks.push_back({std::log(std::max(t, 1e-9)), 1});
    while (blocks.size() > 1) {
      const auto& last = blocks.back();
      const auto& prev = blocks[blocks.size() - 2];
      if (prev.first / prev.second <= last.first / last.second) break;
      const std::pair<double, int> merged = {prev.first + last.first,
                                             prev.second + last.second};
      blocks.pop_back();
      blocks.back() = merged;
    }
  }
  std::vector<double> smooth;
  for (const auto& [sum, count] : blocks) {
    smooth.insert(smooth.end(), static_cast<size_t>(count), sum / count);
  }
  const double log_limit = std::log(limit);
  if (smooth.empty() || smooth.front() > log_limit) return 0;
  for (size_t i = 1; i < smooth.size(); ++i) {
    if (smooth[i] <= log_limit) continue;
    if (!std::isfinite(smooth[i])) return rates[i - 1];
    const double f = (log_limit - smooth[i - 1]) / (smooth[i] - smooth[i - 1]);
    return rates[i - 1] + f * (rates[i] - rates[i - 1]);
  }
  return rates.back();
}

namespace {

void Flatten(const Value& v, const std::string& prefix,
             std::map<std::string, double>* out) {
  if (v.is_number()) {
    (*out)[prefix] = v.AsDouble();
  } else if (v.is_object()) {
    for (const auto& [key, child] : v.members()) {
      Flatten(child, prefix.empty() ? key : prefix + "." + key, out);
    }
  }
}

}  // namespace

std::map<std::string, double> FlattenCounters(const Value& v) {
  std::map<std::string, double> out;
  Flatten(v, "", &out);
  return out;
}

std::map<std::string, double> CounterDelta(
    const std::map<std::string, double>& before,
    const std::map<std::string, double>& after) {
  std::map<std::string, double> delta;
  for (const auto& [key, value] : after) delta[key] = value - Counter(before, key);
  return delta;
}

void AccumulateCounters(const std::map<std::string, double>& delta,
                        std::map<std::string, double>* total) {
  for (const auto& [key, value] : delta) (*total)[key] += value;
}

double Counter(const std::map<std::string, double>& counters,
               const std::string& key) {
  const auto it = counters.find(key);
  return it == counters.end() ? 0.0 : it->second;
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double UnattributedFrac(double total, const std::vector<double>& layers) {
  if (total <= 0) return 0;
  const double covered = std::accumulate(layers.begin(), layers.end(), 0.0);
  return (total - covered) / total;
}

double SpanLog::P50(const std::string& name) const {
  const auto it = spans_.find(name);
  return it == spans_.end() ? 0.0 : Percentile(it->second, 50);
}

Value SpanLog::Summary() const {
  Value out = Value::Object();
  for (const auto& [name, us] : spans_) {
    Value s = Value::Object();
    s.Set("count", static_cast<int64_t>(us.size()));
    s.Set("p50_us", Percentile(us, 50));
    s.Set("total_us", std::accumulate(us.begin(), us.end(), 0.0));
    out.Set(name, std::move(s));
  }
  return out;
}

void NameTopPercentile(const std::string& name,
                       const std::vector<double>& samples_us, RunResult* result) {
  const double top = HighestSupportedPercentile(samples_us.size());
  result->Named(name + "_n", static_cast<double>(samples_us.size()), "count");
  result->Named(name + "_top_pct", top, "%");
  result->Named(name + "_top_us", top > 0 ? Percentile(samples_us, top) : 0, "us");
}

std::string ResultLine(const RunResult& result) {
  Value metrics = Value::Object();
  for (const Metric& m : result.metrics) {
    Value entry = Value::Object();
    entry.Set("value", m.value);
    entry.Set("unit", m.unit);
    metrics.Set(m.name, std::move(entry));
  }
  Value line = Value::Object();
  line.Set("correct", result.errors.empty() && result.failed == 0);
  line.Set("attempted", result.attempted);
  line.Set("failed", result.failed);
  line.Set("metrics", std::move(metrics));
  return line.Dump();
}

double PeakRssMb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return -1;
}


uint64_t ReferenceWork(uint64_t seed) {
  Rng rng(seed);
  std::priority_queue<std::pair<double, uint32_t>,
                      std::vector<std::pair<double, uint32_t>>, std::greater<>>
      queue;
  std::unordered_map<uint64_t, uint64_t> table;
  uint64_t acc = 0;
  for (uint32_t i = 0; i < 4000; ++i) {
    queue.emplace(rng.Uniform(), i);
    table[rng.Next() & 0xffff] += i;
    if (i % 2 == 1) {
      acc += queue.top().second;
      queue.pop();
    }
  }
  std::vector<double> sorted(4000);
  for (double& x : sorted) x = rng.Uniform();
  std::sort(sorted.begin(), sorted.end());
  for (uint32_t i = 0; i < 8000; ++i) {
    const auto it = table.find(rng.Next() & 0xffff);
    if (it != table.end()) acc += it->second;
  }
  return acc + static_cast<uint64_t>(sorted[2000] * 1e9);
}

namespace {

double ThreadCpuUs() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 + static_cast<double>(ts.tv_nsec) / 1e3;
}

}  // namespace

double ReferenceUs(uint64_t seed) {
  const double c0 = ThreadCpuUs();
  const uint64_t sum = ReferenceWork(seed);
  const double us = ThreadCpuUs() - c0;
  // The checksum's low bit adds at most a nanosecond; it keeps the work.
  return us + static_cast<double>(sum & 1) * 1e-3;
}

void PinThisThread(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  ::pthread_setaffinity_np(::pthread_self(), sizeof(set), &set);
}

std::pair<double, double> StealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  // user nice system idle iowait irq softirq steal (guest time is already
  // part of user and nice).
  double wanted = 0, steal = 0, v = 0;
  for (int i = 0; i < 8 && in >> v; ++i) {
    if (i != 3 && i != 4) wanted += v;
    if (i == 7) steal = v;
  }
  return {steal, wanted};
}

StealMeter::StealMeter()
    : thread_([this]() {
        std::unique_lock<std::mutex> lock(mu_);
        while (!stop_) {
          lock.unlock();
          const auto [steal, wanted] = StealTicks();
          const Clock::time_point at = Clock::now();
          lock.lock();
          readings_.push_back({at, steal, wanted});
          wake_.wait_for(lock, kStealPeriod, [this]() { return stop_; });
        }
      }) {}

StealMeter::~StealMeter() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  thread_.join();
}

double StealMeter::Fraction(Clock::time_point from, Clock::time_point to) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Reading* first = nullptr;
  const Reading* last = nullptr;
  for (const Reading& r : readings_) {
    if (r.at <= from || first == nullptr) first = &r;
    if (last == nullptr && r.at >= to) last = &r;
  }
  if (last == nullptr && !readings_.empty()) last = &readings_.back();
  if (first == nullptr || last == nullptr || last->wanted <= first->wanted) return 0;
  return (last->steal - first->steal) / (last->wanted - first->wanted);
}

Speedometer::Speedometer() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) CPU_SET(0, &allowed);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) threads_.emplace_back([this, cpu]() { Sample(cpu); });
  }
}

Speedometer::~Speedometer() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void Speedometer::Sample(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ::pthread_setaffinity_np(::pthread_self(), sizeof(one), &one);
  // Runs only on a CPU the workload leaves idle.
  const sched_param idle{};
  ::pthread_setschedparam(::pthread_self(), SCHED_IDLE, &idle);
  std::unique_lock<std::mutex> lock(mu_);
  for (uint64_t i = 0; !stop_; ++i) {
    lock.unlock();
    const double us = ReferenceUs(i);
    const Clock::time_point at = Clock::now();
    lock.lock();
    samples_.push_back({at, us});
    wake_.wait_for(lock, kSpeedometerPeriod, [this]() { return stop_; });
  }
}

double Speedometer::Slowdown(Clock::time_point from, Clock::time_point to) const {
  std::vector<double> us;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [at, cpu_us] : samples_) {
      if (at >= from && at <= to) us.push_back(cpu_us);
    }
  }
  if (us.empty()) return 0.0;
  const double steal = std::min(steal_.Fraction(from, to), 0.9);
  return Percentile(std::move(us), 50) / kReferenceNominalUs / (1 - steal);
}

double Speedometer::SlowdownAround(Clock::time_point at) const {
  const double s = Slowdown(at - kSpeedWindow, at + kSpeedWindow);
  return s > 0 ? s : 1.0;
}

}  // namespace perfbench
