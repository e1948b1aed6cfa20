#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Measurement plumbing shared by the three workloads: the seeded random
// source, the percentile rule, stats-envelope deltas, the unattributed
// remainder, span bookkeeping and the result record.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/json.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}
inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// SplitMix64: the benchmark's only random source. Every generated input is
/// a pure function of the --seed argument.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform();
  /// Uniform integer in [0, n); n must be > 0.
  int Below(int n);

 private:
  uint64_t state_;
};

/// Zipf(s) over ranks [0, n): P(rank k) is proportional to 1/(k+1)^s.
/// Sampled by inverting the cumulative distribution, so one Uniform() draw
/// gives one rank and equal seeds give equal rank sequences.
class Zipf {
 public:
  explicit Zipf(int n, double s = 1.0);
  int Draw(Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

/// Nearest-rank percentile of `samples` (p in [0, 100]); 0 when empty.
double Percentile(std::vector<double> samples, double p);

/// A percentile is reported only when at least ten samples lie beyond it:
/// n * (1 - p/100) >= 10.
bool PercentileSupported(size_t n, double p);

/// The highest of {50, 90, 99, 99.9, 99.99} that `n` samples support, or 0
/// when even the median is unsupported (n < 20).
double HighestSupportedPercentile(size_t n);

/// Tail latency robust to a stall of the host: `samples` (in arrival
/// order) are cut into consecutive blocks of `block` samples, the p-th
/// percentile of each complete block is taken, and the median of those is
/// returned. A stall spoils the blocks it falls in, not the whole figure.
/// 0 when there is no complete block.
double BlockMedianPercentile(const std::vector<double>& samples, size_t block,
                             double p);

/// Latency over a mix of operation kinds whose costs differ by design
/// (train_iters' scenarios, run round robin). `typical` is the geometric
/// mean of each kind's median. The p-th percentile of the samples' ratios
/// to their own kind's median is taken per block (samples [b*block,
/// (b+1)*block) of every kind, i.e. `block` rounds); `tail` scales `typical`
/// by the median of those over complete blocks, like BlockMedianPercentile.
/// A percentile of
/// the pooled samples would instead jump from one kind to the next whenever
/// one kind got one more sample.
struct MixLatency {
  double typical = 0;
  double tail = 0;
  size_t block_samples = 0;  // ratios in each block
  size_t blocks = 0;         // complete blocks
};
MixLatency MixedLatency(const std::vector<std::vector<double>>& by_kind,
                        double p, size_t block);

/// The offered rate at which tail latency crosses `limit`, from a ladder of
/// ascending `rates` and their measured tail latencies (+infinity for a step
/// over the limit for another reason, such as a growing backlog). The
/// latencies are first made non-decreasing in rate by pool-adjacent-
/// violators on their logarithms, so one noisy step cannot end the ladder
/// early or extend it; the crossing is then interpolated log-linearly
/// between the last rate within the limit and the next. Returns 0 when even
/// the lowest rate is over the limit and the top rate when none is.
double KneeRate(const std::vector<double>& rates,
                const std::vector<double>& tail, double limit);

/// Flattens every numeric leaf of a {"type":"stats"} envelope into
/// "block.member" keys ("cache.hits", "cluster.disk.puts", ...).
std::map<std::string, double> FlattenCounters(const harmony::json::Value& v);

/// after - before for every key of `after` (a key missing from `before`
/// counts from 0). Gauges subtract too; callers only read counters.
std::map<std::string, double> CounterDelta(
    const std::map<std::string, double>& before,
    const std::map<std::string, double>& after);

/// Adds `delta` into `total` key by key (summing daemons of a tier).
void AccumulateCounters(const std::map<std::string, double>& delta,
                        std::map<std::string, double>* total);

/// Value of `key`, 0 when absent.
double Counter(const std::map<std::string, double>& counters,
               const std::string& key);

/// `num / den`, 0 when den is 0 (a ratio over a layer that did no work).
double Ratio(double num, double den);

/// The part of an end-to-end time its measured layers do not cover, as a
/// share of the whole: (total - sum(layers)) / total. Negative when the
/// layers over-cover (their medians need not add up); never clamped, so
/// over- and under-attribution both show.
double UnattributedFrac(double total, const std::vector<double>& layers);

/// Spans recorded from the benchmark's own code around calls into a layer.
/// Kept in memory; summarized per name when the run ends.
class SpanLog {
 public:
  void Record(const std::string& name, Clock::time_point start,
              Clock::time_point end) {
    spans_[name].push_back(Micros(end - start));
  }
  void RecordMicros(const std::string& name, double us) {
    spans_[name].push_back(us);
  }
  void Merge(const SpanLog& other) {
    for (const auto& [name, us] : other.spans_) {
      spans_[name].insert(spans_[name].end(), us.begin(), us.end());
    }
  }
  /// Median duration in microseconds (0 when the span never ran).
  double P50(const std::string& name) const;
  /// {"name": {"count":..,"p50_us":..,"total_us":..}, ...}
  harmony::json::Value Summary() const;

 private:
  std::map<std::string, std::vector<double>> spans_;
};

/// Times one call and records it under `name`.
template <typename Fn>
auto Timed(SpanLog* log, const std::string& name, Fn&& fn) {
  const Clock::time_point start = Clock::now();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    log->Record(name, start, Clock::now());
  } else {
    auto out = fn();
    log->Record(name, start, Clock::now());
    return out;
  }
}

/// One named metric with its unit, in insertion order.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run of one workload produced.
struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Output-check failures, by description (empty = every check passed).
  std::vector<std::string> errors;
  /// The workload's own metrics under their own names, for the record line.
  std::vector<Metric> named;
  /// BENCHMARK.json metrics: the end-to-end set (untraced) or per-layer set.
  std::vector<Metric> metrics;
  /// SpanLog::Summary() of a traced run.
  harmony::json::Value spans;

  void Fail(const std::string& what) {
    if (errors.size() < 20) errors.push_back(what);
  }
  void Named(const std::string& name, double value, const std::string& unit) {
    named.push_back({name, value, unit});
  }
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

/// Records a latency sample the way every timing is reported: "<name>_n"
/// (sample count), "<name>_top_pct" (the highest percentile the samples
/// support) and "<name>_top_us" (its value).
void NameTopPercentile(const std::string& name,
                       const std::vector<double>& samples_us, RunResult* result);

/// The final stdout line, in the result format BENCHMARK.json describes.
std::string ResultLine(const RunResult& result);

/// Restricts the calling thread to `cpus` (ignored when empty or when the
/// kernel refuses). Threads and processes it starts afterwards inherit it.
void PinThisThread(const std::vector<int>& cpus);

/// Kernel-reported peak resident set (VmHWM) of `pid` in MiB; -1 when
/// /proc is unreadable.
double PeakRssMb(int pid);

/// A fixed piece of single-threaded work shaped like the program's hot
/// loops (a binary-heap event queue, hash-map updates and lookups, a sort),
/// about a millisecond of CPU. Returns a checksum so it cannot be elided.
uint64_t ReferenceWork(uint64_t seed);

/// ReferenceWork's CPU time on the calling thread, in microseconds.
double ReferenceUs(uint64_t seed);

/// Host CPU time stolen by the hypervisor, in /proc/stat ticks summed over
/// CPUs: (steal, wanted), where wanted is all time not idle, steal
/// included. A vCPU is only ever stolen from while it has work, so steal
/// over wanted is the share by which the host's running work was slowed.
std::pair<double, double> StealTicks();

/// ReferenceWork's CPU time on the host state every reported time is
/// normalized to: about the fastest seen on a 2.1 GHz Xeon vCPU of a shared
/// host, where it usually takes 1.2-1.8 ms.
constexpr double kReferenceNominalUs = 1000;
/// How often each speedometer thread runs ReferenceWork.
constexpr std::chrono::milliseconds kSpeedometerPeriod{20};
/// SlowdownAround's half-width: the host holds a speed for about this long.
constexpr std::chrono::milliseconds kSpeedWindow{500};
/// How often the steal meter reads /proc/stat.
constexpr std::chrono::milliseconds kStealPeriod{100};

/// The share of the host's wanted CPU time (StealTicks) the hypervisor
/// stole, over time: a thread of its own reads /proc/stat every
/// kStealPeriod. Stolen time never shows in a thread's CPU time, so
/// ReferenceWork cannot see it, while every wall-clock figure of a workload
/// carries it.
class StealMeter {
 public:
  StealMeter();
  ~StealMeter();
  StealMeter(const StealMeter&) = delete;
  StealMeter& operator=(const StealMeter&) = delete;

  /// Stolen share of wanted CPU time between the last reading at or before
  /// `from` and the first at or after `to`; 0 without two readings.
  double Fraction(Clock::time_point from, Clock::time_point to) const;

 private:
  struct Reading {
    Clock::time_point at;
    double steal = 0, wanted = 0;
  };
  mutable std::mutex mu_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::vector<Reading> readings_;
  std::thread thread_;
};

/// On a shared VM, other tenants slow the vCPUs, each on its own and often
/// all at once, by up to a half for seconds or minutes at a time. A speedometer
/// keeps one thread on every CPU the process may use, at idle priority, so
/// it runs only where the workload leaves a CPU free; every
/// kSpeedometerPeriod it times ReferenceWork by its own CPU time
/// (preemption does not count), and a StealMeter adds the time the
/// hypervisor took. Times measured in an interval are divided, and rates
/// multiplied, by the slowdown over that interval: a change to the program
/// moves them, a change in the host's speed mostly does not.
class Speedometer {
 public:
  Speedometer();
  ~Speedometer();
  Speedometer(const Speedometer&) = delete;
  Speedometer& operator=(const Speedometer&) = delete;

  /// Median ReferenceWork time over samples taken in [from, to] divided by
  /// kReferenceNominalUs and by the share of CPU time not stolen then
  /// (> 1: the host ran slow); 0 without samples.
  double Slowdown(Clock::time_point from, Clock::time_point to) const;
  /// Slowdown within kSpeedWindow of `at`; 1 without samples.
  double SlowdownAround(Clock::time_point at) const;

 private:
  void Sample(int cpu);

  mutable std::mutex mu_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::vector<std::pair<Clock::time_point, double>> samples_;
  std::vector<std::thread> threads_;
  StealMeter steal_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
