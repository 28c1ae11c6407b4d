// Shared machinery of the benchmark: the pass loop, span tracing, summary
// statistics and the result line.
//
// A workload is a fixed list of operations (one "pass"). main() sets the
// workload up several times (setup_s is the median), then repeats passes for
// the requested number of seconds. Every operation is timed from outside,
// around its call into the library; oracle checks run between operations,
// outside the timings. The simulated cost of a pass (rounds, messages) is a
// function of the seed alone, so every pass must report the same totals.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------- tracing

/// One timed call at a layer boundary. `parent` indexes the enclosing span
/// of the same log (-1 for a root); spans of one operation share `op`.
/// `count` is the work the call reported (simulated messages, bytes, ...).
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  long long op = 0;
  long long count = 0;
};

/// One thread's spans, kept in memory until the run ends. A null SpanLog*
/// means tracing is off: every Scope over it is a no-op.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}
  int open(std::string name, long long op);
  void close(int index, long long count);
  /// Records an already-finished interval under the currently open span.
  void record(std::string name, Clock::time_point start, Clock::time_point end,
              long long count);
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

 private:
  [[nodiscard]] std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class Scope {
 public:
  Scope(SpanLog* log, std::string name, long long op = 0)
      : log_(log), index_(log ? log->open(std::move(name), op) : -1) {}
  ~Scope() {
    if (log_) log_->close(index_, count_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  void set_count(long long c) noexcept { count_ = c; }

 private:
  SpanLog* log_;
  int index_;
  long long count_ = 0;
};

/// Per-name totals over every log: calls, total and self time (a span's
/// duration minus the time its direct children cover), summed counts, and
/// the individual durations for medians.
struct SpanTotals {
  long long calls = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
  long long count = 0;
  std::vector<double> durations_ms;
};
[[nodiscard]] std::map<std::string, SpanTotals> summarize(
    const std::vector<const SpanLog*>& logs);

/// Writes every span plus the per-name totals as one JSON document.
bool write_spans(const std::string& path,
                 const std::vector<const SpanLog*>& logs);

// ------------------------------------------------------------ statistics

/// Linear-interpolated median of unsorted samples.
[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile (q in (0,1]): the smallest sample with at least
/// a q share of the samples at or below it. Always an observed latency, so
/// a percentile that falls between two kinds of operation reports one of
/// them instead of a point in the gap.
[[nodiscard]] double percentile(std::vector<double> v, double q);
[[nodiscard]] double peak_rss_mib();

// ---------------------------------------------------------- machine speed

/// One timed call: its host time, and that time at the reference speed.
struct OpTime {
  double ms = 0.0;
  double ref_ms = 0.0;
  OpTime& operator+=(const OpTime& o) {
    ms += o.ms;
    ref_ms += o.ref_ms;
    return *this;
  }
};

/// Times calls on one thread, in host time and rescaled to a fixed
/// reference speed of the machine.
///
/// On a shared machine the same call runs up to 2x slower while other
/// tenants load the core, and that load comes and goes within seconds. A
/// fixed probe (integer throughput work and random inserts into a 4 MB
/// table; it calls nothing in the library) is timed on the same thread at
/// the start and end of a call and at the marks inside it, at most once per
/// 50 ms. Each stretch of a call between two samples counts at the mean
/// slowdown of its two ends, the slowdown being the probe's time over its
/// time on an unloaded machine. The probe's own time is never part of a
/// call's time. Calls do not nest.
class SpeedClock {
 public:
  /// The calling thread's clock.
  static SpeedClock& local();
  void start();
  /// A point inside the running call, such as a solve's phase boundary.
  void mark();
  [[nodiscard]] OpTime stop();

 private:
  [[nodiscard]] bool due() const;
  void sample();
  void close_stretch(bool resample);
  [[nodiscard]] double probe_slowdown();

  std::vector<std::uint64_t> table_;  ///< the probe's, 4 MB once used
  std::uint64_t generation_ = 0;
  std::uint64_t sink_ = 0;
  bool sampled_ = false;
  Clock::time_point last_sample_;
  double slowdown_ = 1.0;
  Clock::time_point stretch_start_;
  OpTime current_;
};

// -------------------------------------------------------------- results

/// Metrics in insertion order, plus the human-readable notes printed before
/// the result line (sample counts, bases of ratios).
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  [[nodiscard]] bool has(const std::string& name) const;
  void print_table() const;
  [[nodiscard]] std::string to_json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  std::vector<Entry> entries_;
};

/// Failures are counted, never thrown: a failed operation or oracle
/// mismatch makes the run incorrect and the command exit nonzero.
struct Outcome {
  long long attempted = 0;
  long long failed = 0;
  void check(bool ok, const std::string& what);
};

// --------------------------------------------------------------- workloads

/// What one pass did: the time of each timed call (checks excluded), one
/// per operation plus one per timed call that is not an operation (churn's
/// snapshot round trips).
struct PassStats {
  std::vector<OpTime> ops;
  std::vector<OpTime> other;
  long long sim_rounds = 0;    ///< sum of RunReport::total_rounds()
  long long sim_messages = 0;  ///< sum of RunReport::messages
  long long charged_rounds = 0;
  long long cache_hits = 0;
  long long cache_misses = 0;
};

struct RunContext {
  std::uint64_t seed = 1;
  std::string scratch_dir;  ///< snapshot files go here
  Clock::time_point origin = Clock::now();
};

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;
  /// Builds every input and warm structure from the seed, replacing any
  /// previous set-up. Returns the instance-generation share in ms.
  virtual double setup() = 0;
  /// Checks made once per run, after set-up and outside every timing.
  virtual void prepare_checks(Outcome& /*outcome*/) {}
  /// One pass; `logs` is empty when tracing is off, else one log per
  /// client thread (index 0 for single-threaded workloads).
  virtual PassStats run_pass(const std::vector<SpanLog*>& logs,
                             Outcome& outcome) = 0;
  /// Layer probes of the traced run (congest/core/serve/io micro-timings
  /// on this workload's instances).
  virtual void layer_probes(SpanLog& log, Metrics& m, Outcome& outcome) = 0;
  /// Client threads of a pass (1 unless the workload serves concurrently).
  [[nodiscard]] virtual int clients() const { return 1; }
};

std::unique_ptr<Workload> make_solve_cold(const RunContext& ctx);
std::unique_ptr<Workload> make_serve_warm(const RunContext& ctx);
std::unique_ptr<Workload> make_churn(const RunContext& ctx);

}  // namespace perfbench
