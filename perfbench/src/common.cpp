#include "common.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "io/json.hpp"

namespace perfbench {

int SpanLog::open(std::string name, long long op) {
  Span s;
  s.name = std::move(name);
  s.start_ns = ns(Clock::now());
  s.parent = open_.empty() ? -1 : open_.back();
  s.op = op;
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanLog::close(int index, long long count) {
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.end_ns = ns(Clock::now());
  s.count = count;
  open_.pop_back();
}

void SpanLog::record(std::string name, Clock::time_point start,
                     Clock::time_point end, long long count) {
  Span s;
  s.name = std::move(name);
  s.start_ns = ns(start);
  s.end_ns = ns(end);
  s.parent = open_.empty() ? -1 : open_.back();
  s.op = s.parent >= 0 ? spans_[static_cast<std::size_t>(s.parent)].op : 0;
  s.count = count;
  spans_.push_back(std::move(s));
}

std::map<std::string, SpanTotals> summarize(
    const std::vector<const SpanLog*>& logs) {
  std::map<std::string, SpanTotals> out;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    // Children of one parent never overlap (one thread, nested scopes), so
    // the time they cover is the sum of their durations.
    std::vector<double> child_ms(spans.size(), 0.0);
    for (const Span& s : spans)
      if (s.parent >= 0)
        child_ms[static_cast<std::size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const double ms =
          static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e6;
      SpanTotals& t = out[spans[i].name];
      ++t.calls;
      t.total_ms += ms;
      t.self_ms += ms - child_ms[i];
      t.count += spans[i].count;
      t.durations_ms.push_back(ms);
    }
  }
  return out;
}

bool write_spans(const std::string& path,
                 const std::vector<const SpanLog*>& logs) {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"spans\":[";
  bool first = true;
  for (std::size_t t = 0; t < logs.size(); ++t)
    for (const Span& s : logs[t]->spans()) {
      f << (first ? "" : ",") << "\n{\"thread\":" << t
        << ",\"name\":" << mns::io::json_quote(s.name)
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"op\":" << s.op
        << ",\"count\":" << s.count << "}";
      first = false;
    }
  f << "],\n\"totals\":{";
  first = true;
  for (const auto& [name, t] : summarize(logs)) {
    f << (first ? "" : ",") << "\n" << mns::io::json_quote(name)
      << ":{\"calls\":" << t.calls << ",\"total_ms\":" << t.total_ms
      << ",\"self_ms\":" << t.self_ms << ",\"count\":" << t.count << "}";
    first = false;
  }
  f << "}}\n";
  return static_cast<bool>(f);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : (v[h - 1] + v[h]) / 2;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mib() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so it would report the launching process's peak when that is
  // larger than ours.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  return 0.0;
}

namespace {

constexpr double kProbeIntervalMs = 50.0;
constexpr int kThroughputSteps = 60000;
constexpr int kInserts = 10000;
constexpr int kTableBits = 19;  // 2^19 slots of 8 bytes: 4 MB
/// The two halves of the probe on the 4-vCPU development VM when nothing
/// else loaded its core, so reference-speed times are that machine's
/// milliseconds.
constexpr double kThroughputNominalMs = 0.223;
constexpr double kInsertsNominalMs = 0.105;
/// The slowdown is 0.7 of the throughput half's plus 0.3 of the insert
/// half's: of the mixes tried on logged runs of solve-cold (memory-bound)
/// and churn (compute-bound) in two load regimes of the machine, it kept
/// both the spread over 4-pass windows and the change of level between the
/// regimes smallest.
constexpr double kThroughputShare = 0.7;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// The faster of two runs of `work`, in ms, so that an interrupt during one
/// does not count.
template <typename Work>
double fastest_of_two(Work work) {
  double best = 0.0;
  for (int run = 0; run < 2; ++run) {
    const Clock::time_point t0 = Clock::now();
    work();
    const double ms = ms_between(t0, Clock::now());
    best = run == 0 ? ms : std::min(best, ms);
  }
  return best;
}

}  // namespace

SpeedClock& SpeedClock::local() {
  thread_local SpeedClock clock;
  return clock;
}

void SpeedClock::start() {
  if (due()) sample();
  current_ = {};
  stretch_start_ = Clock::now();
}

void SpeedClock::mark() {
  if (due()) close_stretch(true);
}

OpTime SpeedClock::stop() {
  close_stretch(due());
  return current_;
}

bool SpeedClock::due() const {
  return !sampled_ ||
         ms_between(last_sample_, Clock::now()) >= kProbeIntervalMs;
}

void SpeedClock::sample() {
  slowdown_ = probe_slowdown();
  sampled_ = true;
  last_sample_ = Clock::now();
}

void SpeedClock::close_stretch(bool resample) {
  const double ms = ms_between(stretch_start_, Clock::now());
  const double from = slowdown_;
  if (resample) sample();
  current_.ms += ms;
  current_.ref_ms += ms / ((from + slowdown_) / 2);
  stretch_start_ = Clock::now();
}

double SpeedClock::probe_slowdown() {
  // Integer throughput work: three independent chains, the work that slows
  // most when another tenant shares the core.
  const double throughput_ms = fastest_of_two([this] {
    std::uint64_t a = 1, b = 2, c = 3, d = 0;
    for (int i = 0; i < kThroughputSteps; ++i) {
      a = a * 6364136223846793005ULL + 1442695040888963407ULL;
      b = b * 2862933555777941757ULL + 3037000493ULL;
      c ^= c << 13;
      c ^= c >> 7;
      c ^= c << 17;
      d += static_cast<std::uint64_t>(std::popcount(a ^ b)) + (c >> 60);
    }
    sink_ += d;
  });
  // Linear-probing inserts of random keys into a 4 MB table, twice the
  // size of a core's L2 here. A slot belongs to the current run if its top
  // 24 bits hold the run's generation, so the table is never cleared.
  constexpr std::size_t slots = std::size_t{1} << kTableBits;
  if (table_.empty()) table_.assign(slots, 0);
  const double inserts_ms = fastest_of_two([this] {
    const std::uint64_t gen = ++generation_ & 0xFFFFFF;
    std::uint64_t key = gen * 7 + 1;
    for (int i = 0; i < kInserts; ++i) {
      key = key * 6364136223846793005ULL + 1442695040888963407ULL;
      const std::uint64_t entry = (gen << 40) | (key >> 24);
      auto h = static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >>
                                        (64 - kTableBits));
      while (table_[h] >> 40 == gen && table_[h] != entry)
        h = (h + 1) & (slots - 1);
      table_[h] = entry;
      sink_ += h;
    }
  });
  return kThroughputShare * throughput_ms / kThroughputNominalMs +
         (1.0 - kThroughputShare) * inserts_ms / kInsertsNominalMs;
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit, const std::string& note) {
  for (Entry& e : entries_)
    if (e.name == name) {
      e = {name, value, unit, note};
      return;
    }
  entries_.push_back({name, value, unit, note});
}

bool Metrics::has(const std::string& name) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const Entry& e) { return e.name == name; });
}

void Metrics::print_table() const {
  for (const Entry& e : entries_)
    std::printf("  %-40s %16.6g %-6s %s\n", e.name.c_str(), e.value,
                e.unit.c_str(), e.note.c_str());
}

std::string Metrics::to_json() const {
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", entries_[i].value);
    out += (i ? ", " : "") + mns::io::json_quote(entries_[i].name) +
           ": {\"value\": " + buf +
           ", \"unit\": " + mns::io::json_quote(entries_[i].unit) + "}";
  }
  return out + "}";
}

void Outcome::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    if (failed <= 20)
      std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
  }
}

}  // namespace perfbench
