// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload solve-cold|serve-warm|churn --seed N --seconds S
//             --trace 0|1 --scratch DIR [--spans FILE] [--commit ID]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs untraced and
// traced passes (for trace.overhead_pct), then the layer probes, prints the
// per-layer metrics and writes every span to --spans. The last stdout line
// is the result object; the exit code is nonzero if any check failed.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "probes.hpp"

namespace perfbench {
namespace {

// Set-ups per run: at least kMinSetups, more while they fit in
// kSetupBudgetS (a cheap set-up is noisy), at most kMaxSetups.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 25;
constexpr double kSetupBudgetS = 2.0;
constexpr std::size_t kMinPasses = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch = ".";
  std::string spans;
  std::string commit = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "solve-cold|serve-warm|churn --seed N --seconds S --trace 0|1 "
               "--scratch DIR [--spans FILE] [--commit ID]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    if (key == "--workload") a.workload = val;
    else if (key == "--seed") a.seed = std::stoull(val);
    else if (key == "--seconds") a.seconds = std::stod(val);
    else if (key == "--trace") a.trace = val == "1";
    else if (key == "--scratch") a.scratch = val;
    else if (key == "--spans") a.spans = val;
    else if (key == "--commit") a.commit = val;
    else usage(("unknown option " + key).c_str());
  }
  if (a.seconds <= 0) usage("--seconds must be positive");
  return a;
}

/// The build must be optimized and uninstrumented: a Debug or sanitizer
/// build measures the instrumentation, not the program.
const char* build_refusal() {
#ifndef NDEBUG
  return "assertions are enabled (not a Release build)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return "built with a sanitizer";
#endif
#endif
#if !defined(__OPTIMIZE__)
  return "built without optimization";
#endif
  return nullptr;
}

/// Passes until `seconds` of wall time have gone by, and at least
/// kMinPasses: every timed call needs a few samples for its median.
std::vector<PassStats> run_for(Workload& w, double seconds,
                               const std::vector<SpanLog*>& logs,
                               Outcome& outcome) {
  std::vector<PassStats> passes;
  const Clock::time_point t0 = Clock::now();
  do {
    passes.push_back(w.run_pass(logs, outcome));
  } while (passes.size() < kMinPasses || seconds_since(t0) < seconds);
  return passes;
}

/// Every pass of one seed must issue the same operations at the same
/// simulated cost (rounds, messages).
void check_deterministic(const std::vector<PassStats>& passes,
                         Outcome& outcome) {
  for (const PassStats& p : passes)
    outcome.check(p.sim_rounds == passes.front().sim_rounds &&
                      p.sim_messages == passes.front().sim_messages &&
                      p.ops.size() == passes.front().ops.size() &&
                      p.other.size() == passes.front().other.size(),
                  "passes of one seed differ in simulated cost or operations");
}

/// Each timed call's median time over the passes (every pass issues the
/// same calls in the same order), in host ms or reference ms.
std::vector<double> median_of(const std::vector<PassStats>& passes,
                              std::vector<OpTime> PassStats::*calls,
                              double OpTime::*unit) {
  std::vector<double> out((passes.front().*calls).size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::vector<double> samples;
    for (const PassStats& p : passes)
      if (i < (p.*calls).size()) samples.push_back((p.*calls)[i].*unit);
    out[i] = median(std::move(samples));
  }
  return out;
}

/// The time of one pass in seconds: the sum of each timed call's median
/// over the passes. With c closed-loop clients the pass's wall clock is its
/// busy time / c.
double pass_s(const std::vector<PassStats>& passes, int clients,
              double OpTime::*unit) {
  double busy_ms = 0.0;
  for (const double x : median_of(passes, &PassStats::ops, unit)) busy_ms += x;
  for (const double x : median_of(passes, &PassStats::other, unit))
    busy_ms += x;
  return busy_ms / 1e3 / clients;
}

void end_to_end(const std::vector<PassStats>& passes, int clients,
                double setup_s, int setups, Metrics& m) {
  const double wall = pass_s(passes, clients, &OpTime::ref_ms);
  const std::vector<double> lat =
      median_of(passes, &PassStats::ops, &OpTime::ref_ms);
  const double messages = static_cast<double>(passes.front().sim_messages);

  const std::string np = std::to_string(passes.size()) + " passes";
  const std::string ref = "at the reference speed, ";
  const std::string ns_ops = "n=" + std::to_string(lat.size()) +
                             " operations, " + ref +
                             "each the median of " + np;
  char host[96];
  std::snprintf(host, sizeof host, " (host time %.4g s)",
                pass_s(passes, clients, &OpTime::ms));
  m.set("setup_s", setup_s, "s",
        ref + "median of " + std::to_string(setups) + " set-ups");
  m.set("wall_s", wall, "s",
        "one pass " + ref + "each call the median of " + np + host);
  m.set("ns_per_message", wall * 1e9 / messages, "ns",
        "wall_s / simulated messages of one pass");
  m.set("qps", static_cast<double>(lat.size()) / wall, "1/s",
        "operations per second of wall_s");
  m.set("latency_p50_ms", percentile(lat, 0.50), "ms", ns_ops);
  m.set("latency_p90_ms", percentile(lat, 0.90), "ms", ns_ops);
  m.set("latency_p99_ms", percentile(lat, 0.99), "ms", ns_ops);
  m.set("peak_rss_mib", peak_rss_mib(), "MiB", "VmHWM of /proc/self/status");
  m.set("sim_rounds", static_cast<double>(passes.front().sim_rounds), "count",
        "sum of total_rounds() over one pass (exact)");
  m.set("sim_messages", messages, "count",
        "simulated messages of one pass (exact)");
}

/// Half the time untraced passes, half traced ones, then the layer probes.
void traced_run(Workload& w, const Args& args, const RunContext& ctx,
                double gen_ms, int setups, Metrics& m, Outcome& outcome) {
  const std::vector<PassStats> plain =
      run_for(w, args.seconds / 2, {}, outcome);
  std::vector<SpanLog> logs(static_cast<std::size_t>(w.clients()),
                            SpanLog(ctx.origin));
  std::vector<SpanLog*> log_ptrs;
  for (SpanLog& l : logs) log_ptrs.push_back(&l);
  const std::vector<PassStats> traced =
      run_for(w, args.seconds / 2, log_ptrs, outcome);
  std::vector<PassStats> passes = plain;
  passes.insert(passes.end(), traced.begin(), traced.end());
  check_deterministic(passes, outcome);

  std::vector<const SpanLog*> all_logs(log_ptrs.begin(), log_ptrs.end());
  metrics_from_spans(summarize(all_logs), static_cast<double>(traced.size()),
                     m);
  const PassStats& last = traced.back();
  const auto lookups = static_cast<double>(last.cache_hits + last.cache_misses);
  m.set("congest.cache_hit_ratio",
        lookups > 0 ? static_cast<double>(last.cache_hits) / lookups : 0.0,
        "ratio", "hits / (hits + misses) of one pass");
  m.set("congest.cache_lookups", lookups, "count", "hits + misses of one pass");
  m.set("congest.charged_rounds", static_cast<double>(last.charged_rounds),
        "count", "charged construction rounds of one pass");
  m.set("gen.instance_ms", gen_ms, "ms",
        "instance generation, median of " + std::to_string(setups) +
            " set-ups");

  SpanLog probe_log(ctx.origin);
  w.layer_probes(probe_log, m, outcome);
  m.set("trace.overhead_pct",
        100.0 * (pass_s(traced, w.clients(), &OpTime::ref_ms) /
                     pass_s(plain, w.clients(), &OpTime::ref_ms) -
                 1.0),
        "%",
        "traced vs untraced pass time at the reference speed, " +
            std::to_string(traced.size()) + " vs " +
            std::to_string(plain.size()) + " passes");
  all_logs.push_back(&probe_log);
  if (!args.spans.empty() && !write_spans(args.spans, all_logs))
    outcome.check(false, "writing the spans file " + args.spans);
}

int run(const Args& args) {
  RunContext ctx;
  ctx.seed = args.seed;
  ctx.scratch_dir = args.scratch;
  std::unique_ptr<Workload> w;
  if (args.workload == "solve-cold") w = make_solve_cold(ctx);
  else if (args.workload == "serve-warm") w = make_serve_warm(ctx);
  else if (args.workload == "churn") w = make_churn(ctx);
  else usage("unknown workload");

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("build: commit=%s compiler=%s build_type=%s flags=\"%s\" "
              "nproc=%u\n",
              args.commit.c_str(), __VERSION__, PERFBENCH_BUILD_TYPE,
              PERFBENCH_CXX_FLAGS, std::thread::hardware_concurrency());

  std::vector<double> setup_s, gen_ms;
  const Clock::time_point setups_t0 = Clock::now();
  while (setup_s.size() < static_cast<std::size_t>(kMinSetups) ||
         (setup_s.size() < static_cast<std::size_t>(kMaxSetups) &&
          seconds_since(setups_t0) < kSetupBudgetS)) {
    SpeedClock& clock = SpeedClock::local();
    clock.start();
    gen_ms.push_back(w->setup());
    setup_s.push_back(clock.stop().ref_ms / 1e3);
  }
  Outcome outcome;
  Metrics m;
  w->prepare_checks(outcome);
  if (!args.trace) {
    const std::vector<PassStats> passes =
        run_for(*w, args.seconds, {}, outcome);
    check_deterministic(passes, outcome);
    end_to_end(passes, w->clients(), median(setup_s),
               static_cast<int>(setup_s.size()), m);
  } else {
    traced_run(*w, args, ctx, median(gen_ms),
               static_cast<int>(gen_ms.size()), m, outcome);
  }

  const long long attempted = std::max(1LL, outcome.attempted);
  std::printf("metrics (%s):\n", args.trace ? "traced run, per layer"
                                            : "untraced run, end to end");
  m.print_table();
  std::printf("  %-40s %16.6g %-6s %lld of %lld checked operations failed\n",
              "error_rate",
              static_cast<double>(outcome.failed) /
                  static_cast<double>(attempted),
              "ratio", outcome.failed, outcome.attempted);
  const bool correct = outcome.failed == 0 && outcome.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, outcome.failed,
              m.to_json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse(argc, argv);
  if (const char* why = perfbench::build_refusal()) {
    std::fprintf(stderr, "perfbench: refusing to report: %s\n", why);
    return 3;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    // An operation that throws fails the run; no result line is printed.
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
}
