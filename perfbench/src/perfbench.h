// Shared pieces of the end-to-end benchmark: run options, the metric
// report, the span tracer, the output check, and sample statistics.
//
// The benchmark drives the library only through its public headers. The
// tracer records spans around the benchmark's own calls into each layer
// (request, optimizer, api facade, GetSelectivity, service); the layers
// that run inside GetSelectivity::Compute are timed by replay.h instead.

#pragma once

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Sizes. Defaults are per workload (workloads.cc) when left at 0.
  double scale = 0.01;  // snowflake table-size scale
  int statements = 0;   // distinct statements in the workload
  double rate = 0.0;    // serve_with_deltas offered load, requests/s
  std::string spans_path;     // where the traced run writes its spans
  std::string source_digest;  // identifies the measured sources
};

// One metric as printed and as emitted in the final JSON line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  void Fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
  void E2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
};

// The output check: an estimate must be finite, inside its range, and
// equal bit for bit to the reference computed during set-up by a fresh
// GetSelectivity without a shape cache.
inline bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}
inline bool SelectivityOk(double got, double reference) {
  return std::isfinite(got) && got >= 0.0 && got <= 1.0 &&
         SameBits(got, reference);
}
inline bool CardinalityOk(double got, double reference) {
  return std::isfinite(got) && got >= 0.0 && SameBits(got, reference);
}

// max(est/true, true/est) over cardinalities clamped to at least one row.
inline double QError(double estimate, double truth) {
  const double e = std::max(estimate, 1.0);
  const double t = std::max(truth, 1.0);
  return e > t ? e / t : t / e;
}

// The p99 rule: at least ten samples must lie beyond the reported rank.
constexpr size_t kMinSamplesForP99 = 1000;

// Span recorder. One Tracer per thread; nothing is shared, so recording
// takes no lock. Spans stay in memory until WriteSpans at exit.
struct Span {
  int name = 0;        // index into the tracer's name table
  int parent = -1;     // index of the parent span in the same tracer
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  // `reserve` spans are allocated up front, so a traced window does not
  // pay for the vector growing mid-measurement.
  explicit Tracer(bool enabled, size_t reserve = 0) : enabled_(enabled) {
    if (enabled_) spans_.reserve(reserve);
  }

  // Opens a span; returns its index (or -1 when disabled).
  int Begin(int name, uint64_t request, int parent) {
    if (!enabled_) return -1;
    spans_.push_back({name, parent, request, NowNs(), 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int span) {
    if (span >= 0) spans_[static_cast<size_t>(span)].end_ns = NowNs();
  }

  const std::vector<Span>& spans() const { return spans_; }

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// RAII span.
class Scoped {
 public:
  Scoped(Tracer* t, int name, uint64_t request, int parent = -1)
      : tracer_(t), id_(t->Begin(name, request, parent)) {}
  ~Scoped() { tracer_->End(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

// Span names. Layer = module of the library the span's call enters.
enum SpanName : int {
  kRequest = 0,
  kOptimize,          // optimizer: JoinOrderOptimizer::Optimize
  kApiEstimate,       // api: Estimator::TryEstimateCardinality
  kGsCompute,         // gs: GetSelectivity::Compute
  kServiceSubmit,     // service: EstimationService::Submit
  kServiceApplyDelta, // service + part_stats: EstimationService::ApplyDelta
  kReplayRequest,     // replay of one request's inner calls
  kShapeKey,          // shape_cache: CanonicalShapeKey
  kDecomposer,        // decomposer: AtomicFactorCandidates
  kMatcher,           // sit_matcher: SitMatcher::Candidates*
  kScore,             // provider: AtomicSelectivityProvider::Score
  kEstimate,          // provider: AtomicSelectivityProvider::Estimate
  kJoin,              // histogram: JoinHistograms
  kMerge,             // histogram: MergeHistograms
  kNumSpanNames
};
const char* SpanNameString(int name);

// Self time of every span: its duration minus the part of its interval
// its direct children cover. Indexed like tracer.spans().
std::vector<double> SelfSeconds(const std::vector<Span>& spans);

// Median duration of an empty span on this host: what recording a span
// adds to the duration it reports. Replayed calls are short enough for
// it to matter, so per-call times from the replay subtract it.
double EmptySpanSeconds();

// Writes every tracer's spans as JSON lines, one span per line, after a
// header line describing the run. Returns false on an I/O error.
bool WriteSpans(const std::string& path, const std::string& header_json,
                const std::vector<const Tracer*>& tracers);

// Allocation counting (alloc_hook.cc): the benchmark replaces the global
// operator new. Counting is off unless the calling thread enables it, and
// kept per thread, so an untraced request pays one thread-local load per
// allocation.
void SetAllocCounting(bool on);
uint64_t ThreadAllocCount();

// Runs one workload end to end, filling the report. Returns false when
// the workload could not be set up (the report says why).
bool RunWorkload(const Options& options, Report* report);

// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

}  // namespace perfbench
