// condsel_perfbench — the end-to-end benchmark program.
//
//   condsel_perfbench --workload <name> --seed <n> --seconds <s>
//                     --trace <0|1> [--scale <x>] [--statements <n>]
//                     [--rate <per-second>] [--spans <path>]
//                     [--source <digest>]
//
// Prints the run's configuration and every metric by name and unit as
// '#' lines, then one JSON object as the last line of standard output:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. Exits non-zero when an output check fails.
//
// Sizes come from the arguments only: the library's CONDSEL_* size
// variables are never read, and the audit and lock-order checks are
// forced off (a build in which either is still on is refused).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "condsel/api.h"
#include "condsel/common/ordered_mutex.h"
#include "condsel/common/stats.h"
#include "perfbench.h"

namespace perfbench {

const char* SpanNameString(int name) {
  static const char* const kNames[kNumSpanNames] = {
      "request",
      "optimizer.Optimize",
      "api.TryEstimateCardinality",
      "gs.Compute",
      "service.Submit",
      "service.ApplyDelta",
      "replay.request",
      "shape_cache.CanonicalShapeKey",
      "decomposer.AtomicFactorCandidates",
      "sit_matcher.Candidates",
      "provider.Score",
      "provider.Estimate",
      "histogram.JoinHistograms",
      "histogram.MergeHistograms",
  };
  return name >= 0 && name < kNumSpanNames ? kNames[name] : "?";
}

std::vector<double> SelfSeconds(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] += static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-9;
    if (spans[i].parent >= 0) {
      self[static_cast<size_t>(spans[i].parent)] -=
          static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-9;
    }
  }
  return self;
}

double EmptySpanSeconds() {
  constexpr int kSamples = 20000;
  Tracer probe(true, kSamples);
  for (int i = 0; i < kSamples; ++i) {
    Scoped span(&probe, kRequest, 0);
  }
  std::vector<double> d;
  for (const Span& s : probe.spans()) {
    d.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
  }
  return condsel::Median(std::move(d));
}

bool WriteSpans(const std::string& path, const std::string& header_json,
                const std::vector<const Tracer*>& tracers) {
  std::ofstream out(path);
  if (!out) return false;
  out << header_json << "\n";
  // One line per span: [tracer, id, parent, request, name, start_ns,
  // end_ns]; names index the header's "names" list.
  for (size_t t = 0; t < tracers.size(); ++t) {
    const std::vector<Span>& spans = tracers[t]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << '[' << t << ',' << i << ',' << s.parent << ',' << s.request
          << ',' << s.name << ',' << s.start_ns << ',' << s.end_ns << "]\n";
    }
  }
  out.flush();
  return static_cast<bool>(out);
}

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: condsel_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--scale <x>] "
               "[--statements <n>] [--rate <r>] "
               "[--spans <path>] [--source <digest>]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* o, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o->workload = v;
    } else if (flag == "--seed") {
      o->seed = std::strtoull(v.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      o->seconds = std::strtod(v.c_str(), &end);
    } else if (flag == "--trace") {
      o->trace = v == "1";
      if (v != "0" && v != "1") *error = "--trace takes 0 or 1";
    } else if (flag == "--scale") {
      o->scale = std::strtod(v.c_str(), &end);
    } else if (flag == "--statements") {
      o->statements = std::atoi(v.c_str());
    } else if (flag == "--rate") {
      o->rate = std::strtod(v.c_str(), &end);
    } else if (flag == "--spans") {
      o->spans_path = v;
    } else if (flag == "--source") {
      o->source_digest = v;
    } else {
      *error = "unknown flag " + flag;
    }
    if (end != nullptr && *end != '\0') *error = "bad number for " + flag;
    if (!error->empty()) return false;
  }
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), o->workload) == names.end()) {
    *error = "unknown workload '" + o->workload + "'";
  } else if (!(o->seconds > 0.0) || !(o->scale > 0.0) ||
             o->statements < 0 || o->rate < 0.0) {
    *error = "sizes must be positive";
  }
  return error->empty();
}

void PrintJson(const Report& r, bool trace) {
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  const std::vector<Metric>& ms = trace ? r.per_layer : r.end_to_end;
  for (size_t i = 0; i < ms.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", ms[i].value);
    json += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::Options;
  using perfbench::Report;

  // Pin what changes the measured program before the library reads it.
  setenv("CONDSEL_AUDIT", "0", 1);
  setenv("CONDSEL_LOCK_ORDER", "0", 1);

  Options opt;
  std::string error;
  if (!perfbench::ParseArgs(argc, argv, &opt, &error)) {
    return perfbench::Usage(error.c_str());
  }

#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  const bool lock_order = condsel::lock_order_internal::Enabled();
  bool audit = false;
  {
    condsel::Catalog empty_catalog;
    condsel::SitPool empty_pool;
    const condsel::Estimator probe(&empty_catalog, &empty_pool);
    audit = probe.audit();
  }
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d scale=%g "
              "statements=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, opt.scale, opt.statements);
  std::printf("# hardware_cores=%u build_type=%s ndebug=%d audit=%d "
              "lock_order=%d source=%s\n",
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              ndebug ? 1 : 0, audit ? 1 : 0, lock_order ? 1 : 0,
              opt.source_digest.empty() ? "unknown"
                                        : opt.source_digest.c_str());
  if (audit || lock_order) {
    std::fprintf(stderr,
                 "error: derivation audits or lock-order checks are on; "
                 "refusing to report timings\n");
    return 3;
  }

  Report report;
  const bool ran = perfbench::RunWorkload(opt, &report);
  for (const std::string& e : report.errors) {
    std::fprintf(stderr, "check failed: %s\n", e.c_str());
  }
  if (!ran) return 1;
  for (const perfbench::Metric& m : report.end_to_end) {
    std::printf("# %s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const perfbench::Metric& m : report.per_layer) {
    std::printf("# %s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  perfbench::PrintJson(report, opt.trace);
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
