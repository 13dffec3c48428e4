// Shared setup for the figure-reproduction benches: the Section 5
// snowflake database, workloads, and SIT pools.
//
// Scale knobs (environment variables):
//   CONDSEL_SCALE    table-size scale; 1.0 = the paper's 1K..1M rows.
//                    Bench default is 0.01 to fit a single-core CI run.
//   CONDSEL_QUERIES  queries per workload (paper: 100).

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "condsel/datagen/snowflake.h"
#include "condsel/datagen/workload.h"
#include "condsel/exec/evaluator.h"
#include "condsel/harness/report.h"
#include "condsel/harness/runner.h"
#include "condsel/sit/sit_builder.h"
#include "condsel/sit/sit_pool.h"

namespace condsel {
namespace bench {

// Allocation counting: every BENCH_*.json records allocs/estimate
// alongside latency, the dynamic baseline the arena / dense-memo work
// will push toward zero (tools/alloc_budget.toml is the static census
// of the same hot path). The counter works by replacing the
// program-global operator new/delete below — each bench executable is a
// single translation unit including this header, and a link-time
// replacement covers allocations made inside libcondsel too. Relaxed
// atomic increments cost ~1ns per allocation, cheap enough to count
// every allocation rather than sample.
inline std::atomic<uint64_t> g_alloc_count{0};

inline uint64_t AllocCount() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

inline int EnvInt(const char* name, int def) {
  if (const char* s = std::getenv(name)) {
    const int v = std::atoi(s);
    if (v > 0) return v;
  }
  return def;
}

inline double EnvDouble(const char* name, double def) {
  if (const char* s = std::getenv(name)) {
    const double v = std::atof(s);
    if (v > 0.0) return v;
  }
  return def;
}

// Minimal JSON value for the machine-readable BENCH_*.json artifacts —
// the per-PR perf trajectory the CI job uploads. Insertion order is
// preserved and numbers use %.17g, so artifact diffs are stable across
// runs with unchanged measurements.
class Json {
 public:
  Json() = default;
  Json(bool v) : kind_(Kind::kBool), bool_(v) {}           // NOLINT
  Json(double v) : kind_(Kind::kNumber), num_(v) {}        // NOLINT
  Json(int v) : Json(static_cast<double>(v)) {}            // NOLINT
  Json(uint64_t v) : Json(static_cast<double>(v)) {}       // NOLINT
  Json(const char* v) : kind_(Kind::kString), str_(v) {}   // NOLINT
  Json(std::string v) : kind_(Kind::kString), str_(std::move(v)) {}  // NOLINT

  static Json Object() {
    Json j;
    j.kind_ = Kind::kObject;
    return j;
  }
  static Json Array() {
    Json j;
    j.kind_ = Kind::kArray;
    return j;
  }

  Json& Set(std::string key, Json value) {
    fields_.emplace_back(std::move(key), std::move(value));
    return *this;
  }
  Json& Push(Json value) {
    items_.push_back(std::move(value));
    return *this;
  }

  std::string Dump(int indent = 0) const {
    std::string out;
    DumpTo(&out, indent);
    return out;
  }

 private:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  static void Escape(const std::string& s, std::string* out) {
    out->push_back('"');
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out->push_back('\\');
        out->push_back(c);
      } else if (c == '\n') {
        *out += "\\n";
      } else {
        out->push_back(c);
      }
    }
    out->push_back('"');
  }

  void DumpTo(std::string* out, int indent) const {
    const std::string pad(static_cast<size_t>(indent) * 2, ' ');
    const std::string inner(static_cast<size_t>(indent + 1) * 2, ' ');
    switch (kind_) {
      case Kind::kNull:
        *out += "null";
        break;
      case Kind::kBool:
        *out += bool_ ? "true" : "false";
        break;
      case Kind::kNumber: {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", num_);
        *out += buf;
        break;
      }
      case Kind::kString:
        Escape(str_, out);
        break;
      case Kind::kArray:
        if (items_.empty()) {
          *out += "[]";
          break;
        }
        *out += "[\n";
        for (size_t i = 0; i < items_.size(); ++i) {
          *out += inner;
          items_[i].DumpTo(out, indent + 1);
          if (i + 1 < items_.size()) out->push_back(',');
          out->push_back('\n');
        }
        *out += pad + "]";
        break;
      case Kind::kObject:
        if (fields_.empty()) {
          *out += "{}";
          break;
        }
        *out += "{\n";
        for (size_t i = 0; i < fields_.size(); ++i) {
          *out += inner;
          Escape(fields_[i].first, out);
          *out += ": ";
          fields_[i].second.DumpTo(out, indent + 1);
          if (i + 1 < fields_.size()) out->push_back(',');
          out->push_back('\n');
        }
        *out += pad + "}";
        break;
    }
  }

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> fields_;
};

// Writes `root` to `filename` in the working directory (CI uploads the
// BENCH_*.json files as artifacts) and tells the human where it went.
inline void WriteBenchJson(const std::string& filename, const Json& root) {
  std::ofstream out(filename);
  if (!out.is_open()) {
    std::fprintf(stderr, "cannot write %s\n", filename.c_str());
    return;
  }
  out << root.Dump() << "\n";
  std::printf("# wrote %s\n", filename.c_str());
}

struct BenchEnv {
  Catalog catalog;
  CardinalityCache cache;
  std::unique_ptr<Evaluator> evaluator;
  std::unique_ptr<SitBuilder> builder;

  explicit BenchEnv(double default_scale = 0.01, double zipf_theta = 1.0) {
    SnowflakeOptions opt;
    opt.scale = EnvDouble("CONDSEL_SCALE", default_scale);
    opt.zipf_theta = zipf_theta;
    std::printf("# snowflake scale=%.4g (CONDSEL_SCALE to change)\n",
                opt.scale);
    catalog = BuildSnowflake(opt);
    evaluator = std::make_unique<Evaluator>(&catalog, &cache);
    builder = std::make_unique<SitBuilder>(evaluator.get(),
                                           SitBuildOptions{});
  }

  std::vector<Query> Workload(int num_joins, int num_queries,
                              uint64_t seed = 1234) {
    WorkloadOptions wopt;
    wopt.num_queries = num_queries;
    wopt.num_joins = num_joins;
    wopt.num_filters = 3;
    wopt.seed = seed + static_cast<uint64_t>(num_joins) * 101;
    return GenerateWorkload(catalog, evaluator.get(), wopt);
  }
};

// Allocates through every replaced operator-new form below, checking the
// counter moves for each. Returns nullptr on success, else the name of
// the first form whose allocation the counter missed — benches CHECK this
// at startup so allocs_per_estimate can't silently undercount, and
// tests/bench_alloc_hook_test.cc asserts it per form. Direct calls to the
// operator functions (not new-expressions) are used because the compiler
// may legally elide paired new/delete expressions, which would make the
// probe vacuous.
inline const char* AllocHookSelfTest() {
  struct Probe {
    const char* name;
    void* (*alloc)();
    void (*free)(void*);
  };
  static const Probe kProbes[] = {
      {"operator new", []() { return ::operator new(32); },
       [](void* p) { ::operator delete(p); }},
      {"operator new[]", []() { return ::operator new[](32); },
       [](void* p) { ::operator delete[](p); }},
      {"operator new(nothrow)",
       []() { return ::operator new(32, std::nothrow); },
       [](void* p) { ::operator delete(p, std::nothrow); }},
      {"operator new[](nothrow)",
       []() { return ::operator new[](32, std::nothrow); },
       [](void* p) { ::operator delete[](p, std::nothrow); }},
      {"operator new(align)",
       []() { return ::operator new(64, std::align_val_t{64}); },
       [](void* p) { ::operator delete(p, std::align_val_t{64}); }},
      {"operator new[](align)",
       []() { return ::operator new[](64, std::align_val_t{64}); },
       [](void* p) { ::operator delete[](p, std::align_val_t{64}); }},
      {"operator new(align, nothrow)",
       []() {
         return ::operator new(64, std::align_val_t{64}, std::nothrow);
       },
       [](void* p) {
         ::operator delete(p, std::align_val_t{64}, std::nothrow);
       }},
      {"operator new[](align, nothrow)",
       []() {
         return ::operator new[](64, std::align_val_t{64}, std::nothrow);
       },
       [](void* p) {
         ::operator delete[](p, std::align_val_t{64}, std::nothrow);
       }},
  };
  for (const Probe& probe : kProbes) {
    const uint64_t before = AllocCount();
    void* p = probe.alloc();
    const bool counted = AllocCount() > before;
    if (p != nullptr) probe.free(p);
    if (p == nullptr || !counted) return probe.name;
  }
  return nullptr;
}

// Every replaced operator delete below releases through this one
// out-of-line helper. Were each to call std::free directly, GCC would
// inline it into call sites that also see the replaced operator new and
// flag the pair under -Wmismatched-new-delete, although malloc/free is
// exactly the pairing the hooks implement.
[[gnu::noinline]] inline void ReleaseAllocation(void* p) noexcept {
  std::free(p);
}

}  // namespace bench
}  // namespace condsel

// Program-global allocation hooks backing AllocCount() above. Every
// replaceable allocation form is counted: ordinary, array, nothrow, and
// over-aligned. The over-aligned forms must be replaced explicitly —
// libstdc++'s defaults go straight to aligned_alloc rather than
// forwarding to ordinary operator new, so leaving them out silently
// undercounts every allocation of an alignas(>16) type.
// AllocHookSelfTest() above exercises each form.
void* operator new(std::size_t size) {
  condsel::bench::g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  condsel::bench::g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void* operator new(std::size_t size, std::align_val_t align) {
  condsel::bench::g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  // posix_memalign wants alignment ≥ sizeof(void*); align_val_t is
  // already a power of two by construction.
  std::size_t a = static_cast<std::size_t>(align);
  if (a < sizeof(void*)) a = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, a, size ? size : 1) == 0) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  condsel::bench::g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  std::size_t a = static_cast<std::size_t>(align);
  if (a < sizeof(void*)) a = sizeof(void*);
  void* p = nullptr;
  return posix_memalign(&p, a, size ? size : 1) == 0 ? p : nullptr;
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t& tag) noexcept {
  return ::operator new(size, align, tag);
}

void operator delete(void* p) noexcept {
  condsel::bench::ReleaseAllocation(p);
}
void operator delete[](void* p) noexcept {
  condsel::bench::ReleaseAllocation(p);
}
void operator delete(void* p, std::size_t) noexcept {
  condsel::bench::ReleaseAllocation(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  condsel::bench::ReleaseAllocation(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  condsel::bench::ReleaseAllocation(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  condsel::bench::ReleaseAllocation(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  condsel::bench::ReleaseAllocation(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  condsel::bench::ReleaseAllocation(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  condsel::bench::ReleaseAllocation(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  condsel::bench::ReleaseAllocation(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  condsel::bench::ReleaseAllocation(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  condsel::bench::ReleaseAllocation(p);
}

