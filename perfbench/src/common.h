// Shared pieces of the end-to-end benchmark: clocks, order statistics, the
// output digest, metric records and the span recorder of the traced run.
//
// Everything here is benchmark-side.  The program under test is reached
// only through its public API (api/, workload/, serve/, core/datapath.h,
// common/thread_pool.h); nothing in this directory reaches into plan,
// engine or kernel-table internals.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/datapath.h"
#include "nn/tensor.h"

namespace perfbench {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Order statistics.
// ---------------------------------------------------------------------------

/// Median of a non-empty sample (mean of the two middle values when even).
double median(std::vector<double> v);

/// Nearest-rank percentile (integer percent in (0, 100]) of a non-empty
/// sample: the value at 1-based rank ceil(pct * n / 100) of the sorted
/// sample.
double percentile(std::vector<double> v, int pct);

/// Samples strictly beyond the nearest-rank percentile `pct` of an
/// n-sample: n - ceil(pct * n / 100).
size_t samples_beyond(size_t n, int pct);

/// The reporting rule for tail percentiles: a percentile is reported only
/// when at least this many samples lie beyond it.
inline constexpr size_t kMinTailSamples = 10;

/// The highest of {99, 95, 90, 75, 50} whose nearest rank leaves at least
/// kMinTailSamples samples beyond it in an n-sample; 0 when none does.
int highest_supported_percentile(size_t n);

// ---------------------------------------------------------------------------
// Output digest (FNV-1a 64 over the exact bytes).
// ---------------------------------------------------------------------------

class Digest {
 public:
  void bytes(const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  template <typename T>
  void value(const T& v) {
    bytes(&v, sizeof(v));
  }
  void tensor(const mpipu::Tensor& t);
  void stats(const mpipu::DatapathStats& s);
  uint64_t get() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string hex64(uint64_t v);
std::optional<uint64_t> parse_hex64(const std::string& s);

// ---------------------------------------------------------------------------
// Metrics and the run outcome.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run of one workload produced.  `gated` holds exactly the
/// metrics BENCHMARK.json declares for the run's mode (end-to-end when
/// untraced, per-layer when traced); `detail` holds everything else the
/// run measured (per-node rows, per-phase serving numbers, sample counts),
/// which is printed and written to the result file but not gated.
struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> gated;
  std::vector<Metric> detail;
  /// Digest of the untimed warm-up outputs (+ estimate cycles): what the
  /// committed per-seed digest is compared against.
  uint64_t digest = 0;
  bool digest_checked = false;
  /// The raw timings behind the timed end-to-end metrics, in measurement
  /// order, written to the result file: (metric name, seconds).
  std::vector<std::pair<std::string, std::vector<double>>> samples;
  std::vector<std::string> notes;

  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  double error_rate() const {
    return attempted > 0 ? static_cast<double>(failed) /
                               static_cast<double>(attempted)
                         : 0.0;
  }
};

/// Peak resident set of this process so far, in MB (getrusage).
double peak_rss_mb();

// ---------------------------------------------------------------------------
// Span recorder (traced runs only).
// ---------------------------------------------------------------------------

struct Span {
  int id = 0;
  int parent = -1;  ///< -1 for a root span
  int64_t group = -1;  ///< spans of one pass / request share a group id
  std::string name;
  double start = 0.0;
  double end = 0.0;
};

/// In-memory span log.  Disabled recorders cost one branch per call; spans
/// are written out once, when the run ends.
class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Open a span; returns its id (or -1 when disabled).
  int begin(const std::string& name, int parent = -1, int64_t group = -1);
  void end(int id);
  /// Record a span whose bounds were measured elsewhere.
  int add(const std::string& name, double start, double end, int parent = -1,
          int64_t group = -1);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span.
class Scoped {
 public:
  Scoped(Trace& t, const std::string& name, int parent = -1,
         int64_t group = -1)
      : t_(t), id_(t.begin(name, parent, group)) {}
  ~Scoped() { t_.end(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Trace& t_;
  int id_;
};

/// Self time of every span: its duration minus the union of the intervals
/// its direct children cover (clipped to the span), indexed like spans.
std::vector<double> self_times(const std::vector<Span>& spans);

/// Per span name: count, total duration and total self time.
struct SpanSummary {
  std::string name;
  int count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};
std::vector<SpanSummary> summarize_spans(const std::vector<Span>& spans);

}  // namespace perfbench
