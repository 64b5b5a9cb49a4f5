#include "common.h"

#include <sys/resource.h>

#include <cstdio>
#include <map>

namespace perfbench {

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

static size_t nearest_rank(size_t n, int pct) {
  size_t rank = (n * static_cast<size_t>(pct) + 99) / 100;
  return std::clamp<size_t>(rank, 1, n);
}

double percentile(std::vector<double> v, int pct) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[nearest_rank(v.size(), pct) - 1];
}

size_t samples_beyond(size_t n, int pct) {
  return n == 0 ? 0 : n - nearest_rank(n, pct);
}

int highest_supported_percentile(size_t n) {
  for (int pct : {99, 95, 90, 75, 50}) {
    if (samples_beyond(n, pct) >= kMinTailSamples) return pct;
  }
  return 0;
}

void Digest::tensor(const mpipu::Tensor& t) {
  value(t.c);
  value(t.h);
  value(t.w);
  bytes(t.data.data(), t.data.size() * sizeof(double));
}

void Digest::stats(const mpipu::DatapathStats& s) {
  value(s.fp_ops);
  value(s.int_ops);
  value(s.cycles);
  value(s.nibble_iterations);
  value(s.masked_products);
  value(s.multi_cycle_ops);
  value(s.skipped_iterations);
}

std::string hex64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::optional<uint64_t> parse_hex64(const std::string& s) {
  if (s.empty() || s.size() > 16) return std::nullopt;
  uint64_t v = 0;
  for (char c : s) {
    int d = 0;
    if (c >= '0' && c <= '9') {
      d = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      d = c - 'a' + 10;
    } else {
      return std::nullopt;
    }
    v = (v << 4) | static_cast<uint64_t>(d);
  }
  return v;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

int Trace::begin(const std::string& name, int parent, int64_t group) {
  if (!enabled_) return -1;
  const double t = now_s();
  return add(name, t, t, parent, group);
}

void Trace::end(int id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end = now_s();
}

int Trace::add(const std::string& name, double start, double end, int parent,
               int64_t group) {
  if (!enabled_) return -1;
  Span s;
  s.id = static_cast<int>(spans_.size());
  s.parent = parent;
  s.group = group;
  s.name = name;
  s.start = start;
  s.end = end;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      kids[static_cast<size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::vector<double> out(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start, hi = spans[i].end;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    // Union of the children's intervals, clipped to the parent.
    double covered = 0.0, cur_lo = 0.0, cur_hi = 0.0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = a;
        cur_hi = b;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    out[i] = (hi - lo) - covered;
  }
  return out;
}

std::vector<SpanSummary> summarize_spans(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, SpanSummary> by_name;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanSummary& s = by_name[spans[i].name];
    s.name = spans[i].name;
    ++s.count;
    s.total_s += spans[i].end - spans[i].start;
    s.self_s += self[i];
  }
  std::vector<SpanSummary> out;
  out.reserve(by_name.size());
  for (auto& [name, s] : by_name) out.push_back(s);
  return out;
}

}  // namespace perfbench
