// perfbench: the repository's end-to-end benchmark binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--expect-digest <hex>] [--light-rps r --heavy-rps r
//             --slo-p99-s s] [--out-dir dir] [--commit id]
//
// Normally launched through perfbench/run.py, which builds it, supplies
// the serve-zipf rates and the committed digest from perfbench/config.json
// and perfbench/digests.json, and passes the commit id.  Prints one line
// per metric ("name value unit"), writes the full result (provenance,
// every metric, span summary) under --out-dir, and ends with one JSON line
// {"correct", "attempted", "failed", "metrics"}.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "core/simd/simd.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) s += ", ";
    s += json_string(ms[i].name) + ": {\"value\": " + json_number(ms[i].value) +
         ", \"unit\": " + json_string(ms[i].unit) + "}";
  }
  return s + "}";
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--expect-digest hex] "
               "[--light-rps r --heavy-rps r --slo-p99-s s] [--out-dir dir] "
               "[--commit id]\n",
               msg);
  return 2;
}

struct Args {
  Options opts;
  std::string out_dir;
  std::string commit = "unknown";
};

bool parse(int argc, char** argv, Args& a, std::string& err) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) {
      err = "missing value for " + k;
      return false;
    }
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        a.opts.workload = v;
      } else if (k == "--seed") {
        a.opts.seed = std::stoull(v);
      } else if (k == "--seconds") {
        a.opts.seconds = std::stod(v);
      } else if (k == "--trace") {
        if (v != "0" && v != "1") {
          err = "--trace takes 0 or 1";
          return false;
        }
        a.opts.trace = v == "1";
      } else if (k == "--expect-digest") {
        a.opts.expected_digest = parse_hex64(v);
        if (!a.opts.expected_digest) {
          err = "bad digest " + v;
          return false;
        }
      } else if (k == "--light-rps") {
        a.opts.light_rps = std::stod(v);
      } else if (k == "--heavy-rps") {
        a.opts.heavy_rps = std::stod(v);
      } else if (k == "--slo-p99-s") {
        a.opts.slo_p99_s = std::stod(v);
      } else if (k == "--out-dir") {
        a.out_dir = v;
      } else if (k == "--commit") {
        a.commit = v;
      } else {
        err = "unknown option " + k;
        return false;
      }
    } catch (const std::exception&) {
      err = "bad value for " + k + ": " + v;
      return false;
    }
  }
  return true;
}

void write_result(const Args& a, const Outcome& out, const Trace& trace,
                  const std::string& stem) {
  std::ostringstream j;
  j << "{\n  \"workload\": " << json_string(a.opts.workload)
    << ",\n  \"seed\": " << a.opts.seed
    << ",\n  \"seconds\": " << json_number(a.opts.seconds)
    << ",\n  \"trace\": " << (a.opts.trace ? 1 : 0)
    << ",\n  \"kernel_backend\": " << json_string(mpipu::simd::backend_name())
    << ",\n  \"nproc\": " << a.opts.nproc
    << ",\n  \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
    << ",\n  \"commit\": " << json_string(a.commit)
    << ",\n  \"digest\": " << json_string(hex64(out.digest))
    << ",\n  \"digest_checked\": " << (out.digest_checked ? "true" : "false")
    << ",\n  \"attempted\": " << out.attempted
    << ",\n  \"failed\": " << out.failed
    << ",\n  \"error_rate\": " << json_number(out.error_rate())
    << ",\n  \"metrics\": " << metrics_json(out.gated)
    << ",\n  \"detail\": " << metrics_json(out.detail)
    << ",\n  \"samples\": {";
  for (size_t i = 0; i < out.samples.size(); ++i) {
    j << (i ? ",\n    " : "\n    ") << json_string(out.samples[i].first)
      << ": [";
    const std::vector<double>& v = out.samples[i].second;
    for (size_t k = 0; k < v.size(); ++k) {
      j << (k ? ", " : "") << json_number(v[k]);
    }
    j << "]";
  }
  j << "},\n  \"notes\": [";
  for (size_t i = 0; i < out.notes.size(); ++i) {
    j << (i ? ", " : "") << json_string(out.notes[i]);
  }
  j << "],\n  \"spans\": [";
  const std::vector<SpanSummary> sums = summarize_spans(trace.spans());
  for (size_t i = 0; i < sums.size(); ++i) {
    j << (i ? ",\n    " : "\n    ") << "{\"name\": " << json_string(sums[i].name)
      << ", \"count\": " << sums[i].count
      << ", \"total_s\": " << json_number(sums[i].total_s)
      << ", \"self_s\": " << json_number(sums[i].self_s) << "}";
  }
  j << "]\n}\n";
  std::ofstream(a.out_dir + "/" + stem + ".json") << j.str();

  if (trace.enabled()) {
    std::ofstream f(a.out_dir + "/" + stem + ".spans.json");
    f << "[";
    const std::vector<Span>& spans = trace.spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      f << (i ? ",\n " : "\n ") << "{\"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"group\": " << s.group
        << ", \"name\": " << json_string(s.name)
        << ", \"start\": " << json_number(s.start)
        << ", \"end\": " << json_number(s.end) << "}";
    }
    f << "\n]\n";
  }
}

int run(int argc, char** argv) {
  Args a;
  std::string err;
  if (!parse(argc, argv, a, err)) return usage(err.c_str());
  const unsigned hc = std::thread::hardware_concurrency();
  a.opts.nproc = hc > 0 ? static_cast<int>(hc) : 1;

  // A debug or unoptimized build would measure a different program.
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "perfbench: refusing a %s build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n", PERFBENCH_BUILD_TYPE);
    return 3;
  }
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing a build with assertions on\n");
  return 3;
#endif

  bool known = false;
  for (const std::string& w : workload_names()) known |= w == a.opts.workload;
  if (!known) return usage(("unknown workload '" + a.opts.workload + "'").c_str());
  if (!(a.opts.seconds > 0.0)) return usage("--seconds must be positive");

  Trace trace(a.opts.trace);
  Outcome out = run_workload(a.opts, trace);
  for (Metric& m : out.gated) {
    if (!std::isfinite(m.value)) {
      out.notes.push_back("non-finite metric " + m.name);
      out.check(false);
      m.value = 0.0;
    }
  }

  std::printf("# workload %s seed %llu backend %s nproc %d build %s commit %s\n",
              a.opts.workload.c_str(),
              static_cast<unsigned long long>(a.opts.seed),
              mpipu::simd::backend_name(), a.opts.nproc, PERFBENCH_BUILD_TYPE,
              a.commit.c_str());
  for (const Metric& m : out.detail) {
    std::printf("  %s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& n : out.notes) std::printf("# note: %s\n", n.c_str());
  std::printf("digest %s%s\n", hex64(out.digest).c_str(),
              out.digest_checked ? " (checked against the committed digest)"
                                 : "");
  std::printf("error_rate %.6g share (%lld failed of %lld)\n", out.error_rate(),
              static_cast<long long>(out.failed),
              static_cast<long long>(out.attempted));
  for (const Metric& m : out.gated) {
    std::printf("%s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  if (!a.out_dir.empty()) {
    const std::string stem = a.opts.workload + "-seed" +
                             std::to_string(a.opts.seed) + "-trace" +
                             (a.opts.trace ? "1" : "0");
    write_result(a, out, trace, stem);
  }

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              out.failed == 0 ? "true" : "false",
              static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed),
              metrics_json(out.gated).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
