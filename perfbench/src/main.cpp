// Benchmark driver: runs one workload in this process and writes its raw
// measurements as one JSON document. run.py builds this binary, runs it,
// derives the metrics and checks the outputs.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1 --out FILE
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

using perfbench::Args;
using perfbench::Report;

void write_spans(Report& report) {
  const auto spans = report.tracer.spans();
  std::vector<std::string> names;
  std::vector<std::int64_t> start, end, parent, req;
  for (const auto& s : spans) {
    names.emplace_back(s.name);
    start.push_back(s.start_ns);
    end.push_back(s.end_ns);
    parent.push_back(s.parent);
    req.push_back(s.req);
  }
  report.json.key("spans").begin_object()
      .array("name", names)
      .array("start_ns", start)
      .array("end_ns", end)
      .array("parent", parent)
      .array("req", req)
      .end_object();
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload NAME --seed N --seconds S "
               "--trace 0|1 --out FILE\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench_driver: refusing to measure a non-Release build\n");
  return 3;
#endif
  try {
    Args args;
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--workload") args.workload = value;
      else if (flag == "--seed") args.seed = std::stoull(value);
      else if (flag == "--seconds") args.seconds = std::stod(value);
      else if (flag == "--trace") args.trace = value == "1";
      else if (flag == "--out") args.out = value;
      else return usage();
    }
    if (args.workload.empty() || args.out.empty() || argc % 2 == 0) return usage();

    Report report(args.trace);
    report.json.begin_object();
    report.json.field("workload", args.workload)
        .field("seed", static_cast<std::int64_t>(args.seed))
        .field("seconds", args.seconds)
        .field("trace", args.trace);
    perfbench::write_context(report.json);
    if (args.trace) {
      report.json.field("host_stream_gbps",
                        perfbench::stream_triad_gbps(
                            static_cast<int>(std::thread::hardware_concurrency())));
    }
    if (args.workload == "fb15k-transe-cached") {
      perfbench::run_fb15k_transe_cached(args, report);
    } else if (args.workload == "yago-transr-resample") {
      perfbench::run_yago_transr_resample(args, report);
    } else if (args.workload == "wn18-transh-ddp") {
      perfbench::run_wn18_transh_ddp(args, report);
    } else if (args.workload == "fb15k-serve-openloop") {
      perfbench::run_fb15k_serve_openloop(args, report);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
    report.json.field("peak_rss_mb", perfbench::peak_rss_mb());
    if (args.trace) write_spans(report);
    report.json.key("checks").begin_array();
    for (const auto& c : report.checks) {
      report.json.begin_object()
          .field("name", c.name)
          .field("ok", c.ok)
          .field("detail", c.detail)
          .end_object();
    }
    report.json.end_array();
    report.json.field("attempted", report.attempted);
    report.json.end_object();

    std::ofstream out(args.out);
    out << report.json.str() << '\n';
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
      return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
  return 0;
}
