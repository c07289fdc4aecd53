// The benchmark's four workloads. Each writes its raw measurements (sample
// lists, counts, spans, output checks) into the result document; run.py
// turns them into the end-to-end and per-layer metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/api/engine.hpp"
#include "support.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;  // measured-phase budget
  bool trace = false;
  std::string out;        // raw result document path
};

/// Outcome of one output check, reported to run.py, which fails the run
/// when any check fails.
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct Report {
  Json json;  // open object: workloads add their fields
  Tracer tracer;
  std::vector<Check> checks;
  std::int64_t attempted = 0;  // operations the workload ran

  explicit Report(bool trace) : tracer(trace) {}
  void check(std::string name, bool ok, std::string detail = "") {
    checks.push_back({std::move(name), ok, std::move(detail)});
  }
};

/// A single-trainer training configuration at paper scale.
struct TrainWorkload {
  const char* profile;
  const char* family;
  sptx::index_t dim;
  sptx::index_t rel_dim;
  float lr;
  bool adagrad;  // otherwise plain SGD
  bool shuffle_and_resample;
  int epochs;
  int eval_queries;  // test triplets ranked on both sides
  int eval_reps;     // evaluations of the trained model in an untraced run
};

void run_fb15k_transe_cached(const Args& args, Report& report);
void run_yago_transr_resample(const Args& args, Report& report);
void run_wn18_transh_ddp(const Args& args, Report& report);
void run_fb15k_serve_openloop(const Args& args, Report& report);

/// Record TaskPool::stats_json() under `key` (taken before and after the
/// measured phase).
void write_pool_stats(Report& report, const char* key);

/// Every workload's traced run measures the training layers the same way:
/// the planned loop of `tc` on `engine`'s model family (`spec`), replayed
/// through the public calls with a span around each, between two untraced
/// Engine::train runs whose epoch losses it must equal bit for bit. Writes
/// the "train" object and the bytes-moved model; leaves `engine` holding the
/// trained model.
void trace_training(const TrainWorkload& w, const sptx::models::ModelSpec& spec,
                    const sptx::kg::Dataset& ds, const sptx::train::TrainConfig& tc,
                    sptx::Engine& engine, Report& report);

/// Filtered evaluation of `engine`'s model on `w.eval_queries` test
/// triplets, `reps` times (an "eval.evaluate" span each); writes "eval".
void evaluate_sample(const TrainWorkload& w, const sptx::kg::Dataset& ds, int reps,
                     sptx::Engine& engine, Report& report);

/// Every workload's traced run probes serving the same way: a filtered
/// session (ANN on auto) over `engine`'s current model answers
/// kIdleTopkQueries top-10 completions (alternating tails and heads of
/// test triplets drawn from `seed`) from one caller, each timed; writes
/// "idle_topk_us". The session is closed on return.
void probe_idle_topk(sptx::Engine& engine, const sptx::kg::Dataset& ds,
                     std::uint64_t seed, Report& report);

}  // namespace perfbench
