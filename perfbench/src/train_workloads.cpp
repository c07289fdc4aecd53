// The three training workloads.
//
// Untraced runs drive Engine::train / Engine::train_ddp and time epochs from
// outside through the per-epoch callback. The traced run of the two
// single-trainer workloads replays the trainer's planned loop through the
// library's public calls (negative sampling, plan compilation, fused
// forward, backward, optimizer step, post-step) with a span around each,
// and its per-epoch losses must equal the untraced run's bit for bit.
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/api/engine.hpp"
#include "src/distributed/transport.hpp"
#include "src/kg/negative_sampler.hpp"
#include "src/kg/synthetic.hpp"
#include "src/nn/optim.hpp"
#include "src/runtime/task_pool.hpp"
#include "src/tensor/workspace.hpp"
#include "src/train/batch_plan.hpp"
#include "workloads.hpp"

namespace perfbench {

using sptx::index_t;

namespace {

// FB15K / TransE: the paper's fixed order, so plans are compiled once and
// served from cache; the 3.8 MB entity table stays cache resident.
constexpr TrainWorkload kFb15kCached{"FB15K", "TransE", 64, 64, 0.05f, true, false,
                                     8, 1000, 2};
// YAGO3-10 / TransR: shuffle + resampled negatives recompile every epoch
// (through the prefetch path); the 31 MB table does not fit in cache.
constexpr TrainWorkload kYagoResample{"YAGO3-10", "TransR", 64, 32, 0.05f, true, true,
                                      3, 40, 1};
// WN18 / TransH as the DDP workload trains it (SGD, fixed order); its
// traced run measures the layers on one trainer.
constexpr TrainWorkload kWn18Ddp{"WN18", "TransH", 64, 64, 50.0f, false, false,
                                 4, 200, 1};
// An untraced run sets up kSetupReps times, then repeats one cycle until
// --seconds is used up: a training run (on DDP, one in each mode), then
// publishes for kPublishBatchSeconds.
constexpr int kSetupReps = 9;
constexpr double kPublishBatchSeconds = 0.25;

/// Whether another cycle fits: stop once it would overrun the budget by
/// more than half a cycle, so that noise rarely changes the cycle count.
bool another_cycle(std::int64_t t_begin, double cycle_s, double budget_s) {
  return ns_to_s(now_ns() - t_begin) + 0.5 * cycle_s < budget_s;
}

constexpr index_t kBatch = 32768;

sptx::models::ModelSpec model_spec(const char* family, index_t dim,
                                   index_t rel_dim, std::uint64_t seed) {
  sptx::models::ModelSpec spec;
  spec.family = family;
  spec.framework = "sparse";
  spec.config.dim = dim;
  spec.config.rel_dim = rel_dim;
  spec.config.margin = 0.5f;
  spec.seed = mix_seed(seed, 2);
  return spec;
}

/// Dataset generation plus model creation, repeated `reps` times (each
/// repetition regenerates the identical dataset from the seed); records
/// every repetition's total and generation time, returns the last dataset.
sptx::kg::Dataset set_up(const char* profile,
                         const sptx::models::ModelSpec& spec,
                         std::uint64_t seed, int reps, sptx::Engine& engine,
                         Report& report) {
  std::vector<double> setup_s, generate_s;
  sptx::kg::Dataset ds;
  for (int rep = 0; rep < reps; ++rep) {
    ds = sptx::kg::Dataset{};
    const std::int64_t t0 = now_ns();
    ScopedSpan setup_span(report.tracer, "setup");
    {
      ScopedSpan gen(report.tracer, "kg.generate", setup_span.id());
      sptx::Rng rng(mix_seed(seed, 1));
      ds = sptx::kg::generate(sptx::kg::profile_by_name(profile), rng);
    }
    const std::int64_t t1 = now_ns();
    {
      ScopedSpan create(report.tracer, "model.create", setup_span.id());
      engine.create_model(spec, ds.num_entities(), ds.num_relations());
    }
    const std::int64_t t2 = now_ns();
    setup_s.push_back(ns_to_s(t2 - t0));
    generate_s.push_back(ns_to_s(t1 - t0));
  }
  report.json.array("setup_s", setup_s).array("generate_s", generate_s);
  report.json.key("dataset").begin_object()
      .field("name", profile)
      .field("entities", static_cast<std::int64_t>(ds.num_entities()))
      .field("relations", static_cast<std::int64_t>(ds.num_relations()))
      .field("train", static_cast<std::int64_t>(ds.train.size()))
      .field("test", static_cast<std::int64_t>(ds.test.size()))
      .end_object();
  return ds;
}

/// Engine::publish() of `engine`'s current model with default session
/// options (freeze plus, where the family supports it, the ANN index
/// build), repeated for at least kPublishBatchSeconds; appends each time.
void time_publishes(sptx::Engine& engine, std::vector<double>& seconds) {
  const std::int64_t t_begin = now_ns();
  do {
    const std::int64_t t0 = now_ns();
    engine.publish();
    seconds.push_back(ns_to_s(now_ns() - t0));
  } while (ns_to_s(now_ns() - t_begin) < kPublishBatchSeconds);
}

sptx::train::TrainConfig train_config(const TrainWorkload& w,
                                      std::uint64_t seed) {
  sptx::train::TrainConfig tc;
  tc.epochs = w.epochs;
  tc.batch_size = kBatch;
  tc.lr = w.lr;
  tc.use_adagrad = w.adagrad;
  tc.seed = mix_seed(seed, 3);
  tc.shuffle = w.shuffle_and_resample;
  tc.resample_negatives = w.shuffle_and_resample;
  return tc;
}

/// Epoch wall times from the per-epoch callback's timestamps; epoch 0
/// runs from the call (so it includes sampling and the first compile).
std::vector<double> epoch_seconds(std::int64_t call_ns,
                                  const std::vector<std::int64_t>& stamps) {
  std::vector<double> out;
  std::int64_t prev = call_ns;
  for (std::int64_t s : stamps) {
    out.push_back(ns_to_s(s - prev));
    prev = s;
  }
  return out;
}

struct TimedTrain {
  std::vector<double> epoch_s;
  std::vector<float> loss;
  double wall_s = 0.0;
  sptx::sparse::PlanCache::Stats plans;
};

TimedTrain timed_train(sptx::Engine& engine, const sptx::TripletStore& data,
                       const sptx::train::TrainConfig& tc) {
  std::vector<std::int64_t> stamps;
  const std::int64_t t0 = now_ns();
  const sptx::train::TrainResult res = engine.train(
      data, tc, [&](int, float) { stamps.push_back(now_ns()); });
  TimedTrain out;
  out.wall_s = ns_to_s(now_ns() - t0);
  out.epoch_s = epoch_seconds(t0, stamps);
  out.loss = res.epoch_loss;
  out.plans = res.plan_stats;
  return out;
}

/// Fisher–Yates with the run's RNG — the trainer's shuffle, step for step.
void shuffle_positions(std::vector<index_t>& positions, sptx::Rng& rng) {
  for (std::size_t i = positions.size(); i > 1; --i) {
    const std::size_t j = rng.next_below(i);
    std::swap(positions[i - 1], positions[j]);
  }
}

/// The trainer's planned loop (train::train with plan_cache on), replayed
/// through public calls with a span around each. Compilation runs inline
/// instead of on the prefetch thread; it consumes no RNG, so the losses are
/// unchanged.
std::vector<float> traced_replay(sptx::models::KgeModel& model,
                                 const sptx::TripletStore& data,
                                 const sptx::train::TrainConfig& tc,
                                 Tracer& tracer, int root) {
  auto* scoring = dynamic_cast<sptx::models::ScoringCoreModel*>(&model);
  if (scoring == nullptr) throw std::runtime_error("replay needs a sparse model");
  const bool variant = tc.shuffle || tc.resample_negatives;
  const sptx::sparse::ScoringRecipe recipe = scoring->recipe();
  sptx::ScopedWorkspace workspace;

  sptx::Rng rng(tc.seed);
  std::vector<sptx::Triplet> negatives;
  std::unique_ptr<sptx::kg::NegativeSampler> sampler;
  {
    ScopedSpan s(tracer, "kg.sample", root);
    sampler = std::make_unique<sptx::kg::NegativeSampler>(
        data, tc.corruption, tc.filtered_negatives);
    negatives = sampler->pregenerate_k(data.triplets(), 1, rng);
  }
  std::unique_ptr<sptx::nn::Optimizer> opt;
  if (tc.use_adagrad)
    opt = std::make_unique<sptx::nn::Adagrad>(model.params(), tc.lr);
  else
    opt = std::make_unique<sptx::nn::Sgd>(model.params(), tc.lr);

  sptx::sparse::PlanCache cache;
  std::vector<index_t> positions;
  auto compile = [&](const std::vector<sptx::Triplet>& negs,
                     const std::vector<index_t>& perm, int parent) {
    ScopedSpan s(tracer, "train.compile", parent);
    sptx::train::EpochBatchSource src;
    src.data = sptx::kg::TripletSource(data);
    src.negatives = negs;
    src.positions = perm;
    src.k = 1;
    src.batch_size = tc.batch_size;
    return sptx::train::compile_epoch_plans(src, recipe, &cache);
  };

  if (tc.shuffle) {
    ScopedSpan s(tracer, "train.shuffle", root);
    positions.resize(static_cast<std::size_t>(data.size()));
    for (std::size_t i = 0; i < positions.size(); ++i)
      positions[i] = static_cast<index_t>(i);
    shuffle_positions(positions, rng);
  }
  std::vector<sptx::train::BatchPlan> plans = compile(negatives, positions, root);

  std::vector<float> losses;
  for (int epoch = 0; epoch < tc.epochs; ++epoch) {
    ScopedSpan ep(tracer, "train.epoch", root);
    std::vector<sptx::train::BatchPlan> next_plans;
    std::vector<sptx::Triplet> next_negatives;
    std::vector<index_t> next_positions;
    const bool have_next = variant && epoch + 1 < tc.epochs;
    if (have_next) {
      if (tc.resample_negatives) {
        ScopedSpan s(tracer, "kg.sample", ep.id());
        next_negatives = sampler->pregenerate_k(data.triplets(), 1, rng);
      }
      if (tc.shuffle) {
        ScopedSpan s(tracer, "train.shuffle", ep.id());
        next_positions = positions;
        shuffle_positions(next_positions, rng);
      }
      cache.invalidate();
      next_plans = compile(tc.resample_negatives ? next_negatives : negatives,
                           tc.shuffle ? next_positions : positions, ep.id());
    } else if (!variant && epoch > 0) {
      plans = compile(negatives, positions, ep.id());
    }

    double loss_sum = 0.0;
    index_t batches = 0;
    for (const sptx::train::BatchPlan& bp : plans) {
      {
        ScopedSpan s(tracer, "nn.zero_grad", ep.id());
        opt->zero_grad();
      }
      sptx::autograd::Variable loss;
      {
        ScopedSpan s(tracer, "kernels.fwd", ep.id());
        loss = scoring->loss(*bp.pos, *bp.neg);
      }
      {
        ScopedSpan s(tracer, "kernels.bwd", ep.id());
        loss.backward();
      }
      {
        ScopedSpan s(tracer, "nn.step", ep.id());
        opt->step();
      }
      {
        ScopedSpan s(tracer, "nn.post_step", ep.id());
        model.post_step();
      }
      loss_sum += loss.value().at(0, 0);
      ++batches;
    }
    losses.push_back(batches > 0 ? static_cast<float>(loss_sum / batches) : 0.0f);
    if (have_next) {
      if (tc.resample_negatives) negatives = std::move(next_negatives);
      if (tc.shuffle) positions = std::move(next_positions);
      plans = std::move(next_plans);
    }
  }
  return losses;
}

/// Bytes each stage moves per epoch, computed from tensor sizes: a
/// first-principles memory-traffic model, not a measurement.
///  fwd:  every scored triplet (positive and negative) gathers its rows;
///        TransR also reads each relation's projection once per batch.
///  bwd:  read-modify-write of the same gradient rows (2x fwd).
///  step: Adagrad streams the whole table every batch (read w, g, acc;
///        write w, acc = 20 B per element); SGD reads w, g and writes w
///        (12 B per element).
void write_bytes_model(Report& report, sptx::models::KgeModel& model,
                       const TrainWorkload& w, index_t num_relations,
                       index_t triples) {
  double param_elems = 0.0;
  for (auto& p : model.params()) param_elems += static_cast<double>(p.value().size());
  const double batches = static_cast<double>((triples + kBatch - 1) / kBatch);
  const std::string family = w.family;
  double row_floats = 3.0 * w.dim;                           // h, r, t
  if (family == "TransH") row_floats = 4.0 * w.dim;          // h, t, r, w_r
  if (family == "TransR") row_floats = 2.0 * w.dim + w.rel_dim;
  double fwd = 2.0 * triples * (row_floats * 4.0 + 4.0);
  if (family == "TransR")
    fwd += batches * num_relations * w.dim * w.rel_dim * 4.0;
  report.json.key("bytes_model").begin_object()
      .field("fwd_bytes_per_epoch", fwd)
      .field("bwd_bytes_per_epoch", 2.0 * fwd)
      .field("step_bytes_per_epoch", batches * param_elems * (w.adagrad ? 20.0 : 12.0))
      .field("param_elems", param_elems)
      .field("batches_per_epoch", batches)
      .end_object();
}

void write_train_runs(Json& j, const std::vector<TimedTrain>& runs) {
  j.key("runs").begin_array();
  for (const TimedTrain& r : runs) {
    j.begin_object()
        .array("epoch_s", r.epoch_s)
        .array("loss", std::vector<double>(r.loss.begin(), r.loss.end()))
        .field("wall_s", r.wall_s)
        .field("plan_hits", static_cast<std::int64_t>(r.plans.hits))
        .field("plan_misses", static_cast<std::int64_t>(r.plans.misses))
        .end_object();
  }
  j.end_array();
}

void check_repeatable(Report& report, const std::vector<TimedTrain>& runs) {
  bool same = true;
  for (const TimedTrain& r : runs) same = same && bit_equal(r.loss, runs[0].loss);
  report.check("train.repeatable", same,
               "every repetition of the seeded run has identical epoch losses");
}

void run_single_trainer(const TrainWorkload& w, const Args& args,
                        Report& report) {
  sptx::Engine engine;
  const sptx::models::ModelSpec spec =
      model_spec(w.family, w.dim, w.rel_dim, args.seed);
  const sptx::kg::Dataset ds = set_up(
      w.profile, spec, args.seed, args.trace ? 1 : kSetupReps, engine, report);
  const sptx::train::TrainConfig tc = train_config(w, args.seed);
  write_pool_stats(report, "pool_before");
  if (args.trace) {
    trace_training(w, spec, ds, tc, engine, report);
    write_pool_stats(report, "pool_after");
    evaluate_sample(w, ds, 1, engine, report);
    probe_idle_topk(engine, ds, args.seed, report);
    return;
  }

  std::vector<TimedTrain> runs;
  std::vector<double> publish_s;
  const std::int64_t t_begin = now_ns();
  double cycle_s = 0.0;
  do {
    const std::int64_t t0 = now_ns();
    engine.create_model(spec, ds.num_entities(), ds.num_relations());
    runs.push_back(timed_train(engine, ds.train, tc));
    time_publishes(engine, publish_s);
    cycle_s = ns_to_s(now_ns() - t0);
    if (runs.size() == 1) {
      // Later cycles repeat the same work; the allocator's retention across
      // them is not the library's working set.
      evaluate_sample(w, ds, w.eval_reps, engine, report);
      report.json.field("first_cycle_peak_rss_mb", peak_rss_mb());
    }
  } while (another_cycle(t_begin, cycle_s, args.seconds));
  write_pool_stats(report, "pool_after");
  report.attempted += static_cast<std::int64_t>(runs.size()) * tc.epochs +
                      static_cast<std::int64_t>(publish_s.size());
  check_repeatable(report, runs);

  report.json.array("publish_s", publish_s);
  report.json.key("train").begin_object();
  report.json.field("triples", static_cast<std::int64_t>(ds.train.size()));
  report.json.field("epochs", tc.epochs);
  report.json.field("final_loss", static_cast<double>(runs[0].loss.back()));
  write_train_runs(report.json, runs);
  report.json.end_object();
}

// ---- DDP ----------------------------------------------------------------------

struct DdpRun {
  std::vector<double> epoch_s;
  std::vector<float> loss;
  double wall_s = 0.0;
  std::int64_t shards = 0, allreduce_rows = 0, frames = 0, bytes = 0;
};

DdpRun timed_ddp(sptx::Engine& engine, const sptx::TripletStore& data,
                 sptx::distributed::DdpConfig cfg, Tracer& tracer,
                 const char* span_name) {
  std::vector<std::int64_t> stamps;
  cfg.on_epoch = [&](int, float) { stamps.push_back(now_ns()); };
  ScopedSpan span(tracer, span_name);
  const std::int64_t t0 = now_ns();
  const sptx::distributed::DdpResult res =
      engine.train_ddp(sptx::kg::TripletSource(data), cfg);
  DdpRun out;
  out.wall_s = ns_to_s(now_ns() - t0);
  out.epoch_s = epoch_seconds(t0, stamps);
  std::int64_t prev = t0;
  for (std::int64_t s : stamps) {
    tracer.add("distributed.epoch", prev, s, span.id());
    prev = s;
  }
  out.loss = res.epoch_loss;
  out.shards = res.shards_executed;
  out.allreduce_rows = res.allreduce_rows;
  out.frames = res.transport_frames;
  out.bytes = res.transport_bytes;
  return out;
}

void write_ddp_run(Json& j, const DdpRun& r) {
  j.begin_object()
      .array("epoch_s", r.epoch_s)
      .array("loss", std::vector<double>(r.loss.begin(), r.loss.end()))
      .field("wall_s", r.wall_s)
      .field("shards_executed", r.shards)
      .field("allreduce_rows", r.allreduce_rows)
      .field("transport_frames", r.frames)
      .field("transport_bytes", r.bytes)
      .end_object();
}

/// Round trips of one `payload`-byte frame over a socketpair whose sending
/// side uses a shared-memory ring, as the procs-mode workers do; the echo
/// side answers each frame with a 16-byte acknowledgement.
std::vector<double> frame_round_trips_us(std::size_t payload,
                                         std::int64_t ring_bytes, int trips,
                                         Tracer& tracer) {
  namespace dist = sptx::distributed;
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
    throw std::runtime_error("socketpair failed");
  dist::Conn a(fds[0]);
  dist::Conn b(fds[1]);
  auto ring = dist::ShmRing::create(static_cast<std::size_t>(ring_bytes));
  std::unique_ptr<dist::ShmRing> peer;
  if (ring) {
    peer = dist::ShmRing::attach(::dup(ring->fd()), static_cast<std::size_t>(ring_bytes));
    a.set_send_ring(ring.get());
    b.set_recv_ring(peer.get());
  }
  const std::string body(payload, '\x5a');
  const std::string ack(16, '\x01');
  std::exception_ptr echo_error;
  std::thread echo([&] {
    try {
      dist::Frame f;
      for (int i = 0; i < trips; ++i) {
        if (!b.recv(f, 10000)) return;
        b.send(dist::FrameType::kStep, ack, 10000);
      }
    } catch (...) {
      echo_error = std::current_exception();
    }
  });
  std::vector<double> rtt;
  const int span = tracer.open("distributed.frame_rtt");
  try {
    dist::Frame reply;
    for (int i = 0; i < trips; ++i) {
      const std::int64_t t0 = now_ns();
      a.send(dist::FrameType::kShardGrad, body, 10000);
      if (!a.recv(reply, 10000)) break;
      rtt.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    }
  } catch (...) {
    a.close();  // the echo side sees EOF and returns
    echo.join();
    throw;
  }
  tracer.close(span);
  echo.join();
  if (echo_error) std::rethrow_exception(echo_error);
  if (rtt.empty()) throw std::runtime_error("no frame round trip completed");
  return rtt;
}

}  // namespace

void write_pool_stats(Report& report, const char* key) {
  report.json.key(key).raw(sptx::runtime::TaskPool::instance().stats_json());
}

void trace_training(const TrainWorkload& w, const sptx::models::ModelSpec& spec,
                    const sptx::kg::Dataset& ds, const sptx::train::TrainConfig& tc,
                    sptx::Engine& engine, Report& report) {
  // The replay runs between two untraced runs: successive runs in one
  // process get faster as the allocator and page cache warm up, so it is
  // compared with the mean of its neighbours.
  std::vector<TimedTrain> runs;
  engine.create_model(spec, ds.num_entities(), ds.num_relations());
  runs.push_back(timed_train(engine, ds.train, tc));
  engine.create_model(spec, ds.num_entities(), ds.num_relations());
  const int root = report.tracer.open("train.run");
  const std::int64_t t0 = now_ns();
  const std::vector<float> traced_loss =
      traced_replay(engine.model(), ds.train, tc, report.tracer, root);
  const double traced_wall_s = ns_to_s(now_ns() - t0);
  report.tracer.close(root);
  engine.create_model(spec, ds.num_entities(), ds.num_relations());
  runs.push_back(timed_train(engine, ds.train, tc));
  report.attempted += static_cast<std::int64_t>(runs.size() + 1) * tc.epochs;
  check_repeatable(report, runs);
  report.check("trace.fidelity", bit_equal(traced_loss, runs[0].loss),
               "traced replay's epoch losses equal Engine::train's bit for bit");

  report.json.key("train").begin_object();
  report.json.field("triples", static_cast<std::int64_t>(ds.train.size()));
  report.json.field("epochs", tc.epochs);
  report.json.field("final_loss", static_cast<double>(runs[0].loss.back()));
  write_train_runs(report.json, runs);
  report.json.field("traced_wall_s", traced_wall_s);
  report.json.field("untraced_wall_s", 0.5 * (runs[0].wall_s + runs[1].wall_s));
  report.json.end_object();
  write_bytes_model(report, engine.model(), w, ds.num_relations(), ds.train.size());
}

void evaluate_sample(const TrainWorkload& w, const sptx::kg::Dataset& ds, int reps,
                     sptx::Engine& engine, Report& report) {
  sptx::eval::EvalConfig ec;
  ec.filtered = true;
  ec.max_queries = w.eval_queries;
  std::vector<double> eval_s;
  sptx::eval::RankingMetrics metrics;
  bool same = true;
  for (int rep = 0; rep < reps; ++rep) {
    ScopedSpan s(report.tracer, "eval.evaluate");
    const std::int64_t t0 = now_ns();
    const sptx::eval::RankingMetrics m = engine.evaluate(ds, ec);
    eval_s.push_back(ns_to_s(now_ns() - t0));
    same = same && (rep == 0 || m.mrr == metrics.mrr);
    metrics = m;
  }
  report.check("eval.repeatable", same,
               "repeated evaluations of one model give the same MRR");
  report.attempted += metrics.queries;
  report.json.key("eval").begin_object()
      .array("seconds", eval_s)
      .field("ranks", metrics.queries)
      .field("candidates_per_rank", static_cast<std::int64_t>(ds.num_entities()))
      .field("mrr", metrics.mrr)
      .field("hits_at_10", metrics.hits_at_10)
      .end_object();
}

void run_fb15k_transe_cached(const Args& args, Report& report) {
  run_single_trainer(kFb15kCached, args, report);
}

void run_yago_transr_resample(const Args& args, Report& report) {
  run_single_trainer(kYagoResample, args, report);
}

// WN18 / TransH with nproc workers, the same epochs from the same seed in
// threads mode and in procs mode; the two must agree bit for bit.
void run_wn18_transh_ddp(const Args& args, Report& report) {
  sptx::Engine engine;
  const TrainWorkload& w = kWn18Ddp;
  const sptx::models::ModelSpec spec = model_spec(w.family, w.dim, w.rel_dim, args.seed);
  const sptx::kg::Dataset ds = set_up(
      w.profile, spec, args.seed, args.trace ? 1 : kSetupReps, engine, report);

  sptx::distributed::DdpConfig cfg;
  cfg.workers = std::max(1u, std::thread::hardware_concurrency());
  cfg.epochs = w.epochs;
  cfg.batch_size = kBatch;
  cfg.shard_size = 8192;
  cfg.lr = w.lr;
  cfg.seed = mix_seed(args.seed, 3);

  write_pool_stats(report, "pool_before");
  std::vector<DdpRun> threads_runs, procs_runs;
  std::vector<double> publish_s;
  const std::int64_t t_begin = now_ns();
  double cycle_s = 0.0;
  do {
    const std::int64_t t0 = now_ns();
    cfg.mode = "threads";
    threads_runs.push_back(timed_ddp(engine, ds.train, cfg, report.tracer,
                                     "distributed.threads_run"));
    cfg.mode = "procs";
    procs_runs.push_back(timed_ddp(engine, ds.train, cfg, report.tracer,
                                   "distributed.procs_run"));
    if (args.trace) break;
    time_publishes(engine, publish_s);
    if (threads_runs.size() == 1)
      report.json.field("first_cycle_peak_rss_mb", peak_rss_mb());
    cycle_s = ns_to_s(now_ns() - t0);
  } while (another_cycle(t_begin, cycle_s, args.seconds));
  write_pool_stats(report, "pool_after");
  report.attempted += static_cast<std::int64_t>(threads_runs.size() * 2) * w.epochs +
                      static_cast<std::int64_t>(publish_s.size());
  if (!args.trace) report.json.array("publish_s", publish_s);

  bool identical = true;
  for (std::size_t i = 0; i < threads_runs.size(); ++i) {
    identical = identical && bit_equal(threads_runs[i].loss, procs_runs[i].loss) &&
                bit_equal(threads_runs[i].loss, threads_runs[0].loss);
  }
  report.check("ddp.threads_procs_bit_identical", identical,
               "per-epoch losses of mode=threads and mode=procs are equal bit for bit");

  report.json.key("ddp").begin_object();
  report.json.field("triples", static_cast<std::int64_t>(ds.train.size()));
  report.json.field("workers", cfg.workers);
  report.json.field("epochs", w.epochs);
  report.json.field("final_loss", static_cast<double>(threads_runs[0].loss.back()));
  report.json.key("threads").begin_array();
  for (const DdpRun& r : threads_runs) write_ddp_run(report.json, r);
  report.json.end_array();
  report.json.key("procs").begin_array();
  for (const DdpRun& r : procs_runs) write_ddp_run(report.json, r);
  report.json.end_array();

  if (args.trace) {
    const DdpRun& p = procs_runs[0];
    const std::size_t payload =
        p.frames > 0 ? static_cast<std::size_t>(p.bytes / p.frames) : 4096;
    const std::vector<double> rtt =
        frame_round_trips_us(payload, cfg.shm_bytes, 50, report.tracer);
    report.json.field("frame_payload_bytes", static_cast<std::int64_t>(payload));
    report.json.array("frame_rtt_us", rtt);
  }
  report.json.end_object();

  if (args.trace) {
    trace_training(w, spec, ds, train_config(w, args.seed), engine, report);
    evaluate_sample(w, ds, 1, engine, report);
    probe_idle_topk(engine, ds, args.seed, report);
  }
}

}  // namespace perfbench
