// fb15k-serve-openloop: a filtered FB15K TransE session with ANN on auto,
// driven by an open-loop Poisson schedule at a fixed ladder of rates.
//
// Mix: 90% top-10 completions (half heads, half tails) and 10% try_score
// calls of 64 triplets whose deadline is the latency limit counted from the
// request's due time. In the write phase a publish() (ANN rebuild + hot
// swap) is due at a fixed interval, so writes compete with reads. The top
// rungs exceed the capacity measured when the benchmark was written, so
// the session sheds load with typed rejections there.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "open_loop.hpp"
#include "src/api/engine.hpp"
#include "src/kg/synthetic.hpp"
#include "src/serve/ann_index.hpp"
#include "workloads.hpp"

namespace perfbench {

using sptx::index_t;

namespace {

// The schedule, in order (each segment starts once the previous drained):
//  warmup,    kReferenceRate, reads only; the reference latency
//  reference  (serve.ref_p50_ms, serve.ref_p99_ms) is read in the second.
//  write      the same rate with a publish() due every kPublishEvery.
//  rungN      the ladder: rates kLadderStep apart from kLadderLow, each
//             with at least kMinRequestsPerRung requests so its p99 has 10
//             samples beyond it. The capacity of a 4-core host when the
//             benchmark was written is 10000-16000 requests/s; the
//             ladder spans 4000 to 34000.
constexpr double kReferenceRate = 2000.0;
constexpr double kReferenceSeconds = 4.0;
constexpr double kWriteSeconds = 6.0;
constexpr double kPublishEvery = 1.2;
constexpr double kLadderLow = 4000.0;
constexpr double kLadderStep = 1.05;
constexpr int kLadderRungs = 45;
constexpr double kLatencyLimitMs = 50.0;
constexpr int kMinRequestsPerRung = 1100;
constexpr int kTopK = 10;
constexpr int kScoreBatch = 64;
constexpr int kWarmupEpochs = 4;
constexpr int kRecallQueries = 200;
// 100 samples support the 90th percentile (10 beyond it).
constexpr int kIdleTopkQueries = 100;

enum Kind { kTopTails = 0, kTopHeads = 1, kScore = 2, kPublish = 3 };
enum Status { kOk = 0, kRejectedDeadline = 1, kRejectedQueueFull = 2, kError = 3 };

struct Request {
  int kind = kTopTails;
  std::int64_t anchor = 0;
  std::int64_t relation = 0;
  int score_slot = -1;  // index into the score payloads
};

double uniform01(sptx::Rng& rng) {
  return static_cast<double>(rng.next_u64() >> 11) * 0x1.0p-53;
}

/// The whole open-loop schedule: Poisson arrivals whose rate steps through
/// the phases of a segment back to back; a phase with publish_every > 0
/// also has a publish due at that interval. Offsets restart at 0 in each
/// segment, and each segment runs once the previous one has drained.
struct Schedule {
  std::vector<std::int64_t> offsets_ns;
  std::vector<Request> requests;
  std::vector<int> phase;  // phase index of each request
  std::vector<std::vector<sptx::Triplet>> score_payloads;
};

struct PhaseSpec {
  std::string name;
  double rate = 0.0;
  double seconds = 0.0;
  double publish_every = 0.0;
  int segment = 0;  // phases of one segment run back to back
  double start_s = 0.0;  // offset within the segment (set by make_schedule)
};

Schedule make_schedule(std::vector<PhaseSpec>& phases, sptx::Rng& rng,
                       const sptx::kg::Dataset& ds) {
  Schedule sc;
  const auto test = static_cast<std::uint64_t>(ds.test.size());
  auto pick = [&]() -> const sptx::Triplet& {
    return ds.test[static_cast<index_t>(rng.next_below(test))];
  };
  double phase_start = 0.0;
  for (std::size_t p = 0; p < phases.size(); ++p) {
    if (p > 0 && phases[p].segment != phases[p - 1].segment) phase_start = 0.0;
    phases[p].start_s = phase_start;
    const double end = phase_start + phases[p].seconds;
    const double every = phases[p].publish_every;
    double next_publish = every > 0.0 ? phase_start + every * 0.5 : end;
    double t = phase_start;
    for (;;) {
      t += -std::log(std::max(uniform01(rng), 1e-12)) / phases[p].rate;
      if (t >= end) break;
      while (next_publish <= t) {
        sc.offsets_ns.push_back(static_cast<std::int64_t>(next_publish * 1e9));
        sc.requests.push_back({kPublish, 0, 0, -1});
        sc.phase.push_back(static_cast<int>(p));
        next_publish += every;
      }
      Request r;
      const double mix = uniform01(rng);
      const sptx::Triplet& q = pick();
      if (mix < 0.45) {
        r = {kTopTails, q.head, q.relation, -1};
      } else if (mix < 0.9) {
        r = {kTopHeads, q.tail, q.relation, -1};
      } else {
        std::vector<sptx::Triplet> payload(kScoreBatch);
        for (auto& x : payload) x = pick();
        r = {kScore, 0, 0, static_cast<int>(sc.score_payloads.size())};
        sc.score_payloads.push_back(std::move(payload));
      }
      sc.offsets_ns.push_back(static_cast<std::int64_t>(t * 1e9));
      sc.requests.push_back(r);
      sc.phase.push_back(static_cast<int>(p));
    }
    phase_start = end;
  }
  return sc;
}

struct SteadyClock {
  std::int64_t now() const { return now_ns(); }
  void sleep_until(std::int64_t ns) const {
    const std::int64_t wait = ns - now_ns();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
  }
};

void write_schedule(Json& j, const std::vector<PhaseSpec>& phases,
                    const Schedule& sc, const std::vector<RequestRecord>& recs,
                    const std::vector<std::int64_t>& segment_base_ns) {
  const std::int64_t base = segment_base_ns.front();
  std::vector<std::int64_t> due, sent, start, done, kind, status, phase;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const RequestRecord& r = recs[i];
    due.push_back((r.due_ns - base) / 1000);
    sent.push_back((r.sent_ns - base) / 1000);
    start.push_back((r.start_ns - base) / 1000);
    done.push_back((r.done_ns - base) / 1000);
    kind.push_back(sc.requests[i].kind);
    status.push_back(r.status);
    phase.push_back(sc.phase[i]);
  }
  j.key("phases").begin_array();
  for (const PhaseSpec& p : phases) {
    const std::int64_t seg = segment_base_ns[static_cast<std::size_t>(p.segment)] - base;
    j.begin_object()
        .field("name", p.name)
        .field("rate", p.rate)
        .field("start_us", (seg + static_cast<std::int64_t>(p.start_s * 1e9)) / 1000)
        .field("end_us", (seg + static_cast<std::int64_t>((p.start_s + p.seconds) * 1e9)) / 1000)
        .end_object();
  }
  j.end_array();
  j.key("requests").begin_object()
      .array("due_us", due)
      .array("sent_us", sent)
      .array("start_us", start)
      .array("done_us", done)
      .array("kind", kind)
      .array("status", status)
      .array("phase", phase)
      .end_object();
}

void write_session_stats(Json& j, const char* key, const sptx::serve::SessionStats& s) {
  j.key(key).begin_object()
      .field("queries", s.queries)
      .field("rejected", s.rejected)
      .field("topk_ann", s.topk_ann)
      .field("topk_brute", s.topk_brute)
      .field("ann_candidates", s.ann_candidates)
      .field("installs", s.installs)
      .field("batch_requests", s.batcher.requests)
      .field("batches_executed", s.batcher.batches_executed)
      .field("coalesced_requests", s.batcher.coalesced_requests)
      .field("rejected_queue_full", s.batcher.rejected_queue_full)
      .field("rejected_deadline", s.batcher.rejected_deadline)
      .field("plan_hits", s.plans.hits)
      .field("plan_misses", s.plans.misses)
      .end_object();
}

}  // namespace

void probe_idle_topk(sptx::Engine& engine, const sptx::kg::Dataset& ds,
                     std::uint64_t seed, Report& report) {
  sptx::serve::SessionOptions so;
  so.ann = sptx::serve::AnnMode::kAuto;
  so.filter = &ds.train;
  const auto session = engine.open_session(so);
  sptx::Rng rng(mix_seed(seed, 5));
  std::vector<double> topk_us;
  bool answered = true;
  for (int q = 0; q < kIdleTopkQueries; ++q) {
    const sptx::Triplet& t = ds.test[static_cast<index_t>(
        rng.next_below(static_cast<std::uint64_t>(ds.test.size())))];
    ScopedSpan s(report.tracer, "serve.idle_topk");
    const std::int64_t t0 = now_ns();
    const auto top = q % 2 == 0 ? session->top_tails(t.head, t.relation, kTopK)
                                : session->top_heads(t.relation, t.tail, kTopK);
    topk_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    answered = answered && static_cast<int>(top.size()) == kTopK;
  }
  report.check("serve.idle_topk_answers", answered,
               "every idle top-10 query returns 10 entities");
  report.attempted += kIdleTopkQueries;
  report.json.array("idle_topk_us", topk_us);
}

// The served model (dataset, initialisation, warm-up training) is the same
// for every seed, so the ANN index and the per-query cost do not vary with
// it; --seed draws the request schedule and the recall sample.
constexpr std::uint64_t kModelSeed = 15;
// The warm-up training, as a single-trainer workload: the traced run
// measures its layers and evaluates the served model on this many queries.
constexpr TrainWorkload kWarmup{"FB15K", "TransE", 64, 64, 0.05f, true, false,
                                kWarmupEpochs, 400, 1};

void run_fb15k_serve_openloop(const Args& args, Report& report) {
  sptx::Engine engine;
  sptx::models::ModelSpec spec;
  spec.family = kWarmup.family;
  spec.config.dim = kWarmup.dim;
  spec.config.rel_dim = kWarmup.rel_dim;
  spec.config.margin = 0.5f;
  spec.seed = mix_seed(kModelSeed, 2);
  sptx::train::TrainConfig tc;
  tc.epochs = kWarmup.epochs;
  tc.batch_size = 32768;
  tc.lr = kWarmup.lr;
  tc.use_adagrad = kWarmup.adagrad;
  tc.seed = mix_seed(kModelSeed, 3);

  // Set-up: dataset, model, warm-up training and the filtered ANN session.
  sptx::kg::Dataset ds;
  std::shared_ptr<sptx::serve::InferenceSession> session;
  sptx::serve::SessionOptions so;
  so.ann = sptx::serve::AnnMode::kAuto;
  so.queue_limit = 2 * kScoreBatch;  // two queued score requests
  std::vector<double> setup_s, generate_s;
  std::vector<float> warm_loss;
  std::vector<std::vector<double>> warm_epoch_s;  // per set-up, from the epoch callback
  const int reps = args.trace ? 1 : 5;
  for (int rep = 0; rep < reps; ++rep) {
    session.reset();
    ds = sptx::kg::Dataset{};
    ScopedSpan setup_span(report.tracer, "setup");
    const std::int64_t t0 = now_ns();
    {
      ScopedSpan s(report.tracer, "kg.generate", setup_span.id());
      sptx::Rng rng(mix_seed(kModelSeed, 1));
      ds = sptx::kg::generate(sptx::kg::profile_by_name("FB15K"), rng);
    }
    const std::int64_t t1 = now_ns();
    engine.create_model(spec, ds.num_entities(), ds.num_relations());
    {
      ScopedSpan s(report.tracer, "train.warmup", setup_span.id());
      std::vector<double> epoch_s;
      std::int64_t prev = now_ns();
      warm_loss = engine.train(ds.train, tc, [&](int, float) {
                            const std::int64_t t = now_ns();
                            epoch_s.push_back(ns_to_s(t - prev));
                            prev = t;
                          }).epoch_loss;
      warm_epoch_s.push_back(std::move(epoch_s));
    }
    so.filter = &ds.train;
    {
      ScopedSpan s(report.tracer, "serve.open_session", setup_span.id());
      session = engine.open_session(so);
    }
    setup_s.push_back(ns_to_s(now_ns() - t0));
    generate_s.push_back(ns_to_s(t1 - t0));
  }
  report.json.array("setup_s", setup_s).array("generate_s", generate_s);
  report.json.field("final_loss", static_cast<double>(warm_loss.back()));
  if (!args.trace) {
    report.json.key("train").begin_object()
        .field("triples", static_cast<std::int64_t>(ds.train.size()))
        .field("epochs", tc.epochs)
        .field("final_loss", static_cast<double>(warm_loss.back()));
    report.json.key("runs").begin_array();
    for (const auto& epoch_s : warm_epoch_s)
      report.json.begin_object().array("epoch_s", epoch_s).end_object();
    report.json.end_array().end_object();
  }

  // Recall of the ANN top-10 against a brute-force session on the same
  // weights, over a query sample drawn from the seed. The brute-force
  // session is closed before the load so publish() does not refresh it.
  sptx::Rng rng(mix_seed(args.seed, 4));
  double recall_sum = 0.0;
  sptx::serve::SessionOptions brute_so = so;
  brute_so.ann = sptx::serve::AnnMode::kOff;
  {
    const auto brute = engine.open_session(brute_so);
    for (int q = 0; q < kRecallQueries; ++q) {
      const sptx::Triplet& t = ds.test[static_cast<index_t>(
          rng.next_below(static_cast<std::uint64_t>(ds.test.size())))];
      const bool tails = (q % 2) == 0;
      const auto a = tails ? session->top_tails(t.head, t.relation, kTopK)
                           : session->top_heads(t.relation, t.tail, kTopK);
      const auto b = tails ? brute->top_tails(t.head, t.relation, kTopK)
                           : brute->top_heads(t.relation, t.tail, kTopK);
      int hit = 0;
      for (const auto& pb : b)
        for (const auto& pa : a) hit += pa.entity == pb.entity ? 1 : 0;
      recall_sum += b.empty() ? 1.0 : static_cast<double>(hit) / static_cast<double>(b.size());
    }
  }
  report.json.field("recall_at_10", recall_sum / kRecallQueries);
  report.json.field("recall_queries", kRecallQueries);

  if (args.trace) {
    const auto frozen = engine.freeze();
    ScopedSpan s(report.tracer, "serve.ann_build");
    const auto index = sptx::serve::maybe_build_ann(
        *frozen, sptx::serve::AnnMode::kOn, 0);
    report.json.field("ann_lists", static_cast<std::int64_t>(index ? index->k_lists() : 0));
  }
  if (args.trace) {
    // Leaves the engine holding the same weights as the warm-up (the
    // replay's fidelity check proves the runs identical).
    trace_training(kWarmup, spec, ds, tc, engine, report);
    evaluate_sample(kWarmup, ds, 1, engine, report);
    probe_idle_topk(engine, ds, args.seed, report);
  }

  std::vector<PhaseSpec> phases;
  phases.push_back({"warmup", kReferenceRate, 1.0, 0.0, 0});
  phases.push_back({"reference", kReferenceRate, kReferenceSeconds, 0.0, 0});
  phases.push_back({"write", kReferenceRate, kWriteSeconds, kPublishEvery, 1});
  double rate = kLadderLow;
  for (int i = 0; i < kLadderRungs; ++i, rate *= kLadderStep)
    phases.push_back({"rung" + std::to_string(i), rate, kMinRequestsPerRung / rate, 0.0, 2});
  Schedule sc = make_schedule(phases, rng, ds);
  std::vector<std::vector<float>> score_results(sc.score_payloads.size());

  const int clients =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()) - 1);
  const auto stats_before = session->stats();
  write_pool_stats(report, "pool_before");
  auto exec = [&](std::size_t i, std::int64_t due_ns) -> int {
    const Request& r = sc.requests[i];
    switch (r.kind) {
      case kTopTails:
        return session->top_tails(r.anchor, r.relation, kTopK).empty() ? kError : kOk;
      case kTopHeads:
        return session->top_heads(r.relation, r.anchor, kTopK).empty() ? kError : kOk;
      case kScore: {
        const std::int64_t left_us =
            (due_ns + static_cast<std::int64_t>(kLatencyLimitMs * 1e6) - now_ns()) / 1000;
        sptx::serve::ScoreResult res = session->try_score(
            sc.score_payloads[static_cast<std::size_t>(r.score_slot)],
            std::max<std::int64_t>(1, left_us));
        if (res.rejected == sptx::serve::RejectReason::kDeadline) return kRejectedDeadline;
        if (res.rejected == sptx::serve::RejectReason::kQueueFull) return kRejectedQueueFull;
        score_results[static_cast<std::size_t>(r.score_slot)] = std::move(res.scores);
        return kOk;
      }
      default:
        engine.publish(so);
        return kOk;
    }
  };
  SteadyClock clock;
  std::vector<RequestRecord> records(sc.requests.size());
  std::vector<std::int64_t> segment_base_ns;
  for (int seg = 0; seg <= phases.back().segment; ++seg) {
    std::vector<std::size_t> index;
    std::vector<std::int64_t> offsets;
    for (std::size_t i = 0; i < sc.requests.size(); ++i) {
      const int p = sc.phase[i];
      if (phases[static_cast<std::size_t>(p)].segment == seg) {
        index.push_back(i);
        offsets.push_back(sc.offsets_ns[i]);
      }
    }
    segment_base_ns.push_back(now_ns() + 2'000'000);
    const auto seg_records = run_open_loop(
        clock, segment_base_ns.back(), offsets, clients,
        [&](std::size_t k, std::int64_t due_ns) { return exec(index[k], due_ns); });
    for (std::size_t k = 0; k < index.size(); ++k) records[index[k]] = seg_records[k];
  }
  write_pool_stats(report, "pool_after");
  const auto stats_after = session->stats();

  // Every accepted try_score must equal score() for the same triplets (all
  // published snapshots carry the same weights).
  bool scores_match = true;
  std::int64_t accepted_scores = 0;
  for (std::size_t i = 0; i < sc.score_payloads.size(); ++i) {
    if (score_results[i].empty()) continue;
    ++accepted_scores;
    scores_match = scores_match && score_results[i] == session->score(sc.score_payloads[i]);
  }
  report.check("serve.try_score_equals_score", scores_match && accepted_scores > 0,
               "every accepted try_score equals score() on the same triplets");

  if (report.tracer.enabled()) {
    for (std::size_t i = 0; i < records.size(); ++i) {
      const RequestRecord& r = records[i];
      const auto req = static_cast<std::int64_t>(i);
      const int root = report.tracer.add("serve.request", r.due_ns, r.done_ns, -1, req);
      report.tracer.add("serve.queue", r.due_ns, r.start_ns, root, req);
      const int kind = sc.requests[i].kind;
      const char* exec_name = kind == kScore     ? "serve.score"
                              : kind == kPublish ? "serve.publish"
                                                 : "serve.topk";
      report.tracer.add(exec_name, r.start_ns, r.done_ns, root, req);
    }
  }

  report.json.key("serve").begin_object();
  report.json.field("latency_limit_ms", kLatencyLimitMs);
  report.json.field("clients", clients);
  report.json.field("accepted_scores", accepted_scores);
  write_session_stats(report.json, "stats_before", stats_before);
  write_session_stats(report.json, "stats_after", stats_after);
  write_schedule(report.json, phases, sc, records, segment_base_ns);
  report.attempted += static_cast<std::int64_t>(records.size());
  report.json.end_object();
}

}  // namespace perfbench
