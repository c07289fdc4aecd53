#!/usr/bin/env python3
"""Paper-scale, layer-by-layer benchmark of the sptx library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N      # every workload, one table

Run from the repository root. The first call configures and builds
perfbench/CMakeLists.txt (Release) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); later calls rebuild incrementally.

Each workload runs in its own driver process. With --trace 0 the driver
measures the end-to-end metrics; with --trace 1 it records spans around the
library's public calls and this script derives the per-layer metrics and
self times. Outputs are checked (per-seed references, bit-identity claims,
try_score against score) and a failed check makes `correct` false and the
exit code 1. The last line of stdout is the result as one JSON object.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import harness  # noqa: E402

WORKLOADS = [
    "fb15k-transe-cached",
    "yago-transr-resample",
    "wn18-transh-ddp",
    "fb15k-serve-openloop",
]
REFERENCES = os.path.join(HERE, "references.json")
MANIFEST = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
RECALL_FLOOR = 0.45
# serve.ref_p50_ms / serve.ref_p99_ms: the median over this many equal windows of
# the reference phase of each window's percentile, so one host stall moves
# one window rather than the whole tail.
REFERENCE_WINDOWS = 6
DRIVER_TIMEOUT_S = 170


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build():
    """Configure (once) and build the driver; build output goes to stderr."""
    bdir = build_dir()
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1),
                  "--target", "perfbench_driver", "perfbench_selftest"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise SystemExit("perfbench: build failed: %s" % " ".join(cmd))
    return bdir


def run_driver(bdir, workload, seed, seconds, trace):
    raw_dir = os.path.join(bdir, "raw")
    tmp_dir = os.path.join(bdir, "tmp")
    os.makedirs(raw_dir, exist_ok=True)
    os.makedirs(tmp_dir, exist_ok=True)
    out = os.path.join(raw_dir, "%s-%d-t%d.json" % (workload, seed, trace))
    env = dict(os.environ)
    # Multi-process DDP puts its run directory (data file, socket) under
    # TMPDIR; keep it inside the checkout and the socket path short.
    env["TMPDIR"] = os.path.relpath(tmp_dir)
    cmd = [os.path.join(bdir, "perfbench_driver"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out", out]
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                          timeout=DRIVER_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit("perfbench: driver failed for %s (exit %d)" % (workload, proc.returncode))
    with open(out) as f:
        return json.load(f)


# ---- metric derivation ----------------------------------------------------------


def pool_delta(raw):
    before, after = raw["pool_before"], raw["pool_after"]
    executed = after["tasks_executed"] - before["tasks_executed"]
    stolen = after["tasks_stolen"] - before["tasks_stolen"]
    return executed, (stolen / executed if executed else 0.0)


def after_first(runs):
    return [s for r in runs for s in r["epoch_s"][1:]]


def train_rate(triples, runs):
    """Positives per second over every epoch after the first of each run."""
    epochs = after_first(runs)
    return triples * len(epochs) / sum(epochs)


def first_epoch(runs):
    return statistics.median([r["epoch_s"][0] for r in runs])


def workload_e2e(raw):
    """The workload's own end-to-end metrics beyond the manifest's. They are
    printed with the rest but left out of the result line, which holds only
    metrics every workload measures."""
    w = raw["workload"]
    if w == "fb15k-transe-cached":
        # A YAGO process runs two 3-epoch trainings and one 80-rank
        # evaluation, so these rest on one or two samples there.
        return {
            "first_epoch_s": (first_epoch(raw["train"]["runs"]), "s"),
            "mrr": (raw["eval"]["mrr"], "ratio"),
            "eval_queries_per_s": (raw["eval"]["ranks"] / statistics.median(raw["eval"]["seconds"]), "1/s"),
        }
    if w == "wn18-transh-ddp":
        d = raw["ddp"]
        return {
            "first_epoch_s": (first_epoch(d["threads"]), "s"),
            "procs_train_triples_per_s": (train_rate(d["triples"], d["procs"]), "1/s"),
        }
    if w == "fb15k-serve-openloop":
        return {"recall_at_10": (raw["recall_at_10"], "ratio")}
    return {}


KIND_TOP_TAILS, KIND_TOP_HEADS, KIND_SCORE, KIND_PUBLISH = 0, 1, 2, 3
STATUS_OK = 0
STATUS_ERROR = 3


def serve_requests(raw):
    """Per-request tuples from the driver's columnar arrays (times in us)."""
    r = raw["serve"]["requests"]
    keys = ["due_us", "sent_us", "start_us", "done_us", "kind", "status", "phase"]
    return [dict(zip(keys, row)) for row in zip(*(r[k] for k in keys))]


def read_latency_ms(req, limit_ms):
    """Latency from due time. A rejected or failed request counts as at
    least twice the limit, so it misses the limit in every percentile."""
    latency = (req["done_us"] - req["due_us"]) / 1000.0
    return latency if req["status"] == STATUS_OK else max(latency, 2.0 * limit_ms)


def ladder(raw):
    """Per-rung verdicts: p99 within the limit and no growing backlog."""
    s = raw["serve"]
    limit = s["latency_limit_ms"]
    reqs = [q for q in serve_requests(raw) if q["kind"] != KIND_PUBLISH]
    due = [q["due_us"] for q in reqs]
    done = [q["done_us"] for q in reqs]
    rungs = []
    for index, phase in enumerate(s["phases"]):
        lat = [read_latency_ms(q, limit) for q in reqs if q["phase"] == index]
        p99 = harness.tail_percentile(lat, 99.0)
        growing = harness.backlog_growing(due, done, phase["start_us"], phase["end_us"])
        rungs.append({
            "name": phase["name"], "rate": phase["rate"], "n": len(lat),
            "p50_ms": harness.percentile(lat, 50.0), "p99_ms": p99, "growing": growing,
            "ok": p99 is not None and p99 <= limit and not growing,
        })
    return rungs


def max_passing_rate(rungs):
    """Rate of the highest ladder rung that meets the limit without a
    growing backlog (0 when none does)."""
    return max([r["rate"] for r in rungs if r["name"].startswith("rung") and r["ok"]], default=0.0)


def publish_seconds(raw):
    """Each publish() of the run: under load on the serving workload, right
    after training on the others."""
    if "serve" in raw:
        return [(q["done_us"] - q["start_us"]) / 1e6 for q in serve_requests(raw) if q["kind"] == KIND_PUBLISH]
    return raw["publish_s"]


def serve_load(raw):
    """Latency at the reference rate, the ladder's highest passing rate and
    the share of failed requests. Run-to-run host noise moves these by more
    than the 25% maximum bound of an end-to-end metric, so they are
    per-layer metrics."""
    s = raw["serve"]
    limit = s["latency_limit_ms"]
    reads = [q for q in serve_requests(raw) if q["kind"] != KIND_PUBLISH]
    ref_index = [p["name"] for p in s["phases"]].index("reference")
    ref_phase = s["phases"][ref_index]
    windows = harness.windowed_percentiles(
        [(q["due_us"], read_latency_ms(q, limit)) for q in reads if q["phase"] == ref_index],
        ref_phase["start_us"], ref_phase["end_us"], REFERENCE_WINDOWS, (50.0, 99.0))
    fails = sum(1 for q in reads if read_latency_ms(q, limit) > limit)
    return {
        "serve.ref_p50_ms": (statistics.median(windows[50.0]), "ms"),
        "serve.ref_p99_ms": (statistics.median(windows[99.0]), "ms"),
        "serve.max_rate_rps": (max_passing_rate(ladder(raw)), "1/s"),
        "serve.fail_frac": (fails / len(reads), "ratio"),
    }


def end_to_end(raw):
    """The end-to-end metrics every workload measures (on DDP, training
    counts threads mode; on serving, the warm-up training before the load),
    then the workload's own."""
    if raw["workload"] == "wn18-transh-ddp":
        triples, runs, loss = raw["ddp"]["triples"], raw["ddp"]["threads"], raw["ddp"]["final_loss"]
    else:
        triples, runs, loss = raw["train"]["triples"], raw["train"]["runs"], raw["train"]["final_loss"]
    m = {
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
        "train_triples_per_s": (train_rate(triples, runs), "1/s"),
        "final_loss": (loss, "loss"),
        "peak_rss_mb": (raw.get("first_cycle_peak_rss_mb", raw["peak_rss_mb"]), "MB"),
        # Measured on every workload but left out of the result line: the
        # freeze's page faults put it in one of two or three levels that
        # last for seconds, so it did not repeat within a bound.
        "publish_s": (statistics.median(publish_seconds(raw)), "s"),
    }
    m.update(workload_e2e(raw))
    return m


# Leaf layers of the traced training replay; with the two container spans
# (train.run, train.epoch) they cover the traced wall time.
TRAIN_LAYERS = ["kg.sample", "train.shuffle", "train.compile", "nn.zero_grad",
                "kernels.fwd", "kernels.bwd", "nn.step", "nn.post_step"]


def training_layers(raw, selfs, spans):
    t = raw["train"]
    bm = raw["bytes_model"]
    bw = raw["host_stream_gbps"] * 1e9
    epochs = t["epochs"]
    run_i = spans["name"].index("train.run")
    run_s = (spans["end_ns"][run_i] - spans["start_ns"][run_i]) * 1e-9
    runs = t["runs"]
    hits = runs[0]["plan_hits"]
    lookups = hits + runs[0]["plan_misses"]
    layer_sum = sum(selfs.get(n, 0.0) for n in TRAIN_LAYERS)
    m = {
        "kg.sample_s": (selfs.get("kg.sample", 0.0), "s"),
        "train.shuffle_s": (selfs.get("train.shuffle"), "s"),  # shuffling workloads only
        "train.compile_s": (selfs.get("train.compile", 0.0), "s"),
        "train.plan_hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
        "train.epoch_s_p50": (statistics.median(runs[0]["epoch_s"]), "s"),
        "train.epoch_s_max": (max(runs[0]["epoch_s"]), "s"),
        "nn.zero_grad_s": (selfs.get("nn.zero_grad", 0.0), "s"),
        "trace.overhead_frac": (t["traced_wall_s"] / t["untraced_wall_s"] - 1.0, "ratio"),
        "trace.unaccounted_frac": ((run_s - layer_sum) / run_s, "ratio"),
    }
    # Achieved bandwidth of each stage next to its time at stream bandwidth.
    for span, key in (("kernels.fwd", "fwd_bytes_per_epoch"),
                      ("kernels.bwd", "bwd_bytes_per_epoch"),
                      ("nn.step", "step_bytes_per_epoch")):
        seconds = selfs.get(span, 0.0)
        moved = bm[key] * epochs
        m[span + "_s"] = (seconds, "s")
        m[span + "_gbps"] = (moved / seconds * 1e-9 if seconds else 0.0, "GB/s")
        m[span + "_pred_s"] = (moved / bw, "s")
    m["nn.post_step_s"] = (selfs.get("nn.post_step", 0.0), "s")
    ev = raw["eval"]
    m["eval.evaluate_s"] = (selfs.get("eval.evaluate", 0.0), "s")
    m["eval.candidates_per_s"] = (ev["ranks"] * ev["candidates_per_rank"] / selfs["eval.evaluate"], "1/s")
    return m


def ddp_layers(raw):
    d = raw["ddp"]
    th, pr = d["threads"][0], d["procs"][0]
    epochs = d["epochs"]
    rtt = statistics.median(d["frame_rtt_us"])
    return {
        "distributed.threads_epoch_s": (statistics.median(th["epoch_s"][1:]), "s"),
        "distributed.procs_epoch_s": (statistics.median(pr["epoch_s"][1:]), "s"),
        "distributed.procs_first_epoch_s": (pr["epoch_s"][0], "s"),
        "distributed.transport_frames_per_epoch": (pr["transport_frames"] / epochs, "count"),
        "distributed.transport_mb_per_epoch": (pr["transport_bytes"] / 1e6 / epochs, "MB"),
        "distributed.allreduce_rows_per_epoch": (th["allreduce_rows"] / epochs, "count"),
        "distributed.frame_rtt_us": (rtt, "us"),
        "distributed.frame_mbps": (d["frame_payload_bytes"] / rtt, "MB/s"),
    }


def serve_layers(raw, selfs):
    s = raw["serve"]
    reqs = serve_requests(raw)
    b, a = s["stats_before"], s["stats_after"]

    def delta(k):
        return a[k] - b[k]

    topk = [q["done_us"] - q["start_us"] for q in reqs if q["kind"] in (KIND_TOP_TAILS, KIND_TOP_HEADS)]
    score = [q["done_us"] - q["start_us"] for q in reqs
             if q["kind"] == KIND_SCORE and q["status"] == STATUS_OK]
    ref_index = [p["name"] for p in s["phases"]].index("reference")
    queue = [q["start_us"] - q["due_us"] for q in reqs if q["phase"] == ref_index]
    lateness = [q["sent_us"] - q["due_us"] for q in reqs]
    publishes = [(q["start_us"], q["done_us"]) for q in reqs if q["kind"] == KIND_PUBLISH]
    during = [read_latency_ms(q, s["latency_limit_ms"]) for q in reqs if q["kind"] != KIND_PUBLISH
              and any(lo <= q["due_us"] < hi for lo, hi in publishes)]
    lookups = delta("plan_hits") + delta("plan_misses")
    m = serve_load(raw)
    m.update({
        "serve.topk_exec_us_p50": (harness.percentile(topk, 50.0), "us"),
        "serve.topk_exec_us_p99": (harness.tail_percentile(topk, 99.0), "us"),
        "serve.score_exec_us_p50": (harness.percentile(score, 50.0), "us"),
        "serve.score_exec_us_p99": (harness.tail_percentile(score, 99.0), "us"),
        "serve.queue_wait_us_p99": (harness.tail_percentile(queue, 99.0), "us"),
        "serve.ann_candidates_per_query": (delta("ann_candidates") / max(1, delta("topk_ann")), "count"),
        "serve.microbatch_coalesce_ratio": (delta("coalesced_requests") / max(1, delta("batch_requests")), "ratio"),
        "serve.plan_hit_ratio": (delta("plan_hits") / lookups if lookups else None, "ratio"),
        "serve.rejected_queue_full": (delta("rejected_queue_full"), "count"),
        "serve.rejected_deadline": (delta("rejected_deadline"), "count"),
        "serve.ann_build_s": (selfs.get("serve.ann_build", 0.0), "s"),
        "serve.swap_p99_ms": (harness.tail_percentile(during, 99.0), "ms"),
        "gen.lateness_us_p99": (harness.tail_percentile(lateness, 99.0), "us"),
    })
    return m


def per_layer(raw):
    spans = raw["spans"]
    selfs = harness.self_time_by_name(spans)
    executed, steal = pool_delta(raw)
    m = {
        "kg.generate_s": (selfs.get("kg.generate", 0.0), "s"),
        "runtime.tasks_executed": (executed, "count"),
        "runtime.steal_ratio": (steal, "ratio"),
        "host.stream_gbps": (raw["host_stream_gbps"], "GB/s"),
    }
    # Every workload's traced run replays a training of its model family
    # and probes serving from one idle caller.
    m.update(training_layers(raw, selfs, spans))
    m["serve.idle_topk_us_p50"] = (harness.percentile(raw["idle_topk_us"], 50.0), "us")
    m["serve.idle_topk_us_p90"] = (harness.tail_percentile(raw["idle_topk_us"], 90.0), "us")
    w = raw["workload"]
    if w == "wn18-transh-ddp":
        m.update(ddp_layers(raw))
    elif w == "fb15k-serve-openloop":
        m.update(serve_layers(raw, selfs))
    # Left out: a tail percentile the sample cannot support, and a layer
    # the workload never ran.
    return {k: v for k, v in m.items() if v[0] is not None}


# ---- output checks ------------------------------------------------------------


def reference_outputs(raw):
    w = raw["workload"]
    if w == "wn18-transh-ddp":
        return {"final_loss": raw["ddp"]["final_loss"]}
    if w == "fb15k-serve-openloop":
        return {"final_loss": raw["final_loss"]}
    return {"final_loss": raw["train"]["final_loss"], "mrr": raw["eval"]["mrr"]}


def load_references():
    with open(REFERENCES) as f:
        return json.load(f)


def output_checks(raw, references):
    """(name, ok, detail) for every check of this run."""
    checks = [(c["name"], c["ok"], c["detail"]) for c in raw["checks"]]
    mode, failures = harness.check_reference(references, raw["workload"], raw["seed"],
                                             reference_outputs(raw))
    checks.append(("reference." + mode, not failures, "; ".join(failures) or "matches"))
    if "recall_at_10" in raw:
        ok = raw["recall_at_10"] >= RECALL_FLOOR
        checks.append(("serve.recall_floor", ok, "recall@10 %.3f (floor %.2f)" % (raw["recall_at_10"], RECALL_FLOOR)))
    return checks


def failed_operations(raw):
    if "serve" in raw:
        return sum(1 for q in serve_requests(raw) if q["status"] == STATUS_ERROR)
    return 0


# ---- entry points -------------------------------------------------------------


def run_one(bdir, workload, seed, seconds, trace, references):
    raw = run_driver(bdir, workload, seed, seconds, trace)
    metrics = per_layer(raw) if trace else end_to_end(raw)
    checks = output_checks(raw, references)
    write_result(bdir, raw, metrics, checks)
    return raw, metrics, checks


def run_context(raw):
    c = dict(raw["context"], workload=raw["workload"], seed=raw["seed"], trace=raw["trace"])
    if "serve" in raw:
        c["gen_lateness_us_p99"] = harness.percentile(
            [q["sent_us"] - q["due_us"] for q in serve_requests(raw)], 99.0)
    return c


def write_result(bdir, raw, metrics, checks):
    """Keep each run's context, metrics and checks next to its raw data."""
    path = os.path.join(bdir, "results", "%s-%d-t%d.json" % (raw["workload"], raw["seed"], int(raw["trace"])))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump({"context": run_context(raw),
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                   "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks]},
                  f, indent=1, sort_keys=True)


def print_context(raw):
    print("context: " + " ".join("%s=%s" % kv for kv in sorted(run_context(raw).items())))


def print_table(workload, metrics, checks):
    for name in sorted(metrics):
        value, unit = metrics[name]
        print("%-22s %-40s %16.6g %s" % (workload, name, value, unit))
    for name, ok, detail in checks:
        print("%-22s check %-34s %s  %s" % (workload, name, "ok  " if ok else "FAIL", detail))


def result_line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": correct, "attempted": max(1, attempted), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    })


def manifest_metrics(trace):
    """(name, unit) of the manifest's end-to-end (trace 0) or per-layer
    (trace 1) metrics: the metrics of the result line."""
    with open(MANIFEST) as f:
        manifest = json.load(f)
    return [(m["name"], m["unit"]) for m in manifest["per_layer" if trace else "end_to_end"]]


def select_reported(metrics, wanted):
    """The metrics named in `wanted`, each required to be measured in its unit."""
    missing = [n for n, unit in wanted if n not in metrics or metrics[n][1] != unit]
    if missing:
        raise SystemExit("perfbench: not measured (or in another unit): " + ", ".join(missing))
    return {n: metrics[n] for n, _ in wanted}


def record_references(bdir, seeds, workloads):
    """Record final_loss/mrr references for `seeds` (re-run after any change
    to the workloads' training configuration)."""
    refs = load_references() if os.path.exists(REFERENCES) else {}
    tolerance = {"final_loss": {"rel": 0.005}, "mrr": {"abs": 0.005}}
    for w in workloads:
        entry = refs.setdefault(w, {"tolerance": {}, "seeds": {}})
        for seed in seeds:
            raw = run_driver(bdir, w, seed, 1, 0)
            outputs = reference_outputs(raw)
            entry["tolerance"] = {k: tolerance[k] for k in outputs}
            entry["seeds"][str(seed)] = outputs
            print("recorded", w, seed, outputs, file=sys.stderr)
    with open(REFERENCES, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record-references", metavar="SEEDS",
                    help="record reference outputs for a seed range like 0-23")
    args = ap.parse_args(argv)

    bdir = build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    if args.record_references:
        lo, _, hi = args.record_references.partition("-")
        record_references(bdir, range(int(lo), int(hi or lo) + 1), workloads)
        return 0

    references = load_references()
    correct, attempted, failed, merged = True, 0, 0, {}
    for w in workloads:
        raw, metrics, checks = run_one(bdir, w, args.seed, args.seconds, args.trace, references)
        print_context(raw)
        print_table(w, metrics, checks)
        correct = correct and all(ok for _, ok, _ in checks)
        attempted += raw["attempted"]
        failed += failed_operations(raw) + sum(1 for _, ok, _ in checks if not ok)
        if len(workloads) == 1:
            merged = select_reported(metrics, manifest_metrics(args.trace))
        else:
            merged.update({"%s/%s" % (w, k): v for k, v in metrics.items()})
    print(result_line(correct, attempted, failed, merged))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
