#!/usr/bin/env python3
"""freefactor benchmark: cold-process workloads, timed from outside the package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 1     # every workload

NAME is one of factor-edges, word-descent, farey-oracle, orbit-grid.  Each
repetition (a pass over the workload's operations) runs in a fresh child
interpreter, one child at a time, so every pass starts with the package's
module caches empty, as every CLI call does.  With --trace 0 the run prints
the end-to-end metrics; with --trace 1 it runs one untraced and two traced
passes and prints the per-layer metrics.  Metric names and units come from
BENCHMARK.json.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

from tracer import NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

WORKLOADS = ("factor-edges", "word-descent", "farey-oracle", "orbit-grid")
OP_UNITS = {
    "factor-edges": "one `experiment` CLI call",
    "word-descent": "`classify` then `index --geometric` on one word",
    "farey-oracle": "one BFS source row (box) or one batch of far pairs",
    "orbit-grid": "one `experiment` CLI call",
}

# About the raw seconds of one pass on the reference machine (2 vCPUs, Intel
# Xeon, Python 3.11), so --seconds S gives round(S / PASS_SECONDS) passes:
# the count depends only on S.
PASS_SECONDS = 4.0
MIN_PASSES = 2
SETUP_SAMPLES = 9  # import-only children per run, besides one per pass
# Seconds the child's calibration kernel takes on the reference machine when
# nothing else loads it.  Every time is multiplied by CAL_REF / (kernel time
# measured around it), so times read as seconds on the unloaded machine.
CAL_REF = 0.0069
RUN_BUDGET = 170  # seconds a workload's run may take, children included
TAIL_ABOVE = 10

# workload sizes
EDGE_SEEDS = 14
# basis-change flags a violation when the spread grows after its checkpoint
# of min(100, trials) trials, a sampling heuristic rather than a theorem:
# with 110 trials, seed 404176 fails it.  At 100 trials the heuristic is
# vacuous, and the per-trial checks still run.
EDGE_CALLS = (("lipschitz", 3, 20), ("lipschitz", 2, 75), ("basis-change", 2, 100))
DESCENT_LENGTH = 20
DESCENT_BASE = {3: 6, 4: 24, 5: 6}
BOX_LIMIT, BOX_INNER, BOX_SOURCES = 128, 50, 60
FAR_MAX, FAR_BATCHES, FAR_BATCH, FAR_SYMMETRY = 10**6, 15, 100, 200
RADII = range(1, 9)

GENERATORS = "xyzabcdefghijklmnopqrstuvw"


# ---------------------------------------------------------------------------
# inputs: everything the program receives is generated here from the seed


def fmt(letters) -> str:
    return "".join(GENERATORS[abs(x) - 1].upper() if x < 0 else GENERATORS[x - 1]
                   for x in letters) or "1"


def random_reduced(rng: random.Random, length: int, rank: int) -> list[int]:
    """Uniform reduced word: each letter uniform over the non-cancelling ones."""
    alphabet = list(range(1, rank + 1)) + [-i for i in range(1, rank + 1)]
    letters: list[int] = []
    for _ in range(length):
        letters.append(rng.choice([x for x in alphabet if not letters or x != -letters[-1]]))
    return letters


def boundary_letters(rank: int) -> list[int]:
    """Surface boundary word: commutator product (even rank), squares (odd)."""
    if rank % 2 == 0:
        return [x for i in range(1, rank, 2) for x in (i, i + 1, -i, -i - 1)]
    return [x for i in range(1, rank + 1) for x in (i, i)]


def inner_slopes() -> list[tuple[int, int]]:
    """Slopes with |p|, q <= BOX_INNER in FareyGraph order (1/0 first)."""
    out = [(1, 0)]
    for q in range(1, BOX_INNER + 1):
        out += [(p, q) for p in range(-BOX_INNER, BOX_INNER + 1) if math.gcd(p, q) == 1]
    return out


def box_symmetry(p: int, q: int, swap: bool, sign: int) -> list[int]:
    """(p, q) under x -> sign * x, then x -> 1/x if swap, normalized to q >= 0."""
    p, q = (q, sign * p) if swap else (sign * p, q)
    return [-p, -q] if q < 0 or (q == 0 and p < 0) else [p, q]


def make_ops(workload: str, seed: int) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "factor-edges":
        # trials per call chosen so that the three kinds of call take about
        # the same time, so that no order statistic sits between two kinds
        ops = []
        for _ in range(EDGE_SEEDS):
            s = str(rng.randrange(10**6))
            for name, n, trials in EDGE_CALLS:
                ops.append({"label": f"{name} n={n} seed={s}",
                            "argv": ["experiment", name, "--n", str(n),
                                     "--trials", str(trials), "--seed", s]})
        return {"ops": ops}
    if workload == "word-descent":
        # Descent depth, hence cost, varies tenfold between random words, so
        # fresh words per seed would make the pass time depend on the seed
        # more than on the code.  The words are a fixed uniform sample of
        # cyclically reduced words; the seed rotates each one.  A rotation is
        # a conjugate, so every Whitehead move gives it the same cyclic
        # length: descent makes the same choices, and the work is the same.
        base = random.Random("word-descent:base")
        ops = []
        for rank, count in DESCENT_BASE.items():
            for _ in range(count):
                letters = random_reduced(base, DESCENT_LENGTH, rank)
                while letters[0] == -letters[-1]:
                    letters = random_reduced(base, DESCENT_LENGTH, rank)
                k = rng.randrange(DESCENT_LENGTH)
                word = fmt(letters[k:] + letters[:k])
                ops.append({"label": f"rank {rank} {word}", "rank": rank, "word": word,
                            "b": fmt(boundary_letters(rank))})
        rng.shuffle(ops)
        return {"ops": ops,
                "boundary_words": {str(r): fmt(boundary_letters(r)) for r in DESCENT_BASE}}
    if workload == "farey-oracle":
        sources = rng.sample(inner_slopes(), BOX_SOURCES)
        # A far pair costs about as many recursion steps as the largest
        # partial quotient met, a heavy-tailed quantity, so fresh pairs per
        # seed change the far phase's time by 2x and its memory by 40%.  The
        # pairs are a fixed uniform sample; the seed applies to each pair one
        # of x -> +-x, x -> +-1/x, graph automorphisms that keep the box, the
        # distance and the recursion's work.
        base = random.Random("farey-oracle:far")
        batches = []
        for _ in range(FAR_BATCHES):
            batch = []
            while len(batch) < FAR_BATCH:
                p, q = base.randint(-FAR_MAX, FAR_MAX), base.randint(1, FAR_MAX)
                p2, q2 = base.randint(-FAR_MAX, FAR_MAX), base.randint(1, FAR_MAX)
                if math.gcd(p, q) == 1 and math.gcd(p2, q2) == 1 and (p, q) != (p2, q2):
                    swap, sign = rng.random() < 0.5, rng.choice((1, -1))
                    batch.append(box_symmetry(p, q, swap, sign)
                                 + box_symmetry(p2, q2, swap, sign))
            batches.append(batch)
        symmetry = sorted(rng.sample(
            [(b, j) for b in range(FAR_BATCHES) for j in range(FAR_BATCH)], FAR_SYMMETRY))
        return {"box": {"limit": BOX_LIMIT, "inner": BOX_INNER, "sources": sources},
                "far": {"batches": batches, "symmetry": symmetry},
                "ops": [None] * (BOX_SOURCES + FAR_BATCHES)}
    if workload == "orbit-grid":
        # exp_quasiflat and exp_twist_stability ignore --seed: this workload
        # is the same for every seed.
        ops = []
        for r in RADII:
            for name in ("quasiflat", "twist-stability"):
                ops.append({"label": f"{name} r={r}",
                            "argv": ["experiment", name, "--radius", str(r),
                                     "--seed", str(seed)]})
        return {"ops": ops}
    raise ValueError(workload)


def analytic_counts(workload: str, spec: dict) -> dict:
    """Call counts a traced pass must reproduce exactly."""
    n_ops = len(spec["ops"])
    if workload == "factor-edges":
        return {"cli.main": n_ops, "experiments.exp_lipschitz": 2 * EDGE_SEEDS,
                "experiments.exp_basis_change": EDGE_SEEDS}
    if workload == "word-descent":
        return {"cli.main": 2 * n_ops, "whitehead.classify": n_ops,
                "trees.geometric_index": n_ops}
    if workload == "farey-oracle":
        s, n = BOX_SOURCES, len(inner_slopes())
        return {"farey.FareyGraph.bfs": s, "farey.FareyGraph.__init__": 1,
                "farey.farey_distance.box": s * (n - 1) - s * (s - 1) // 2,
                "farey.farey_distance.far": FAR_BATCHES * FAR_BATCH}
    return {"cli.main": n_ops, "experiments.exp_quasiflat": len(RADII),
            "experiments.exp_twist_stability": len(RADII)}


# ---------------------------------------------------------------------------
# children


def launch(spec: dict, workdir: str, tag: str, deadline: float) -> tuple[float, dict | None, str]:
    """Run one child; return (scaled setup seconds, result or None, error text)."""
    spec_path = os.path.join(workdir, f"{tag}.spec.json")
    result_path = os.path.join(workdir, f"{tag}.result.json")
    with open(spec_path, "w") as fh:
        json.dump({**spec, "src": SRC, "workdir": os.path.join(workdir, tag)}, fh)
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", PYTHONHASHSEED="0")
    t0 = time.monotonic()
    if t0 >= deadline:
        return math.nan, None, f"{tag}: not started, the run's {RUN_BUDGET} s are used up"
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), spec_path, result_path],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            timeout=deadline - t0, text=True,
        )
    except subprocess.TimeoutExpired:
        return math.nan, None, f"{tag}: stopped at the run's {RUN_BUDGET} s limit"
    if proc.returncode != 0:
        return math.nan, None, f"{tag}: child exited {proc.returncode}: {proc.stderr[-2000:]}"
    with open(result_path) as fh:
        result = json.load(fh)
    result["setup_raw_s"] = result["setup_done"] - t0
    return result["setup_raw_s"] * CAL_REF / result["setup_cal"], result, ""


# ---------------------------------------------------------------------------
# metrics


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_ABOVE operations above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[n - TAIL_ABOVE - 1], 100.0 * (n - TAIL_ABOVE) / n


def scaled(p: dict, seconds: float, cal: int) -> float:
    """A time from pass p, scaled by the median of the two kernel runs
    before it and the two after it."""
    return seconds * CAL_REF / statistics.median(p["cals"][max(0, cal - 1): cal + 3])


def pass_scale(p: dict) -> float:
    return CAL_REF / statistics.median(p["cals"])


def end_to_end(setups, passes) -> tuple[dict, dict]:
    """Medians over passes, taken per operation for the times.

    Every pass repeats the same operations from the same cold start, so each
    operation's time is the median of its scaled times over the passes.
    wall_s adds up those times and the timed work between operations (the
    FareyGraph build).
    """
    per_op = [statistics.median(lat) for lat in zip(
        *([scaled(p, r["latency_s"], r["cal"]) for r in p["records"]] for p in passes))]
    segments = sum(statistics.median(scaled(p, *p["segments"][k]) for p in passes)
                   for k in passes[0]["segments"])
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(per_op) + segments,
        "op_p50_ms": 1000 * statistics.median(per_op),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    tail_s, percentile = tail(per_op)
    values["op_tail_ms"] = 1000 * tail_s
    info = {"setup_samples": len(setups), "passes": len(passes), "operations": len(per_op),
            "op_tail_percentile": percentile,
            "pass_wall_raw_s": [p["wall_s"] for p in passes],
            "pass_scale": [pass_scale(p) for p in passes]}
    return values, info


def per_layer(untraced: dict, traced: list[dict]) -> dict:
    (t1, t2), (k1, k2) = ((p["trace"] for p in traced), (pass_scale(p) for p in traced))

    def mean(kind, key):
        return (k1 * t1[kind].get(key, 0.0) + k2 * t2[kind].get(key, 0.0)) / 2

    def ratio(a, b):
        return a / b if b else 0.0

    calls, extra = t1["calls"], t1["extra"]
    values = {}
    for name in NAMES:
        values[f"{name}.calls"] = calls.get(name, 0)
        values[f"{name}.self_s"] = mean("self_s", name)
        values[f"{name}.total_s"] = mean("total_s", name)
    fi = calls.get("factors.factor_invariant", 0)
    values["factors.factor_invariant.samples_per_call"] = ratio(
        extra.get("factors.factor_invariant.samples", 0), fi)
    values["factors.factor_invariant.tight_ratio"] = ratio(
        extra.get("factors.factor_invariant.tight", 0), fi)
    accesses = calls.get("factors.FreeFactorVertex.graph", 0)
    folds = extra.get("factors.FreeFactorVertex.graph.folds", 0)
    values["factors.FreeFactorVertex.graph.hit_ratio"] = 1 - folds / accesses if accesses else 0.0
    steps = int(extra.get("whitehead.minimize_cyclic_length.steps", 0))
    values["whitehead.minimize_cyclic_length.steps"] = steps
    values["whitehead.useful_move_ratio"] = ratio(
        steps, extra.get("whitehead.moves_evaluated", 0))
    for rank in (2, 3, 4, 5):
        key = f"whitehead.minimize_cyclic_length.rank{rank}"
        values[f"{key}.mean_ms"] = 1000 * ratio(
            mean("extra", f"{key}.total_s"), extra.get(f"{key}.calls", 0))
    for r in RADII:
        key = f"experiments.exp_quasiflat.r{r}.total_s"
        values[key] = mean("extra", key)
    for phase in ("box", "far"):
        key = f"farey.farey_distance.{phase}"
        values[f"{key}.calls"] = int(extra.get(f"{key}.calls", 0))
        values[f"{key}.self_s"] = mean("extra", f"{key}.self_s")
    values["trace_overhead_s"] = (
        statistics.mean(p["wall_s"] * pass_scale(p) for p in traced)
        - untraced["wall_s"] * pass_scale(untraced))
    return values


def self_test(workload: str, spec: dict, untraced: dict, traced: list[dict]) -> list[str]:
    """Traced counts equal analytic ones and repeat; tracing changes no output."""
    problems = []
    t1, t2 = (p["trace"] for p in traced)
    if {k: v for k, v in t1["calls"].items() if v} != {k: v for k, v in t2["calls"].items() if v}:
        problems.append("two traced passes gave different call counts")
    counted = {**t1["calls"], **{k[: -len(".calls")]: v for k, v in t1["extra"].items()
                                 if k.startswith("farey.farey_distance.") and k.endswith(".calls")}}
    for name, expected in analytic_counts(workload, spec).items():
        if counted.get(name, 0) != expected:
            problems.append(f"{name}: traced {counted.get(name, 0)} calls, expected {expected}")
    plain = [r["digest"] for r in untraced["records"]]
    for k, p in enumerate(traced, 1):
        if [r["digest"] for r in p["records"]] != plain:
            problems.append(f"traced pass {k} output differs from the untraced pass")
    return problems


# ---------------------------------------------------------------------------


def provenance(workload: str, seed: int, child: dict) -> dict:
    commit = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head) as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(ref_path):
                with open(ref_path) as fh:
                    commit = fh.read().strip()
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "freefactor")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"commit": commit, "source_sha256": digest.hexdigest(), "seed": seed,
            "workload": workload, "operation_unit": OP_UNITS[workload],
            "seed_dependent": workload != "orbit-grid", **child}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, catalog: dict) -> dict:
    deadline = time.monotonic() + RUN_BUDGET
    workdir = os.path.join(WORK, workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    spec = {"workload": workload, **make_ops(workload, seed)}
    errors: list[str] = []

    # the first import compiles bytecode; it is not a set-up sample
    _, _, err = launch({"setup_only": True}, workdir, "warmup", deadline)
    if err:
        raise RuntimeError(err)
    setups = []
    for i in range(SETUP_SAMPLES):
        s, _, err = launch({"setup_only": True}, workdir, f"setup{i}", deadline)
        if err:
            raise RuntimeError(err)
        setups.append(s)

    if trace:
        plan = [False, True, True]
    else:
        plan = [False] * max(MIN_PASSES, round(seconds / PASS_SECONDS))
    passes, attempted, failed = [], 0, 0
    for i, traced in enumerate(plan):
        s, result, err = launch({**spec, "trace": traced}, workdir,
                                f"pass{i}{'-traced' if traced else ''}", deadline)
        attempted += len(spec["ops"])
        if err:
            errors.append(err)
            failed += len(spec["ops"])
            continue
        setups.append(s)
        bad = [r for r in result["records"] if r["error"]]
        failed += len(bad)
        errors += [f"pass {i}: {r['label']}: {r['error']}" for r in bad[:5]]
        if result["boundary_error"]:
            errors.append(result["boundary_error"])
        passes.append(result)

    summary = {"attempted": attempted, "failed": failed,
               "fail_ratio": failed / attempted, "errors": errors}
    if len(passes) == len(plan):
        summary["provenance"] = provenance(workload, seed, passes[0]["provenance"])
        if trace:
            errors += self_test(workload, spec, passes[0], passes[1:])
            summary["values"] = per_layer(passes[0], passes[1:])
            summary["word_validations_per_op"] = [
                [r["label"], r["word_validations"]] for r in passes[1]["records"]
                if "word_validations" in r]
        else:
            summary["values"], summary["info"] = end_to_end(setups, passes)
    summary["correct"] = not errors and failed == 0 and "values" in summary
    names = catalog["per_layer" if trace else "end_to_end"]
    metrics = {}
    for entry in names:
        value = summary.get("values", {}).get(entry["name"])
        if value is None:
            summary["correct"] = False
            errors.append(f"metric {entry['name']} was not measured")
            continue
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    summary["metrics"] = metrics
    with open(os.path.join(workdir, "result.json"), "w") as fh:
        json.dump({**summary, "passes": passes}, fh, indent=1)
    return summary


def report(workload: str, summary: dict) -> None:
    info = summary.get("info", {})
    print(f"== {workload}: {summary['attempted']} operations attempted "
          f"({OP_UNITS[workload]}), {summary['failed']} failed, "
          f"fail_ratio {summary['fail_ratio']}")
    for name, m in summary["metrics"].items():
        note = ""
        if name == "op_tail_ms":
            note = (f"  (p{info['op_tail_percentile']:.1f} of {info['operations']}"
                    " per-operation medians)")
        elif name == "op_p50_ms":
            note = f"  (of {info['operations']} per-operation medians)"
        elif name == "setup_s":
            note = f"  (median of {info['setup_samples']} interpreters)"
        elif name == "wall_s":
            note = f"  (sum of per-operation medians over {info['passes']} cold passes)"
        print(f"  {name} = {m['value']:.6g} {m['unit']}{note}")
    for err in summary["errors"][:20]:
        print(f"  error: {err}")
    if "provenance" in summary:
        print("  provenance: " + json.dumps(summary["provenance"], sort_keys=True))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    catalog_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(os.path.join(SRC, "freefactor", "__init__.py")):
        print(f"error: no freefactor sources under {SRC}", file=sys.stderr)
        return 2
    if not os.path.exists(catalog_path):
        print(f"error: {catalog_path} is missing", file=sys.stderr)
        return 2
    with open(catalog_path) as fh:
        catalog = json.load(fh)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for w in workloads:
            results[w] = run_workload(w, args.seed, args.seconds, bool(args.trace), catalog)
            report(w, results[w])
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(workloads) == 1:
        metrics = results[workloads[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, s in results.items() for k, v in s["metrics"].items()}
    print(json.dumps({
        "correct": all(s["correct"] for s in results.values()),
        "attempted": sum(s["attempted"] for s in results.values()),
        "failed": sum(s["failed"] for s in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
