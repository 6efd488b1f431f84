"""One cold pass of a benchmark workload, run in a fresh interpreter.

Usage: python3 child.py SPEC.json RESULT.json

The parent reads the clock just before it starts this interpreter; the
first thing done here is ``import freefactor, freefactor.cli``, and the
clock read after it marks the end of set-up.  The pass then runs the
operations listed in SPEC (timing each around the public call), reads
ru_maxrss, and only then checks the outputs, untimed and untraced.

Other load on the machine slows all code by up to 1.7x for tens of seconds
at a time, so a fixed pure-Python kernel is timed after set-up, before
every timed operation and at the end of the pass.  The parent divides each
time by the kernel's speed around it.
"""

import time

import freefactor
import freefactor.cli

SETUP_DONE = time.monotonic()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from tracer import Tracer  # noqa: E402

clock = time.perf_counter

CAL_LETTERS = tuple(random.Random(0).choice((1, -1, 2, -2, 3, -3)) for _ in range(4000))
CAL_WORDS = tuple(tuple(random.Random(i).choice((1, -1, 2, -2, 3, -3)) for _ in range(8))
                  for i in range(50))


class CalWord:
    """A small validated value object, like the package's words."""

    __slots__ = ("letters", "rank")

    def __init__(self, letters, rank):
        for x in letters:
            if not isinstance(x, int) or x == 0 or abs(x) > rank:
                raise ValueError(x)
        self.letters, self.rank = letters, rank

    def inverse(self):
        return CalWord(tuple(-x for x in reversed(self.letters)), self.rank)


def calibrate():
    """Seconds taken by a fixed kernel made of the three kinds of work that
    dominate the workloads: free reduction of a fixed sequence (list appends
    and pops), inserts into a dict with tuple keys, and building small
    validated objects."""
    t0 = clock()
    for _ in range(10):
        free_reduce(CAL_LETTERS)
    table = {}
    for i in range(10000):
        key = (i * 7919 % 4099, i % 97)
        if table.get(key) is None:
            table[key] = i
    for _ in range(20):
        for letters in CAL_WORDS:
            CalWord(letters, 3).inverse()
    return clock() - t0


class Meter:
    """Kernel times during a pass; the operation timed right after kernel
    run i records i."""

    def __init__(self):
        self.cals = []

    def mark(self):
        self.cals.append(calibrate())
        return len(self.cals) - 1

    def close(self):
        self.cals.append(calibrate())


# ---------------------------------------------------------------------------
# operations


def cli_call(argv):
    """Run freefactor.cli.main in-process; returns (stdout, seconds, error)."""
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = clock()
        try:
            rc = freefactor.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # an operation that raises is a failure
            error = f"{type(exc).__name__}: {exc}"
        dt = clock() - t0
    if rc not in (0, None) and error is None:
        error = f"exit code {rc}: {err.getvalue().strip()}"
    return out.getvalue(), dt, error


def run_cli_ops(spec, workdir, tracer, meter):
    """factor-edges and orbit-grid: one CLI call per operation."""
    records = []
    for i, op in enumerate(spec["ops"]):
        out = os.path.join(workdir, f"op{i}.json")
        before = tracer.calls["words.Word.__post_init__"] if tracer else 0
        cal = meter.mark()
        text, dt, error = cli_call(op["argv"] + ["--out", out])
        rec = {"label": op["label"], "latency_s": dt, "cal": cal, "error": error,
               "stdout": text, "reports": [out]}
        if tracer:
            rec["word_validations"] = tracer.calls["words.Word.__post_init__"] - before
        records.append(rec)
    return records, {}


def run_descent_ops(spec, workdir, tracer, meter):
    """word-descent: classify, then index --geometric, per word."""
    records = []
    for i, op in enumerate(spec["ops"]):
        n, w = str(op["rank"]), op["word"]
        out1 = os.path.join(workdir, f"op{i}-classify.json")
        out2 = os.path.join(workdir, f"op{i}-index.json")
        cal = meter.mark()
        text1, dt1, err1 = cli_call(["classify", "--n", n, w, "--out", out1])
        text2, dt2, err2 = cli_call(
            ["index", "--n", n, "--b", op["b"], w, "--geometric", "--out", out2]
        )
        records.append({"label": op["label"], "latency_s": dt1 + dt2, "cal": cal,
                        "error": err1 or err2, "stdout": text1 + text2,
                        "reports": [out1, out2]})
    return records, {}


def run_farey_ops(spec, workdir, tracer, meter):
    """farey-oracle: criterion-07 rows in a box, then far random pairs."""
    from freefactor import FareyGraph, Slope, farey_distance

    box = spec["box"]
    cal = meter.mark()
    t0 = clock()
    graph = FareyGraph(box["limit"])
    segments = {"build": [clock() - t0, cal]}
    lim = box["inner"]
    inner = [s for s in graph.slopes if abs(s.p) <= lim and s.q <= lim]
    index = graph.index
    done = bytearray(len(inner))
    position = {s: j for j, s in enumerate(inner)}
    records = []
    if tracer:
        tracer.phase = "box"
    for p, q in box["sources"]:
        s = Slope(p, q)
        done[position[s]] = 1
        mismatches = []
        cal = meter.mark()
        t0 = clock()
        dist = graph.bfs(s)
        for j, t in enumerate(inner):
            if done[j]:
                continue  # each unordered pair once
            if farey_distance(s, t) != int(dist[index[t]]):
                mismatches.append([t.p, t.q])
        dt = clock() - t0
        records.append({"label": f"box {s}", "latency_s": dt, "cal": cal, "error": None,
                        "stdout": json.dumps(mismatches), "mismatches": mismatches,
                        "source": [p, q]})
    if tracer:
        tracer.phase = "far"
    for b, batch in enumerate(spec["far"]["batches"]):
        pairs = [(Slope(a, c), Slope(d, e)) for a, c, d, e in batch]
        cal = meter.mark()
        t0 = clock()
        ds = [farey_distance(s, t) for s, t in pairs]
        dt = clock() - t0
        records.append({"label": f"far batch {b}", "latency_s": dt, "cal": cal, "error": None,
                        "stdout": json.dumps(ds), "distances": ds})
    if tracer:
        tracer.phase = None
    return records, segments


RUNNERS = {
    "factor-edges": run_cli_ops,
    "orbit-grid": run_cli_ops,
    "word-descent": run_descent_ops,
    "farey-oracle": run_farey_ops,
}


# ---------------------------------------------------------------------------
# checks (untimed, untraced); each returns None or a reason


GENERATORS = "xyzabcdefghijklmnopqrstuvw"


def parse_letters(text):
    if text == "1":
        return []
    return [GENERATORS.index(c.lower()) + 1 if c.islower() else -(GENERATORS.index(c.lower()) + 1)
            for c in text]


def free_reduce(letters):
    out = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return out


def cyclic_core(letters):
    i, j = 0, len(letters)
    while j - i >= 2 and letters[i] == -letters[j - 1]:
        i += 1
        j -= 1
    return letters[i:j]


def replay_certificate(report):
    """Apply the certificate's chain to its input; compare with its minimum."""
    word = parse_letters(report["input"])
    for images in report["chain"]:
        table = {i + 1: parse_letters(images[GENERATORS[i]]) for i in range(len(images))}
        image = []
        for x in word:
            image += table[x] if x > 0 else [-y for y in reversed(table[-x])]
        word = free_reduce(image)
    core = cyclic_core(word)
    minimized = parse_letters(report["minimized"])
    if core != minimized or len(core) != report["length_trace"][-1]:
        return f"certificate replays to length {len(core)}, report says {report['minimized']}"
    return None


def check_descent(rec, reports):
    classify, index = reports
    label = rec["stdout"].splitlines()[0]
    if label != classify["verdict"] or label not in ("Primitive", "SimpleNonPrimitive", "Filling"):
        return f"verdict {label!r} does not match report {classify['verdict']!r}"
    reason = replay_certificate(classify)
    if reason:
        return reason
    k = index["k"]
    if index.get("geometric_k") != k:
        return "geometric index disagrees"
    b = parse_letters(index["b"])
    binv = [-x for x in reversed(b)]
    core = parse_letters(index["core"])
    rebuilt = (b if k >= 0 else binv) * abs(k) + core + (binv if k >= 0 else b) * abs(k)
    if rebuilt != parse_letters(index["word"]):
        return "b^k core b^-k does not spell the word"
    return None


def check_lipschitz(report):
    bound = report["summary"]["bound"]
    for t in report["trials"]:
        delta = abs(t["value_a"] - t["value_b"])
        band = t.get("band", bound)
        if t["delta"] != delta or delta > band or band > bound + 1:
            return f"edge difference {delta} outside band {band} (bound {bound})"
    return None


def check_basis_change(report):
    diffs = [abs(t["value_standard"] - t["value_second"]) for t in report["trials"]]
    if any(t["diff"] != d for t, d in zip(report["trials"], diffs)):
        return "reported diff differs from the per-trial values"
    summary = report["summary"]
    spread = max(diffs, default=0)
    at_checkpoint = max(diffs[: summary["checkpoint"]], default=0)
    if summary["empirical_spread"] != spread:
        return "empirical spread differs from the per-trial values"
    if len(diffs) > summary["checkpoint"] and at_checkpoint != spread:
        return "spread did not stabilize by the checkpoint"
    return None


def check_quasiflat(report):
    """Invariant Lipschitz bound against the path-witnessed upper bound, per pair."""
    summary = report["summary"]
    points = [(t["r"], t["k"], t["value"], t.get("tight", True)) for t in report["trials"]]
    if summary["pairs"] != len(points) * (len(points) - 1) // 2:
        return "pair count differs from the grid size"
    pure = summary["pure_psi_distances"]
    if any(a >= b for a, b in zip(pure, pure[1:])):
        return "pure psi distances not strictly increasing"
    if not summary["fit_slope"] > 0:
        return "fitted slope is not positive"
    c0 = summary["upper_bound_unit"]
    if c0 is None:
        return None
    for i, (r1, k1, v1, t1) in enumerate(points):
        for r2, k2, v2, t2 in points[i + 1:]:
            eff = max(0, abs(v1 - v2) - (0 if t1 and t2 else 1))
            if (eff + 1) // 2 > c0 * (abs(r1 - r2) + abs(k1 - k2)):
                return f"invariant lower bound exceeds upper bound at {(r1, k1)}, {(r2, k2)}"
    return None


def check_twist(report):
    radius = report["parameters"]["radius"]
    values = {(t["r"], t["k"]): t["value"] for t in report["trials"]}
    threshold = max(1, radius // 2)
    for t in report["trials"]:
        if t["displacement"] != abs(t["value"] - values[(0, t["k"])]):
            return "displacement differs from the per-trial values"
    for k in range(-radius, radius + 1):
        running, settle = 0, 0
        for r in range(radius + 1):
            disp = abs(values[(r, k)] - values[(0, k)])
            if disp > running:
                running, settle = disp, r
        if settle > threshold:
            return f"displacement still growing at r={settle} for k={k}"
    return None


EXPERIMENT_CHECKS = {
    "lipschitz": check_lipschitz,
    "basis-change": check_basis_change,
    "quasiflat": check_quasiflat,
    "twist-stability": check_twist,
}


def check_experiment(rec, reports):
    (report,) = reports
    if report["violations"] != 0:
        return f"{report['violations']} violations"
    return EXPERIMENT_CHECKS[report["name"]](report)


def check_records(spec, records):
    """Mark each record ok or failed; return digests of outputs for comparison."""
    workload = spec["workload"]
    for rec in records:
        reports = []
        blob = hashlib.sha256(rec["stdout"].encode())
        for path in rec.get("reports", ()):
            try:
                with open(path, "rb") as fh:
                    data = fh.read()
            except OSError:
                data = b""
            blob.update(data)
            reports.append(json.loads(data) if data else None)
        rec["digest"] = blob.hexdigest()
        if rec["error"] is None and None in reports:
            rec["error"] = "no report written"
        if rec["error"] is None and reports:
            try:
                check = check_descent if workload == "word-descent" else check_experiment
                rec["error"] = check(rec, reports)
            except (KeyError, TypeError, ValueError) as exc:
                rec["error"] = f"report unreadable: {type(exc).__name__}: {exc}"
    if workload == "farey-oracle":
        check_farey(spec, records)


def check_farey(spec, records):
    from freefactor import FareyGraph, Slope, farey_distance

    box = [r for r in records if "mismatches" in r]
    if any(r["mismatches"] for r in box):
        # distances in a truncated graph can only overshoot; recheck wider
        wide = FareyGraph(2 * spec["box"]["limit"])
        for r in box:
            s = Slope(*r["source"])
            left = [m for m in r["mismatches"]
                    if farey_distance(s, Slope(*m)) != wide.distance(s, Slope(*m))]
            if left:
                r["error"] = f"{len(left)} pairs differ from BFS in the wide box"
    far = [r for r in records if "distances" in r]
    batches = spec["far"]["batches"]
    for b, j in spec["far"]["symmetry"]:
        a, c, d, e = batches[b][j]
        if farey_distance(Slope(d, e), Slope(a, c)) != far[b]["distances"][j]:
            far[b]["error"] = f"d(s,t) != d(t,s) for pair {j}"


def boundary_check(spec):
    """The boundary words of every rank used classify as Filling."""
    for rank, word in spec.get("boundary_words", {}).items():
        text, _, error = cli_call(["classify", "--n", rank, word])
        if error or text.strip() != "Filling":
            return f"boundary word {word} (rank {rank}) gave {text.strip() or error}"
    return None


# ---------------------------------------------------------------------------


def provenance():
    import numpy

    blas = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def main(spec_path, result_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    result = {"setup_done": SETUP_DONE,
              "setup_cal": sorted(calibrate() for _ in range(3))[1]}
    if not os.path.abspath(freefactor.__file__).startswith(spec["src"] + os.sep):
        print(f"freefactor imported from {freefactor.__file__}, not {spec['src']}",
              file=sys.stderr)
        return 3
    if not spec.get("setup_only"):
        workdir = spec["workdir"]
        os.makedirs(workdir, exist_ok=True)
        tracer = Tracer() if spec["trace"] else None
        if tracer:
            tracer.install()
        meter = Meter()
        t0 = clock()
        try:
            records, segments = RUNNERS[spec["workload"]](spec, workdir, tracer, meter)
        finally:
            wall = clock() - t0
            if tracer:
                tracer.uninstall()
        meter.close()
        result["wall_s"] = wall
        result["segments"] = segments
        result["cals"] = meter.cals
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        check_records(spec, records)
        result["boundary_error"] = boundary_check(spec)
        for rec in records:
            rec.pop("distances", None)
            rec.pop("stdout", None)
        result["records"] = records
        if tracer:
            result["trace"] = tracer.snapshot()
            with open(os.path.join(workdir, "spans.json"), "w") as fh:
                json.dump(tracer.spans, fh)
        result["provenance"] = provenance()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
