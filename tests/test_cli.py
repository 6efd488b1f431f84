import json

import pytest

import freefactor

from freefactor import (
    EXPERIMENT_NAMES,
    b_reduced_decomposition,
    boundary_word,
    fold,
    format_word,
    parse_word,
    run_experiment,
)
from freefactor.cli import main
from freefactor.experiments import EXPERIMENTS, _parameters
from freefactor.report import SCHEMA_VERSION

from conftest import fresh_python

# Small CLI flags per experiment, and the run_experiment keywords they mean.
SMALL_RUNS = {
    "lipschitz": (
        ["--n", "3", "--trials", "5", "--seed", "2"],
        {"rank": 3, "trials": 5, "seed": 2},
    ),
    "cancellation": (["--trials", "5", "--seed", "2"], {"trials": 5, "seed": 2}),
    "zero-fiber": (
        ["--b", "xyXY", "--word", "Yxy", "--k-lo", "-2", "--k-hi", "3"],
        {"b": parse_word("xyXY", 2), "a": parse_word("Yxy", 2), "k_lo": -2, "k_hi": 3},
    ),
    "basis-change": (["--trials", "5", "--seed", "2"], {"trials": 5, "seed": 2}),
    "quasiflat": (["--radius", "2"], {"radius": 2}),
    "boundary-length": (["--n", "3"], {"rank": 3}),
    "twist-stability": (["--radius", "2"], {"radius": 2}),
}


# every subcommand once, with the flags that change its --out payload
OUT_RUNS = [
    ["reduce", "--n", "3", "x1 X2 x1"],
    ["classify", "--n", "2", "xyXY"],
    ["classify", "--n", "3", "xxyzXYzy"],
    ["minimize", "--n", "2", "xyxy"],
    ["index", "--n", "2", "--b", "xyXY", "xyXYxyXYxyxYXyxYX"],
    ["index", "--n", "2", "--b", "xyXY", "--geometric", "xyXYxyXYxyxYXyxYX"],
    ["factor-invariant", "--n", "2", "--b", "xyXY", "--gen", "yxYXyxyXY"],
    ["factor-invariant", "--n", "3", "--b", "xxyyzz", "--gen", "xxyyzzyZZYYXX",
     "--gen", "xxyyzzxZZYYXX"],
    ["farey-dist", "-3/5", "1/0"],
    *(["experiment", name, *argv] for name, (argv, _) in SMALL_RUNS.items()),
]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


class TestBasicCommands:
    def test_reduce(self, capsys):
        code, out, _ = run(capsys, "reduce", "--n", "2", "xyYx")
        assert code == 0 and out == "xx"

    def test_reduce_round_trips(self, capsys):
        code, out, _ = run(capsys, "reduce", "--n", "3", "x1 X2 x1")
        assert code == 0
        assert parse_word(out, 3) == parse_word("x1 X2 x1", 3)

    def test_classify_filling(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "2", "xyXY")
        assert code == 0 and out == "Filling"

    def test_classify_simple(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "2", "xx")
        assert code == 0 and out == "SimpleNonPrimitive"

    def test_minimize(self, capsys):
        code, out, _ = run(capsys, "minimize", "--n", "2", "yxY")
        assert code == 0 and out.startswith(("x", "y", "X", "Y"))
        assert "length 1" in out

    def test_index(self, capsys):
        code, out, _ = run(
            capsys, "index", "--n", "2", "--b", "xyXY", "xyXYxyXYxyxYXyxYX"
        )
        assert code == 0 and out == "k = 2"

    def test_index_geometric(self, capsys):
        code, out, _ = run(
            capsys,
            "index", "--n", "2", "--b", "xyXY", "--geometric",
            "xyXYxyXYxyxYXyxYX",
        )
        assert code == 0 and "geometric agrees" in out

    @pytest.mark.parametrize("word", ["xyXY", "xyXYxyXY", "yxYX"])
    def test_index_geometric_on_the_axis_of_b(self, capsys, word):
        # b, b^2 and b^-1 share b's axis: the projection is the whole axis
        code, out, _ = run(
            capsys, "index", "--n", "2", "--b", "xyXY", "--geometric", word
        )
        assert code == 0 and out == "k = 0 (geometric agrees)"

    @pytest.mark.parametrize("word", ["1", "xX"])
    def test_index_geometric_of_the_identity(self, capsys, word):
        # the identity fixes the whole tree, so its geometric index is 0
        code, out, err = run(
            capsys, "index", "--n", "2", "--b", "xyXY", "--geometric", word
        )
        assert (code, out, err) == (0, "k = 0 (geometric agrees)", "")

    def test_factor_invariant(self, capsys):
        code, out, _ = run(
            capsys, "factor-invariant", "--n", "2", "--b", "xyXY", "--gen", "x"
        )
        assert code == 0 and out.startswith("value = 0")

    @pytest.mark.parametrize(
        "gen,expected",
        [
            # b^2 X b^-2: the witness is its inverse, x first in letter order
            ("xyXYxyXYXyxYXyxYX", "value = 2 (witness xyXYxyXYxyxYXyxYX)"),
            # b^-1 y b: y would continue the next b^-1 block, so Y leads
            ("yxYXyxyXY", "value = -1 (witness yxYXYxyXY)"),
        ],
    )
    def test_factor_invariant_cyclic(self, capsys, gen, expected):
        code, out, _ = run(
            capsys, "factor-invariant", "--n", "2", "--b", "xyXY", "--gen", gen
        )
        assert code == 0 and out == expected

    @pytest.mark.parametrize("gens", [["xx"], ["xxyy"], ["xx", "1"]])
    def test_factor_invariant_refuses_non_primitive(self, capsys, tmp_path, gens):
        # <g> is a free factor iff g is primitive
        path = tmp_path / "report.json"
        args = [arg for g in gens for arg in ("--gen", g)]
        code, out, err = run(
            capsys, "factor-invariant", "--n", "2", "--b", "xyXY", *args, "--out", str(path)
        )
        assert code == 1 and out == "" and not path.exists()
        assert err.startswith("error:") and gens[0] in err and "Traceback" not in err

    def test_factor_invariant_primitive_generator(self, capsys):
        code, out, _ = run(
            capsys, "factor-invariant", "--n", "2", "--b", "xyXY", "--gen", "xxy"
        )
        assert code == 0 and out.startswith("value = 0")

    def test_factor_invariant_witness(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "factor-invariant", "--n", "3", "--b", "xxyyzz",
            "--gen", "xxyyzzyZZYYXX", "--gen", "xxyyzzxZZYYXX", "--out", str(path),
        )
        assert code == 0 and out.startswith("value = 1 (witness ")
        data = json.loads(path.read_text())
        b = parse_word("xxyyzz", 3)
        witness = parse_word(data["witness"], 3)
        assert b_reduced_decomposition(witness, b).k == data["value"] == 1
        assert fold([parse_word(g, 3) for g in data["generators"]]).contains(witness)
        assert "tight" not in data and "samples" not in data

    def test_budget_flag_removed(self):
        with pytest.raises(SystemExit) as exc:
            main(["factor-invariant", "--b", "xyXY", "--gen", "x", "--budget", "5"])
        assert exc.value.code == 2

    def test_farey_dist(self, capsys):
        code, out, _ = run(capsys, "farey-dist", "1/0", "0/1")
        assert code == 0 and out == "1"

    @pytest.mark.parametrize(
        "argv",
        [
            ["-3/5", "1/0"],
            ["1/0", "-3/5"],
            ["-3/5", "-1/2"],
            ["-3/5", "1/0", "--out", "{out}"],
            ["--out", "{out}", "-3/5", "1/0"],
            ["1/0", "--out", "{out}", "-3/5"],
        ],
    )
    def test_farey_dist_negative_numerator(self, capsys, tmp_path, argv):
        # a slope -p/q is a positional argument, not an unknown option, in
        # either place and with --out anywhere, and reads as with "--"
        reference = tmp_path / "reference.json"
        s, t = [a for a in argv if "/" in a]
        code, out, _ = run(capsys, "farey-dist", "--out", str(reference), "--", s, t)
        assert code == 0
        path = tmp_path / "report.json"
        argv = [str(path) if a == "{out}" else a for a in argv]
        if "--out" not in argv:
            argv += ["--out", str(path)]
        assert run(capsys, "farey-dist", *argv) == (0, out, "")
        assert path.read_text() == reference.read_text()


class TestJsonOutput:
    def test_classify_report(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, _, _ = run(capsys, "classify", "--n", "2", "xyXY", "--out", str(path))
        assert code == 0
        data = json.loads(path.read_text())
        assert data["schema_version"] == SCHEMA_VERSION
        assert data["verdict"] == "Filling"
        assert data["minimized"] == "xyXY"
        assert data["length_trace"] == [4]

    @pytest.mark.parametrize("argv", OUT_RUNS, ids=" ".join)
    def test_same_bytes_as_json_dumps(self, capsys, monkeypatch, tmp_path, argv):
        # the report is written piece by piece, from one json_pieces call;
        # an orbit experiment's trials are a sequence, which json.dumps
        # encodes as the list of its dicts
        payloads = []
        encode = freefactor.cli.json_pieces

        def recorded(payload):
            payloads.append(payload)
            return encode(payload)

        monkeypatch.setattr(freefactor.cli, "json_pieces", recorded)
        path = tmp_path / "report.json"
        code, _, _ = run(capsys, *argv, "--out", str(path))
        assert code == 0 and len(payloads) == 1
        expected = json.dumps(payloads[0], sort_keys=True, indent=2, default=list)
        assert path.read_text() == expected + "\n"

    def test_minimize_chain_replays(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, _, _ = run(capsys, "minimize", "--n", "2", "xyxy", "--out", str(path))
        assert code == 0
        data = json.loads(path.read_text())
        assert data["length_trace"][-1] == len(parse_word(data["minimized"], 2))


class TestClassifyWork:
    def test_one_descent_and_no_second_graph(self, capsys, monkeypatch):
        # the cut-vertex test reads the Whitehead graph that the last descent
        # step built, so classify builds one graph per descent step and no more
        import freefactor.cli
        import freefactor.whitehead as wh

        counts = {"minimize": 0, "graph": 0}

        def counting(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

            return wrapper

        steps = {
            word: len(wh.minimize_cyclic_length(parse_word(word, 2)).length_trace)
            for word in ("xyXY", "xxy", "xxx")
        }
        minimize = counting("minimize", wh.minimize_cyclic_length)
        monkeypatch.setattr(wh, "minimize_cyclic_length", minimize)
        monkeypatch.setattr(freefactor.cli, "minimize_cyclic_length", minimize)
        monkeypatch.setattr(wh, "whitehead_graph", counting("graph", wh.whitehead_graph))
        for word, verdict in (("xyXY", "Filling"), ("xxy", "Primitive"),
                              ("xxx", "SimpleNonPrimitive")):
            counts.update(minimize=0, graph=0)
            code, out, _ = run(capsys, "classify", "--n", "2", word)
            assert code == 0 and out == verdict
            assert counts == {"minimize": 1, "graph": steps[word]}, word
        assert steps["xxy"] > 1


class TestHighRanks:
    # descent cuts the Whitehead graph with one max-flow per generator, so
    # its cost grows polynomially in the rank

    def test_rank_30_minimizes(self, capsys):
        code, out, _ = run(capsys, "minimize", "--n", "30", "x1")
        assert (code, out) == (0, "x1 (length 1, 0 moves)")
        code, out, _ = run(capsys, "minimize", "--n", "30", "x1 x30 x2 x30 x1 x29")
        assert (code, out) == (0, "x29 (length 1, 3 moves)")

    @pytest.mark.parametrize(
        "argv",
        [
            ["lipschitz", "--n", "10", "--trials", "50"],
            ["boundary-length", "--n", "12"],
        ],
    )
    def test_experiment_in_seconds_and_bounded_memory(self, tmp_path, argv):
        # a fresh interpreter, so that its peak RSS is this run's alone.  On
        # Linux the child reads its own high-water mark, VmHWM: its ru_maxrss
        # also holds the peak of this test process, which exec carries over
        # to a child started by vfork, and which other tests can raise past
        # the bound
        script = (
            "import resource, sys, time\n"
            "from freefactor import cli\n"
            "start = time.perf_counter()\n"
            "code = cli.main(sys.argv[1:])\n"
            "seconds = time.perf_counter() - start\n"
            "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024\n"
            "try:\n"
            "    with open('/proc/self/status') as status:\n"
            "        peak = int(status.read().split('VmHWM:')[1].split()[0]) / 1024\n"
            "except OSError:\n"
            "    pass\n"
            "print(code, seconds, peak, file=sys.stderr)\n"
        )
        out = tmp_path / "report.json"
        done = fresh_python("-c", script, "experiment", *argv, "--out", str(out))
        # every message carries the child's exit status and output
        child = f"exit {done.returncode}, stdout {done.stdout!r}, stderr {done.stderr!r}"
        assert done.returncode == 0, child
        fields = done.stderr.split()
        assert len(fields) == 3, child
        code, seconds, peak_mb = fields
        assert int(code) == 0 and json.loads(out.read_text())["violations"] == 0, child
        assert float(seconds) < 10 and float(peak_mb) < 200, child


    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["minimize", "--n", "1000000", "x1"], "x1 (length 1, 0 moves)"),
            (["classify", "--n", "100000", "x1"], "Primitive"),
        ],
    )
    def test_huge_rank_under_an_address_limit(self, argv, expected):
        # the Whitehead graph lives on the word's letters, so a one-letter
        # word costs no rank-sized matrix; the child limits its own address
        # space to 800 MB, under which the (2N)^2 edge matrix ended in a
        # MemoryError traceback
        script = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (800 * 2**20, 800 * 2**20))\n"
            "from freefactor import cli\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        done = fresh_python("-c", script, *argv)
        child = f"exit {done.returncode}, stdout {done.stdout!r}, stderr {done.stderr!r}"
        assert (done.returncode, done.stdout.strip()) == (0, expected), child
        assert "Traceback" not in done.stderr, child


    @pytest.mark.parametrize(
        "argv",
        [
            ["boundary-length", "--n", "100000000000"],
            ["lipschitz", "--n", "100000000", "--trials", "1"],
            ["zero-fiber", "--k-lo", "-100000000000", "--k-hi", "100000000000"],
            ["quasiflat", "--radius", "100000000"],
            ["twist-stability", "--radius", "1000000000"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_out_of_memory_is_one_error_line(self, argv):
        # each run needs far more than the 800 MB the child limits itself
        # to; the MemoryError ends in one error line and exit 1, not a
        # traceback
        script = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (800 * 2**20, 800 * 2**20))\n"
            "from freefactor import cli\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        done = fresh_python("-c", script, "experiment", *argv)
        child = f"exit {done.returncode}, stdout {done.stdout!r}, stderr {done.stderr!r}"
        assert done.returncode == 1, child
        assert "Traceback" not in done.stderr, child
        assert done.stderr.startswith("error: out of memory"), child
        assert len(done.stderr.splitlines()) == 1, child


class TestNoNumpy:
    def test_commands_run_without_numpy(self, tmp_path):
        # a fresh interpreter: numpy loads only with the FareyGraph oracle,
        # and neither dataclasses nor inspect (with its ast, dis and
        # tokenize) at all; judged against what was loaded before the
        # package, so that a site hook that loads one of them does not count
        script = f"""
import sys
before = set(sys.modules)
import freefactor, freefactor.cli
runs = [
    ["classify", "--n", "3", "xyzXYZ"],
    ["index", "--n", "2", "--b", "xyXY", "xyXYx", "--geometric"],
    ["experiment", "lipschitz", "--n", "3", "--out", {str(tmp_path / "l.json")!r}],
    ["experiment", "quasiflat", "--radius", "4", "--out", {str(tmp_path / "q.json")!r}],
    ["farey-dist", "1/0", "3/5"],
]
for argv in runs:
    assert freefactor.cli.main(argv) == 0, argv
added = {{"numpy", "dataclasses", "inspect"}} & (set(sys.modules) - before)
assert not added, added
import freefactor
from freefactor import FareyGraph
assert "numpy" in sys.modules
assert freefactor.farey.FareyGraph is freefactor.FareyGraph is FareyGraph
assert FareyGraph(4).distance(freefactor.Slope(1, 0), freefactor.Slope(3, 4)) == 2
print("ok")
"""
        done = fresh_python("-c", script)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "ok"

    def test_parameters_without_inspect(self):
        # the experiment registry reads each signature off the code object
        import inspect

        for name, (fn, parameters) in EXPERIMENTS.items():
            signature = inspect.signature(fn).parameters.values()
            assert parameters == {p.name: p.default for p in signature}, name
            assert list(parameters) == [p.name for p in signature], name
            assert _parameters(fn) == parameters

    def test_unknown_attribute_still_raises(self):
        import freefactor.farey

        for module in (freefactor, freefactor.farey):
            with pytest.raises(AttributeError):
                module.NoSuchName


class TestParserReuse:
    def test_repeated_calls_are_independent(self, capsys):
        # the parser is built once; no parsed value may leak between calls
        calls = [
            (["factor-invariant", "--n", "2", "--b", "xyXY", "--gen", "x"],
             "value = 0 (witness x)"),
            (["reduce", "--n", "3", "xyYz"], "xz"),
            (["factor-invariant", "--n", "2", "--b", "xyXY", "--gen", "y"],
             "value = 0 (witness Y)"),
            (["classify", "--n", "2", "xyXY"], "Filling"),
            (["farey-dist", "1/0", "0/1"], "1"),
            (["reduce", "xX"], "1"),
        ]
        for _ in range(2):
            for argv, expected in calls:
                code, out, _ = run(capsys, *argv)
                assert (code, out) == (0, expected), argv

    def test_append_list_does_not_leak(self, capsys, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        gens = (["--gen", "x"], ["--gen", "xyX"])
        for path, gen in zip(paths, gens):
            code, _, _ = run(
                capsys, "factor-invariant", "--b", "xyXY", *gen, "--out", str(path)
            )
            assert code == 0
        assert [json.loads(p.read_text())["generators"] for p in paths] == [
            ["x"], ["xyX"]
        ]

    def test_parser_built_once(self):
        from freefactor.cli import build_parser

        assert build_parser() is build_parser()


class TestErrors:
    def test_domain_error_exit_1(self, capsys):
        code, _, err = run(capsys, "classify", "--n", "2", "xX")
        assert code == 1 and "error:" in err

    def test_bad_word_exit_1(self, capsys):
        code, _, err = run(capsys, "reduce", "--n", "2", "z")
        assert code == 1 and "error:" in err

    @pytest.mark.parametrize("rank", ["0", "1"])
    def test_rank_below_two_exit_1(self, capsys, rank):
        code, out, err = run(capsys, "minimize", "--n", rank, "x")
        assert code == 1 and out == ""
        assert err == f"error: rank must be at least 2, got {rank}"

    def test_dot_past_rank_26(self, tmp_path):
        # rank 30 has no compact letters: the DOT labels are x1..x30
        b = format_word(boundary_word(30))
        dot = tmp_path / "g.dot"
        done = fresh_python(
            "-m", "freefactor.cli", "factor-invariant", "--n", "30", "--b", b,
            "--gen", "x27", "--dot", str(dot),
        )
        assert done.returncode == 0 and "Traceback" not in done.stderr, done.stderr
        assert done.stdout == "value = 0 (witness x27)\n"
        assert dot.read_text() == (
            'digraph core {\n  0 [shape=doublecircle];\n  0 -> 0 [label="x27"];\n}\n'
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["reduce", "x", "--out"],
            ["experiment", "lipschitz", "--trials", "2", "--csv"],
            ["factor-invariant", "--b", "xyXY", "--gen", "x", "--dot"],
        ],
        ids=["out", "csv", "dot"],
    )
    @pytest.mark.parametrize("missing", [True, False], ids=["missing-dir", "a-dir"])
    def test_unwritable_path_exit_1(self, capsys, tmp_path, argv, missing):
        # a path under a missing directory, or a directory itself
        path = tmp_path / "no" / "such" / "file" if missing else tmp_path
        code, _, err = run(capsys, *argv, str(path))
        reason = "No such file or directory" if missing else "Is a directory"
        assert code == 1
        assert err == f"error: cannot write {path}: {reason}"

    def test_zero_slope_names_the_domain_error(self, capsys):
        code, out, err = run(capsys, "farey-dist", "1/0", "0/0")
        assert code == 1 and out == ""
        assert "slope (0, 0) is not allowed" in err

    @pytest.mark.parametrize("s, t", [("1.5/2", "1/0"), ("1/0", "3.0/5")])
    def test_float_slope_exit_1(self, capsys, s, t):
        code, out, err = run(capsys, "farey-dist", s, t)
        assert code == 1 and out == ""
        assert err.startswith("error: cannot parse slope")

    def test_internal_contradiction_exit_3(self, capsys, monkeypatch):
        import freefactor.cli
        from freefactor import InternalContradictionError

        def contradicted(s, t):
            raise InternalContradictionError("distance is negative")

        monkeypatch.setattr(freefactor.cli, "farey_distance", contradicted)
        code, out, err = run(capsys, "farey-dist", "1/0", "0/1")
        assert code == 3 and out == ""
        assert err == "internal error: distance is negative"

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["index", "--n", "2", "word-without-b"])
        assert exc.value.code == 2

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["reduce", "--n", "2", "x", "--frobnicate"])
        assert exc.value.code == 2


class TestExperimentCommand:
    def test_zero_fiber_reports(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        csv_path = tmp_path / "trace.csv"
        code, out, _ = run(
            capsys,
            "experiment", "zero-fiber",
            "--k-lo", "-4", "--k-hi", "4",
            "--out", str(out_path), "--csv", str(csv_path),
        )
        assert code == 0
        assert "0 violations" in out
        data = json.loads(out_path.read_text())
        assert data["name"] == "zero-fiber"
        assert csv_path.read_text().splitlines()[0] == "trial,k,index"

    def test_seed_fixes_output(self, capsys, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code, _, _ = run(
                capsys,
                "experiment", "cancellation",
                "--trials", "10", "--seed", "3", "--out", str(path),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            ["quasiflat", "--radius", "0"],
            ["lipschitz", "--n", "0"],
            ["lipschitz", "--trials", "-5"],
            ["quasiflat", "--n", "3"],
            ["boundary-length", "--n", "1"],
        ],
    )
    def test_bad_parameters_exit_1(self, capsys, tmp_path, argv):
        out_path = tmp_path / "report.json"
        code, _, err = run(capsys, "experiment", *argv, "--out", str(out_path))
        assert code == 1 and err.startswith("error:")
        assert not out_path.exists()

    def test_boundary_length_honours_rank(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "experiment", "boundary-length", "--n", "5", "--out", str(path)
        )
        assert code == 0 and out.startswith("boundary-length: 4 records, 0 violations")
        data = json.loads(path.read_text())
        assert [t["rank"] for t in data["trials"]] == [2, 3, 4, 5]
        assert data["trials"][-1]["minimal_length"] == 10

    def test_boundary_length_default_ranks(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, _, _ = run(capsys, "experiment", "boundary-length", "--out", str(path))
        assert code == 0
        assert [t["rank"] for t in json.loads(path.read_text())["trials"]] == [2, 3, 4]

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("name", EXPERIMENT_NAMES)
    def test_same_bytes_as_run_experiment(self, capsys, tmp_path, name):
        argv, kwargs = SMALL_RUNS[name]
        path = tmp_path / "report.json"
        code, _, _ = run(capsys, "experiment", name, *argv, "--out", str(path))
        assert code == 0
        assert path.read_text() == run_experiment(name, **kwargs).to_json()

    @pytest.mark.parametrize("name", ["quasiflat", "twist-stability"])
    def test_grid_ignores_seed_flag(self, capsys, tmp_path, name):
        path = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "experiment", name, "--radius", "2", "--seed", "4", "--out", str(path)
        )
        assert code == 0
        assert "seed" not in json.loads(path.read_text())["parameters"]
