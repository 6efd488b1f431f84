"""The benchmark's call tracer still finds everything it wraps.

``perfbench/tracer.py`` looks up each traced boundary by name on the
package; a renamed or deleted function makes ``--trace 1`` fail.  The
tracer is loaded from its file, unchanged, and installed around one CLI
run.
"""

import importlib.util
from pathlib import Path

import freefactor
from freefactor import cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_object(layer, attr):
    """What the tracer wrapped for one TARGETS entry, as installed now."""
    owner = getattr(freefactor, layer)
    if "." in attr:
        cls_name, meth = attr.split(".")
        obj = getattr(owner, cls_name).__dict__[meth]
        return obj.fget if isinstance(obj, property) else obj
    return getattr(owner, attr)


def test_tracer_wraps_every_target_around_quasiflat(capsys):
    module = load_tracer_module()
    tracer = module.Tracer()
    try:
        tracer.install()
        wrapped = {
            f"{layer}.{attr}": hasattr(traced_object(layer, attr), "__wrapped__")
            for layer, attr, _ in module.TARGETS
        }
        code = cli.main(["experiment", "quasiflat", "--radius", "1"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    assert [name for name, ok in wrapped.items() if not ok] == []
    # quasiflat reads its grid values off word ends, with no factor_invariant
    # call; its path check reaches is_basis_pair through experiments' own
    # binding, which the tracer must have rebound
    assert tracer.calls["factors.is_basis_pair"] > 0
    assert tracer.calls["experiments.exp_quasiflat"] == 1
    # uninstall restores every original
    assert not any(
        hasattr(traced_object(layer, attr), "__wrapped__")
        for layer, attr, _ in module.TARGETS
    )


def test_tracer_post_hooks_read_what_the_traced_bench_reads(capsys):
    # one run that fires every post hook: the hooks read
    # FactorInvariant.samples and .tight, cert.chain, args[0].rank, the
    # quasiflat radius and the tracer's phase
    module = load_tracer_module()
    tracer = module.Tracer()
    b = "xxyyzz"
    try:
        tracer.install()
        codes = [
            cli.main(["factor-invariant", "--n", "3", "--b", b, "--gen", "xY", "--gen", "yz"]),
            cli.main(["factor-invariant", "--n", "3", "--b", b, "--gen", "xyZ"]),
            cli.main(["classify", "--n", "3", "xyzXzY"]),
            cli.main(["experiment", "quasiflat", "--radius", "1"]),
        ]
        tracer.phase = "box"
        distance = freefactor.farey.farey_distance((1, 0), (3, 5))
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0, 0, 0, 0] and distance == 3
    extra = tracer.extra
    expected = {
        "whitehead.minimize_cyclic_length.steps",
        "whitehead.minimize_cyclic_length.rank3.calls",
        "whitehead.minimize_cyclic_length.rank3.total_s",
        "whitehead.moves_evaluated",
        "factors.factor_invariant.samples",
        "factors.factor_invariant.tight",
        "factors.FreeFactorVertex.graph.folds",
        "experiments.exp_quasiflat.r1.total_s",
        "farey.farey_distance.box.calls",
        "farey.farey_distance.box.self_s",
    }
    assert expected - set(extra) == set()
    # both factors, the cyclic one too, are searched on their core graphs
    assert tracer.calls["factors.factor_invariant"] == 2
    assert extra["factors.factor_invariant.tight"] == 2
    assert extra["factors.factor_invariant.samples"] > 0
    assert extra["farey.farey_distance.box.calls"] == 1
