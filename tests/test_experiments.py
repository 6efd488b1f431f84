import hashlib
import json
import math
import random
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freefactor import (
    FreeFactorVertex,
    InternalContradictionError,
    PreconditionError,
    Slope,
    WhAutomorphism,
    Word,
    apply_automorphism,
    ad,
    b_index,
    boundary_word,
    build_boundary_pA,
    exp_basis_change,
    exp_boundary_length,
    exp_cancellation,
    exp_fzero_fiber,
    exp_lipschitz,
    exp_quasiflat,
    exp_twist_stability,
    factor_invariant,
    farey_distance,
    random_word,
    run_experiment,
)
from freefactor import cli, experiments, factors, words
from freefactor.experiments import (
    _grid_row,
    _grid_values,
    _pair_classes,
    _random_edge_images,
    _rng,
)
from freefactor.factors import _cyclic_value_from_ends
from freefactor.farey import exponent_sums
from freefactor.words import _orbit_ends, _positive_substitution
from freefactor.whitehead import _random_multiplier_move, vertex_order

from conftest import W, oracle_quasiflat_pairs, psi_power

DATA = Path(__file__).parent / "data"

# The digests below were recorded at schema_version 3 (see schema_3_digest).
# sha256 of run_experiment(name, rank=n, trials=25, seed=1).to_json(), recorded
# when random moves were still drawn with rng.choice from full move tables;
# drawing by index must consume the random stream identically.
TABLE_DRAW_DIGESTS = [
    ("lipschitz", 2, "c93edd5c8e58b2ee9fdcd0503cc17e2de84e7f015150d40cea8eb9e8242eda6d"),
    ("lipschitz", 3, "9bde2f8eccafe74baf00f5b15d45fb8993c2a6527bb417ec0ae54d142bc5ddc3"),
    ("lipschitz", 4, "db1a177001da1af415673b96a64d1a267287198b6aa225837dcd8c10a6945214"),
    ("cancellation", 2, "752941774c83a90e9d68a670c890aed1636b650854b3a7a605f56056eb17882c"),
    ("cancellation", 3, "409c5e46dd933d1bb3bea7b78ddc4a54e5c55a80f9dbff1a868145fc55ca684b"),
    ("cancellation", 4, "652c2104d8f6b7f4ae8375a398f7a8fccb7c4c4e51cf3e4968b0430a19df38d4"),
    ("basis-change", 2, "bf8aef15c0be250b69ae6c41e6e8e5a826441f71e6361083cad8e125938a3475"),
    ("basis-change", 3, "3d2011947d824cf0adf718bbb844b09e4410067e19b0bceffbb645a2e00d49af"),
    ("basis-change", 4, "d4da6cdd54e058c99267a292fcbc3a8a58961d896eb879a1c5248bb4ec915dfe"),
]

# sha256 of run_experiment("twist-stability", radius=r).to_json() for r = 1..8,
# recorded when quasiflat's pairs were still a per-pair Python loop.
TWIST_STABILITY_DIGESTS = [
    (1, "3c39cc9e2e882888b941d3ac5830fe2d78cbca48fed4b2b083a3982520518f59"),
    (2, "48b21e2812b9e59a3994dfa93c228dca56c7ea6c74757862b62e494a6de4bada"),
    (3, "9f636c2b00bef4c51ff8eb448346ee9eb8b7392d25c3f172a2be04f7b6921237"),
    (4, "9685ac58ff104c3689aafa48685618ea390b99bf02942f0d31c2e9ab8b5934eb"),
    (5, "f8b75ad681b1f1397809aefedd403384661bbc2b0e572b13884ce4828f69b8f3"),
    (6, "3de8ed3edbed97e8f99f1baceaffe992f7bb1a0f4043a9d70ec96162ce2b3881"),
    (7, "c3dc3524988aaa9c208fff0026fc3abac6f8b86cc279c5dc17d00c9a5d80805e"),
    (8, "a8cfaef477836755ee267e3ad3217851914636cddc91edb5666ff546f0a02ac5"),
]

# The same for quasiflat, from the same commit, hashed without the
# least-squares fields, which np.polyfit gave then.
QUASIFLAT_SCHEMA_3_DIGESTS = [
    (1, "7ca94c41231388564cd1bc3acaecb3fecfba42311ca0070fe4f547dadc18eb26"),
    (2, "d66432aa0b4a096fccd89a4c77ad7e18d80d10efa485ca51b1d34db2b157f41d"),
    (3, "3992603ba2fcafa4b5e4c95f3f49b5634a49c0a71638a001c0f1912777504fb4"),
    (4, "16e4ebccd4cb67945f7dd6f9dc4961048ab68c0081c1b2df5d9e3ac836c2e331"),
    (5, "7287ebdcc577a8e3cb2097a6c86afdd98a2efea606872bbb312872a3649d072a"),
    (6, "08cc987e297f99e306281064894aaa9400639e3a8a41cb5f117ca63bf4aad675"),
    (7, "f39d415690b73d8bb688e359753699c4ae9320dcb50a0138ce7a39730c733355"),
    (8, "ac4a4d29ad8b4458bfd38e156e658bb138ea394acb374a64bd6984d50ed57364"),
]

# sha256 of run_experiment("quasiflat", radius=r).to_json() for r = 1..8 at
# schema_version 4: the least-squares fields are exact fractions, correctly
# rounded, so the whole report is pinned.
QUASIFLAT_DIGESTS = [
    (1, "3268679dd40630c9cf9d091ad988a06f648edc603b6e1406fbe6b6bb3922092d"),
    (2, "411c9a3ad0a6c3a3f2a8c85f3024e9a887e2a55d3dcc9bf0afb968e6d67228b1"),
    (3, "0dfc3bc6dc7c8fc61008704fb03ac292849c0878c4d466f4423882c24323a718"),
    (4, "803b2eb35376c283bb317f2f5c0c9f1a540f7a147845510fef5b5c507e198995"),
    (5, "bb4cf897de7e3dc27e381dac126f74e7abc58ebedb23ce4d25deb6ac143c68b8"),
    (6, "3a7a7a7bcbde9a0f597dbc9775206bc05214c6962281375e956d297afe910b82"),
    (7, "b530354a3b28bb3b4a4a19e0d222036aae6c1bf225051418bf05c483a98a6b37"),
    (8, "e733b8e8927b05a1ca677a4c8bf6389f141328f2b73337cd7e43b3a52000d8ce"),
]


# sha256 of the schema-4 reports at radius 16 (``sha256`` hashes a report's
# schema-4 bytes), whose schema_3_digest matched the grid that materialised
# every psi^r(x).
RADIUS_16_DIGESTS = {
    "twist-stability": "7367199a499b824b943bdcedc1ed93e5d95cb252fd789e3939c61b44b37541de",
    "quasiflat": "e75e6f7bbf04d09b680d2dfe057bc56c7fcb6e73387ed8b31510c4b2bdfe890a",
}


# every experiment at ranks 2-4, and the grid experiments at r = 1..16
JSON_RUNS = [
    *(
        (name, {"rank": n, "trials": 10, "seed": 1})
        for name in ("lipschitz", "cancellation", "basis-change")
        for n in (2, 3, 4)
    ),
    *((name, {"rank": n}) for name in ("zero-fiber", "boundary-length") for n in (2, 3, 4)),
    *((name, {"radius": r}) for name in ("quasiflat", "twist-stability") for r in range(1, 17)),
]

# strings that look like the structure json_text rewrites, or need escapes
TRICKY_TEXT = st.sampled_from(
    [
        '"},\n      {"',
        "},\n      {",
        '\n  "trials": []',
        "trials",
        'say "x"',
        "back\\slash",
        "\\n",
        "ünï ☃ 𝄞",
        "",
        "\x00\x1f",
    ]
)
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**300), max_value=2**300),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300, 5e-324]),
    st.text(),
    TRICKY_TEXT,
)
JSON_KEYS = st.one_of(st.text(), TRICKY_TEXT)
SLOPES = (
    st.tuples(st.integers(-99, 99), st.integers(-99, 99))
    .filter(lambda t: math.gcd(*t) == 1)
    .map(lambda t: Slope(*t))
)
JSON_VALUES = st.recursive(
    st.one_of(JSON_SCALARS, SLOPES),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(JSON_KEYS, children, max_size=4),
        st.dictionaries(st.one_of(st.integers(), st.booleans()), children, max_size=4),
        st.lists(st.dictionaries(JSON_KEYS, JSON_SCALARS, max_size=3), max_size=4),
    ),
    max_leaves=24,
)
# report-shaped payloads: a "trials" entry beside other keys, most often a
# list of flat dicts (the shape json_text hands to the C encoder)
FLAT_DICTS = st.one_of(
    st.dictionaries(JSON_KEYS, JSON_SCALARS, max_size=3),
    st.dictionaries(st.integers(), JSON_SCALARS, max_size=3),
)
JSON_PAYLOADS = st.builds(
    lambda rest, trials: {**rest, "trials": trials},
    st.dictionaries(JSON_KEYS, JSON_VALUES, max_size=4),
    st.one_of(
        st.lists(FLAT_DICTS, max_size=5),
        st.lists(FLAT_DICTS, max_size=5).map(tuple),
        JSON_VALUES,
    ),
)


def oracle_json_text(payload) -> str:
    """The encoding json_text replaced: json's pure-Python indenting encoder."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def oracle_twist_summary(report) -> dict:
    """The verdict that twist-stability's supremum certificate replaced,
    recomputed from its trials: the running maximum of the displacement
    over r for each k, the r at which it last grew, and a violation for
    each k where that r exceeds max(1, radius // 2)."""
    radius = report.parameters["radius"]
    threshold = max(1, radius // 2)
    displacement = {(t["r"], t["k"]): t["displacement"] for t in report.trials}
    overall, settle_by_k, violations = 0, {}, 0
    for k in range(-radius, radius + 1):
        running = settle = 0
        for r in range(radius + 1):
            if displacement[r, k] > running:
                running, settle = displacement[r, k], r
        overall = max(overall, running)
        settle_by_k[str(k)] = settle
        violations += settle > threshold
    return {
        "summary": {
            "empirical_bound": overall,
            "settle_threshold": threshold,
            "settle_by_k": settle_by_k,
            "settle_at_k0": settle_by_k["0"],
        },
        "violations": violations,
    }


def schema_4_dict(report) -> dict:
    """``report`` as schema 4 wrote it.

    Schema 5 changed only twist-stability's summary, which had the
    running-max verdict (``oracle_twist_summary``) where it now has
    sup_displacement and rows_repeat_from, and dropped quasiflat's
    pairs_below_line, which was always 0; every other byte is the same.
    """
    data = report.to_json_dict()
    data["schema_version"] = 4
    if report.name == "quasiflat":
        data["summary"] = {**data["summary"], "pairs_below_line": 0}
    if report.name == "twist-stability":
        assert set(data["summary"]) == {"sup_displacement", "rows_repeat_from"}
        data.update(oracle_twist_summary(report))
    return data


def schema_4_text(report) -> str:
    return experiments.json_text(schema_4_dict(report))


def sha256(report) -> str:
    """The digest of ``report`` as schema 4 wrote it."""
    return hashlib.sha256(schema_4_text(report).encode()).hexdigest()


def schema_3_digest(report) -> str:
    """The digest that a schema-3 pin recorded for ``report``.

    Schema 4 changed only schema_version and quasiflat's least-squares
    fields, and added quasiflat's lower_envelope, so every other byte of
    the schema-4 report must match.  Quasiflat's schema-3 pins hashed the
    report without its least-squares fields and without the final newline.
    """
    data = schema_4_dict(report)
    data["schema_version"] = 3
    text = experiments.json_text(data)
    if report.name == "quasiflat":
        for key in ("fit_slope", "fit_intercept", "cover_constant", "lower_envelope"):
            del data["summary"][key]
        text = json.dumps(data, sort_keys=True, indent=2)
    return hashlib.sha256(text.encode()).hexdigest()


def oracle_grid_values(radius_r, radius_k):
    """The materialising grid that _grid_values replaced: every psi^r(x)
    built letter by letter and each value read off factor_invariant.
    Returns the values and the exponent sums of psi^r(x) by r."""
    psi = build_boundary_pA()
    b = boundary_word(2)
    lo_r, hi_r = radius_r
    psi_x = {0: W("x")}
    for r in range(1, hi_r + 1):
        psi_x[r] = psi_power(psi, psi_x[r - 1], 1)
    for r in range(-1, lo_r - 1, -1):
        psi_x[r] = psi_power(psi, psi_x[r + 1], -1)
    values = {}
    for r in range(lo_r, hi_r + 1):
        for k in range(-radius_k, radius_k + 1):
            vertex = FreeFactorVertex((ad(b, psi_x[r], k),), 2)
            values[(r, k)] = factor_invariant(vertex, b).value
    return values, {r: exponent_sums(w) for r, w in psi_x.items()}


def oracle_window_grid(radius_r, radius_k):
    """The window grid that the b-conjugation step replaced: ends of every
    psi^r(x) on windows of (2 radius_k + 1)|b| letters, and each value
    read off them by _cyclic_value_from_ends, k by k.  Returns the values
    and the exponent sums of psi^r(x) by r."""
    psi = build_boundary_pA()
    b = boundary_word(2)
    bl, binv = b.letters, b.inverse().letters
    window = (2 * radius_k + 1) * len(bl)
    lo_r, hi_r = radius_r
    ends = {}
    for chain, sign, steps in ((psi.inverse_chain, -1, -lo_r), (psi.chain, 1, hi_r)):
        images = _positive_substitution(chain)
        for r, end in enumerate(_orbit_ends(images, steps, window)):
            ends[sign * r] = end
    power = {k: bl * k if k >= 0 else binv * -k for k in range(-radius_k, radius_k + 1)}
    values = {
        (r, k): _cyclic_value_from_ends(*ends[r][:3], power[k], power[-k], bl, binv)[0]
        for r in range(lo_r, hi_r + 1)
        for k in power
    }
    return values, counted_sums(ends, radius_r)


def counted_sums(ends, radius_r) -> dict:
    """The exponent sums of psi^r(x) by r in radius_r, read off the letter
    counts of its ends {r: (head, hidden, tail, counts)}."""
    lo_r, hi_r = radius_r
    counts = {r: ends[r][3] for r in range(lo_r, hi_r + 1)}
    return {r: (c.get(1, 0), c.get(2, 0) - c.get(-2, 0)) for r, c in counts.items()}


def grid_points(radius_r, radius_k):
    """_grid_values as {(r, k): value} and the exponent sums by r."""
    rows, ends, *_ = _grid_values(radius_r, radius_k)
    return {
        (r, k): value
        for r, row in rows.items()
        for k, value in zip(range(-radius_k, radius_k + 1), row)
    }, counted_sums(ends, radius_r)


def pair_class_counts(grid, dstep: list[int]) -> dict:
    """``_pair_classes`` read as {(m, l): count}, keys in sorted order, after
    checking the histogram's shape: 2n - 1 rows m of ``width`` classes l."""
    hist, width = _pair_classes(grid, dstep)
    assert len(hist) == (2 * len(grid) - 1) * width
    assert width > max(dstep)
    return {divmod(code, width): count for code, count in enumerate(hist) if count}


def oracle_pair_classes(grid, dstep: list[int]) -> dict:
    """The numpy class histogram that ``_pair_classes`` replaced, as
    {(m, l): count} in sorted order.

    Each row offset dr is one (2R + 1 - dr) x (2R + 1) x (2R + 1) block,
    whose pairs one ``bincount`` counts by (|dk|, v1 - v2); those counts
    then go to their classes (m, l) = (dr + |dk|, max(ceil(|v1 - v2| / 2),
    dstep[dr])).
    """
    grid = np.array(grid, dtype=np.int64)
    n = len(grid)
    span = int(grid.max() - grid.min())
    diffs = 2 * span + 1  # v1 - v2 + span lies in 0..2 span
    width = max((span + 1) // 2, max(dstep)) + 1
    cols = np.arange(n)
    by_dk = np.abs(cols[:, None] - cols[None, :]) * diffs
    half_diff = (np.abs(np.arange(-span, span + 1)) + 1) // 2
    shifted = grid + span
    counts = np.zeros((2 * n - 1) * width, dtype=np.int64)
    buffer = np.empty((n, n, n), dtype=np.int64)
    for dr in range(n):
        block = buffer[: n - dr]
        np.subtract(shifted[: n - dr, :, None], grid[dr:, None, :], out=block)
        block += by_dk
        found = np.bincount(block.ravel(), minlength=n * diffs)
        codes = (dr + cols)[:, None] * width + np.maximum(half_diff, dstep[dr])
        np.add.at(counts, codes.ravel(), found)
        if dr == 0:
            # the block held both orders of each pair in a row, and each
            # point with itself in class (0, 0); nothing else is counted yet
            counts[0] -= n * n
            counts //= 2
    hist = counts.reshape(2 * n - 1, width)
    ms, ls = np.nonzero(hist)
    return {(m, l): c for m, l, c in zip(ms.tolist(), ls.tolist(), hist[ms, ls].tolist())}


def oracle_pair_loop(grid, dstep: list[int]) -> dict:
    """The class of every grid pair, one pair at a time."""
    n = len(grid)
    points = [(i, j, grid[i][j]) for i in range(n) for j in range(n)]
    classes: dict = {}
    for idx, (i1, j1, v1) in enumerate(points):
        for i2, j2, v2 in points[idx + 1 :]:
            cls = (i2 - i1 + abs(j2 - j1), max((abs(v1 - v2) + 1) // 2, dstep[i2 - i1]))
            classes[cls] = classes.get(cls, 0) + 1
    return dict(sorted(classes.items()))


def orbit_grid(radius: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """The quasiflat grid and Farey row of exp_quasiflat at ``radius``."""
    rows, ends, *_ = _grid_values((-radius, radius), radius)
    sums = counted_sums(ends, (-radius, radius))
    span = range(-radius, radius + 1)
    slopes = [Slope(*sums[r]) for r in span]
    return (
        [rows[r] for r in span],
        [farey_distance(slopes[0], s) for s in slopes],
    )


def _conjugation_chain(w: Word) -> tuple[WhAutomorphism, ...]:
    """Conjugation by w as a chain of single-letter conjugation moves."""
    rank = w.rank
    letters = frozenset(vertex_order(rank))
    return tuple(
        WhAutomorphism.multiplier_move(l, letters - {-l}, rank)
        for l in reversed(w.letters)
    )


def oracle_random_edge_chain(
    rng, rank: int, b: Word, image_cap: int = 110
) -> tuple[WhAutomorphism, ...]:
    """The chain sampler that _random_edge_images replaced: the same draws,
    kept as a chain of Whitehead moves and applied to the basis to test
    the size cap."""
    gens = [Word((i,), rank) for i in range(1, rank + 1)]
    for _ in range(40):
        chain: list[WhAutomorphism] = []
        for _ in range(rng.randint(1, 3)):
            roll = rng.random()
            if roll < 0.45:
                chain.extend(_conjugation_chain(b ** rng.choice((-2, -1, 1, 2))))
            elif roll < 0.65:
                chain.extend(
                    _conjugation_chain(random_word(rng.randint(1, 3), rank, rng))
                )
            else:
                chain.extend(
                    _random_multiplier_move(rng, rank) for _ in range(rng.randint(1, 2))
                )
        if sum(len(apply_automorphism(chain, g)) for g in gens) <= image_cap:
            return tuple(chain)
    return ()


class TestBoundaryWords:
    def test_values(self):
        assert boundary_word(2) == W("xyXY")
        assert boundary_word(3) == W("xxyyzz", 3)
        assert boundary_word(4).letters == (1, 2, -1, -2, 3, 4, -3, -4)

    def test_lengths_and_filling(self):
        report = exp_boundary_length(4)
        assert report.violations == 0
        assert [t["minimal_length"] for t in report.trials] == [4, 6, 8]
        assert all(t["verdict"] == "filling" for t in report.trials)


class TestBoundaryAutomorphism:
    def test_images(self):
        psi = build_boundary_pA()
        assert psi.x_image == W("xy")
        assert psi.y_image == W("yxy")

    def test_fixes_boundary_exactly(self, b2):
        psi = build_boundary_pA()
        assert psi_power(psi, b2, 1) == b2
        assert psi_power(psi, b2, -1) == b2
        assert psi_power(psi, b2, 5) == b2

    def test_homology(self):
        psi = build_boundary_pA()
        assert psi.homology == ((1, 1), (1, 2))
        summary = psi.to_json_dict()
        assert summary["trace"] == 3
        assert summary["is_pseudo_anosov"] and summary["fixes_boundary"]

    def test_trace_two_is_a_contradiction(self, monkeypatch, capsys):
        # homology [[1, 1], [0, 1]] is invertible but has trace 2, which
        # certifies no pseudo-Anosov
        monkeypatch.setattr(
            experiments, "exponent_sums", lambda w: (1, 0) if w == W("xy") else (1, 1)
        )
        with pytest.raises(InternalContradictionError, match="trace 2"):
            build_boundary_pA()
        assert cli.main(["experiment", "quasiflat", "--radius", "1"]) == 3
        assert "trace 2" in capsys.readouterr().err

    def test_twin_twists_fix_boundary(self, b2):
        psi = build_boundary_pA()
        for phi in psi.chain:
            assert phi(b2) == b2

    def test_inverse_round_trip(self):
        psi = build_boundary_pA()
        w = W("xYxxy")
        assert psi_power(psi, psi_power(psi, w, 3), -3) == w

    def test_inverse_checked_on_both_generators(self, monkeypatch, capsys):
        # without tau's inverse the chain still sends xy back to x, but it
        # sends yxy to yx
        tau = WhAutomorphism.multiplier_move(-1, {-1, 2}, 2)
        inverse = WhAutomorphism.inverse
        monkeypatch.setattr(
            WhAutomorphism,
            "inverse",
            lambda phi: WhAutomorphism.identity(2) if phi == tau else inverse(phi),
        )
        with pytest.raises(InternalContradictionError, match="yxy back to y$"):
            build_boundary_pA()
        assert cli.main(["experiment", "quasiflat", "--radius", "1"]) == 3
        assert "yxy back to y" in capsys.readouterr().err


class TestLipschitz:
    @pytest.mark.parametrize("rank", [2, 3])
    def test_zero_violations(self, rank):
        report = exp_lipschitz(rank, trials=60, seed=5)
        assert report.violations == 0
        assert report.summary["bound"] == (2 if rank == 2 else 1)

    def test_empty_run(self):
        report = exp_lipschitz(2, trials=0, seed=0)
        assert report.violations == 0
        assert report.trials == []

    def test_rejects_non_filling_base(self):
        with pytest.raises(PreconditionError):
            exp_lipschitz(2, b=W("xx"), trials=1, seed=0)

    @pytest.mark.parametrize("rank", [2, 3])
    def test_every_pair_passes_the_edge_check(self, monkeypatch, rank):
        import freefactor.experiments as experiments

        checked = []

        def not_adjacent(fa, fb):
            checked.append((fa, fb))
            return False

        monkeypatch.setattr(experiments, "af_adjacent", not_adjacent)
        with pytest.raises(InternalContradictionError):
            exp_lipschitz(rank, trials=3, seed=5)
        assert len(checked) == 1


class TestRandomEdgeImages:
    @pytest.mark.parametrize("rank", [2, 3, 4, 5])
    def test_matches_chain_oracle(self, rank):
        # equal images, and the stream left where the chain sampler left it,
        # so exp_lipschitz's subset draw that follows is unchanged
        b = boundary_word(rank)
        basis = [Word((i,), rank) for i in range(1, rank + 1)]
        for i in range(500):
            rng, oracle_rng = _rng(0, "lipschitz", i), _rng(0, "lipschitz", i)
            images = _random_edge_images(rng, rank, b)
            chain = oracle_random_edge_chain(oracle_rng, rank, b)
            assert images == tuple(apply_automorphism(chain, g) for g in basis), i
            assert rng.getstate() == oracle_rng.getstate(), i

    def test_fallback_is_the_basis(self):
        # every draw conjugates by a power of a 60-letter word, so all 40
        # tries exceed the 110-letter cap
        class Conjugating(random.Random):
            def random(self):
                return 0.0

        b = boundary_word(2) ** 15
        rng, oracle_rng = Conjugating(1), Conjugating(1)
        assert _random_edge_images(rng, 2, b) == (W("x"), W("y"))
        assert oracle_random_edge_chain(oracle_rng, 2, b) == ()
        assert rng.getstate() == oracle_rng.getstate()


class TestCancellation:
    def test_specific_elements(self, b2):
        # direct checks of the two stated cases
        for a in (W("x"), W("Yxy")):
            assert b_index(a, b2) == 0
            unreduced = b2.letters * 3 + a.letters + b2.inverse().letters * 3
            w = Word.from_letters(unreduced, 2)
            head = len(b2) + 1
            assert w.letters[:head] == unreduced[:head]
            assert w.letters[-head:] == unreduced[-head:]
            assert b_index(w, b2) >= 1

    @pytest.mark.parametrize("rank", [2, 3])
    def test_zero_violations(self, rank):
        report = exp_cancellation(rank, trials=60, seed=3)
        assert report.violations == 0


class TestZeroFiber:
    def test_standard_probe(self):
        report = exp_fzero_fiber(2, k_lo=-10, k_hi=10)
        assert report.violations == 0
        assert report.summary["zero_fiber_size"] <= 3
        assert report.summary["injective_off_fiber"]

    def test_shifted_probe(self, b2):
        a = (b2**2) * W("x") * (b2**-2)
        report = exp_fzero_fiber(2, a=a, k_lo=-6, k_hi=6)
        values = {t["k"]: t["index"] for t in report.trials}
        # sequence is the standard one shifted by 2
        base = exp_fzero_fiber(2, k_lo=-4, k_hi=8)
        base_values = {t["k"]: t["index"] for t in base.trials}
        assert all(values[k] == base_values[k + 2] for k in range(-6, 7))

    def test_empty_range(self):
        report = exp_fzero_fiber(2, k_lo=5, k_hi=4)
        assert report.violations == 0
        assert report.trials == []

    def test_non_primitive_probe_rejected(self):
        with pytest.raises(PreconditionError):
            exp_fzero_fiber(2, a=W("xx"))


class TestBasisChange:
    def test_identity_chain_gives_zero(self, b2, monkeypatch):
        monkeypatch.setattr(
            experiments,
            "_find_second_minimizing_basis",
            lambda rank, b, seed: (WhAutomorphism.identity(2),),
        )
        report = exp_basis_change(2, trials=40, seed=1)
        assert report.summary["empirical_spread"] == 0

    def test_swap_basis_stabilizes(self):
        report = exp_basis_change(2, trials=60, seed=2)
        assert report.violations == 0
        assert report.summary["stabilized"]
        assert report.parameters["b_in_second_basis"]


class TestQuasiflat:
    def test_small_grid(self):
        report = exp_quasiflat(3)
        assert report.violations == 0
        assert report.summary["fit_slope"] > 0
        assert "pairs_below_line" not in report.summary
        assert oracle_quasiflat_pairs(report, 3)["pairs_below_line"] == 0
        assert report.summary["pure_psi_strictly_increasing"]
        assert report.summary["psi_path"] == ["x", "xy"]
        # values track the conjugation depth to within 1 (a junction letter
        # can eat one b-block on the negative side)
        assert all(abs(t["value"] - t["k"]) <= 1 for t in report.trials)
        assert all(
            t["value"] == t["k"]
            for t in report.trials
            if t["r"] >= 0 and t["k"] >= 0
        )

    def test_upper_bound_paths_verified(self):
        from freefactor import is_basis_pair, parse_word

        report = exp_quasiflat(2)
        path = report.summary["ad_path"]
        words = [parse_word(t, 2) for t in path]
        for u, v in zip(words, words[1:]):
            assert is_basis_pair(u, v)
        assert report.summary["upper_bound_unit"] == max(1, len(path) - 1)

    @pytest.mark.parametrize("radius", [1, 2, 3, 4, 5, 6, 7, 8, 12])
    def test_pair_arrays_match_the_loop(self, radius):
        # the fit fields are the correctly rounded exact fractions, and
        # np.polyfit agrees with them to rounding
        report = exp_quasiflat(radius)
        expected = oracle_quasiflat_pairs(report, report.summary["upper_bound_unit"])
        slope, intercept = expected.pop("polyfit")
        assert expected.pop("pairs_below_line") == 0
        assert {key: report.summary[key] for key in expected} == expected
        assert report.summary["fit_slope"] == pytest.approx(slope, rel=1e-12)
        assert report.summary["fit_intercept"] == pytest.approx(intercept, rel=1e-12)
        slopes = {t["r"]: Slope.from_string(t["slope"]) for t in report.trials}
        assert report.summary["pure_psi_distances"] == [
            farey_distance(slopes[0], slopes[d]) for d in range(1, radius + 1)
        ]

    @pytest.mark.parametrize("radius", range(1, 13))
    def test_pair_classes_match_numpy_oracle(self, radius):
        grid, dstep = orbit_grid(radius)
        # the grid has two distinct rows: r < 0 and r >= 0
        assert len(set(grid)) == 2
        classes = pair_class_counts(grid, dstep)
        assert classes == oracle_pair_classes(grid, dstep)
        if radius <= 4:
            assert classes == oracle_pair_loop(grid, dstep)

    @pytest.mark.parametrize("rows", ["distinct", "repeated"])
    def test_pair_classes_on_random_grids(self, rows):
        rng = random.Random(11 if rows == "distinct" else 12)
        for _ in range(30):
            n = rng.randint(1, 9)
            lo, hi = sorted(rng.randint(-20, 20) for _ in range(2))
            if rows == "distinct":
                grid = set()
                while len(grid) < n:
                    grid.add(tuple(rng.randint(lo, hi + n) for _ in range(n)))
                grid = list(grid)
            else:
                kinds = [tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(3)]
                grid = [rng.choice(kinds) for _ in range(n)]
            dstep = [0] + [rng.randint(0, 12) for _ in range(n - 1)]
            classes = pair_class_counts(grid, dstep)
            assert classes == oracle_pair_classes(grid, dstep)
            assert classes == oracle_pair_loop(grid, dstep), grid

    def test_adjacency_paths_fixed_across_radii(self):
        for radius in (1, 2):
            report = exp_quasiflat(radius)
            assert report.summary["psi_path"] == ["x", "xy"]
            assert report.summary["ad_path"] == ["x", "YX", "xyXYXYX", "xyXYxyxYX"]

    @pytest.mark.parametrize(
        "path",
        [
            ("x", "xx", "xyXYxyxYX"),  # x, xx is no basis pair
            ("x", "YX", "xyXYXYX"),  # stops short of b x b^-1
            ("y", "YX", "xyXYXYX", "xyXYxyxYX"),  # starts off x
        ],
    )
    def test_unverified_path_is_a_contradiction(self, monkeypatch, capsys, path):
        import freefactor.experiments as experiments
        from freefactor.cli import main

        monkeypatch.setattr(experiments, "_AD_PATH", path)
        with pytest.raises(InternalContradictionError):
            exp_quasiflat(1)
        assert main(["experiment", "quasiflat", "--radius", "1"]) == 3
        assert capsys.readouterr().err.startswith("internal error: ")


class TestGridFromEnds:
    @pytest.mark.parametrize("radius_k", [0, 1, 3, 12])
    def test_matches_materialising_oracle(self, radius_k):
        # |r| <= 12 reaches 75,025-letter words; a small radius_k shrinks
        # the windows to (2 radius_k + 1) |b| letters
        assert grid_points((-12, 12), radius_k) == oracle_grid_values((-12, 12), radius_k)
        assert _grid_values((-1, 1), 1)[2] == boundary_word(2)

    @pytest.mark.parametrize("radius", [*range(1, 17), 32, 64])
    def test_matches_window_oracle(self, radius):
        for radius_r in ((-radius, radius), (0, radius)):
            assert grid_points(radius_r, radius) == oracle_window_grid(radius_r, radius)

    def test_step_on_arbitrary_words(self, b2):
        # rows of reduced words that start or end in b^+-1 blocks, or are
        # conjugates, whole in the head window: each row raises (a power of
        # b, or no step premise by |k| = 2) or equals the materialised
        # invariants at every k
        rng = random.Random(5)
        bl, binv = b2.letters, b2.inverse().letters
        rows = 0
        for _ in range(400):
            s = random_word(rng.randint(1, 12), 2, rng)
            p = b2 ** rng.randint(-2, 2) * random_word(rng.randint(0, 3), 2, rng)
            w = p * s * p.inverse() if rng.random() < 0.5 else p * s
            if w.is_identity():
                continue
            try:
                expected = tuple(
                    factor_invariant(FreeFactorVertex((ad(b2, w, k),), 2), b2).value
                    for k in range(-6, 7)
                )
            except PreconditionError:
                continue  # a power of b lies in the factor
            try:
                row = _grid_row(w.letters, 0, (), 2, 6, bl, binv)
            except InternalContradictionError:
                continue
            assert row == expected, w
            rows += 1
        assert rows > 200

    def test_rows_are_shared_by_equal_ends(self):
        # psi and psi^-1 are prolongable, so the windows of psi^r(x) stop
        # changing after a few steps, and so do the rows
        rows = _grid_values((-64, 64), 64)[0]
        assert len({id(row) for row in rows.values()}) == 10
        assert rows[64] is rows[63] and rows[-64] is rows[-63]

    def test_unmet_premise_raises_and_never_extrapolates(self, monkeypatch, capsys, tmp_path):
        # end letters that break both step premises: g_k ending in b[-1]
        # stops the b side, g_k starting with b[0] the b^-1 side
        bl = boundary_word(2).letters
        value_from_ends, orbit_ends = experiments._cyclic_value_from_ends, _orbit_ends
        windows, evaluated = [], {}

        def unmet(head, hidden, tail, bk, bk_inv, *rest):
            k = len(bk) // len(bl) * (1 if bk[:1] == bl[:1] else -1)
            evaluated.setdefault((head, hidden > 0, tail), set()).add(k)
            return value_from_ends(head, hidden, tail, bk, bk_inv, *rest)[0], bl[0], bl[-1]

        def recorded(images, steps, window):
            windows.append(window)
            return orbit_ends(images, steps, window)

        monkeypatch.setattr(experiments, "_cyclic_value_from_ends", unmet)
        monkeypatch.setattr(experiments, "_orbit_ends", recorded)
        # radius_k > 2: a row is not extended past |k| = 2 without the premise
        with pytest.raises(InternalContradictionError, match="no b-conjugation step"):
            _grid_values((-6, 6), 6)
        # one window of 5 |b| letters for psi^-1 and one for psi
        assert windows == [20, 20]
        assert all(ks <= set(range(-2, 3)) for ks in evaluated.values())
        for name in ("quasiflat", "twist-stability"):
            out = tmp_path / f"{name}.json"
            argv = ["experiment", name, "--radius", "6", "--out", str(out)]
            assert cli.main(argv) == 3
            captured = capsys.readouterr()
            assert captured.out == "" and not out.exists()
            assert "no b-conjugation step" in captured.err

        # radius_k <= 2: every value is a window evaluation, and exact
        for radius_k in (0, 1, 2):
            evaluated.clear()
            assert grid_points((-6, 6), radius_k) == oracle_window_grid((-6, 6), radius_k)
            assert evaluated and all(
                ks == set(range(-radius_k, radius_k + 1)) for ks in evaluated.values()
            )

    def test_substitutions(self):
        psi = build_boundary_pA()
        assert _positive_substitution(psi.chain) == {1: (1, 2), 2: (2, 1, 2)}
        assert _positive_substitution(psi.inverse_chain) == {1: (1, 1, -2), -2: (1, -2)}

    @pytest.mark.parametrize("field", ["chain", "inverse_chain"])
    def test_no_positive_alphabet_is_a_contradiction(
        self, monkeypatch, capsys, tmp_path, field
    ):
        # followed by conjugation by x, psi sends x to xxyX and psi^-1 sends x
        # to xxxYX: each image holds both x and X
        psi = build_boundary_pA()
        bad = replace(psi, **{field: getattr(psi, field) + _conjugation_chain(W("x"))})
        monkeypatch.setattr(experiments, "build_boundary_pA", lambda: bad)
        with pytest.raises(InternalContradictionError, match="positive substitution"):
            _grid_values((-1, 1), 1)
        for name in ("quasiflat", "twist-stability"):
            out = tmp_path / f"{name}.json"
            argv = ["experiment", name, "--radius", "1", "--out", str(out)]
            assert cli.main(argv) == 3
            captured = capsys.readouterr()
            assert captured.out == "" and not out.exists()
            assert "positive substitution" in captured.err

    def test_short_window_raises_and_never_guesses(self, monkeypatch, capsys, tmp_path):
        # every window shorter than (2K + 1)|b| = 52 either still decides
        # every value exactly or raises; a 1-letter window cannot hold the
        # |b| letters that the b-power test reads at k = 0, so it raises
        orbit_ends = experiments._orbit_ends
        expected = oracle_grid_values((-6, 6), 6)
        raised = []
        for window in range(1, 53):
            def shrunk(images, steps, _, window=window):
                return orbit_ends(images, steps, window)

            monkeypatch.setattr(experiments, "_orbit_ends", shrunk)
            try:
                points = grid_points((-6, 6), 6)
            except InternalContradictionError as exc:
                assert "cannot decide a grid value" in str(exc)
                raised.append(window)
                continue
            assert points == expected, window
        assert 1 in raised
        monkeypatch.setattr(
            experiments, "_orbit_ends", lambda images, steps, _: orbit_ends(images, steps, 1)
        )
        for name in ("quasiflat", "twist-stability"):
            out = tmp_path / f"{name}.json"
            argv = ["experiment", name, "--radius", "6", "--out", str(out)]
            assert cli.main(argv) == 3
            captured = capsys.readouterr()
            assert captured.out == "" and not out.exists()
            assert "cannot decide a grid value" in captured.err

    def test_windows_never_guess_on_arbitrary_words(self, b2):
        # the value on windows of 1-24 letters of reduced words that cancel
        # deep into b^k (b^j s, p s p^-1) or are b-powers, whose invariant is
        # infinite: each call raises or returns the materialised value, and
        # dropping any one clause of its guard returns wrong values here
        rng = random.Random(3)
        bl, binv = b2.letters, b2.inverse().letters
        raised = 0
        for _ in range(6000):
            kind = rng.randrange(4)
            s = random_word(rng.randint(1, 30), 2, rng)
            if kind == 0:
                w = s
            elif kind == 1:
                w = (b2 ** rng.choice((-3, -2, -1, 1, 2, 3))) * s
            elif kind == 2:
                p = random_word(rng.randint(1, 12), 2, rng)
                w = p * s * p.inverse()
            else:
                w = b2 ** rng.choice((-8, -5, -3, -1, 1, 3, 5, 8))
            if w.is_identity():
                continue
            k = rng.randint(-4, 4)
            try:
                vertex = FreeFactorVertex((ad(b2, w, k),), 2)
                expected = factor_invariant(vertex, b2).value
            except PreconditionError:
                expected = None  # a power of b lies in the factor
            window, ls = rng.randint(1, 24), w.letters
            ends = (ls, 0, ())
            if len(ls) > 2 * window:
                ends = (ls[:window], len(ls) - 2 * window, ls[-window:])
            power = {j: bl * j if j >= 0 else binv * -j for j in (k, -k)}
            try:
                value, first, last = _cyclic_value_from_ends(
                    *ends, power[k], power[-k], bl, binv
                )
            except InternalContradictionError:
                raised += 1
                continue
            g = ad(b2, w, k).letters
            assert (value, first, last) == (expected, g[0], g[-1]), (w, k, window)
        assert raised > 0

    def test_never_builds_psi_powers(self, monkeypatch):
        # the ends are iterated on windows: the one apply_automorphism call
        # per substitution letter reads a letter image, and the words the
        # certificate and the paths check stay short
        calls = []
        apply = experiments.apply_automorphism

        def counted(chain, w):
            calls.append(len(w))
            return apply(chain, w)

        for module in (experiments, words):
            monkeypatch.setattr(module, "apply_automorphism", counted)
        exp_quasiflat(16)
        exp_twist_stability(64)
        assert calls and max(calls) <= len(boundary_word(2))

    @pytest.mark.parametrize("name", ["quasiflat", "twist-stability"])
    def test_same_bytes_as_materialising_grid_at_radius_16(self, name):
        assert sha256(run_experiment(name, radius=16)) == RADIUS_16_DIGESTS[name]


class TestJsonText:
    @pytest.mark.parametrize("name,kwargs", JSON_RUNS)
    def test_every_report(self, name, kwargs):
        data = run_experiment(name, **kwargs).to_json_dict()
        assert experiments.json_text(data) == oracle_json_text(data)

    @settings(max_examples=400)
    @given(JSON_VALUES)
    def test_any_value(self, value):
        assert experiments.json_text(value) == oracle_json_text(value)

    @settings(max_examples=400)
    @given(JSON_PAYLOADS)
    def test_any_report_shape(self, payload):
        assert experiments.json_text(payload) == oracle_json_text(payload)

    @pytest.mark.parametrize(
        "value",
        [
            {"a": object()},
            [1, {2, 3}],
            {(1, 2): 0},
            {"a": [{"b": b"c"}]},
            {1: 0, "a": 1},
            {"trials": [{"a": 1, 2: 0}]},
            {"trials": [{"a": object()}]},
            {"trials": [{"a": 1}], 1: 0},
        ],
    )
    def test_same_errors(self, value):
        with pytest.raises(TypeError):
            oracle_json_text(value)
        with pytest.raises(TypeError):
            experiments.json_text(value)


def largest_displacement(values) -> int:
    """max |value(r, k) - value(0, k)| over a grid {(r, k): value}."""
    return max(abs(value - values[0, k]) for (_, k), value in values.items())


def first_repeated_key(ends) -> int:
    """The first r whose key (head, hidden > 0, tail) repeats an earlier one."""
    keys = [(head, hidden > 0, tail) for head, hidden, tail, _ in ends]
    return next(r for r, key in enumerate(keys) if key in keys[:r])


class TestTwistStability:
    def test_zero_displacement_growth(self):
        report = exp_twist_stability(4)
        assert report.violations == 0
        assert report.summary == {"sup_displacement": 0, "rows_repeat_from": 6}

    def test_supremum_matches_materialised_windows(self):
        # both oracles reach past the first repeated key, the materialising
        # one to 75,025-letter words, the window one to r = k = 40
        materialised = largest_displacement(oracle_grid_values((0, 12), 12)[0])
        windows = largest_displacement(oracle_window_grid((0, 40), 40)[0])
        for radius in range(1, 17):
            summary = exp_twist_stability(radius).summary
            assert summary["rows_repeat_from"] < 12
            assert summary["sup_displacement"] == materialised == windows, radius

    def test_rows_repeat_from_is_the_first_repeated_key(self):
        images = _positive_substitution(build_boundary_pA().chain)
        expected = first_repeated_key(_orbit_ends(images, 12, 20))
        assert expected == 6
        for radius in [*range(1, 17), 64]:
            assert exp_twist_stability(radius).summary["rows_repeat_from"] == expected

    def test_walk_past_steps_follows_the_counted_walk(self):
        # past steps only the windows are walked, to the first repeated key,
        # and the keys are those of the walk that counts every letter
        psi = build_boundary_pA()
        for chain in (psi.chain, psi.inverse_chain):
            images = _positive_substitution(chain)
            for window in (1, 4, 12, 20, 52):
                counted = list(_orbit_ends(images, 16, window))
                repeat = first_repeated_key(counted)
                for steps in range(10):
                    ends = list(_orbit_ends(images, steps, window))
                    assert len(ends) == max(steps, repeat) + 1
                    assert ends[: steps + 1] == counted[: steps + 1]
                    for end, full in zip(ends[steps + 1 :], counted[steps + 1 :]):
                        assert end[3] is None
                        assert (end[0], end[1] > 0, end[2]) == (full[0], full[1] > 0, full[2])

    def test_walks_go_past_the_radius_only_for_the_certificate(self, monkeypatch):
        # the walk is lazy: quasiflat reads each side to R, twist-stability
        # reads psi^-1 at r = 0 only and psi on to its first repeated key
        orbit_ends, pulled = experiments._orbit_ends, []

        def counted(images, steps, window):
            pulled.append(0)
            for end in orbit_ends(images, steps, window):
                pulled[-1] += 1
                yield end

        monkeypatch.setattr(experiments, "_orbit_ends", counted)
        for radius in (1, 3, 6, 9):
            pulled.clear()
            exp_quasiflat(radius)
            assert pulled == [radius + 1, radius + 1]
            pulled.clear()
            exp_twist_stability(radius)
            assert pulled == [1, max(radius, 6) + 1]

    def test_supremum_reads_rows_past_the_radius(self, monkeypatch):
        # shift every value of the rows whose words outgrow the 20-letter
        # windows, first met at r = 5: the rows r <= radius of a small
        # radius do not show it, the certificate's rows do
        value_from_ends = experiments._cyclic_value_from_ends

        def shifted(head, hidden, tail, *rest):
            value, first, last = value_from_ends(head, hidden, tail, *rest)
            return value + (hidden > 0), first, last

        monkeypatch.setattr(experiments, "_cyclic_value_from_ends", shifted)
        for radius in (1, 2, 4, 5, 8):
            report = exp_twist_stability(radius)
            shown = max(t["displacement"] for t in report.trials)
            assert shown == (radius >= 5)
            assert report.summary == {"sup_displacement": 1, "rows_repeat_from": 6}

    @pytest.mark.parametrize("radius", [1, 2])
    def test_unmet_premise_exits_3_at_small_radius(
        self, monkeypatch, capsys, tmp_path, radius
    ):
        # the certificate's rows reach |k| = 3, so the step premise is
        # checked by |k| = 2 at every radius
        bl = boundary_word(2).letters
        value_from_ends = experiments._cyclic_value_from_ends

        def unmet(*args):
            return value_from_ends(*args)[0], bl[0], bl[-1]

        monkeypatch.setattr(experiments, "_cyclic_value_from_ends", unmet)
        out = tmp_path / "twist.json"
        argv = ["experiment", "twist-stability", "--radius", str(radius), "--out", str(out)]
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert "no b-conjugation step" in captured.err

    def test_each_row_evaluates_k0_once(self, monkeypatch):
        # both sides of a row start from one window evaluation at k = 0
        value_from_ends = experiments._cyclic_value_from_ends
        at_zero = Counter()

        def counted(head, hidden, tail, bk, *rest):
            at_zero[head, hidden > 0, tail] += not bk
            return value_from_ends(head, hidden, tail, bk, *rest)

        monkeypatch.setattr(experiments, "_cyclic_value_from_ends", counted)
        for radius in (1, 3, 8):
            for experiment in (exp_twist_stability, exp_quasiflat):
                at_zero.clear()
                experiment(radius)
                assert at_zero and set(at_zero.values()) == {1}, (experiment, radius)


def count_folds(monkeypatch, run) -> int:
    """How many times ``run()`` calls ``factors.fold``, from a cold cache."""
    calls = []
    fold = factors.fold

    def counted(*args, **kwargs):
        calls.append(args)
        return fold(*args, **kwargs)

    monkeypatch.setattr(factors, "fold", counted)
    factors._fold_cached.cache_clear()
    run()
    return len(calls)


@pytest.mark.parametrize("experiment", [exp_quasiflat, exp_twist_stability])
def test_orbit_grid_never_folds(monkeypatch, experiment):
    # grid invariants are cyclic, read off their generators, and the
    # quasiflat path edges are basis pairs, decided by their commutators
    assert count_folds(monkeypatch, lambda: experiment(4)) == 0


def test_factor_edges_fold_only_two_generator_factors(monkeypatch):
    # rank 2: basis pairs and cyclic invariants need no core graph
    assert count_folds(monkeypatch, lambda: exp_lipschitz(2, trials=50)) == 0
    assert count_folds(monkeypatch, lambda: exp_basis_change(2, trials=50)) == 0
    # rank 3: the edge test and the invariant share the one fold of the
    # two-generator side of each nested pair
    assert 0 < count_folds(monkeypatch, lambda: exp_lipschitz(3, trials=50)) <= 50


class TestReports:
    def test_golden_zero_fiber(self):
        report = exp_fzero_fiber(2, k_lo=-3, k_hi=3)
        golden = (DATA / "zero_fiber_golden.json").read_text()
        assert schema_4_text(report) == golden
        assert report.to_json() == golden.replace('"schema_version": 4', '"schema_version": 5')

    @pytest.mark.parametrize(
        "name,kwargs",
        [
            ("lipschitz", {"trials": 8, "seed": 4}),
            ("cancellation", {"trials": 8, "seed": 4}),
            ("zero-fiber", {"k_lo": -3, "k_hi": 3}),
            ("basis-change", {"trials": 8, "seed": 4}),
            ("quasiflat", {"radius": 2}),
            ("boundary-length", {}),
            ("twist-stability", {"radius": 2}),
        ],
    )
    def test_deterministic_bytes(self, name, kwargs):
        first = run_experiment(name, **kwargs).to_json()
        second = run_experiment(name, **kwargs).to_json()
        assert first == second
        data = json.loads(first)
        assert set(data) == {
            "schema_version",
            "name",
            "parameters",
            "violations",
            "summary",
            "trials",
        }

    def test_csv_trace(self, tmp_path):
        report = exp_fzero_fiber(2, k_lo=-2, k_hi=2)
        path = tmp_path / "trace.csv"
        report.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "trial,k,index"
        assert len(lines) == 6

    @pytest.mark.parametrize(
        "name,kwargs",
        [
            ("quasiflat", {"radius": 0}),
            ("twist-stability", {"radius": -1}),
            ("quasiflat", {"rank": 3}),
            ("lipschitz", {"rank": 0}),
            ("lipschitz", {"trials": -5}),
            ("basis-change", {"trials": 0}),
            ("lipschitz", {"sample_budget": 0}),
            ("zero-fiber", {"k_lo": 5, "k_hi": 4}),
            ("quasiflat", {"trials": 5}),
            ("boundary-length", {"ranks": (2, 3)}),
            ("quasiflat", {"seed": 4}),
            ("twist-stability", {"seed": 4}),
        ],
    )
    def test_bad_parameters_rejected(self, name, kwargs):
        from freefactor import DomainError

        with pytest.raises(DomainError):
            run_experiment(name, **kwargs)

    @pytest.mark.parametrize("name,rank,digest", TABLE_DRAW_DIGESTS)
    def test_same_bytes_as_table_draws(self, name, rank, digest):
        report = run_experiment(name, rank=rank, trials=25, seed=1)
        assert schema_3_digest(report) == digest

    @pytest.mark.parametrize("radius,digest", TWIST_STABILITY_DIGESTS)
    def test_same_bytes_as_loop_twist_stability(self, radius, digest):
        assert schema_3_digest(run_experiment("twist-stability", radius=radius)) == digest

    @pytest.mark.parametrize("radius,digest", QUASIFLAT_SCHEMA_3_DIGESTS)
    def test_same_bytes_as_loop_quasiflat(self, radius, digest):
        assert schema_3_digest(run_experiment("quasiflat", radius=radius)) == digest

    @pytest.mark.parametrize("radius,digest", QUASIFLAT_DIGESTS)
    def test_whole_quasiflat_report(self, radius, digest):
        assert sha256(run_experiment("quasiflat", radius=radius)) == digest

    def test_unknown_experiment(self):
        from freefactor import DomainError

        with pytest.raises(DomainError):
            run_experiment("nope")

    def test_calls_module_attribute_positionally(self, monkeypatch):
        from freefactor import experiments

        calls = []

        def fake(*args, **kwargs):
            calls.append((args, kwargs))
            return "report"

        monkeypatch.setattr(experiments, "exp_quasiflat", fake)
        monkeypatch.setattr(experiments, "exp_boundary_length", fake)
        assert run_experiment("quasiflat", radius=3) == "report"
        assert run_experiment("quasiflat", rank=2, radius=3) == "report"
        assert run_experiment("boundary-length") == "report"
        assert calls == [((3,), {}), ((3,), {}), ((4,), {})]
