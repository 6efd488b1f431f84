import hashlib
import itertools
import json
import math
import random
import re
from collections import Counter
from collections.abc import Iterator
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freefactor import (
    BoundaryAutomorphism,
    DomainError,
    FreeFactorVertex,
    InternalContradictionError,
    PreconditionError,
    RankError,
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
from freefactor import cli, experiments, factors, orbit, words
from freefactor import report as reports
from freefactor.experiments import (
    _b_powers,
    _random_deep_factor,
    _random_edge_images,
    _rng,
)
from freefactor.orbit import (
    _cyclic_value_from_ends,
    _grid_row,
    _grid_values,
    _homology_orbit,
    _orbit_ends,
    _pair_rows,
)
from freefactor.farey import exponent_sums
from freefactor.words import _chain_table
from freefactor.whitehead import _random_multiplier_move, vertex_order

from conftest import (
    W,
    oracle_quasiflat_pairs,
    oracle_random_free_factor,
    oracle_random_word,
    psi_power,
)

DATA = Path(__file__).parent / "data"

# The digests below were recorded at schema_version 3 (see schema_3_digest),
# as (name, rank, digest, trials, seed): sha256 of run_experiment(name,
# rank=rank, trials=trials, seed=seed).to_json().  The trials=25, seed=1 pins
# were recorded when random moves were still drawn with rng.choice from full
# move tables; drawing by index must consume the random stream identically.
# The rest, at the factor-edges benchmark's call sizes and at ranks 4-5 with
# 200 trials, were recorded when the samplers still built a Word at every
# step; sampling on letter tuples must give the same bytes.
TABLE_DRAW_DIGESTS = [
    ("lipschitz", 2, "c93edd5c8e58b2ee9fdcd0503cc17e2de84e7f015150d40cea8eb9e8242eda6d", 25, 1),
    ("lipschitz", 3, "9bde2f8eccafe74baf00f5b15d45fb8993c2a6527bb417ec0ae54d142bc5ddc3", 25, 1),
    ("lipschitz", 4, "db1a177001da1af415673b96a64d1a267287198b6aa225837dcd8c10a6945214", 25, 1),
    ("cancellation", 2, "752941774c83a90e9d68a670c890aed1636b650854b3a7a605f56056eb17882c", 25, 1),
    ("cancellation", 3, "409c5e46dd933d1bb3bea7b78ddc4a54e5c55a80f9dbff1a868145fc55ca684b", 25, 1),
    ("cancellation", 4, "652c2104d8f6b7f4ae8375a398f7a8fccb7c4c4e51cf3e4968b0430a19df38d4", 25, 1),
    ("basis-change", 2, "bf8aef15c0be250b69ae6c41e6e8e5a826441f71e6361083cad8e125938a3475", 25, 1),
    ("basis-change", 3, "3d2011947d824cf0adf718bbb844b09e4410067e19b0bceffbb645a2e00d49af", 25, 1),
    ("basis-change", 4, "d4da6cdd54e058c99267a292fcbc3a8a58961d896eb879a1c5248bb4ec915dfe", 25, 1),
    ("lipschitz", 2, "a74e6a3552552160fcc5412ca4980df6ca6294a37f6aa98d31d6523111906f73", 75, 3),
    ("lipschitz", 3, "c71ad2402d31f70df3e1867e5bfd894c0011faa64df9568b20f550e07e5a50c2", 20, 3),
    ("basis-change", 2, "7dd32d1c9beb6208899919ae8268218fef018759396c15b5bdcd0b32af250331", 100, 3),
    ("lipschitz", 2, "8ec6a7fd99c5c95e13dcedd167a6a827ee1ec8a85f433908754b755c7a1382a7", 75, 5),
    ("lipschitz", 3, "d4ca390caeb28da7ecf219d84eb894b3bc553cc9e385b01d62e4436c2c01155a", 20, 5),
    ("basis-change", 2, "c82af2f74716803fac53250b17c8ed51e10411ba1be0ea7137324f3bf4a1d86a", 100, 5),
    ("lipschitz", 2, "8ced1e886f98096b93b59106b98d6bd68e6b7b7a5795590ab34fcc6acc7413df", 75, 9),
    ("lipschitz", 3, "85ad39094351862309eaee2b849096cbcf72487343e24eacb17ae75fbef21ee4", 20, 9),
    ("basis-change", 2, "8c9f8fae0269158a2d32ae9d5f7b807fcec4eac58983a86a02765d98e24f5334", 100, 9),
    ("lipschitz", 4, "c60de9ba37c32a48dfc493565932c31b78966d0867381ee89df843e8fb1a2b80", 200, 1),
    ("lipschitz", 5, "7662d3745d7906329a5d9530c1a2f24718a276bc9d72a75b17c496c973f3c47e", 200, 1),
    ("basis-change", 4, "22e7027d4233208ac8bb5301c172e7c040e7459bffd2c79d6a7bdd98b2eadf87", 200, 1),
    ("basis-change", 5, "6bdd82693a08919eee92fecbdfe07f77c84cabfaa44fd26c454f405605fdc290", 200, 1),
    ("cancellation", 4, "dc4562a820e5ee52fffd286ab65ed2383f0d2cd742db31e523b3ec4f12ba86b1", 200, 1),
    ("cancellation", 5, "8462c4a8d3a02b7169bccbe045baadff9cfca67a3e26d0579d62fe56a0924ac6", 200, 1),
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

# sha256 of run_experiment(name, rank=rank, trials=trials, seed=1).to_json(),
# schema_version 5, as (name, rank, trials, digest), recorded when the trial
# loops still built a Word and a FreeFactorVertex for every factor.  Above
# rank 26 format_word writes tokens, not letters, and no other pin reaches
# those ranks.
TOKEN_RANK_DIGESTS = [
    ("basis-change", 28, 60, "80598eb9b66799d5d17a02ccc474f71a7ad1f44d8c395285e4dd11ba0fe80607"),
    ("lipschitz", 30, 5, "8649a770ec54e0921644b0ff1aff416dae9cc42884535dfe1008cca98be5ccc4"),
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


def oracle_orbit_trials(name: str, radius: int) -> list[dict]:
    """The trial list that quasiflat or twist-stability built, one dict per
    trial, before their trials became a sequence over the grid's rows."""
    R = radius
    axis = range(-R, R + 1)
    if name == "quasiflat":
        psi = build_boundary_pA()
        row_of = _grid_values(psi, boundary_word(2), R)[0]
        sums = _homology_orbit(psi.homology, R)
        trials = []
        for r in axis:
            slope = str(Slope(*sums[r]))
            trials.extend(
                {"r": r, "k": k, "value": value, "slope": slope}
                for k, value in zip(axis, row_of(r))
            )
        return trials
    width = max(R, orbit._DEPTH + 1)
    row_of = _grid_values(build_boundary_pA(), boundary_word(2), width)[0]
    values = [row_of(r) for r in range(R + 1)]
    trials = []
    for k in axis:
        column = [values[r][k + width] for r in range(R + 1)]
        trials.extend(
            {"r": r, "k": k, "value": value, "displacement": abs(value - column[0])}
            for r, value in enumerate(column)
        )
    return trials


def oracle_csv_text(trials) -> str:
    """The text that ``write_csv`` wrote of a list of trial dicts: a header
    of the keys in the order they first occur, then one line per trial."""
    keys: list[str] = []
    for trial in trials:
        for key in trial:
            if key not in keys:
                keys.append(key)
    lines = [",".join(["trial"] + keys)]
    for i, trial in enumerate(trials):
        lines.append(",".join([str(i)] + [str(trial.get(k, "")) for k in keys]))
    return "".join(line + "\n" for line in lines)


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
    return reports.json_text(schema_4_dict(report))


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
    text = reports.json_text(data)
    if report.name == "quasiflat":
        for key in ("fit_slope", "fit_intercept", "cover_constant", "lower_envelope"):
            del data["summary"][key]
        text = json.dumps(data, sort_keys=True, indent=2)
    return hashlib.sha256(text.encode()).hexdigest()


def oracle_grid_values(psi, radius_r, radius_k):
    """The materialising grid that _grid_values replaced, for the boundary
    automorphism psi: every psi^r(x) built letter by letter and each value
    read off factor_invariant.  Returns the values and the exponent sums
    of psi^r(x) by r."""
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


def oracle_orbit_ends(table, steps: int, window: int) -> Iterator[tuple]:
    """The counted walker that the key cycle of ``_orbit_ends`` replaced.

    Yield (head, tail, letter counts) of sigma^r(x), r = 0, 1, ..., for
    the positive substitution sigma whose letter images ``table`` holds
    (indexed by signed letter).  A word longer than 2 * window keeps
    window letters at each end, head and tail, and counts the letters
    between them; a shorter one is all ``head``, with tail empty.  The
    counts go through sigma's count matrix, and whether a word outgrows
    2 * window is read off them; each such entry also asserts that the
    windows alone tell the same (a nonempty tail or a head longer than
    2 * window), and that tail is empty exactly when the counted length
    is at most 2 * window.  The
    walk runs to r = steps, and on past it until the key (head, tail) of
    some r repeats an earlier one; that entry is the last.  Past steps
    only the windows are walked: an entry there has no counts (None).
    """
    head, tail, counts = (1,), (), {1: 1}
    letters = (1, 2, -2, -1)
    seen = set()
    for r in itertools.count():
        if r:
            head, tail = (
                tuple(itertools.chain.from_iterable(map(table.__getitem__, seq)))
                for seq in (head, tail)
            )
            counts = {
                a: sum(n * table[c].count(a) for c, n in counts.items())
                for a in letters
            } if r <= steps else None
        by_windows = bool(tail) or len(head) > 2 * window
        if counts:
            longer = sum(counts.values()) > 2 * window
            assert longer == by_windows, (r, window)
        else:
            longer = by_windows
        if longer:
            head, tail = head[:window], (tail or head)[-window:]
        if counts:
            assert (tail == ()) == (sum(counts.values()) <= 2 * window), (r, window)
        yield head, tail, counts
        key = head, tail
        if r >= steps and key in seen:
            return
        seen.add(key)


def oracle_ends(radius_r, window) -> dict:
    """The counted walk of each side of the orbit grid, {r: (head, tail,
    counts)} for r in radius_r."""
    psi = build_boundary_pA()
    lo_r, hi_r = radius_r
    ends = {}
    for table, sign, steps in (
        (psi.inverse_table, -1, -lo_r), (psi.table, 1, hi_r)
    ):
        for r, end in zip(range(steps + 1), oracle_orbit_ends(table, steps, window)):
            ends[sign * r] = end
    return ends


def oracle_window_grid(radius_r, radius_k):
    """The window grid that the b-conjugation step replaced: ends of every
    psi^r(x) on windows of (2 radius_k + 1)|b| letters, and each value
    read off them by _cyclic_value_from_ends, k by k.  Returns the values
    and the exponent sums of psi^r(x) by r."""
    b = boundary_word(2)
    bl, binv = b.letters, b.inverse().letters
    lo_r, hi_r = radius_r
    ends = oracle_ends(radius_r, (2 * radius_k + 1) * len(bl))
    power = {k: bl * k if k >= 0 else binv * -k for k in range(-radius_k, radius_k + 1)}
    values = {
        (r, k): _cyclic_value_from_ends(*ends[r][:2], power[k], power[-k], bl, binv)[0]
        for r in range(lo_r, hi_r + 1)
        for k in power
    }
    return values, counted_sums(radius_r)


def counted_sums(radius_r) -> dict:
    """The exponent sums of psi^r(x) by r in radius_r, read off the letter
    counts of the counted walk (``oracle_orbit_ends``)."""
    counts = {r: end[2] for r, end in oracle_ends(radius_r, 1).items()}
    return {r: (c.get(1, 0), c.get(2, 0) - c.get(-2, 0)) for r, c in counts.items()}


def grid_points(psi, radius_r, radius_k) -> dict:
    """The rows r in radius_r of psi's _grid_values as {(r, k): value}."""
    row_of = _grid_values(psi, boundary_word(2), radius_k)[0]
    lo_r, hi_r = radius_r
    return {
        (r, k): value
        for r in range(lo_r, hi_r + 1)
        for k, value in zip(range(-radius_k, radius_k + 1), row_of(r))
    }


def pair_class_counts(grid, dstep: list[int]) -> dict:
    """``_pair_rows`` read as {(m, l): count}, keys in sorted order, after
    checking the rows' shape: 2n - 2 rows m = 1..2n - 2, all of one length,
    longer than the largest Farey step."""
    rows = list(_pair_rows(grid, dstep))
    assert len(rows) == 2 * len(grid) - 2
    assert len({len(row) for row in rows}) <= 1
    assert all(len(row) > max(dstep) for row in rows)
    return {
        (m, l): count
        for m, row in enumerate(rows, 1)
        for l, count in enumerate(row)
        if count
    }


def oracle_pair_classes(grid, dstep: list[int]) -> dict:
    """The numpy class histogram that the pair counting in Python ints
    (``_pair_rows``) replaced, as {(m, l): count} in sorted order.

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
    row_of = _grid_values(build_boundary_pA(), boundary_word(2), radius)[0]
    sums = counted_sums((-radius, radius))
    span = range(-radius, radius + 1)
    slopes = [Slope(*sums[r]) for r in span]
    return (
        [row_of(r) for r in span],
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


def oracle_random_edge_images(rng, rank: int, b: Word) -> tuple[Word, ...]:
    """The Word-level sampler that _random_edge_images replaced: every step
    builds a Word for each image."""
    basis = tuple(Word((i,), rank) for i in range(1, rank + 1))
    for _ in range(40):
        images = basis
        for _ in range(rng.randint(1, 3)):
            roll = rng.random()
            if roll < 0.65:
                if roll < 0.45:
                    w = b ** rng.choice((-2, -1, 1, 2))
                else:
                    w = oracle_random_word(rng.randint(1, 3), rank, rng)
                images = tuple(u.conjugated_by(w) for u in images)
            else:
                burst = [
                    _random_multiplier_move(rng, rank) for _ in range(rng.randint(1, 2))
                ]
                images = tuple(apply_automorphism(burst, u) for u in images)
        if sum(map(len, images)) <= 110:
            return images
    return basis


def oracle_random_deep_factor(rng, rank: int, b: Word) -> FreeFactorVertex:
    """The Word-level sampler that _random_deep_factor replaced."""
    factor = oracle_random_free_factor(
        rank, rng.randint(1, rank - 1), rng.randint(0, 3), rng
    )
    conj = (b ** rng.randint(-2, 2)) * oracle_random_word(rng.randint(0, 3), rank, rng)
    return FreeFactorVertex(
        tuple(g.conjugated_by(conj) for g in factor.generators), rank
    )


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


# Rank-2 automorphisms, as the images of x and y and those of x and y under
# the inverse, that each fail one certificate of BoundaryAutomorphism, with
# the text of its error.
BAD_BOUNDARY_AUTOMORPHISMS = {
    # the twist y -> yx fixes xyXY, but acts on homology by [[1, 1], [0, 1]]
    "twist": (("x", "yx", "x", "yX"), "homology trace 2 does not certify"),
    "swap": (("y", "x", "y", "x"), "does not fix the boundary"),
    "wrong-inverse": (("xy", "yxy", "xY", "y"), "does not send yxy back to y$"),
    # ad_b psi and its inverse psi^-1 ad_b^-1: it fixes b and has trace 3,
    # but psi(x) and psi(y) each hold x, y, X and Y
    "ad_b-psi": (
        ("xyXYxyyxYX", "xyyyxYX", "yxYxYxyXY", "yxYXyyXY"),
        "positive substitution on neither",
    ),
    # psi^-1 ad_b^-1, with ad_b psi as its inverse: the same pair, swapped
    "ad_b-psi-inverse": (
        ("yxYxYxyXY", "yxYXyyXY", "xyXYxyyxYX", "xyyyxYX"),
        "positive substitution on neither",
    ),
}


class TestBoundaryAutomorphism:
    def test_images(self):
        psi = build_boundary_pA()
        assert psi.x_image == W("xy")
        assert psi.y_image == W("yxy")
        assert psi.inverse_x_image == W("xxY")
        assert psi.inverse_y_image == W("yX")

    def test_tables_and_substitutions(self):
        psi = build_boundary_pA()
        for table, images in (
            (psi.table, ("xy", "yxy")), (psi.inverse_table, ("xxY", "yX"))
        ):
            for letter, image in enumerate(images, 1):
                assert table[letter] == W(image).letters
                assert table[-letter] == W(image).inverse().letters

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

    def test_inverse_is_valid_too(self):
        # psi^-1, with psi as its inverse, passes every certificate: its
        # homology [[2, -1], [-1, 1]] has trace 3, and the sides swap
        psi = build_boundary_pA()
        inverse = BoundaryAutomorphism(W("xxY"), W("yX"), W("xy"), W("yxy"))
        assert inverse.homology == ((2, -1), (-1, 1))
        assert inverse.table == psi.inverse_table
        assert inverse.inverse_table == psi.table

    def test_trace_two_is_a_contradiction(self, b2):
        images, match = BAD_BOUNDARY_AUTOMORPHISMS["twist"]
        twist = WhAutomorphism.multiplier_move(-1, {-1, 2}, 2)  # y -> yx
        assert twist(b2) == b2
        assert [W(t) for t in images] == [
            twist(W("x")), twist(W("y")), twist.inverse()(W("x")), twist.inverse()(W("y"))
        ]
        with pytest.raises(InternalContradictionError, match=match):
            BoundaryAutomorphism(*map(W, images))

    def test_twin_twists_fix_boundary(self, b2):
        # psi is the twist y -> yx followed by the twist x -> xy, each of
        # which fixes b: the derivation that the images replaced
        sigma = WhAutomorphism.multiplier_move(-2, {-2, 1}, 2)  # x -> xy
        tau = WhAutomorphism.multiplier_move(-1, {-1, 2}, 2)  # y -> yx
        assert sigma(b2) == b2 and tau(b2) == b2
        psi = build_boundary_pA()
        assert psi.table == _chain_table((tau, sigma), 2)
        assert psi.inverse_table == _chain_table((sigma.inverse(), tau.inverse()), 2)

    def test_tables_are_the_hand_laid_ones(self):
        # the images of x, y, Y, X at indices 1, 2, -2, -1, as the tables
        # were written out before the shared builder laid them
        psi = build_boundary_pA()
        assert psi.table == ((), (1, 2), (2, 1, 2), (-2, -1, -2), (-2, -1))
        assert psi.inverse_table == ((), (1, 1, -2), (2, -1), (1, -2), (2, -1, -1))
        for table, (u, v) in (
            (psi.table, (psi.x_image, psi.y_image)),
            (psi.inverse_table, (psi.inverse_x_image, psi.inverse_y_image)),
        ):
            assert table == ((), u.letters, v.letters, v.inverse().letters, u.inverse().letters)

    def test_inverse_round_trip(self):
        psi = build_boundary_pA()
        w = W("xYxxy")
        assert psi_power(psi, psi_power(psi, w, 3), -3) == w

    def test_inverse_checked_on_both_generators(self):
        images, match = BAD_BOUNDARY_AUTOMORPHISMS["wrong-inverse"]
        # x -> xY, y -> y sends xy to xYy = x, so only y's check catches it
        assert W("xY") * W("y") == W("x")
        with pytest.raises(InternalContradictionError, match=match):
            BoundaryAutomorphism(*map(W, images))

    def test_positive_substitution_checked(self, b2):
        images, match = BAD_BOUNDARY_AUTOMORPHISMS["ad_b-psi"]
        psi = build_boundary_pA()
        assert [W(t) for t in images] == [
            ad(b2, psi.x_image), ad(b2, psi.y_image),
            ad(b2, psi.inverse_x_image, -1), ad(b2, psi.inverse_y_image, -1),
        ]
        with pytest.raises(InternalContradictionError, match=match):
            BoundaryAutomorphism(*map(W, images))

    @pytest.mark.parametrize("y_inverse", [W("yX", 3), "yX", None])
    def test_needs_four_rank_2_words(self, y_inverse):
        with pytest.raises(DomainError, match="four words of rank 2"):
            BoundaryAutomorphism(W("xy"), W("yxy"), W("xxY"), y_inverse)

    @pytest.mark.parametrize("name", ["quasiflat", "twist-stability"])
    @pytest.mark.parametrize("bad", list(BAD_BOUNDARY_AUTOMORPHISMS))
    def test_bad_automorphism_raises_and_exits_3_without_a_report(
        self, monkeypatch, capsys, tmp_path, name, bad
    ):
        images, match = BAD_BOUNDARY_AUTOMORPHISMS[bad]
        with pytest.raises(InternalContradictionError, match=match):
            BoundaryAutomorphism(*map(W, images))
        monkeypatch.setattr(
            orbit, "build_boundary_pA", lambda: BoundaryAutomorphism(*map(W, images))
        )
        out = tmp_path / "report.json"
        argv = ["experiment", name, "--radius", "1", "--out", str(out)]
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert re.search(match, captured.err)


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
        # equal images, and the stream left where the chain sampler and the
        # Word-level sampler left it, so exp_lipschitz's subset draw that
        # follows is unchanged
        b = boundary_word(rank)
        basis = [Word((i,), rank) for i in range(1, rank + 1)]
        b_powers = _b_powers(b)
        for i in range(500):
            rngs = [_rng(0, "lipschitz", i) for _ in range(3)]
            letters = _random_edge_images(rngs[0], rank, b_powers)
            assert all(type(u) is tuple for u in letters), i
            images = tuple(Word(u, rank) for u in letters)  # each image checked
            chain = oracle_random_edge_chain(rngs[1], rank, b)
            assert images == tuple(apply_automorphism(chain, g) for g in basis), i
            assert images == oracle_random_edge_images(rngs[2], rank, b), i
            assert len({rng.getstate() for rng in rngs}) == 1, i

    def test_fallback_is_the_basis(self):
        # every draw conjugates by a power of a 60-letter word, so all 40
        # tries exceed the 110-letter cap
        class Conjugating(random.Random):
            def random(self):
                return 0.0

        b = boundary_word(2) ** 15
        rng, oracle_rng, word_rng = Conjugating(1), Conjugating(1), Conjugating(1)
        assert _random_edge_images(rng, 2, _b_powers(b)) == ((1,), (2,))
        assert oracle_random_edge_chain(oracle_rng, 2, b) == ()
        assert oracle_random_edge_images(word_rng, 2, b) == (W("x"), W("y"))
        assert rng.getstate() == oracle_rng.getstate() == word_rng.getstate()


class TestRandomDeepFactor:
    @pytest.mark.parametrize("rank", [2, 3, 4, 5])
    def test_matches_word_level_sampler(self, rank):
        # the same factor, and the stream left where the Word-level sampler
        # left it, so each basis-change trial is unchanged
        b = boundary_word(rank)
        b_powers = _b_powers(b)
        for i in range(400):
            rng, oracle_rng = _rng(1, "basis-change", i), _rng(1, "basis-change", i)
            letters = _random_deep_factor(rng, rank, b_powers)
            assert all(type(g) is tuple for g in letters), i
            factor = FreeFactorVertex(tuple(Word(g, rank) for g in letters), rank)
            assert factor == oracle_random_deep_factor(oracle_rng, rank, b), i
            assert rng.getstate() == oracle_rng.getstate(), i

    def test_samples_through_the_factor_letter_sampler(self, monkeypatch):
        # the one letter sampler, once a trial, and no factor built by
        # random_free_factor only to be unpacked
        calls = []
        original = experiments._random_factor_letters

        def spy(*args):
            calls.append(args[1:])
            return original(*args)

        def refuse(*args):
            raise AssertionError("random_free_factor called")

        monkeypatch.setattr(experiments, "_random_factor_letters", spy)
        monkeypatch.setattr(experiments, "random_free_factor", refuse)
        exp_basis_change(3, trials=5, seed=1)
        assert len(calls) == 5


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
            lambda rank, b, seed: (
                (WhAutomorphism.identity(2),), (WhAutomorphism.identity(2),), b
            ),
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
        monkeypatch.setattr(orbit, "_AD_PATH", path)
        with pytest.raises(InternalContradictionError):
            exp_quasiflat(1)
        assert cli.main(["experiment", "quasiflat", "--radius", "1"]) == 3
        assert capsys.readouterr().err.startswith("internal error: ")

    def test_psi_path_is_read_off_psi(self, monkeypatch, capsys):
        # psi^2 passes every certificate of the constructor, but x and
        # psi^2(x) = xyyxy are no basis pair, so its one-edge path fails
        def squared(table):
            return tuple(words._apply_table(table, image) for image in table)

        psi = build_boundary_pA()
        square = BoundaryAutomorphism(*map(W, ("xyyxy", "yxyxyyxy", "xxYxxYxY", "yXyXX")))
        assert square.table == squared(psi.table)
        assert square.inverse_table == squared(psi.inverse_table)
        assert square.to_json_dict()["trace"] == 7
        monkeypatch.setattr(orbit, "build_boundary_pA", lambda: square)
        with pytest.raises(InternalContradictionError, match="not a basis pair"):
            exp_quasiflat(1)
        assert cli.main(["experiment", "quasiflat", "--radius", "1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal error: ") and "x and xyyxy" in err
        assert "not a basis pair" in err


class TestGridFromEnds:
    @pytest.mark.parametrize("radius_k", [0, 1, 3, 12])
    def test_matches_materialising_oracle(self, radius_k):
        # |r| <= 12 reaches 75,025-letter words; a small radius_k shrinks
        # the windows to (2 radius_k + 1) |b| letters
        psi = build_boundary_pA()
        values, sums = oracle_grid_values(psi, (-12, 12), radius_k)
        assert grid_points(psi, (-12, 12), radius_k) == values
        assert _homology_orbit(psi.homology, 12) == sums

    @pytest.mark.parametrize("radius_k", [0, 1, 3, 6])
    def test_psi_squared_matches_materialising_oracle(self, b2, radius_k):
        # the grid is a function of the psi it is given: psi^2, from psi's
        # images squared, passes every certificate, and |r| <= 4 reaches
        # psi^8(x), 1,597 letters, past psi^2's first repeated key (r = 4)
        psi = build_boundary_pA()
        square = BoundaryAutomorphism(
            *(psi_power(psi, W(g), power) for power in (2, -2) for g in ("x", "y"))
        )
        assert square.to_json_dict()["trace"] == 7
        values, sums = oracle_grid_values(square, (-4, 4), radius_k)
        assert grid_points(square, (-4, 4), radius_k) == values
        assert _grid_values(square, b2, radius_k)[1] == 4
        assert _homology_orbit(square.homology, 4) == sums

    def test_slopes_from_homology_match_the_counted_sums(self):
        sums = _homology_orbit(build_boundary_pA().homology, 64)
        assert sums == counted_sums((-64, 64))
        slopes = {t["r"]: t["slope"] for t in exp_quasiflat(16).trials}
        assert slopes == {r: str(Slope(*sums[r])) for r in range(-16, 17)}

    @pytest.mark.parametrize("radius", [*range(1, 17), 32, 64])
    def test_matches_window_oracle(self, radius):
        for radius_r in ((-radius, radius), (0, radius)):
            points = grid_points(build_boundary_pA(), radius_r, radius)
            assert points == oracle_window_grid(radius_r, radius)[0]

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
                row = _grid_row(w.letters, (), 6, bl, binv)
            except InternalContradictionError:
                continue
            assert row == expected, w
            rows += 1
        assert rows > 200

    def test_rows_are_shared_by_equal_ends(self, b2):
        # psi and psi^-1 are prolongable, so the windows of psi^r(x) stop
        # changing after a few steps, and so do the rows
        row_of = _grid_values(build_boundary_pA(), b2, 64)[0]
        rows = {r: row_of(r) for r in range(-64, 65)}
        assert len({id(row) for row in rows.values()}) == 10
        assert rows[64] is rows[63] and rows[-64] is rows[-63]

    def test_unmet_premise_raises_and_never_extrapolates(self, monkeypatch, capsys, tmp_path):
        # end letters that break both step premises: g_k ending in b[-1]
        # stops the b side, g_k starting with b[0] the b^-1 side
        psi, bl = build_boundary_pA(), boundary_word(2).letters
        value_from_ends, orbit_ends = orbit._cyclic_value_from_ends, _orbit_ends
        windows, evaluated = [], {}

        def unmet(head, tail, bk, bk_inv, *rest):
            k = len(bk) // len(bl) * (1 if bk[:1] == bl[:1] else -1)
            evaluated.setdefault((head, tail), set()).add(k)
            return value_from_ends(head, tail, bk, bk_inv, *rest)[0], bl[0], bl[-1]

        def recorded(images, window):
            windows.append(window)
            return orbit_ends(images, window)

        monkeypatch.setattr(orbit, "_cyclic_value_from_ends", unmet)
        monkeypatch.setattr(orbit, "_orbit_ends", recorded)
        # radius_k > 2: a row is not extended past |k| = 2 without the premise
        with pytest.raises(InternalContradictionError, match="no b-conjugation step"):
            grid_points(psi, (-6, 6), 6)
        # one window of 5 |b| letters for psi and one for psi^-1
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
            points = grid_points(psi, (-6, 6), radius_k)
            assert points == oracle_window_grid((-6, 6), radius_k)[0]
            assert evaluated and all(
                ks == set(range(-radius_k, radius_k + 1)) for ks in evaluated.values()
            )

    def test_substitutions(self, monkeypatch, b2):
        # _grid_values walks psi's substitutions as the tables that psi holds
        psi = build_boundary_pA()
        walked = []
        orbit_ends = orbit._orbit_ends

        def recorded(images, window):
            walked.append(images)
            return orbit_ends(images, window)

        monkeypatch.setattr(orbit, "_orbit_ends", recorded)
        _grid_values(psi, b2, 1)[0](-1)
        assert walked == [psi.table, psi.inverse_table]

    @pytest.mark.parametrize("field", ["chain", "inverse_chain"])
    def test_no_positive_alphabet_is_a_contradiction(self, field):
        # ad_b psi fixes b and has trace 3, but neither it nor its inverse is
        # a positive substitution, so it cannot be built, in either direction,
        # and no grid reads it (the CLI runs of both directions are in
        # test_bad_automorphism_raises_and_exits_3_without_a_report)
        images, match = BAD_BOUNDARY_AUTOMORPHISMS["ad_b-psi"]
        if field == "inverse_chain":
            images = images[2:] + images[:2]  # psi^-1 ad_b^-1 as the automorphism
            assert (images, match) == BAD_BOUNDARY_AUTOMORPHISMS["ad_b-psi-inverse"]
        with pytest.raises(InternalContradictionError, match=match):
            BoundaryAutomorphism(*map(W, images))

    def test_short_window_raises_and_never_guesses(self, monkeypatch, capsys, tmp_path):
        # every window shorter than (2K + 1)|b| = 52 either still decides
        # every value exactly or raises; a 1-letter window cannot hold the
        # |b| letters that the b-power test reads at k = 0, so it raises
        psi, orbit_ends = build_boundary_pA(), orbit._orbit_ends
        expected = oracle_grid_values(psi, (-6, 6), 6)[0]
        raised = []
        for window in range(1, 53):
            def shrunk(images, _, window=window):
                return orbit_ends(images, window)

            monkeypatch.setattr(orbit, "_orbit_ends", shrunk)
            try:
                points = grid_points(psi, (-6, 6), 6)
            except InternalContradictionError as exc:
                assert "cannot decide a grid value" in str(exc)
                raised.append(window)
                continue
            assert points == expected, window
        assert 1 in raised
        monkeypatch.setattr(
            orbit, "_orbit_ends", lambda images, _: orbit_ends(images, 1)
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
            ends = (ls, ())
            if len(ls) > 2 * window:
                ends = (ls[:window], ls[-window:])
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
        # psi is read off its images: the ends are iterated on windows of
        # its tables, and no Whitehead move, chain table or chain
        # application is made on the way
        def refused(*args, **kwargs):
            raise AssertionError("the orbit grid built an automorphism chain")

        expected = {
            (name, radius): sha256(run_experiment(name, radius=radius))
            for name in ("quasiflat", "twist-stability")
            for radius in (1, 2, 3)
        }
        monkeypatch.setattr(WhAutomorphism, "__init__", refused)
        for module in (experiments, words):
            monkeypatch.setattr(module, "apply_automorphism", refused)
            monkeypatch.setattr(module, "_chain_table", refused)
        for (name, radius), digest in expected.items():
            assert sha256(run_experiment(name, radius=radius)) == digest

    @pytest.mark.parametrize("name", ["quasiflat", "twist-stability"])
    def test_same_bytes_as_materialising_grid_at_radius_16(self, name):
        assert sha256(run_experiment(name, radius=16)) == RADIUS_16_DIGESTS[name]


class TestJsonText:
    @pytest.mark.parametrize("name,kwargs", JSON_RUNS)
    def test_every_report(self, name, kwargs):
        data = run_experiment(name, **kwargs).to_json_dict()
        assert reports.json_text(data) == oracle_json_text(data)

    @settings(max_examples=400)
    @given(JSON_VALUES)
    def test_any_value(self, value):
        assert reports.json_text(value) == oracle_json_text(value)

    @settings(max_examples=400)
    @given(JSON_PAYLOADS)
    def test_any_report_shape(self, payload):
        assert reports.json_text(payload) == oracle_json_text(payload)

    @settings(max_examples=200)
    @given(JSON_PAYLOADS, st.integers(1, 6))
    def test_any_report_shape_in_small_pieces(self, payload, per_piece):
        # two pieces of the trial list meet wherever two trials do
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(reports, "_TRIALS_PER_PIECE", per_piece)
            assert reports.json_text(payload) == oracle_json_text(payload)

    def test_large_report_comes_in_bounded_pieces(self):
        # a list of trial dicts comes in pieces of at most 4,096 trials, and
        # an orbit report's trials in pieces of one row each: twist-stability
        # R=64 has 129 rows of 65 trials, 8,385 in all
        for name in ("twist-stability", "quasiflat"):
            report = run_experiment(name, radius=64)
            data = report.to_json_dict()
            listed = list(reports.json_pieces(data))
            pieces = list(reports.json_pieces(report.json_payload()))
            assert "".join(listed) == "".join(pieces) == oracle_json_text(data)
            trials = [piece.count("\n    {\n") for piece in pieces]
            rows, width = report.trials.rows, report.trials.width
            assert trials == [0, *(width for _ in rows), 0, 0]
            assert max(piece.count("\n    {\n") for piece in listed) <= 4096
            assert sum(trials) == len(data["trials"]) == len(rows) * width
            if name == "twist-stability":
                assert len(listed) == 9 and len(pieces) == 132

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
            reports.json_text(value)


class TestOrbitTrials:
    """quasiflat's and twist-stability's trials, a sequence over the grid's
    rows, against the lists of dicts that the experiments built."""

    @pytest.mark.parametrize("name", ["quasiflat", "twist-stability"])
    def test_same_as_dict_lists(self, name, tmp_path):
        for radius in range(1, 65):
            report = run_experiment(name, radius=radius)
            oracle = oracle_orbit_trials(name, radius)
            trials = report.trials
            assert isinstance(trials, reports._OrbitTrials)
            assert "".join(trials._text()) == "".join(reports._trials_text(oracle))
            report.write_csv(tmp_path / "trials.csv")
            assert (tmp_path / "trials.csv").read_text() == oracle_csv_text(oracle)
            # to_json_dict lists the trials by iterating over them
            assert report.to_json_dict()["trials"] == oracle
            n = len(oracle)
            assert len(trials) == n
            for i in {0, 1, n // 2, n - 1, -1, -n, *range(-n, n, 1 + n // 50)}:
                assert trials[i] == oracle[i], (radius, i)
            for i in (n, n + 1, -n - 1, 10 * n):
                with pytest.raises(IndexError):
                    trials[i]

    def test_list_reads_of_the_sequence(self):
        report = run_experiment("twist-stability", radius=3)
        oracle = oracle_orbit_trials("twist-stability", 3)
        trials = report.trials
        assert trials[np.int64(5)] == oracle[5]
        assert list(reversed(trials)) == oracle[::-1]
        assert oracle[9] in trials and {"r": 0} not in trials
        assert trials.index(oracle[9]) == 9 and trials.count(oracle[9]) == 1
        with pytest.raises(TypeError):
            trials["0"]
        with pytest.raises(TypeError):
            trials[0] = {}

    @pytest.mark.parametrize(
        "name,kwargs",
        [
            ("lipschitz", {"trials": 8, "seed": 4}),
            ("zero-fiber", {"k_lo": -3, "k_hi": 3}),
            ("boundary-length", {}),
        ],
    )
    def test_sampled_trials_stay_lists(self, name, kwargs, tmp_path):
        report = run_experiment(name, **kwargs)
        assert type(report.trials) is list
        assert report.to_json_dict()["trials"] == report.trials
        report.write_csv(tmp_path / "trials.csv")
        assert (tmp_path / "trials.csv").read_text() == oracle_csv_text(report.trials)

    def test_reports_are_written_with_no_trial_dict(self, monkeypatch, capsys, tmp_path):
        expected = {}
        for name, radius in (("twist-stability", 64), ("quasiflat", 16)):
            oracle = oracle_orbit_trials(name, radius)
            payload = run_experiment(name, radius=radius).json_payload()
            expected[name, radius] = (
                reports.json_text({**payload, "trials": oracle}),
                oracle_csv_text(oracle),
                len(oracle),
            )

        def refused(*args):
            raise AssertionError("a trial dict was made")

        monkeypatch.setattr(reports._OrbitTrials, "_trial", refused)
        for (name, radius), (text, csv_text, count) in expected.items():
            out, csv = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
            argv = ["experiment", name, "--radius", str(radius), "--out", str(out),
                    "--csv", str(csv)]
            assert cli.main(argv) == 0
            stdout = capsys.readouterr().out
            assert stdout.startswith(f"{name}: {count} records, 0 violations\n")
            assert out.read_text() == text and csv.read_text() == csv_text
            with pytest.raises(AssertionError):
                run_experiment(name, radius=1).to_json_dict()


def largest_displacement(values) -> int:
    """max |value(r, k) - value(0, k)| over a grid {(r, k): value}."""
    return max(abs(value - values[0, k]) for (_, k), value in values.items())


def first_repeated_key(ends) -> int:
    """The first r whose key (head, tail) repeats an earlier one."""
    keys = [(head, tail) for head, tail, _ in ends]
    return next(r for r, key in enumerate(keys) if key in keys[:r])


class TestTwistStability:
    def test_zero_displacement_growth(self):
        report = exp_twist_stability(4)
        assert report.violations == 0
        assert report.summary == {"sup_displacement": 0, "rows_repeat_from": 6}

    def test_supremum_matches_materialised_windows(self):
        # both oracles reach past the first repeated key, the materialising
        # one to 75,025-letter words, the window one to r = k = 40
        psi = build_boundary_pA()
        materialised = largest_displacement(oracle_grid_values(psi, (0, 12), 12)[0])
        windows = largest_displacement(oracle_window_grid((0, 40), 40)[0])
        for radius in range(1, 17):
            summary = exp_twist_stability(radius).summary
            assert summary["rows_repeat_from"] < 12
            assert summary["sup_displacement"] == materialised == windows, radius

    def test_rows_repeat_from_is_the_first_repeated_key(self):
        table = build_boundary_pA().table
        expected = first_repeated_key(oracle_orbit_ends(table, 12, 20))
        assert expected == 6
        for radius in [*range(1, 17), 64]:
            assert exp_twist_stability(radius).summary["rows_repeat_from"] == expected

    def test_cycle_follows_the_counted_walk(self):
        # the distinct keys up to the first repeat are the counted walk's,
        # and the cycle they close gives its key at every r
        psi = build_boundary_pA()
        for table in (psi.table, psi.inverse_table):
            for window in (1, 4, 12, 20, 52):
                keys, repeat = _orbit_ends(table, window)
                counted = [
                    (head, tail) for head, tail, _ in oracle_orbit_ends(table, 40, window)
                ]
                n = len(keys)
                assert first_repeated_key(oracle_orbit_ends(table, 0, window)) == n
                assert keys == counted[:n] and keys[repeat] == counted[n]
                for r, key in enumerate(counted):
                    assert key == keys[r if r < n else repeat + (r - repeat) % (n - repeat)]

    def test_cycles_at_20_letter_windows(self):
        # psi has 6 keys and returns to the last; psi^-1 has 5 and does too
        psi = build_boundary_pA()
        cycles = [
            (len(keys), repeat)
            for keys, repeat in (
                _orbit_ends(table, 20) for table in (psi.table, psi.inverse_table)
            )
        ]
        assert cycles == [(6, 5), (5, 4)]

    def test_each_side_is_walked_once_to_its_repeat(self, monkeypatch):
        # quasiflat walks psi and psi^-1 once each, to their first repeated
        # keys, at any radius; twist-stability walks psi only
        psi = build_boundary_pA()
        orbit_ends, walks = orbit._orbit_ends, []

        def recorded(table, window):
            keys, repeat = orbit_ends(table, window)
            side = "psi" if table == psi.table else "psi^-1"
            walks.append((side, len(keys)))
            assert len(keys) == first_repeated_key(oracle_orbit_ends(table, 0, window))
            return keys, repeat

        monkeypatch.setattr(orbit, "_orbit_ends", recorded)
        for radius in (1, 3, 6, 9, 64):
            walks.clear()
            exp_quasiflat(radius)
            # every radius reads 20-letter windows
            assert sorted(walks) == [("psi", 6), ("psi^-1", 5)]
            walks.clear()
            exp_twist_stability(radius)
            assert walks == [("psi", 6)]

    def test_supremum_reads_rows_past_the_radius(self, monkeypatch):
        # shift every value of the rows whose words outgrow the 20-letter
        # windows, first met at r = 5: the rows r <= radius of a small
        # radius do not show it, the certificate's rows do
        value_from_ends = orbit._cyclic_value_from_ends

        def shifted(head, tail, *rest):
            value, first, last = value_from_ends(head, tail, *rest)
            return value + (tail != ()), first, last

        monkeypatch.setattr(orbit, "_cyclic_value_from_ends", shifted)
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
        value_from_ends = orbit._cyclic_value_from_ends

        def unmet(*args):
            return value_from_ends(*args)[0], bl[0], bl[-1]

        monkeypatch.setattr(orbit, "_cyclic_value_from_ends", unmet)
        out = tmp_path / "twist.json"
        argv = ["experiment", "twist-stability", "--radius", str(radius), "--out", str(out)]
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert "no b-conjugation step" in captured.err

    def test_each_row_evaluates_k0_once(self, monkeypatch):
        # both sides of a row start from one window evaluation at k = 0
        value_from_ends = orbit._cyclic_value_from_ends
        at_zero = Counter()

        def counted(head, tail, bk, *rest):
            at_zero[head, tail] += not bk
            return value_from_ends(head, tail, bk, *rest)

        monkeypatch.setattr(orbit, "_cyclic_value_from_ends", counted)
        for radius in (1, 3, 8):
            for experiment in (exp_twist_stability, exp_quasiflat):
                at_zero.clear()
                experiment(radius)
                assert at_zero and set(at_zero.values()) == {1}, (experiment, radius)


def count_folds(monkeypatch, run) -> int:
    """How many times ``run()`` calls ``factors.fold``: each factor that it
    builds folds at most once, on its first ``graph`` read."""
    calls = []
    fold = factors.fold

    def counted(*args, **kwargs):
        calls.append(args)
        return fold(*args, **kwargs)

    monkeypatch.setattr(factors, "fold", counted)
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

    @pytest.mark.parametrize(
        "name,kwargs",
        [
            ("quasiflat", {"radius": 2.0}),
            ("lipschitz", {"rank": 2.0}),
            ("zero-fiber", {"k_lo": 0.5}),
            ("zero-fiber", {"k_hi": "3"}),
            ("twist-stability", {"radius": "3"}),
            ("basis-change", {"trials": None}),
            ("boundary-length", {"rank": [4]}),
        ],
    )
    def test_non_integer_parameters_rejected(self, name, kwargs):
        (key, value), = kwargs.items()
        message = f"{key} must be an integer, got {value!r}"
        with pytest.raises(DomainError, match=re.escape(message)):
            run_experiment(name, **kwargs)

    def test_integer_parameters_read_through_index(self):
        # a numpy integer is an integer: it runs, and is reported as an int
        report = run_experiment("zero-fiber", k_lo=np.int64(-2), k_hi=np.int64(2))
        assert report == run_experiment("zero-fiber", k_lo=-2, k_hi=2)
        assert type(report.parameters["k_lo"]) is int

    @pytest.mark.parametrize("name", ["lipschitz", "cancellation", "zero-fiber", "basis-change"])
    @pytest.mark.parametrize("rank,b_rank", [(2, 3), (3, 2)])
    def test_base_word_of_another_rank_rejected(self, name, rank, b_rank):
        with pytest.raises(RankError, match=f"has rank {b_rank}, not"):
            run_experiment(name, rank=rank, b=boundary_word(b_rank))

    @pytest.mark.parametrize(
        "name,rank,digest,trials,seed",
        [pytest.param(*pin, id="-".join(map(str, pin[:3]))) for pin in TABLE_DRAW_DIGESTS],
    )
    def test_same_bytes_as_table_draws(self, name, rank, digest, trials, seed):
        report = run_experiment(name, rank=rank, trials=trials, seed=seed)
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

    @pytest.mark.parametrize(
        "name,rank,trials,digest",
        [pytest.param(*pin, id=f"{pin[0]}-{pin[1]}") for pin in TOKEN_RANK_DIGESTS],
    )
    def test_same_bytes_above_rank_26(self, name, rank, trials, digest):
        text = run_experiment(name, rank=rank, trials=trials, seed=1).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == digest

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
