"""Experiment reports and their one JSON encoding.

A report's ``--out`` document is the text of ``json.dumps(payload,
sort_keys=True, indent=2)`` plus a newline, written in pieces
(``json_pieces``) so that a writer never holds the whole text; its
``--csv`` trace has one line per trial.  An orbit experiment's trials
are a sequence over the rows that the experiment holds
(``_OrbitTrials``), whose text is written from those rows.
"""

from __future__ import annotations

import itertools
import json
import operator
from collections.abc import Iterator, Sequence

from .words import _Value

SCHEMA_VERSION = 5


def json_text(payload: dict) -> str:
    """The one JSON encoding of every report and ``--out`` document:
    sorted keys, two-space indent, a final newline.

    The bytes are those of ``json.dumps(payload, sort_keys=True,
    indent=2) + "\n"``; ``json_pieces`` makes them.
    """
    return "".join(json_pieces(payload))


def json_pieces(payload: dict) -> Iterator[str]:
    """The text of ``json_text(payload)`` in pieces, each made when the
    one before it has been taken, so that a writer holds one at a time.

    json's indent makes it fall back to its pure Python encoder.  A
    report's trial list, most of its bytes, is written instead into the
    place of an empty list: an orbit experiment's trials from their rows
    (``_OrbitTrials._text``), and a list of flat dicts by the C encoder
    (``_trials_text``).  A top-level key is the only text that follows a
    newline and two spaces, so that place is found once.
    """
    trials = payload.get("trials") if type(payload) is dict else None
    if isinstance(trials, _OrbitTrials):
        pieces = trials._text()
    elif _flat_dicts(trials):
        pieces = _trials_text(trials)
    else:
        yield json.dumps(payload, sort_keys=True, indent=2) + "\n"
        return
    text = json.dumps({**payload, "trials": []}, sort_keys=True, indent=2)
    before, after = text.split('\n  "trials": []')
    yield before + '\n  "trials": '
    yield from pieces
    yield after + "\n"


# the exact types whose JSON text has no newline and no container
_SCALARS = frozenset({str, int, float, bool, type(None)})

# the newline and indent of a trial's members, and the C encoder with
# sorted keys and members separated by "," and that newline
_MEMBER = "\n      "
_encode_trials = json.JSONEncoder(sort_keys=True, separators=("," + _MEMBER, ": ")).encode


def _flat_dicts(o) -> bool:
    """Whether o is a nonempty list of nonempty dicts of scalars."""
    return (
        type(o) is list
        and bool(o)
        and {*map(type, o)} == {dict}
        and all(o)
        and _SCALARS.issuperset(map(type, itertools.chain.from_iterable(map(dict.values, o))))
    )


def _trials_text(trials) -> Iterator[str]:
    """The text of ``json.dumps(trials, sort_keys=True, indent=2)``,
    indented as a top-level value, for trials that ``_flat_dicts``
    accepts, in pieces of at most ``_TRIALS_PER_PIECE`` trials.

    With members separated by "," + their newline, the C encoder writes
    each dict as its indented text without its first and last line
    break.  Each "},<member newline>{" between two dicts is then moved to
    the list's indent; no encoded string holds a raw newline, so that
    text occurs nowhere else, and no dict is empty, so it never stands
    for an empty one.  Two pieces meet where two dicts do.
    """
    inner = "\n    "
    between = inner + "}," + inner + "{" + _MEMBER
    yield "[" + inner + "{" + _MEMBER
    for start in range(0, len(trials), _TRIALS_PER_PIECE):
        if start:
            yield between
        piece = _encode_trials(trials[start : start + _TRIALS_PER_PIECE])
        yield piece.replace("}," + _MEMBER + "{", between)[2:-2]
    yield inner + "}\n  ]"


# a sampled experiment's trials per piece: about 0.7 MB of lipschitz text
_TRIALS_PER_PIECE = 4096


class _OrbitTrials(_Value, Sequence):
    """An orbit experiment's trials: a read-only sequence over the rows
    that the experiment holds, one or more, of ``width`` trials each.  A
    trial's dict is made only when it is read (``_trial``).

    A subclass names a trial's keys in its order (``_keys``) and those
    fixed along a row (``_fixed``); ``_row_fields`` gives a row's fixed
    fields and, for each other key, the sequence of the row's ints.
    ``_text`` and ``_csv`` write the bytes from the rows, one %-template
    per row.  Equality, repr, copies and pickles go by the rows and the
    width.
    """

    _fields = ("rows", "width")
    _keys: tuple[str, ...]
    _fixed: frozenset[str]

    def __init__(self, rows: list, width: int):
        self.rows, self.width = rows, width

    def __len__(self) -> int:
        return len(self.rows) * self.width

    def __getitem__(self, i) -> dict:
        i = operator.index(i)
        if not -len(self) <= i < len(self):
            raise IndexError("trial index out of range")
        at, j = divmod(i % len(self), self.width)
        return self._trial(self._row_fields(self.rows[at]), j)

    def __iter__(self) -> Iterator[dict]:
        for row in self.rows:
            fields = self._row_fields(row)
            for j in range(self.width):
                yield self._trial(fields, j)

    def _trial(self, fields: dict, j: int) -> dict:
        fixed = self._fixed
        return {key: fields[key] if key in fixed else fields[key][j] for key in self._keys}

    def _text(self) -> Iterator[str]:
        """The text of ``_trials_text(list(self))``, one piece per row.

        A row's trials share one template: the members in sorted key
        order, a fixed field as its JSON text and a varying int as %d,
        which writes it as json does.  ``shape`` holds %s for the fixed
        texts, whose "%" are doubled for the second %.
        """
        keys = sorted(self._keys)
        fixed = [key for key in keys if key in self._fixed]
        varying = [key for key in keys if key not in self._fixed]
        shape = "{" + _MEMBER + ("," + _MEMBER).join(
            f'"{key}": ' + ("%s" if key in self._fixed else "%%d") for key in keys
        ) + "\n    }"
        cells = [0] * (len(varying) * self.width)  # a row's ints, trial by trial
        lead = "["
        for row in self.rows:
            fields = self._row_fields(row)
            trial = shape % tuple([_json_scalar(fields[key]) for key in fixed])
            for i, key in enumerate(varying):
                cells[i :: len(varying)] = fields[key]
            text = ",\n    ".join([trial] * self.width)
            yield lead + "\n    " + text % tuple(cells)
            lead = ","
        yield "\n  ]"

    def _csv(self) -> Iterator[str]:
        """The lines that ``ExperimentReport.write_csv`` writes of
        ``list(self)``: the header, then one piece per row, as ``_text``."""
        fixed = [key for key in self._keys if key in self._fixed]
        varying = [key for key in self._keys if key not in self._fixed]
        shape = ",".join(["%%d"] + ["%s" if key in self._fixed else "%%d" for key in self._keys])
        step = len(varying) + 1  # the trial number, then the varying fields
        cells = [0] * (step * self.width)
        yield ",".join(("trial", *self._keys)) + "\n"
        for start, row in zip(range(0, len(self), self.width), self.rows):
            fields = self._row_fields(row)
            line = shape % tuple([str(fields[key]).replace("%", "%%") for key in fixed])
            cells[::step] = range(start, start + self.width)
            for i, key in enumerate(varying, 1):
                cells[i::step] = fields[key]
            yield (line + "\n") * self.width % tuple(cells)


def _json_scalar(value: int | str) -> str:
    """The JSON text of an int or a str, with "%" doubled."""
    return json.dumps(value).replace("%", "%%") if type(value) is str else str(value)


class ExperimentReport(_Value):
    _fields = ("name", "parameters", "trials", "violations", "summary")

    def __init__(
        self,
        name: str,
        parameters: dict,
        trials: Sequence[dict] | None = None,
        violations: int = 0,
        summary: dict | None = None,
    ):
        self.name = name
        self.parameters = parameters
        self.trials = [] if trials is None else trials
        self.violations = violations
        self.summary = {} if summary is None else summary

    def json_payload(self) -> dict:
        """The report's JSON document with the trials as held, which
        ``json_pieces`` writes without making an orbit trial's dict."""
        return {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "parameters": self.parameters,
            "violations": self.violations,
            "summary": self.summary,
            "trials": self.trials,
        }

    def to_json_dict(self) -> dict:
        """``json_payload()`` with the trials as a plain list of dicts."""
        return {**self.json_payload(), "trials": list(self.trials)}

    def to_json(self) -> str:
        return json_text(self.json_payload())

    def write_csv(self, path) -> None:
        trials = self.trials
        with open(path, "w") as fh:
            if isinstance(trials, _OrbitTrials):
                fh.writelines(trials._csv())
                return
            keys = list(dict.fromkeys(itertools.chain.from_iterable(trials)))
            fh.write(",".join(["trial"] + keys) + "\n")
            for i, trial in enumerate(trials):
                fh.write(",".join([str(i)] + [str(trial.get(k, "")) for k in keys]) + "\n")
