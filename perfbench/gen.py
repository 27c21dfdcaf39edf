"""Seeded input generators and the models that check each workload.

Everything here is plain Python and imports nothing from ``repro``: the
program under test only ever sees the operations these generators emit.
A generator is a deterministic function of ``(workload, seed, stream)``:
the same seed yields the same operations with the same parameters, and
the model it keeps says what every operation must return.

Operations come in *decks*: each deck holds the workload's mix exactly
once, shuffled.  The benchmark stops only at a deck boundary, so every
run executes the stated mix exactly, whatever its length.
"""

from __future__ import annotations

import bisect
import random
import string
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Op",
    "Zipf",
    "OltpGenerator",
    "AnalyticsGenerator",
    "IngestGenerator",
    "RemoteGenerator",
    "logical_bytes",
]

_LETTERS = string.ascii_letters + string.digits


class Op:
    """One operation: what to run and what it must produce.

    ``kind`` names the operation; ``params`` are its inputs;
    ``expect`` is the model's answer (its meaning depends on ``kind``);
    ``writes`` is the list of rows the operation writes (for the
    logical-bytes count).  ``deck_end`` marks the last op of a deck.
    """

    __slots__ = ("kind", "params", "expect", "writes", "deck_end")

    def __init__(
        self,
        kind: str,
        params: Any,
        expect: Any = None,
        writes: Sequence[Sequence[Any]] = (),
        deck_end: bool = False,
    ) -> None:
        self.kind = kind
        self.params = params
        self.expect = expect
        self.writes = writes
        self.deck_end = deck_end

    def key(self) -> Tuple[Any, ...]:
        """Comparable identity (kind and inputs) for replay checks."""
        return (self.kind, _freeze(self.params))


def _freeze(value: Any) -> Any:
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    return value


def logical_bytes(row: Sequence[Any]) -> int:
    """UTF-8 length of the text form of each column value."""
    return sum(len(str(value).encode("utf-8")) for value in row)


def _rng(workload: str, seed: int, stream: int = 0) -> random.Random:
    # String seeds are hashed with SHA-512 by ``random``, so they do not
    # depend on PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}:{stream}")


def _word(rng: random.Random, low: int, high: int) -> str:
    return "".join(rng.choice(_LETTERS) for _ in range(rng.randint(low, high)))


class Zipf:
    """Ranks ``0..n-1`` drawn with probability proportional to
    ``1 / (rank + 1) ** theta``."""

    def __init__(self, n: int, theta: float) -> None:
        total = 0.0
        self._cdf: List[float] = []
        for rank in range(n):
            total += 1.0 / (rank + 1) ** theta
            self._cdf.append(total)
        self._total = total

    def draw(self, rng: random.Random) -> int:
        return bisect.bisect_left(self._cdf, rng.random() * self._total)


class _Decks:
    """Endless stream of shuffled decks built from ``mix`` counts."""

    def __init__(self, rng: random.Random, mix: Dict[str, int]) -> None:
        self._rng = rng
        self._deck = [kind for kind, count in sorted(mix.items())
                      for _ in range(count)]
        self._pending: List[str] = []

    def next(self) -> Tuple[str, bool]:
        if not self._pending:
            self._pending = list(self._deck)
            self._rng.shuffle(self._pending)
            self._pending.reverse()
        kind = self._pending.pop()
        return kind, not self._pending


# ---------------------------------------------------------------------------
# oltp_keyed
# ---------------------------------------------------------------------------


class OltpGenerator:
    """Keyed account traffic over ``acct(id, owner, bal)``.

    Keys are Zipf-skewed over a seeded permutation of the live keys, so
    the hot keys are scattered through the table.  INSERT and DELETE
    have equal shares, which keeps the table size steady.
    """

    def __init__(self, seed: int, spec: Dict[str, Any]) -> None:
        self._rng = _rng("oltp_keyed", seed)
        rows = spec["rows"]
        self.initial: List[List[Any]] = [
            [key, _word(self._rng, 6, 16), self._rng.randint(0, 100000)]
            for key in range(rows)
        ]
        #: id -> [owner, bal]: the state every read is checked against.
        self.model: Dict[int, List[Any]] = {
            row[0]: [row[1], row[2]] for row in self.initial
        }
        self._live = list(self.model)
        self._rng.shuffle(self._live)
        self._zipf = Zipf(rows, spec["zipf_theta"])
        self._next_id = rows
        self._decks = _Decks(self._rng, spec["mix"])

    def _key(self) -> int:
        return self._live[self._zipf.draw(self._rng) % len(self._live)]

    def next_op(self) -> Op:
        kind, deck_end = self._decks.next()
        rng = self._rng
        if kind == "select_into":
            key = self._key()
            return Op(kind, (key,), tuple(self.model[key]),
                      deck_end=deck_end)
        if kind == "update":
            key = self._key()
            amount = rng.randint(1, 100)
            self.model[key][1] += amount
            return Op(kind, (key, amount), 1, [(amount,)], deck_end)
        if kind == "call_transfer":
            src = self._key()
            dst = self._key()
            while dst == src:
                dst = self._key()
            amount = rng.randint(1, 100)
            self.model[src][1] -= amount
            self.model[dst][1] += amount
            return Op(kind, (src, dst, amount), None,
                      [(amount,), (amount,)], deck_end)
        if kind == "insert":
            key = self._next_id
            self._next_id += 1
            row = (key, _word(rng, 6, 16), rng.randint(0, 100000))
            self.model[key] = [row[1], row[2]]
            self._live.append(key)
            return Op(kind, row, 1, [row], deck_end)
        if kind == "delete":
            key = self._key()
            del self.model[key]
            self._live.remove(key)
            return Op(kind, (key,), 1, deck_end=deck_end)
        raise ValueError(f"unknown oltp_keyed op {kind!r}")

    def rows(self) -> List[Tuple[Any, ...]]:
        """The table as the model says it must be, ordered by id."""
        return [(key, owner, bal)
                for key, (owner, bal) in sorted(self.model.items())]


# ---------------------------------------------------------------------------
# analytics_adhoc
# ---------------------------------------------------------------------------

#: Query shapes: (name, SQL with ``?`` markers, ordered result?).
ANALYTICS_SHAPES: List[Tuple[str, str, bool]] = [
    (
        "range_scan",
        "SELECT id, name, salary FROM emps "
        "WHERE salary BETWEEN ? AND ?",
        False,
    ),
    (
        "group_by",
        "SELECT dept_id, count(*), sum(salary), max(hire_year) FROM emps "
        "WHERE salary >= ? GROUP BY dept_id",
        False,
    ),
    (
        "join_group",
        "SELECT d.region, count(*), sum(e.salary) FROM emps e "
        "JOIN depts d ON e.dept_id = d.id WHERE e.salary > ? "
        "GROUP BY d.region",
        False,
    ),
    (
        "top_n",
        "SELECT id, name, salary FROM emps "
        "WHERE dept_id = ? AND hire_year >= ? "
        "ORDER BY salary DESC, id LIMIT 10",
        True,
    ),
    (
        "star_join",
        "SELECT d.region, j.grade, count(*), max(e.salary) FROM emps e "
        "JOIN depts d ON e.dept_id = d.id "
        "JOIN jobs j ON e.job_id = j.id "
        "WHERE j.grade = ? AND e.salary > ? GROUP BY d.region, j.grade",
        False,
    ),
]


def inline_literals(sql: str, params: Sequence[Any]) -> str:
    """Replace each ``?`` with its (integer) parameter as a literal."""
    parts = sql.split("?")
    if len(parts) != len(params) + 1:
        raise ValueError("parameter count does not match the markers")
    out = [parts[0]]
    for value, rest in zip(params, parts[1:]):
        out.append(str(int(value)))
        out.append(rest)
    return "".join(out)


class AnalyticsGenerator:
    """Report queries over the payroll star schema.

    Each deck (``mix``: ``<shape>.bound`` and ``<shape>.inline``) runs
    every shape twice: once as a fixed text with bound parameters (a
    working set of five texts, far below the plan cache's 128 entries)
    and once with the parameters inlined as literals drawn from at
    least 1000 values per shape (a working set far above it).
    """

    def __init__(self, seed: int, spec: Dict[str, Any]) -> None:
        self._rng = rng = _rng("analytics_adhoc", seed)
        self.depts = [
            (key, f"dept{key}", f"region{key % spec['regions']}")
            for key in range(spec["depts"])
        ]
        self.jobs = [
            (key, f"job{key}", key % 10) for key in range(spec["jobs"])
        ]
        self.emps = [
            (
                key,
                _word(rng, 6, 16),
                rng.randrange(spec["depts"]),
                rng.randrange(spec["jobs"]),
                rng.randrange(30000, 200000),
                rng.randrange(1980, 2024),
            )
            for key in range(spec["emps"])
        ]
        self._decks = _Decks(rng, spec["mix"])
        self._shapes = {name: (sql, ordered)
                        for name, sql, ordered in ANALYTICS_SHAPES}

    def _params(self, shape: str) -> Tuple[int, ...]:
        """Parameters from at least 1000 values per shape, in narrow
        bands so each shape keeps about the same selectivity (and cost)
        whatever the seed; salaries are uniform on [30000, 200000)."""
        rng = self._rng
        if shape == "range_scan":  # ~1.2% of emps
            low = 100000 + rng.randrange(1000)
            return (low, low + 2000)
        if shape == "group_by":  # ~59%
            return (100000 + rng.randrange(1000),)
        if shape == "join_group":  # ~29%
            return (150000 + rng.randrange(1000),)
        if shape == "top_n":  # one dept, ~half its hires
            return (rng.randrange(len(self.depts)),
                    2000 + rng.randrange(5))
        if shape == "star_join":  # one grade, ~41% of it
            return (rng.randrange(10), 130000 + rng.randrange(100))
        raise ValueError(f"unknown analytics shape {shape!r}")

    def next_op(self) -> Op:
        kind, deck_end = self._decks.next()
        shape, mode = kind.split(".")
        sql, ordered = self._shapes[shape]
        params = self._params(shape)
        if mode == "inline":
            sql, params = inline_literals(sql, params), ()
        return Op(kind, (sql, params), ordered, deck_end=deck_end)


# ---------------------------------------------------------------------------
# ingest_lsm
# ---------------------------------------------------------------------------


class IngestGenerator:
    """Append-only event ingest with a periodic retention DELETE.

    Ids are sequential, so the live rows are always the id range
    ``[low, next_id)``; each retention op deletes everything below
    ``next_id - live_rows``.
    """

    def __init__(self, seed: int, spec: Dict[str, Any]) -> None:
        self._rng = _rng("ingest_lsm", seed)
        self._spec = spec
        self.model: Dict[int, Tuple[Any, ...]] = {}
        self._low = 0
        self._next_id = 0
        self.initial = [self._row() for _ in range(spec["live_rows"])]
        self._decks = _Decks(self._rng, spec["mix"])
        self._ops = 0

    def _row(self) -> Tuple[Any, ...]:
        rng = self._rng
        key = self._next_id
        self._next_id += 1
        row = (
            key,
            rng.randrange(self._spec["devices"]),
            1_700_000_000 + key,
            _word(rng, 32, 64),
        )
        self.model[key] = row
        return row

    def next_op(self) -> Op:
        self._ops += 1
        if self._ops % self._spec["retention_every"] == 0:
            watermark = self._next_id - self._spec["live_rows"]
            for key in range(self._low, watermark):
                del self.model[key]
            deleted, self._low = watermark - self._low, watermark
            return Op("retention_delete", (watermark,), deleted)
        kind, deck_end = self._decks.next()
        if kind == "insert":
            row = self._row()
            return Op(kind, row, 1, [row], deck_end)
        if kind == "batch":
            rows = [self._row() for _ in range(self._spec["batch_rows"])]
            return Op(kind, rows, len(rows), rows, deck_end)
        raise ValueError(f"unknown ingest_lsm op {kind!r}")

    def rows(self) -> List[Tuple[Any, ...]]:
        return [self.model[key] for key in sorted(self.model)]


# ---------------------------------------------------------------------------
# remote_point
# ---------------------------------------------------------------------------


def remote_initial(seed: int, spec: Dict[str, Any]) -> List[Tuple[Any, ...]]:
    """The ``items`` rows loaded before the clients start."""
    rng = _rng("remote_point", seed, -1)
    return [
        (key, _word(rng, 6, 16), rng.randrange(1000))
        for key in range(spec["rows"])
    ]


class RemoteGenerator:
    """One client's point traffic against ``items``.

    Client ``stream`` inserts only ids congruent to ``stream`` modulo
    the client count, above the initial key range, so the two clients
    never touch the same new key and range reads (which stay inside the
    initial keys) see no concurrent change.
    """

    def __init__(
        self,
        seed: int,
        spec: Dict[str, Any],
        stream: int,
        initial: Optional[List[Tuple[Any, ...]]] = None,
    ) -> None:
        self._rng = _rng("remote_point", seed, stream)
        self._spec = spec
        self.initial = initial if initial is not None \
            else remote_initial(seed, spec)
        self._rows = spec["rows"]
        self.inserted: Dict[int, Tuple[Any, ...]] = {}
        self._inserted_keys: List[int] = []
        self._next_id = self._rows + stream
        self._step = spec["clients"]
        self._decks = _Decks(self._rng, spec["mix"])

    def next_op(self) -> Op:
        kind, deck_end = self._decks.next()
        rng = self._rng
        if kind == "point_select":
            pick = rng.randrange(self._rows + len(self._inserted_keys))
            if pick < self._rows:
                row = self.initial[pick]
            else:
                row = self.inserted[self._inserted_keys[pick - self._rows]]
            return Op(kind, (row[0],), [tuple(row)], deck_end=deck_end)
        if kind == "insert":
            key = self._next_id
            self._next_id += self._step
            row = (key, _word(rng, 6, 16), rng.randrange(1000))
            self.inserted[key] = row
            self._inserted_keys.append(key)
            return Op(kind, row, 1, [row], deck_end)
        if kind == "range_select":
            span = self._spec["range_rows"]
            low = rng.randrange(self._rows - span + 1)
            expect = [tuple(row) for row in self.initial[low:low + span]]
            return Op(kind, (low, low + span), expect, deck_end=deck_end)
        raise ValueError(f"unknown remote_point op {kind!r}")


def take(generator: Any, count: int) -> Iterator[Op]:
    """The first ``count`` ops of a generator (replay checks)."""
    for _ in range(count):
        yield generator.next_op()
