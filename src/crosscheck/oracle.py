"""The audit behind ``verify``, and the single-classifier outcome walk.

:func:`check_summary` audits claimed marginals and a claimed evaluation
point against a sketch.  A claimed point that passes the axiom checks
but leaves some proper subset of the roster unnamed (at N = 3 a pair,
at N >= 4 always) is then searched for among the truth splits at its
prevalence: a depth-first search in budgeted steps, pruned by the
claim's own row sums, for one split that meets them all.
:func:`parse_claims` reads the claims file that ``verify --claims``
audits.  :func:`enumerate_evaluations` walks the raw lattice of one
classifier's outcomes for the ``enumerate`` subcommand.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from types import MappingProxyType
from typing import NamedTuple

from .axioms import EvaluationPoint, _named, point_axiom_violations
from .model import (
    LABEL_A,
    LABELS,
    EvaluationSketch,
    Marginals,
    SketchError,
    _is_int,
    _is_ints,
    _Value,
    marginalize,
    validate_sketch,
)
from .persist import FormatError, _load_json, _require_keys

# steps of the claim search (see _realized) that verify takes by default
DEFAULT_SPLIT_BUDGET = 10_000_000


def enumerate_evaluations(q: int) -> Iterator[EvaluationPoint]:
    """Every possible single-classifier evaluation outcome on q items.

    Yields one point per (q_a, correct_a, correct_b) triple with the
    obvious bounds; nothing else is assumed.  There are exactly
    (q+1)(q+2)(q+3)/6 of them.
    """
    if q < 0:
        raise SketchError("q must be non-negative")
    for q_a in range(q + 1):
        for c_a in range(q_a + 1):
            for c_b in range(q - q_a + 1):
                yield EvaluationPoint(q_a, (c_a,), (c_b,))


def evaluation_count(q: int) -> int:
    """How many points :func:`enumerate_evaluations` yields for ``q``."""
    if q < 0:
        raise SketchError("q must be non-negative")
    return (q + 1) * (q + 2) * (q + 3) // 6


class SummaryClaims(_Value):
    """An externally supplied summary of an evaluation to be audited.

    ``marginals`` maps classifier id to claimed response totals, two ints
    in a list or tuple, kept as :class:`Marginals`; ``point`` is an
    optional claimed ground truth.
    """

    marginals: Mapping[str, Marginals]
    point: EvaluationPoint | None

    def __init__(
        self, marginals: Mapping[str, Marginals], point: EvaluationPoint | None = None
    ) -> None:
        if not isinstance(marginals, Mapping) or not all(
            isinstance(cid, str) and _is_ints(entry, True) for cid, entry in marginals.items()
        ):
            raise SketchError("claimed marginals must map ids to pairs of integers")
        margs = {cid: Marginals(*entry) for cid, entry in marginals.items()}
        self._store(MappingProxyType(margs), point)


def parse_claims(text: str, sketch: EvaluationSketch) -> SummaryClaims:
    """Claims file: optional marginal totals and an optional full point.

    The sketch supplies the roster so that a pair key, "first,second",
    becomes an index pair; a pair named twice, in either order, and a key
    that names one classifier twice are errors.  :class:`SummaryClaims` and
    :class:`EvaluationPoint` refuse any count that is not a JSON integer.
    """
    obj = _load_json(text)
    _require_keys(obj, (), ("marginals", "point"), "claims file")
    try:
        point = None
        if "point" in obj:
            raw = obj["point"]
            keys = ("q_a", "correct_a", "correct_b")
            _require_keys(raw, keys, ("pair_correct",), "claimed point")
            named = "pair_correct" in raw
            pairs = _pairs_by_index(raw["pair_correct"], sketch) if named else None
            point = EvaluationPoint(raw["q_a"], raw["correct_a"], raw["correct_b"], pairs)
        return SummaryClaims(obj.get("marginals", {}), point)
    except SketchError as exc:
        raise FormatError(str(exc)) from None


def _pairs_by_index(claimed: object, sketch: EvaluationSketch) -> dict:
    """A claims file's pair claims, keyed "first,second", by index pair."""
    if not isinstance(claimed, dict):
        raise FormatError("'pair_correct' must be a JSON object")
    ids, pairs = sketch.classifiers, {}
    most = max(cid.count(",") for cid in ids)
    for key, entry in claimed.items():
        # cut at the comma whose sides are two ids as written, else with
        # blanks stripped ("claude, mistral"); no id holds more than ``most``
        # commas, so only the first most + 1 commas can end the first id
        parts = key.split(",")
        ends = range(1, min(len(parts), most + 2))
        cuts = [(",".join(parts[:k]), ",".join(parts[k:])) for k in ends]
        for sides in (cuts, [(first.strip(), second.strip()) for first, second in cuts]):
            named = {tuple(sorted(map(ids.index, cut))) for cut in sides if {*cut} <= {*ids}}
            if named:
                break
        if len(named) > 1:
            raise FormatError(f"pair key {key!r} is ambiguous: it names {len(named)} pairs")
        if not named and len(parts) != 2:
            raise FormatError(f"pair key {key!r} must be 'first,second' classifier ids")
        # one comma and no pair: index_of names the unknown id
        ((i, j),) = named or [sorted(map(sketch.index_of, sides[0]))]
        if i == j:
            raise FormatError(f"pair key {key!r} names classifier {ids[i]!r} twice")
        # joint correctness is symmetric, so order only normalizes the
        # key, and a pair named in both orders is one pair named twice
        if (i, j) in pairs:
            raise FormatError(f"pair claim {key!r} names a pair already claimed")
        pairs[(i, j)] = entry
    return pairs


class SummaryReport(NamedTuple):
    """Outcome of auditing claims against a sketch.

    ``undecided`` is True when a claimed point passed the axiom checks,
    which could not settle it because it leaves some proper subset of the
    roster unnamed, and the exact search for a ground truth realizing it
    ran out of budget steps: the point is neither confirmed nor refuted.
    """

    violations: tuple[str, ...]
    undecided: bool

    @property
    def ok(self) -> bool:
        return not self.violations


def _realized(sketch: EvaluationSketch, point: EvaluationPoint, budget: int) -> bool | None:
    """Does some truth split meet the row sums the point fixes?  None if
    the search would take more than ``budget`` steps to say.

    Take the patterns present in order, and let x_p in [0, n_p] be the
    number of pattern p's items whose true label is a.  The point fixes
    the sum of x_p over all patterns (q_a); over each classifier's "a"
    patterns (correct_a) and "b" patterns (its b-count less correct_b);
    and over each named pair's "aa" patterns (joint-a) and "bb" patterns
    (its bb-count less joint-b).  Unnamed pairs fix nothing.

    The search is depth first, one level per pattern, written as a loop
    so that no recursion limit applies.  At each pattern it tries only
    the values that keep every row's remaining need between 0 and what
    the unvisited patterns can still add, so a complete split meets
    every row.  A step is one pass of the loop: a visit to one pattern,
    given the values before it, which never repeats.  As every n_p >= 1,
    a search takes fewer steps than the prod (n_p + 1) truth splits.
    """
    patterns = sorted(sketch.counts)
    sizes = [sketch.counts[p] for p in patterns]
    fixed = [
        (at, label, joint)
        for at, claimed in _named(point).items()
        for label, joint in zip(LABELS, claimed)
        if joint is not None
    ]
    members, need = [], []
    for at, label, correct in fixed:
        row = {p for p in patterns if all(p[k] == label for k in at)}
        members.append(row)
        # x_p counts true-a items, so a row on label b sums to its items less the correct ones
        need.append(correct if label == LABEL_A else sum(sketch.counts[p] for p in row) - correct)
    rows = [[r for r, row in enumerate(members) if p in row] for p in patterns]
    depth = len(patterns)
    # room[d][r]: what patterns d.. can still add to row r
    room = [[0] * len(need) for _ in range(depth + 1)]
    for d in reversed(range(depth)):
        room[d] = room[d + 1][:]
        for r in rows[d]:
            room[d][r] += sizes[d]
    if not all(0 <= n <= most for n, most in zip(need, room[0])):
        return False
    x, top = [0] * depth, [0] * depth
    d = 0
    while d < depth and budget:
        budget -= 1
        # pattern d sits in the q_a row, so rows[d] is never empty
        lo = max(0, *(need[r] - room[d + 1][r] for r in rows[d]))
        hi = min(sizes[d], *(need[r] for r in rows[d]))
        if lo <= hi:
            x[d], top[d] = lo, hi
            for r in rows[d]:
                need[r] -= lo
            d += 1
            continue
        # back to the deepest pattern with a value left to try
        while True:
            d -= 1
            if d < 0:
                return False
            if x[d] < top[d]:
                break
            for r in rows[d]:
                need[r] += x[d]
        x[d] += 1
        for r in rows[d]:
            need[r] -= 1
        d += 1
    return True if d == depth else None


def check_summary(
    sketch: EvaluationSketch,
    claims: SummaryClaims,
    budget: int = DEFAULT_SPLIT_BUDGET,
) -> SummaryReport:
    """Audit claimed marginals and an optional claimed point.

    Marginal claims are compared against the sketch's actual totals.  A
    claimed point is checked against the axioms by one audit
    (:func:`axioms.point_axiom_violations`): one window on each subset of
    the roster whose proper subsets the point names, which also keeps
    every count inside its lattice bounds.  When the point names every
    proper subset of the roster (always at N <= 2, and at N = 3 when it
    names every pair), the roster's own window is reached, and a point
    that passes is realized: nothing is searched.  Otherwise a point that
    passes is realized exactly when some truth split meets the row sums
    it fixes (its q_a, each classifier's correct counts and each named
    pair's joint counts; the unnamed pairs are free).  :func:`_realized`
    looks for one in at most ``budget`` steps, a non-negative int, or
    leaves the report undecided.
    Whether some ground truth realizes the sketch needs no search: the
    pattern counts of a sound sketch are non-negative and sum to q, so
    every q_a in [0, q] has a split (the all-b truth at q_a = 0, for
    one).  Structural invalidity of the sketch itself is reported as
    violations rather than raised, since auditing bad data is the point.
    """
    if not (_is_int(budget) and budget >= 0):
        raise SketchError("budget must be a non-negative integer")
    violations = validate_sketch(sketch)
    roster = set(sketch.classifiers)
    for cid in sorted(claims.marginals):
        if cid not in roster:
            violations.append(f"claimed marginals for unknown classifier {cid}")
    if not violations:
        for cid, claimed in claims.marginals.items():
            actual = marginalize(sketch, cid)
            if claimed != actual:
                violations.append(
                    f"classifier {cid}: claimed totals ({claimed.r_a}, {claimed.r_b}) "
                    f"differ from actual ({actual.r_a}, {actual.r_b})"
                )
    undecided = False
    point = claims.point
    if point is not None and not violations:
        violations.extend(point_axiom_violations(sketch, point))
        # the audit reaches the whole roster when the point names all of
        # its 2^N - 1 proper subsets, the empty set included
        if not violations and len(_named(point)) < 2 ** sketch.size - 1:
            found = _realized(sketch, point, budget)
            undecided = found is None
            if found is False:
                violations.append(
                    f"claimed point is not realized by any ground truth with q_a={point.q_a}"
                )
    return SummaryReport(tuple(violations), undecided)
