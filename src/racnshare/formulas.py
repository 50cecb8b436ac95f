"""Closed-form scheme parameters and their validation against search.

For each graph family the scheme's headline numbers have closed forms in
p: the share count k (distinct weight classes of the construction), the
minimum participant count m, the reconstruction phase count rp, and a
degree-based lower bound on the achievable color count. ``validate_family``
recomputes each quantity from scratch — by counting classes, by
rainbow-path search (a path through every class, else the exhaustive cover
search), and by the exact solver where feasible — and reports every
disagreement instead of smoothing it over.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import protocol
from .errors import BudgetExceededError, InvalidParameterError
from .graphs import build_graph, degree_stats
from .labelings import family_coloring
from .rainbow import DEFAULT_MAX_N, max_new_color_path, racn_exact

SCHEME_FAMILIES = ("shadow", "splitting", "mycielski")


@dataclass(frozen=True)
class SchemeParameters:
    """The paper's closed forms for the family graph on P_p.

    * ``k``: the number of shares, one per weight class of the construction.
    * ``m``: the paper's participant count, its value for the quantity
      ``empirical_m`` computes: the fewest distinct participants over all
      covers that use the fewest phases.
    * ``rp``: the paper's reconstruction phase count, its value for the
      quantity ``empirical_rp`` computes: the fewest rainbow paths that
      together cover every weight class.
    * ``lower_bound``: a degree-based lower bound on the color count, read
      from the graph itself.

    ``validate_family`` reports every p where search departs from m or rp.
    The paper's text in this repository fixes the definition of neither, so
    the minimum-phase reading of m is the package's.
    """

    family: str
    p: int
    n: int
    k: int
    m: int
    rp: int
    lower_bound: int


def scheme_parameters(family: str, p: int) -> SchemeParameters:
    """The closed forms of ``family`` (one of SCHEME_FAMILIES) at p >= 2."""
    if family not in SCHEME_FAMILIES:
        raise InvalidParameterError(
            f"family must be one of {SCHEME_FAMILIES}, got {family!r}"
        )
    g = build_graph(family, p)
    lo, hi = degree_stats(g)
    if family == "shadow":
        k = p + 1 if p % 2 == 0 else p + 3
        m = (2 * p + 5 + (-1) ** (p - 1)) // 2
        rp = 1 if p % 2 == 0 else 2
        bound = (p - 1) + (lo if p % 2 == 0 else hi)
    elif family == "splitting":
        k = p + 1
        m = p + 1 if p == 3 else p + 2
        rp = 2 if p == 3 else 1
        bound = (p - 1) + lo + 1
    else:
        k = 2 * p
        m = 2 * p + 1
        rp = (2 * p + 1 + (-1) ** (p - 1)) // 4
        bound = (p - 1) + hi + 1
    return SchemeParameters(family, p, g.n, k, m, rp, bound)


def theorem_lower_bound(family: str, p: int) -> int:
    """Degree-based lower bound on the color count, from the graph itself."""
    return scheme_parameters(family, p).lower_bound


@dataclass(frozen=True)
class FormulaCheck:
    """A closed-form value beside the one search found; None marks a skipped search."""

    formula: int
    observed: int | None


@dataclass(frozen=True)
class ValidationRow:
    """One p-value of a validation sweep, keyed as its JSON row; None marks a skipped search."""

    p: int
    n: int
    k: FormulaCheck
    m: FormulaCheck
    rp: FormulaCheck
    lower_bound: int
    racn_exact: int | None
    y_pair_sums: tuple[int, ...] = ()
    gaps: tuple[str, ...] = ()

    @property
    def mismatches(self) -> tuple[str, ...]:
        out = [
            f"{name}: formula {c.formula} != observed {c.observed}"
            for name, c in (("k", self.k), ("m", self.m), ("rp", self.rp))
            if c.observed is not None and c.observed != c.formula
        ]
        if self.lower_bound > self.k.observed:
            out.append(
                f"lower bound {self.lower_bound} exceeds achieved color count "
                f"{self.k.observed}"
            )
        if self.racn_exact is not None and self.racn_exact != self.k.formula:
            out.append(f"racn: exact {self.racn_exact} != formula {self.k.formula}")
        if self.racn_exact is not None and self.lower_bound > self.racn_exact:
            out.append(f"lower bound {self.lower_bound} exceeds exact racn {self.racn_exact}")
        return tuple(out)

    @property
    def ok(self) -> bool:
        return not self.mismatches


@dataclass(frozen=True)
class ValidationReport:
    family: str
    rows: tuple[ValidationRow, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)

    @property
    def mismatches(self) -> tuple[str, ...]:
        return tuple(
            f"{self.family} p={r.p}: {msg}" for r in self.rows for msg in r.mismatches
        )

    @property
    def gaps(self) -> tuple[str, ...]:
        return tuple(f"{self.family} p={r.p}: {g}" for r in self.rows for g in r.gaps)

    def to_table(self) -> str:
        head = (
            f"{'p':>3} {'n':>3} {'k':>7} {'m':>7} {'rp':>7} "
            f"{'bound':>5} {'racn':>5}  notes"
        )
        lines = [f"family: {self.family}", head, "-" * len(head)]

        def pair(c: FormulaCheck) -> str:
            if c.observed is None:
                return f"{c.formula}/?"
            mark = "" if c.observed == c.formula else "!"
            return f"{c.formula}/{c.observed}{mark}"

        for r in self.rows:
            racn = "-" if r.racn_exact is None else str(r.racn_exact)
            notes = "; ".join(r.mismatches + r.gaps) or "ok"
            lines.append(
                f"{r.p:>3} {r.n:>3} {pair(r.k):>7} {pair(r.m):>7} {pair(r.rp):>7} "
                f"{r.lower_bound:>5} {racn:>5}  {notes}"
            )
        lines.append("cells are formula/observed; '!' marks a disagreement")
        return "\n".join(lines)


def validate_family(
    family: str, p_range: range, racn_max_n: int = DEFAULT_MAX_N
) -> ValidationReport:
    """Cross-check every closed form against recomputed ground truth.

    Each requested p yields a row; computations that would blow the budget
    are recorded as gaps rather than dropped. Empirical m/rp come from the
    rainbow-path search: a path with k edges holds all k classes on k + 1
    vertices, so when ``max_new_color_path`` meets one, rp is 1 and m is
    k + 1; otherwise the exhaustive cover search settles both. The exact
    color minimum comes from the bounded brute-force solver, on graphs of at
    most ``racn_max_n`` vertices; a cap below 0 raises
    ``InvalidParameterError`` before any search.
    """
    if racn_max_n < 0:
        raise InvalidParameterError(f"racn_max_n must be at least 0, got {racn_max_n}")
    rows = []
    for p in p_range:
        formula = scheme_parameters(family, p)
        g, lab, coloring = family_coloring(family, p)
        gaps: list[str] = []
        k = len(coloring.classes)
        try:
            if max_new_color_path(g, coloring).edge_count == k:
                rp_obs, m_obs = 1, k + 1
            else:
                paths = protocol._min_vertex_cover_choice(g, coloring)
                rp_obs, m_obs = len(paths), len(set().union(*(path.vertices for path in paths)))
        except BudgetExceededError:
            rp_obs = m_obs = None
            gaps.append("m/rp search skipped: budget exceeded")
        racn_value = None
        if g.n > racn_max_n:
            gaps.append(f"exact racn skipped: n={g.n} > {racn_max_n}")
        else:
            try:
                racn_value = racn_exact(g, max_n=racn_max_n).value
            except BudgetExceededError:
                gaps.append("exact racn skipped: budget exceeded")
        y_pair_sums = ()
        if family == "splitting":
            # the construction has no y-y edges; these sums show what weights
            # such pairs would carry under the same labeling
            vals = lab.values
            y_pair_sums = tuple(
                vals[p + t - 1] + vals[p + t] for t in range(1, p)
            )
        rows.append(
            ValidationRow(
                p=p,
                n=g.n,
                k=FormulaCheck(formula.k, k),
                m=FormulaCheck(formula.m, m_obs),
                rp=FormulaCheck(formula.rp, rp_obs),
                lower_bound=formula.lower_bound,
                racn_exact=racn_value,
                y_pair_sums=y_pair_sums,
                gaps=tuple(gaps),
            )
        )
    return ValidationReport(family=family, rows=tuple(rows))
