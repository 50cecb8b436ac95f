"""Closed-form scheme parameters and their validation against search.

For each graph family the scheme's headline numbers have closed forms in
p: the share count k (distinct weight classes of the construction), the
minimum participant count m, the reconstruction phase count rp, and a
degree-based lower bound on the achievable color count. ``validate_family``
recomputes each quantity from scratch — by counting classes, by exhaustive
rainbow-path cover search, and by the exact solver where feasible — and
reports every disagreement instead of smoothing it over.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import protocol
from .errors import BudgetExceededError, InvalidParameterError
from .graphs import _require_p, build_graph, degree_stats
from .labelings import distinct_weight_count, family_coloring, family_labeling
from .rainbow import DEFAULT_MAX_N, DEFAULT_NODE_BUDGET, racn_exact

SCHEME_FAMILIES = ("shadow", "splitting", "mycielski")


def _check(family: str, p: int) -> None:
    if family not in SCHEME_FAMILIES:
        raise InvalidParameterError(
            f"family must be one of {SCHEME_FAMILIES}, got {family!r}"
        )
    _require_p(p)


def k_closed_form(family: str, p: int) -> int:
    """Number of shares / weight classes produced by the construction."""
    _check(family, p)
    if family == "shadow":
        return p + 1 if p % 2 == 0 else p + 3
    if family == "splitting":
        return p + 1
    return 2 * p


def m_closed_form(family: str, p: int) -> int:
    """The paper's participant count m, as a closed form in p.

    This is the paper's value for the quantity ``empirical_m`` computes:
    the fewest distinct participants over all covers that use the fewest
    phases. ``validate_family`` reports every p where search departs from
    it. The paper's text in this repository does not fix the definition
    of m, so the minimum-phase reading is the package's.
    """
    _check(family, p)
    if family == "shadow":
        return (2 * p + 5 + (-1) ** (p - 1)) // 2
    if family == "splitting":
        return p + 1 if p == 3 else p + 2
    return 2 * p + 1


def rp_closed_form(family: str, p: int) -> int:
    """The paper's reconstruction phase count rp, as a closed form in p.

    This is the paper's value for the quantity ``empirical_rp`` computes:
    the fewest rainbow paths that together cover every weight class.
    ``validate_family`` reports every p where search beats it. The paper's
    text in this repository does not fix the definition of rp.
    """
    _check(family, p)
    if family == "shadow":
        return 1 if p % 2 == 0 else 2
    if family == "splitting":
        return 2 if p == 3 else 1
    return (2 * p + 1 + (-1) ** (p - 1)) // 4


def theorem_lower_bound(family: str, p: int) -> int:
    """Degree-based lower bound on the color count, from the graph itself."""
    _check(family, p)
    g = build_graph(family, p)
    lo, hi = degree_stats(g)
    if family == "shadow":
        return (p - 1) + (lo if p % 2 == 0 else hi)
    if family == "splitting":
        return (p - 1) + lo + 1
    return (p - 1) + hi + 1


@dataclass(frozen=True)
class SchemeParameters:
    family: str
    p: int
    n: int
    k: int
    m: int
    rp: int


def scheme_parameters(family: str, p: int) -> SchemeParameters:
    _check(family, p)
    return SchemeParameters(
        family=family,
        p=p,
        n=build_graph(family, p).n,
        k=k_closed_form(family, p),
        m=m_closed_form(family, p),
        rp=rp_closed_form(family, p),
    )


@dataclass(frozen=True)
class ValidationRow:
    """One p-value of a validation sweep; None marks a skipped computation."""

    family: str
    p: int
    n: int
    k_formula: int
    k_observed: int
    m_formula: int
    m_observed: int | None
    rp_formula: int
    rp_observed: int | None
    lower_bound: int
    racn_value: int | None
    y_pair_sums: tuple[int, ...] = ()
    gaps: tuple[str, ...] = ()

    @property
    def mismatches(self) -> tuple[str, ...]:
        out = []
        if self.k_observed != self.k_formula:
            out.append(f"k: formula {self.k_formula} != observed {self.k_observed}")
        if self.m_observed is not None and self.m_observed != self.m_formula:
            out.append(f"m: formula {self.m_formula} != observed {self.m_observed}")
        if self.rp_observed is not None and self.rp_observed != self.rp_formula:
            out.append(f"rp: formula {self.rp_formula} != observed {self.rp_observed}")
        if self.lower_bound > self.k_observed:
            out.append(
                f"lower bound {self.lower_bound} exceeds achieved color count "
                f"{self.k_observed}"
            )
        if self.racn_value is not None and self.racn_value != self.k_formula:
            out.append(
                f"racn: exact {self.racn_value} != formula {self.k_formula}"
            )
        if self.racn_value is not None and self.lower_bound > self.racn_value:
            out.append(
                f"lower bound {self.lower_bound} exceeds exact racn {self.racn_value}"
            )
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
            f"{r.family} p={r.p}: {msg}" for r in self.rows for msg in r.mismatches
        )

    @property
    def gaps(self) -> tuple[str, ...]:
        return tuple(f"{r.family} p={r.p}: {g}" for r in self.rows for g in r.gaps)

    def to_table(self) -> str:
        head = (
            f"{'p':>3} {'n':>3} {'k':>7} {'m':>7} {'rp':>7} "
            f"{'bound':>5} {'racn':>5}  notes"
        )
        lines = [f"family: {self.family}", head, "-" * len(head)]

        def pair(formula: int, observed: int | None) -> str:
            if observed is None:
                return f"{formula}/?"
            mark = "" if observed == formula else "!"
            return f"{formula}/{observed}{mark}"

        for r in self.rows:
            racn = "-" if r.racn_value is None else str(r.racn_value)
            notes = "; ".join(r.mismatches + r.gaps) or "ok"
            lines.append(
                f"{r.p:>3} {r.n:>3} {pair(r.k_formula, r.k_observed):>7} "
                f"{pair(r.m_formula, r.m_observed):>7} "
                f"{pair(r.rp_formula, r.rp_observed):>7} "
                f"{r.lower_bound:>5} {racn:>5}  {notes}"
            )
        lines.append("cells are formula/observed; '!' marks a disagreement")
        return "\n".join(lines)


def validate_family(
    family: str,
    p_range: range,
    racn_max_n: int = DEFAULT_MAX_N,
    cover_budget: int = DEFAULT_NODE_BUDGET,
) -> ValidationReport:
    """Cross-check every closed form against recomputed ground truth.

    Each requested p yields a row; computations that would blow the budget
    are recorded as gaps rather than dropped. Empirical m/rp come from one
    exhaustive rainbow-path cover search per p, the exact color minimum from
    the bounded brute-force solver.
    """
    rows = []
    for p in p_range:
        _check(family, p)
        g, lab, coloring = family_coloring(family, p)
        gaps: list[str] = []
        try:
            paths = protocol._min_vertex_cover_choice(g, coloring, cover_budget)
            rp_obs, m_obs = len(paths), len(set().union(*paths))
        except BudgetExceededError:
            rp_obs = m_obs = None
            gaps.append("m/rp search skipped: budget exceeded")
        racn_value = None
        if g.n <= racn_max_n:
            racn_value = racn_exact(g, max_n=racn_max_n).value
        else:
            gaps.append(f"exact racn skipped: n={g.n} > {racn_max_n}")
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
                family=family,
                p=p,
                n=g.n,
                k_formula=k_closed_form(family, p),
                k_observed=distinct_weight_count(coloring),
                m_formula=m_closed_form(family, p),
                m_observed=m_obs,
                rp_formula=rp_closed_form(family, p),
                rp_observed=rp_obs,
                lower_bound=theorem_lower_bound(family, p),
                racn_value=racn_value,
                y_pair_sums=y_pair_sums,
                gaps=tuple(gaps),
            )
        )
    return ValidationReport(family=family, rows=tuple(rows))
