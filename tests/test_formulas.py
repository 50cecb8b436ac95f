import pytest

from racnshare import (
    InvalidParameterError,
    SCHEME_FAMILIES,
    SchemeParameters,
    build_graph,
    degree_stats,
    family_coloring,
    racn_exact,
    scheme_parameters,
    theorem_lower_bound,
    validate_family,
)
from racnshare import formulas
from racnshare.protocol import _min_vertex_cover_choice
from racnshare.rainbow import _rainbow_path_signatures


# The closed forms as the paper writes them, one function per quantity: the
# oracle that ``scheme_parameters`` must match cell for cell.

def oracle_k(family, p):
    if family == "shadow":
        return p + 1 if p % 2 == 0 else p + 3
    if family == "splitting":
        return p + 1
    return 2 * p


def oracle_m(family, p):
    if family == "shadow":
        return (2 * p + 5 + (-1) ** (p - 1)) // 2
    if family == "splitting":
        return p + 1 if p == 3 else p + 2
    return 2 * p + 1


def oracle_rp(family, p):
    if family == "shadow":
        return 1 if p % 2 == 0 else 2
    if family == "splitting":
        return 2 if p == 3 else 1
    return (2 * p + 1 + (-1) ** (p - 1)) // 4


def oracle_lower_bound(family, p):
    lo, hi = degree_stats(build_graph(family, p))
    if family == "shadow":
        return (p - 1) + (lo if p % 2 == 0 else hi)
    if family == "splitting":
        return (p - 1) + lo + 1
    return (p - 1) + hi + 1


@pytest.mark.parametrize("family", SCHEME_FAMILIES)
def test_scheme_parameters_match_the_oracle(family):
    for p in range(2, 61):
        assert scheme_parameters(family, p) == SchemeParameters(
            family, p, build_graph(family, p).n, oracle_k(family, p),
            oracle_m(family, p), oracle_rp(family, p), oracle_lower_bound(family, p),
        ), p
        assert theorem_lower_bound(family, p) == oracle_lower_bound(family, p), p


SPOT_VALUES = [
    # family, p, k, m, rp, bound
    ("shadow", 2, 3, 4, 1, 3),
    ("shadow", 3, 6, 6, 2, 6),
    ("shadow", 4, 5, 6, 1, 5),
    ("splitting", 3, 4, 4, 2, 4),
    ("splitting", 4, 5, 6, 1, 5),
    ("mycielski", 2, 4, 5, 1, 4),
    ("mycielski", 3, 6, 7, 2, 7),
]


@pytest.mark.parametrize("family,p,k,m,rp,bound", SPOT_VALUES)
def test_spot_values(family, p, k, m, rp, bound):
    sp = scheme_parameters(family, p)
    assert (sp.k, sp.m, sp.rp, sp.lower_bound) == (k, m, rp, bound)
    assert theorem_lower_bound(family, p) == bound


def test_shadow_m_parity_identity():
    for p in range(2, 13):
        expected = p + 2 if p % 2 == 0 else p + 3
        assert scheme_parameters("shadow", p).m == expected


def test_mycielski_rp_is_half_p_rounded_up():
    for p in range(2, 13):
        assert scheme_parameters("mycielski", p).rp == (p + 1) // 2


@pytest.mark.parametrize("family", SCHEME_FAMILIES)
def test_k_matches_constructed_class_count(family):
    for p in range(2, 11):
        _, _, coloring = family_coloring(family, p)
        assert scheme_parameters(family, p).k == len(coloring.classes)


def test_bound_vs_class_count_small_range():
    # the degree bound sits at or below the achieved class count everywhere
    # in this range except the one known tension point
    exceeding = [
        (f, p)
        for f in SCHEME_FAMILIES
        for p in range(2, 11)
        if scheme_parameters(f, p).lower_bound > scheme_parameters(f, p).k
    ]
    assert exceeding == [("mycielski", 3)]


def test_scheme_parameters_fields():
    sp = scheme_parameters("mycielski", 3)
    assert (sp.family, sp.p, sp.n) == ("mycielski", 3, 7)
    assert (sp.k, sp.m, sp.rp) == (6, 7, 2)
    assert scheme_parameters("shadow", 4).n == 8
    assert scheme_parameters("splitting", 5).n == 10


BAD_INPUTS = [
    ("shadow", 1, "p must be an integer >= 2, got 1"),
    ("shadow", "3", "p must be an integer >= 2, got '3'"),
    ("path", 3, "family must be one of ('shadow', 'splitting', 'mycielski'), got 'path'"),
    ("grid", 3, "family must be one of ('shadow', 'splitting', 'mycielski'), got 'grid'"),
]


@pytest.mark.parametrize(
    "fn",
    [
        pytest.param(lambda f, p: scheme_parameters(f, p).k, id="k_closed_form"),
        pytest.param(lambda f, p: scheme_parameters(f, p).m, id="m_closed_form"),
        pytest.param(lambda f, p: scheme_parameters(f, p).rp, id="rp_closed_form"),
        theorem_lower_bound,
    ],
)
def test_rejects_bad_inputs(fn):
    for family, p, message in BAD_INPUTS:
        with pytest.raises(InvalidParameterError) as info:
            fn(family, p)
        assert type(info.value) is InvalidParameterError
        assert str(info.value) == message


class TestValidateFamily:
    def test_shadow_sweep(self):
        report = validate_family("shadow", range(2, 7))
        assert len(report.rows) == 5
        assert not report.ok
        assert report.mismatches == (
            "shadow p=3: racn: exact 5 != formula 6",
            "shadow p=3: lower bound 6 exceeds exact racn 5",
            "shadow p=5: m: formula 8 != observed 9",
            "shadow p=5: rp: formula 2 != observed 1",
        )
        by_p = {r.p: r for r in report.rows}
        assert by_p[2].ok and by_p[4].ok and by_p[6].ok
        assert by_p[4].racn_exact == 5
        assert by_p[5].racn_exact is None
        assert any("racn skipped" in gap for gap in by_p[5].gaps)

    def test_splitting_sweep(self):
        report = validate_family("splitting", range(2, 7))
        assert report.mismatches == (
            "splitting p=4: racn: exact 4 != formula 5",
            "splitting p=4: lower bound 5 exceeds exact racn 4",
        )
        by_p = {r.p: r for r in report.rows}
        assert by_p[3].ok  # the p=3 exceptions in m and rp are real
        assert by_p[3].m.observed == 4 and by_p[3].rp.observed == 2

    def test_mycielski_sweep(self):
        report = validate_family("mycielski", range(2, 5))
        by_p = {r.p: r for r in report.rows}
        assert by_p[2].mismatches == (
            "racn: exact 3 != formula 4",
            "lower bound 4 exceeds exact racn 3",
        )
        assert set(by_p[3].mismatches) == {
            "m: formula 7 != observed 6",
            "lower bound 7 exceeds achieved color count 6",
            "racn: exact 4 != formula 6",
            "lower bound 7 exceeds exact racn 4",
        }
        assert by_p[4].mismatches == ("m: formula 9 != observed 8",)

    def test_splitting_phantom_pair_sums(self):
        report = validate_family("splitting", range(2, 6))
        for row in report.rows:
            p = row.p
            assert row.y_pair_sums == tuple(4 * p - 2 * t + 1 for t in range(1, p))

    def test_non_splitting_rows_have_no_pair_sums(self):
        for row in validate_family("shadow", range(2, 4)).rows:
            assert row.y_pair_sums == ()

    def test_table_rendering(self):
        table = validate_family("splitting", range(2, 5)).to_table()
        assert "family: splitting" in table
        assert "formula/observed" in table
        assert "ok" in table  # the clean rows say so
        # a disagreeing cell carries the mark: mycielski p=3 observes m=6
        marked = validate_family("mycielski", range(3, 4)).to_table()
        assert "7/6!" in marked

    def test_clean_sweep_is_ok(self):
        report = validate_family("splitting", range(2, 4))
        assert report.ok
        assert report.mismatches == ()
        assert report.gaps == ()

    def test_bad_range_rejected(self):
        with pytest.raises(InvalidParameterError):
            validate_family("shadow", range(1, 3))
        with pytest.raises(InvalidParameterError):
            validate_family("path", range(2, 4))

    def test_racn_cap_enforced(self):
        report = validate_family("shadow", range(4, 5), racn_max_n=6)
        (row,) = report.rows
        assert row.racn_exact is None
        assert any("racn skipped" in g for g in row.gaps)

    def test_negative_racn_cap_rejected_before_any_search(self, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("searched with a negative cap")

        monkeypatch.setattr(formulas, "max_new_color_path", no_search)
        with pytest.raises(InvalidParameterError, match="racn_max_n must be at least 0, got -1"):
            validate_family("shadow", range(2, 3), racn_max_n=-1)

    def test_cover_budget_gap(self, set_node_budget):
        # shadow p=6 meets its first path through every class at push 26
        set_node_budget(25)
        (row,) = validate_family("shadow", range(6, 7)).rows
        assert row.m.observed is None and row.rp.observed is None
        assert "m/rp search skipped: budget exceeded" in row.gaps
        assert not any(msg.startswith(("m:", "rp:")) for msg in row.mismatches)

    def test_full_class_path_at_the_budget_edge(self, set_node_budget):
        # one push more than test_cover_budget_gap: the first path through all
        # 7 classes settles rp and m, so the cover search, which needs more, never runs
        set_node_budget(26)
        (row,) = validate_family("shadow", range(6, 7)).rows
        assert (row.rp.observed, row.m.observed) == (1, 8)
        assert not any(gap.startswith("m/rp") for gap in row.gaps)

    def test_racn_budget_gap(self, set_node_budget):
        # shadow p=3's cover search charges 384 nodes (6 one-vertex sets tested
        # and the whole vertex set scanned, 54 (item, mask) pairs each, then 6
        # combinations); its automorphism search pushes 180 nodes and its leaf
        # tests fit too, but its labeling passes place up to 446 labels
        set_node_budget(384)
        rows = validate_family("shadow", range(2, 4), racn_max_n=10).rows
        assert [row.racn_exact for row in rows] == [3, None]
        assert (rows[1].m.observed, rows[1].rp.observed) == (6, 2)
        assert rows[1].gaps == ("exact racn skipped: budget exceeded",)
        set_node_budget(383)
        (row,) = validate_family("shadow", range(3, 4), racn_max_n=10).rows
        assert row.gaps == ("m/rp search skipped: budget exceeded",
                            "exact racn skipped: budget exceeded")

    def test_cover_budget_gap_in_the_cover_search(self, set_node_budget):
        # mycielski p=6: the enumeration pushes 1,556 paths; the cover search
        # charges 15 vertex sets 749 (item, mask) pairs each, then 4 combinations
        g, _, coloring = family_coloring("mycielski", 6)
        set_node_budget(11_238)
        _rainbow_path_signatures(g, coloring)  # the enumeration fits, the search not
        (row,) = validate_family("mycielski", range(6, 7)).rows
        assert row.m.observed is None and row.rp.observed is None
        assert "m/rp search skipped: budget exceeded" in row.gaps
        set_node_budget(11_239)
        (row,) = validate_family("mycielski", range(6, 7)).rows
        assert (row.rp.observed, row.m.observed) == (3, 12)

    @pytest.mark.parametrize("p,rp,m", [(6, 3, 12), (7, 3, 14), (8, 4, 16)])
    def test_mycielski_cover_frontier(self, p, rp, m):
        # the branch-and-bound that the search over avoided vertex sets replaced
        # took 1-2 s on p=6 and 7, and ran out of budget on p=8
        (row,) = validate_family("mycielski", range(p, p + 1)).rows
        assert (row.rp.observed, row.m.observed) == (rp, m)
        assert not any(gap.startswith("m/rp") for gap in row.gaps)


# every family cell that the cover-search tests in test_protocol.py reach
FULL_CLASS_CELLS = (
    [("shadow", p) for p in range(2, 10)]
    + [("splitting", p) for p in range(2, 17)]
    + [("mycielski", p) for p in range(2, 6)]
)


@pytest.mark.parametrize("family,p", FULL_CLASS_CELLS)
def test_rp_and_m_match_the_cover_search(family, p):
    # validate_family settles rp = 1 and m = k + 1 at the first rainbow path
    # with k edges; the cover search stays the oracle
    (row,) = validate_family(family, range(p, p + 1), racn_max_n=0).rows
    g, _, coloring = family_coloring(family, p)
    paths = [path.vertices for path in _min_vertex_cover_choice(g, coloring)]
    assert (row.rp.observed, row.m.observed) == (len(paths), len(set().union(*paths)))


def test_validation_rows_agree_with_direct_solver():
    for family, p in (("shadow", 3), ("splitting", 4), ("mycielski", 2)):
        report = validate_family(family, range(p, p + 1))
        (row,) = report.rows
        got = racn_exact(row_graph(family, p)).value
        assert row.racn_exact == got


def row_graph(family, p):
    from racnshare import build_graph

    return build_graph(family, p)
