import json

import pytest

from racnshare import (
    InvalidParameterError,
    SecretConfig,
    build_graph,
    certificate_to_dict,
    dissemination_trace_to_dict,
    distribute,
    export_dot,
    family_coloring,
    fixture_graph,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    racn_exact,
    reconstruction_trace_to_dict,
    share_from_dict,
    share_to_dict,
    simulate_dissemination,
    simulate_reconstruction,
    split,
    to_json,
)


class TestGraphJson:
    def test_family_round_trip(self):
        g, _, _ = family_coloring("mycielski", 3)
        d = graph_to_dict(g)
        assert d["family"] == "mycielski" and d["p"] == 3 and d["n"] == 7
        assert d["roles"]["6"] == "a"
        back = graph_from_dict(d)
        assert back == g

    def test_via_json_text(self):
        g, _, _ = family_coloring("shadow", 4)
        back = graph_from_dict(json.loads(to_json(graph_to_dict(g))))
        assert back == g

    def test_tampered_edges_rejected(self):
        g, _, _ = family_coloring("splitting", 3)
        d = graph_to_dict(g)
        d["edges"] = d["edges"][:-1]
        with pytest.raises(InvalidParameterError):
            graph_from_dict(d)

    def test_family_roles_must_match_the_construction(self):
        d = {"family": "shadow", "p": 2, "n": 4, "edges": [[0, 1], [0, 3], [1, 2], [2, 3]],
             "roles": {"0": "a", "1": "b", "2": "c", "3": "d"}}
        with pytest.raises(InvalidParameterError) as exc:
            graph_from_dict(d)
        assert str(exc.value) == (
            "vertex 0 is named 'a' in the file but 'x1' in the shadow construction at p=2")
        d["roles"] = {"0": "x1", "2": "x2"}
        with pytest.raises(InvalidParameterError, match="vertex 2 is named 'x2' in the file but 'y1'"):
            graph_from_dict(d)
        d["roles"] = {"1": "x2"}  # a role the file leaves out keeps the construction's name
        assert graph_from_dict(d) == build_graph("shadow", 2)
        d["roles"] = {"4": "a"}
        with pytest.raises(InvalidParameterError, match="vertex indexes 0..3, got '4'"):
            graph_from_dict(d)
        d["roles"] = None  # null, like an absent key, names no vertex
        assert graph_from_dict(d) == build_graph("shadow", 2)

    def test_custom_graph_round_trip(self):
        d = {
            "family": None,
            "p": None,
            "n": 3,
            "edges": [[0, 1], [1, 2]],
            "roles": {"0": "hub", "1": "relay", "2": "leaf"},
        }
        g = graph_from_dict(d)
        assert g.names == ("hub", "relay", "leaf")
        assert graph_to_dict(g)["roles"] == d["roles"]

    def test_missing_roles_get_numeric_names(self):
        g = graph_from_dict({"n": 2, "edges": [[0, 1]]})
        assert g.names == ("1", "2")

    @pytest.mark.parametrize("roles,message", [
        ({"0": "a", "1": "a", "2": "b"}, "distinct strings"),
        ({"0": 5, "1": "b", "2": "c"}, "distinct strings"),
        ({"0": None, "1": "b", "2": "c"}, "distinct strings"),
        # vertex 1 has no role, so it takes the default name "2"
        ({"0": "2"}, "distinct strings"),
        ({"1": "a", "2": "b", "3": "c"}, "'roles' keys to be vertex indexes 0..2, got '3'"),
        ({"0": "a", "01": "b"}, "'roles' keys to be vertex indexes 0..2, got '01'"),
        ([], "expected 'roles' to be an object, got \\[\\]"),
        (False, "expected 'roles' to be an object, got False"),
    ], ids=["duplicate", "numeric", "null", "clashes-with-default", "keyed-from-1",
            "zero-padded-key", "empty-list", "false"])
    def test_names_must_be_distinct_strings(self, roles, message):
        d = {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]], "roles": roles}
        with pytest.raises(InvalidParameterError, match=message):
            graph_from_dict(d)


class TestCertificateShareJson:
    def test_certificate_fields(self):
        g, _, _ = family_coloring("shadow", 2)
        cert = racn_exact(g)
        d = certificate_to_dict(g, cert)
        assert d["value"] == 3
        assert d["exhaustive"] is True
        assert set(d["witness"]) == set(g.names)

    def test_share_round_trip(self):
        shares = split(b"\x00\x10\xfe", SecretConfig(2, 3, seed=4))
        for s in shares:
            d = share_to_dict(s)
            assert bytes.fromhex(d["payload_hex"]) == s.payload
            assert share_from_dict(d) == s


class TestTraceJson:
    def test_reconstruction_trace(self):
        g, lab, _ = family_coloring("shadow", 4)
        inst = distribute(g, lab, b"\xab\xcd")
        trace = simulate_reconstruction(inst)
        d = reconstruction_trace_to_dict(g, trace)
        assert d["phases"][0]["path"] == ["x1", "x2", "y3", "y2", "x3", "x4"]
        assert d["phases"][0]["weights"] == [5, 7, 9, 11, 13]
        assert d["recovered_hex"] == "abcd"
        assert d["collected_after"][-1] == [5, 7, 9, 11, 13]

    def test_dissemination_trace(self):
        g = fixture_graph()
        trace = simulate_dissemination(g, {4})
        d = dissemination_trace_to_dict(g, trace)
        assert d["total_rounds"] == 3
        assert d["informed_start"] == ["5"]
        assert d["rounds"][0]["kind"] == "cycles"
        assert "circuits" in d["rounds"][0] and "paths" not in d["rounds"][0]
        assert d["rounds"][2]["kind"] == "fallback"
        assert d["rounds"][2]["paths"] == [["8", "12", "1"]]
        assert d["rounds"][2]["newly_informed"] == ["1", "12"]


class TestFiles:
    def test_fixture_alias(self):
        assert load_graph("fig1") == fixture_graph()
        assert load_graph("fig1_inferred.json") == fixture_graph()

    def test_fixture_shape(self):
        g = fixture_graph()
        assert g.n == 12
        assert len(g.edges) == 15
        assert g.names == tuple(str(i) for i in range(1, 13))
        assert g.family is None

    def test_load_from_path(self, tmp_path):
        g, _, _ = family_coloring("shadow", 2)
        path = tmp_path / "g.json"
        path.write_text(to_json(graph_to_dict(g)))
        assert load_graph(path) == g

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_graph(tmp_path / "nope.json")


class TestJsonDeterminism:
    def test_byte_identical_output(self):
        g, lab, _ = family_coloring("mycielski", 2)
        inst = distribute(g, lab, b"fixed", seed=3)
        trace = simulate_reconstruction(inst)
        a = to_json(reconstruction_trace_to_dict(g, trace))
        b = to_json(
            reconstruction_trace_to_dict(g, simulate_reconstruction(inst))
        )
        assert a == b

    def test_keys_sorted(self):
        text = to_json({"zeta": 1, "alpha": 2})
        assert text.index('"alpha"') < text.index('"zeta"')


class TestDot:
    def test_plain_graph(self):
        g, _, _ = family_coloring("shadow", 2)
        dot = export_dot(g)
        assert dot.startswith("graph G {")
        assert 'v0 [label="x1"]' in dot
        assert "v0 -- v1;" in dot
        assert "color=" not in dot

    def test_colored_by_class(self):
        g, _, w = family_coloring("shadow", 2)
        dot = export_dot(g, w)
        # three classes -> exactly three distinct colors
        colors = {
            part.split('"')[1]
            for line in dot.splitlines()
            for part in [line[line.find("color=") :]]
            if line.strip().startswith("v") and "color=" in line
        }
        assert len(colors) == 3
        assert 'label="3"' in dot

    def test_palette_cycles_past_twelve_classes(self):
        g, _, w = family_coloring("mycielski", 7)  # 14 classes
        dot = export_dot(g, w)
        assert len(w.classes) == 14
        colors = [
            line.split('color="')[1].split('"')[0]
            for line in dot.splitlines()
            if 'color="' in line
        ]
        assert len(set(colors)) == 12  # 14 classes share 12 palette slots
