import json

from isoclips.cli import run


def out_of(capsys):
    captured = capsys.readouterr()
    return captured.out, captured.err


class TestClips:
    def test_text_output(self, capsys):
        assert run(["clips", "D2", "O(2)", "--ctx", "so3"]) == 0
        out, _ = out_of(capsys)
        assert out == "1, Z2, D2\n"

    def test_json_round_trip(self, capsys):
        assert run(["clips", "D2", "O(2)", "--ctx", "so3", "--json"]) == 0
        out, _ = out_of(capsys)
        data = json.loads(out)
        assert data["context"] == "so3"
        assert ", ".join(data["classes"]) == "1, Z2, D2"

    def test_auto_promotion_note(self, capsys):
        assert run(["clips", "Z4^-", "Z4^-"]) == 0
        out, err = out_of(capsys)
        assert out == "1, Z4^-\n"
        assert "promoting context to o3" in err

    def test_parse_error_exit_2(self, capsys):
        assert run(["clips", "Z4^", "D2"]) == 2

    def test_type_ii_exit_3(self, capsys):
        assert run(["clips", "[D2 x Zc2]", "D2", "--ctx", "o3"]) == 3

    def test_context_violation(self, capsys):
        assert run(["clips", "Z4^-", "D2", "--ctx", "so3"]) == 1


class TestIsotropy:
    def test_piezo_json(self, capsys):
        assert run(["isotropy", "H3 + H2* + 2*H1", "--ctx", "o3", "--json"]) == 0
        out, _ = out_of(capsys)
        data = json.loads(out)
        assert len(data["classes"]) == 16
        assert "O(3)" in data["classes"]

    def test_json_matches_text(self, capsys):
        run(["isotropy", "H4 + 2*H2 + 2*H0", "--ctx", "so3"])
        text, _ = out_of(capsys)
        run(["isotropy", "H4 + 2*H2 + 2*H0", "--ctx", "so3", "--json"])
        js, _ = out_of(capsys)
        assert ", ".join(json.loads(js)["classes"]) + "\n" == text

    def test_mixed_exit_3(self, capsys):
        assert run(["isotropy", "H2 + H3", "--ctx", "o3"]) == 3

    def test_expression_error_exit_2(self, capsys):
        assert run(["isotropy", "H4 + "]) == 2

    def test_deterministic(self, capsys):
        run(["isotropy", "H5 + 2*H4* + 5*H3 + 5*H2* + 6*H1 + H0*", "--ctx", "o3"])
        first, _ = out_of(capsys)
        run(["isotropy", "H5 + 2*H4* + 5*H3 + 5*H2* + 6*H1 + H0*", "--ctx", "o3"])
        second, _ = out_of(capsys)
        assert first == second


class TestIrrep:
    def test_so3(self, capsys):
        assert run(["irrep", "2", "--ctx", "so3"]) == 0
        out, _ = out_of(capsys)
        assert out == "D2, O(2), SO(3)\n"

    def test_o3_star(self, capsys):
        assert run(["irrep", "2", "--star", "--ctx", "o3"]) == 0
        out, _ = out_of(capsys)
        assert out == "D2, O(2), D4^h, O(3)\n"

    def test_o3_plus_id_lift(self, capsys):
        assert run(["irrep", "2", "--ctx", "o3"]) == 0
        out, _ = out_of(capsys)
        assert out == "[D2 x Zc2], [O(2) x Zc2], O(3)\n"


class TestDecompose:
    def test_text(self, capsys):
        assert run(["decompose", "S2(S2(H1))"]) == 0
        out, _ = out_of(capsys)
        assert out == "H4 + 2*H2 + 2*H0\n"

    def test_json(self, capsys):
        assert run(["decompose", "H1 (x) H1", "--json"]) == 0
        out, _ = out_of(capsys)
        data = json.loads(out)
        assert data["dimension"] == 9
        assert data["terms"] == [
            {"degree": 2, "star": False, "multiplicity": 1},
            {"degree": 1, "star": True, "multiplicity": 1},
            {"degree": 0, "star": False, "multiplicity": 1},
        ]

    def test_square_of_large_multiplicity(self, capsys):
        assert run(["decompose", "S2(1200*H1)"]) == 0
        out, _ = out_of(capsys)
        assert out == "720600*H2 + 719400*H1* + 720600*H0\n"

    def test_deep_nesting_exit_2(self, capsys):
        assert run(["decompose", "(" * 1200 + "H1" + ")" * 1200]) == 2


class TestPoset:
    def test_edges_text(self, capsys):
        assert run(["poset", "H2", "--ctx", "so3"]) == 0
        out, _ = out_of(capsys)
        assert out.splitlines() == ["D2 -> O(2)", "O(2) -> SO(3)"]

    def test_dot_output(self, tmp_path, capsys):
        path = tmp_path / "ela.dot"
        assert run(["poset", "H4 + 2*H2 + 2*H0", "--dot", str(path)]) == 0
        text = path.read_text()
        assert text.startswith("digraph {")
        assert text.rstrip().endswith("}")
        assert text.count("->") == 10
        assert '"1" -> "Z2";' in text

    def test_dot_singleton_keeps_node(self, tmp_path, capsys):
        path = tmp_path / "h0.dot"
        run(["poset", "H0", "--dot", str(path)])
        assert '"SO(3)";' in path.read_text()

    def test_json_edges_match_hasse(self, capsys):
        from isoclips import Context, RepSpec, hasse, isotropy_classes, parse_rep, render_class

        run(["poset", "H4 + 2*H2 + 2*H0", "--json"])
        out, _ = out_of(capsys)
        data = json.loads(out)
        result = isotropy_classes(RepSpec(Context.SO3, parse_rep("H4 + 2*H2 + 2*H0")))
        expected = [
            [render_class(a), render_class(b)]
            for a, b in hasse(result, Context.SO3)
        ]
        assert data["edges"] == expected


class TestVerify:
    def test_pass(self, capsys):
        assert run(["verify", "Z6", "Z4", "--samples", "200", "--seed", "7"]) == 0
        out, _ = out_of(capsys)
        assert "observed: 1, Z2" in out
        assert "verdict: pass" in out

    def test_json(self, capsys):
        assert run(["verify", "T", "T", "--samples", "150", "--seed", "3", "--json"]) == 0
        out, _ = out_of(capsys)
        data = json.loads(out)
        assert data["verdict"] == "pass"
        assert data["observed"] == ["1", "Z2", "Z3", "T"]

    def test_fail_exit_4(self, capsys, monkeypatch):
        import isoclips.oracle as oracle_mod
        from isoclips import ClassSet, TRIV, cyclic
        from isoclips.oracle.verify import VerificationReport

        def fake(a, b, samples=200, seed=0):
            return VerificationReport(
                pair=(a, b),
                table=ClassSet([TRIV, cyclic(2)]),
                observed=ClassSet([TRIV]),
                witnesses={},
                samples=samples,
                seed=seed,
                extra=ClassSet(),
                missing=ClassSet([cyclic(2)]),
            )

        monkeypatch.setattr(oracle_mod, "verify_clips", fake)
        assert run(["verify", "Z6", "Z4"]) == 4

    def test_infinite_class_errors(self, capsys):
        assert run(["verify", "SO(2)", "Z4"]) == 1
