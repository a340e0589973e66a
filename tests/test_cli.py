import gc
import json
import os
import subprocess
import sys

import pytest

import isoclips
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

    def test_type_ii_name_outside_the_grammar_exit_2(self, capsys):
        # [Z2^- x Zc2] wraps a type III class: a parse error, not a bad input.
        assert run(["clips", "[Z2^- x Zc2]", "Z2", "--ctx", "o3"]) == 2
        _, err = out_of(capsys)
        assert "parse error" in err

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

    def test_dot_computes_hasse_once(self, tmp_path, capsys, monkeypatch):
        import isoclips.cli as cli

        real_hasse = cli.hasse
        calls = []

        def counting_hasse(*args):
            calls.append(args)
            return real_hasse(*args)

        monkeypatch.setattr(cli, "hasse", counting_hasse)
        path = tmp_path / "ela.dot"
        assert run(["poset", "H4 + 2*H2 + 2*H0", "--dot", str(path)]) == 0
        out, _ = out_of(capsys)
        assert len(calls) == 1
        edges = [line.replace('"', "").rstrip(";").strip()
                 for line in path.read_text().splitlines() if "->" in line]
        assert edges == out.splitlines()

    def test_dot_singleton_keeps_node(self, tmp_path, capsys):
        path = tmp_path / "h0.dot"
        run(["poset", "H0", "--dot", str(path)])
        assert '"SO(3)";' in path.read_text()

    @pytest.mark.parametrize("rep,ctx,full", [
        ("H0", "so3", "SO(3)"), ("0*H1", "so3", "SO(3)"), ("L2(H0)", "so3", "SO(3)"),
        ("H0", "o3", "O(3)"),
    ])
    def test_one_class_result_prints_its_class(self, capsys, rep, ctx, full):
        assert run(["poset", rep, "--ctx", ctx]) == 0
        out, _ = out_of(capsys)
        assert out == full + "\n"

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


class TestOneAnswerPath:
    """``irrep`` and ``poset`` answer as ``isotropy`` does on the same sum."""

    @pytest.mark.parametrize("ctx", [[], ["--ctx", "so3"], ["--ctx", "o3"]],
                             ids=["auto", "so3", "o3"])
    @pytest.mark.parametrize("star", [False, True], ids=["plain", "star"])
    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_irrep_is_isotropy_of_its_label(self, capsys, ctx, star, as_json):
        flags = ctx + (["--json"] if as_json else [])
        for n in range(9):
            assert run(["irrep", str(n)] + (["--star"] if star else []) + flags) == 0
            irrep = out_of(capsys)
            assert run(["isotropy", f"H{n}" + ("*" if star else "")] + flags) == 0
            assert out_of(capsys) == irrep

    @pytest.mark.parametrize("rep", ["H4 + 2*H2 + 2*H0", "H3 + H2* + 2*H1", "H0", "H1*"])
    def test_poset_json_extends_isotropy_json(self, capsys, rep):
        run(["isotropy", rep, "--json"])
        isotropy, iso_err = out_of(capsys)
        run(["poset", rep, "--json"])
        poset, poset_err = out_of(capsys)
        data = json.loads(poset)
        assert poset_err == iso_err
        assert list(data) == ["context", "classes", "edges"]
        assert {k: data[k] for k in ("context", "classes")} == json.loads(isotropy)


@pytest.mark.parametrize("argv", [
    ["clips", "D2", "O(2)"], ["isotropy", "H2"], ["poset", "H1"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("target", ["missing/x.dot", "."], ids=["no-dir", "a-dir"])
def test_unwritable_dot_exit_1(argv, target, tmp_path, capsys):
    assert run(argv + ["--dot", str(tmp_path / target)]) == 1
    out, err = out_of(capsys)
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


class TestVerify:
    def test_pass(self, capsys):
        assert run(["verify", "Z6", "Z4", "--samples", "200", "--seed", "7"]) == 0
        out, _ = out_of(capsys)
        assert "observed: 1, Z2" in out
        assert "verdict: pass" in out

    @pytest.mark.parametrize("a,b", [("D61", "D61"), ("Z121", "Z121")])
    def test_large_order_pass(self, capsys, a, b):
        # Intersections of order over 120 are classified like any other.
        assert run(["verify", a, b, "--samples", "0"]) == 0
        out, _ = out_of(capsys)
        assert "verdict: pass" in out

    @pytest.mark.parametrize("a,b,observed", [("Z6", "Z4", "1, Z2"), ("Z200", "Z4", "1, Z4")])
    def test_sampling_free_pass(self, capsys, a, b, observed):
        # No random frames: the curated and generic frames reach the table.
        assert run(["verify", a, b, "--samples", "0"]) == 0
        out, _ = out_of(capsys)
        assert f"observed: {observed}\n" in out
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

    def test_refused_allocation_exit_1(self, capsys, monkeypatch):
        import isoclips.oracle.verify as verify_mod

        asked = []

        def refuse(count, rng):
            asked.append(count)
            raise MemoryError("Unable to allocate 2.91 TiB")

        monkeypatch.setattr(verify_mod, "random_rotations", refuse)
        assert run(["verify", "Z2", "Z2", "--samples", "99999999999"]) == 1
        out, err = out_of(capsys)
        assert asked == [99999999999]
        assert out == ""
        assert err == "error: out of memory (Unable to allocate 2.91 TiB)\n"

    @pytest.mark.parametrize("option,value", [
        ("--samples", "-1"), ("--seed", "-3"), ("--samples", "abc"), ("--seed", "1.5"),
    ])
    def test_negative_option_is_usage_error(self, capsys, option, value):
        with pytest.raises(SystemExit) as exc:
            run(["verify", "Z6", "Z4", option, value])
        assert exc.value.code == 2
        _, err = out_of(capsys)
        assert "non-negative integer" in err and "Traceback" not in err


def test_cli_import_loads_neither_numpy_nor_oracle():
    # Every command but ``verify`` must start without paying numpy's import,
    # and the core package without ``dataclasses`` (which imports
    # ``inspect``) or ``json``.  ``-S`` keeps ``.pth`` files from preloading
    # modules.
    src = os.path.dirname(os.path.dirname(isoclips.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    unwanted = ("numpy", "isoclips.oracle", "dataclasses", "inspect", "json")
    probe = (
        "import sys, isoclips.cli; "
        f"print(sorted(m for m in {unwanted!r} if m in sys.modules))"
    )
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_oracle_import_loads_no_dataclasses():
    # ``verify`` pays for numpy, which does not import ``dataclasses``; the
    # oracle's own records are NamedTuples, so it does not either.
    import numpy

    paths = [os.path.dirname(os.path.dirname(m.__file__)) for m in (isoclips, numpy)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [*paths, env.get("PYTHONPATH")]))
    probe = "import sys, isoclips.oracle; print('dataclasses' in sys.modules)"
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_run_does_not_freeze_the_collector(capsys):
    # Only ``main``, whose process exits after the command, freezes the
    # import-time objects; ``run`` is also called in process.
    before = gc.get_freeze_count()
    assert run(["isotropy", "H2"]) == 0
    assert run(["clips", "D2", "O(2)", "--json"]) == 0
    assert gc.get_freeze_count() == before
