import pytest

from isoclips import (
    HarmonicLabel,
    HarmonicSum,
    ParseError,
    parse_class,
    parse_rep,
    render_class,
)
from isoclips.parsing import MAX_NESTING


class TestClassNames:
    def test_strictly_canonical(self):
        for bad in ("Z1", "D1", "Z3^-", "D2^h", "D1^v", "Z0", "z2", "D2 ^h", "SO(3) "):
            if bad == "SO(3) ":
                # Surrounding whitespace is tolerated.
                assert parse_class(bad) is not None
                continue
            with pytest.raises(ParseError):
                parse_class(bad)

    def test_nested_type_ii(self):
        assert render_class(parse_class("[Z6 x Zc2]")) == "[Z6 x Zc2]"

    @pytest.mark.parametrize("bad", [
        "[Z2^- x Zc2]",        # wraps a type III class
        "[D6^h x Zc2]",
        "[O(3) x Zc2]",        # wraps a type II class
        "[[1 x Zc2] x Zc2]",
        "[SO(3) x Zc2]",       # renders as O(3)
        "[Z1 x Zc2]",          # degenerate inner parameter
        "[Z2 x Zc2] ",
    ])
    def test_type_ii_outside_the_grammar(self, bad):
        if bad != bad.strip():
            # Surrounding whitespace is tolerated here too.
            assert str(parse_class(bad)) == bad.strip()
            return
        with pytest.raises(ParseError):
            parse_class(bad)

    def test_deep_type_ii_wrap(self):
        # A wrap is unwrapped once, so nesting never recurses.
        with pytest.raises(ParseError):
            parse_class("[" * 3000 + "1" + " x Zc2]" * 3000)

    def test_type_ii_canonical_names(self):
        for text in ("[1 x Zc2]", "[D2 x Zc2]", "[SO(2) x Zc2]", "[I x Zc2]", "O(3)"):
            assert str(parse_class(text)) == text

    def test_unknown(self):
        with pytest.raises(ParseError):
            parse_class("Q8")


class TestHarmonicExpressions:
    def test_elasticity_spec(self):
        assert parse_rep("H4 + 2*H2 + 2*H0") == HarmonicSum(
            {HarmonicLabel(4): 1, HarmonicLabel(2): 2, HarmonicLabel(0): 2}
        )

    def test_piezo_spec(self):
        assert parse_rep("H3 + H2* + 2*H1") == HarmonicSum(
            {HarmonicLabel(3): 1, HarmonicLabel(2, True): 1, HarmonicLabel(1): 2}
        )

    def test_scaling_equals_repetition(self):
        assert parse_rep("2*H2") == parse_rep("H2 + H2")
        assert parse_rep("3*H1*") == parse_rep("H1* + H1* + H1*")

    def test_whitespace_insensitive(self):
        assert parse_rep(" H4+2*H2 +2* H0 ") == parse_rep("H4 + 2*H2 + 2*H0")

    def test_functions(self):
        assert parse_rep("S2(S2(H1))") == parse_rep("H4 + 2*H2 + 2*H0")
        assert parse_rep("L2(H1)") == HarmonicSum({HarmonicLabel(1, True): 1})
        assert parse_rep("S2(H1)") == parse_rep("H2 + H0")

    def test_tensor_operator(self):
        assert parse_rep("H1 (x) H1") == parse_rep("H2 + H1* + H0")
        # (x) binds tighter than +.
        assert parse_rep("H0 + H1 (x) H1") == parse_rep("H0 + (H1 (x) H1)")

    def test_parenthesized_scaling(self):
        assert parse_rep("2*(H2 + H0)") == parse_rep("2*H2 + 2*H0")

    def test_syntax_errors_carry_offsets(self):
        with pytest.raises(ParseError) as err:
            parse_rep("H4 + ")
        assert err.value.offset == 5
        with pytest.raises(ParseError) as err:
            parse_rep("H4 & H2")
        assert err.value.offset == 3
        with pytest.raises(ParseError) as err:
            parse_rep("-2*H2")
        assert err.value.offset == 0
        with pytest.raises(ParseError):
            parse_rep("2 H2")
        with pytest.raises(ParseError):
            parse_rep("S2(H1")

    def test_nesting_limit(self):
        depth = MAX_NESTING
        assert parse_rep("(" * depth + "H1" + ")" * depth) == parse_rep("H1")
        with pytest.raises(ParseError) as err:
            parse_rep("(" * 1200 + "H1" + ")" * 1200)
        assert err.value.offset == depth
        with pytest.raises(ParseError) as err:
            parse_rep("S2(" * 400 + "H0" + ")" * 400)
        assert err.value.offset == 3 * depth

    def test_rendered_sum_reparses(self):
        s = parse_rep("H5 + 2*H4* + 5*H3 + 5*H2* + 6*H1 + H0*")
        assert parse_rep(str(s)) == s
