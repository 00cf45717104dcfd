"""Parsing and printing of the line-oriented instance format."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_mixed_instance, table, unary
from scsp import (INF, BinaryTable, Instance, IntervalFunction, SoftConstraint,
                  UnaryTable, abs_diff, as_evaluation, format_instance,
                  parse_instance)
from scsp.errors import ParameterError, ParseError


class TestParse:
    def test_chain_fixture(self, chain_text):
        inst = parse_instance(chain_text)
        assert inst.variables == ("x", "y", "z")
        assert inst.domain_size == 4
        scopes = [c.scope for c in inst.constraints]
        assert scopes == [("y", "x"), ("y", "z"), ("z", "y"), ("z", "z")]
        f = inst.constraints[0].function
        assert (f.x_min, f.y_max, f.penalty) == (3, 4, as_evaluation(3))
        assert inst.constraints[3].function.penalty == INF

    def test_tables_and_comments(self):
        text = """\
# leading comment
scsp 1
domain 2          # trailing comment
var a
var b
unary a 1/2 inf
binary a b 0 1 / 1 0
"""
        inst = parse_instance(text)
        assert inst.constraints[0].function == unary(["1/2", None])
        assert inst.constraints[1].function == table([[0, 1], [1, 0]])

    def test_variable_order_is_preserved(self):
        text = "scsp 1\ndomain 1\nvar c\nvar a\nvar b\n"
        assert parse_instance(text).variables == ("c", "a", "b")


class TestParseErrors:
    def check(self, text, lineno, fragment):
        with pytest.raises(ParseError) as info:
            parse_instance(text)
        assert info.value.line == lineno
        assert str(info.value).startswith(f"line {lineno}:")
        assert fragment in str(info.value)

    def test_missing_header(self):
        self.check("domain 3\n", 1, "header")
        self.check("# only comments\n", 1, "missing header")

    def test_duplicate_header(self):
        self.check("scsp 1\nscsp 1\n", 2, "duplicate header")

    def test_unknown_directive(self):
        self.check("scsp 1\ndomain 2\nternary a b c\n", 3, "unknown directive")

    def test_domain_validation(self):
        self.check("scsp 1\ndomain 0\n", 2, "positive integer")
        self.check("scsp 1\ndomain 2\ndomain 3\n", 3, "duplicate domain")
        self.check("scsp 1\nvar a\nunary a 1\n", 3, "domain must be declared")
        self.check("scsp 1\nvar a\n", 2, "missing domain")

    def test_variable_validation(self):
        self.check("scsp 1\ndomain 2\nvar a\nvar a\n", 4, "duplicate variable")
        self.check("scsp 1\ndomain 2\nunary q 1 2\n", 3, "undeclared")
        self.check("scsp 1\ndomain 2\nvar a\nbinary a q 0 0 / 0 0\n", 4,
                   "undeclared")

    def test_table_shape(self):
        self.check("scsp 1\ndomain 3\nvar a\nunary a 1 2\n", 4,
                   "3 evaluations")
        self.check("scsp 1\ndomain 2\nvar a\nbinary a a 0 1 / 1\n", 4,
                   "2 rows")
        self.check("scsp 1\ndomain 2\nvar a\nbinary a a 0 1 1 0\n", 4,
                   "separated by '/'")
        self.check("scsp 1\ndomain 2\nvar a\nbinary a\n", 4,
                   "binary takes two variables and a table")

    def test_gi_validation(self):
        head = "scsp 1\ndomain 4\nvar x\nvar y\n"
        self.check(head + "gi y x 5 4 3\n", 5, "outside 1..4")
        self.check(head + "gi y x 0 4 3\n", 5, "outside 1..4")
        self.check(head + "gi y x one 4 3\n", 5, "bad interval bound")
        self.check(head + "gi y x 1 4\n", 5, "gi takes")

    def test_numbers_take_ascii_digits_only(self):
        # str.isdigit and \\d accept these; int() rejects some of them
        head = "scsp 1\ndomain 4\nvar x\nvar y\n"
        self.check("scsp 1\ndomain \u00b2\n", 2, "positive integer")
        self.check("scsp 1\ndomain \u0664\n", 2, "positive integer")
        self.check(head + "gi x y \u00b2 1 1\n", 5, "bad interval bound")
        self.check(head + "gi x y 1 \u0661 1\n", 5, "bad interval bound")
        self.check(head + "unary x \u0661 0 0 0\n", 5, "bad evaluation")
        self.check(head + "unary x 1/\u0662 0 0 0\n", 5, "bad evaluation")
        self.check(head + "gi x y 1 1 \u00b2\n", 5, "bad evaluation")

    def test_numbers_beyond_int_conversion(self):
        digits = "1" * 5000
        head = "scsp 1\ndomain 4\nvar x\nvar y\n"
        self.check(f"scsp 1\ndomain {digits}\n", 2, "positive integer")
        self.check(head + f"gi x y {digits} 1 1\n", 5, "bad interval bound")
        self.check(head + f"unary x {digits} 0 0 0\n", 5, "too many digits")
        self.check(head + f"unary x 1/{digits} 0 0 0\n", 5, "too many digits")

    def test_evaluation_tokens(self):
        head = "scsp 1\ndomain 2\nvar a\n"
        self.check(head + "unary a 1.5 0\n", 4, "bad evaluation")
        self.check(head + "unary a -1 0\n", 4, "bad evaluation")
        self.check(head + "unary a 1/0 0\n", 4, "zero denominator")
        self.check(head + "unary a nonsense 0\n", 4, "bad evaluation")

    def test_repeated_bad_token_fails_at_its_first_line(self):
        head = "scsp 1\ndomain 2\nvar a\nvar b\nunary a 1/2 0\n"
        for token, fragment in (("1/0", "zero denominator"),
                                ("1.5", "bad evaluation")):
            self.check(head + f"unary a 1/2 {token}\n"
                       f"binary a b 0 {token} / 0 0\n", 6, fragment)
            self.check(head + f"binary a b 0 1 / 0 0\ngi a b 1 2 {token}\n"
                       f"unary a {token} 0\n", 7, fragment)


class TestRepeatedTokens:
    def test_spellings_of_one_value(self):
        inst = parse_instance("scsp 1\ndomain 4\nvar a\n"
                              "unary a 01 1 2/4 1/2\n")
        values = inst.constraints[0].function.values
        assert values == (as_evaluation(1),) * 2 + (as_evaluation("1/2"),) * 2

    def test_copies_of_a_token_share_one_value(self):
        inst = parse_instance("scsp 1\ndomain 2\nvar a\nvar b\n"
                              "unary a 3/4 2\nbinary a b 3/4 0 / 2 0\n")
        (u1, u2), ((b11, _), (b21, _)) = (
            inst.constraints[0].function.values,
            inst.constraints[1].function.rows)
        assert u1 is b11 and u2 is b21

    def test_round_trip_with_many_repeated_tokens(self):
        names = tuple(f"v{i}" for i in range(30))
        grid = abs_diff(5)
        inst = Instance(names, 5, tuple(
            [SoftConstraint((v,), unary([0, "1/3", 2, "1/3", None]))
             for v in names]
            + [SoftConstraint(pair, grid) for pair in zip(names, names[1:])]
            + [SoftConstraint((v, v), grid) for v in names[::7]]
            + [SoftConstraint(pair, IntervalFunction(2, 4, "1/3"))
               for pair in zip(names[::2], names[1::2])]))
        text = format_instance(inst)
        assert parse_instance(text) == inst
        assert format_instance(parse_instance(text)) == text


class TestRepeatedTables:
    def test_identical_lines_share_one_table(self, data_dir):
        inst = parse_instance((data_dir / "quadratic.scsp").read_text())
        tables = [c.function for c in inst.constraints]
        binaries = [t for t in tables if isinstance(t, BinaryTable)]
        assert len(binaries) == 3
        assert all(t is binaries[0] for t in binaries)
        # same body, spaced differently: still one table
        inst = parse_instance("scsp 1\ndomain 2\nvar a\nvar b\n"
                              "unary a 1 inf\nunary b  1   inf\n"
                              "binary a b 0 1 / 1 0\nbinary b a 0 1 / 1 0\n")
        f = [c.function for c in inst.constraints]
        assert f[0] is f[1] and f[2] is f[3]
        assert f[0] == unary([1, None]) and f[2] == table([[0, 1], [1, 0]])

    def test_directive_is_part_of_the_key(self):
        # at domain 1 a unary and a binary line can have the same body
        inst = parse_instance("scsp 1\ndomain 1\nvar x\nvar y\n"
                              "unary x 5\nbinary x y 5\nunary y 5\n"
                              "binary y x 5\n")
        kinds = [type(c.function) for c in inst.constraints]
        assert kinds == [UnaryTable, BinaryTable, UnaryTable, BinaryTable]
        assert parse_instance(format_instance(inst)) == inst

    def test_bad_table_fails_at_its_own_line(self):
        head = "scsp 1\ndomain 2\nvar a\nvar b\n"
        repeated = "unary a 1 2\nbinary a b 0 1 / 1 0\n" * 2
        for line, fragment in (("unary b 1 1.5", "bad evaluation"),
                               ("binary b a 0 1 / 1 1/0", "zero denominator"),
                               ("binary b a 0 1 / 1", "2 rows")):
            with pytest.raises(ParseError) as info:
                parse_instance(head + repeated + line + "\n" + repeated)
            assert info.value.line == 9 and fragment in str(info.value)


class TestRoundTrip:
    def test_fixtures(self, data_dir):
        for path in sorted(data_dir.glob("*.scsp")):
            inst = parse_instance(path.read_text())
            assert parse_instance(format_instance(inst)) == inst

    def test_random_instances(self):
        rng = random.Random(91)
        for _ in range(80):
            inst = random_mixed_instance(rng)
            text = format_instance(inst)
            assert parse_instance(text) == inst
            # canonical text is a fixpoint of the round trip
            assert format_instance(parse_instance(text)) == text

    def test_formats_every_constraint_kind(self):
        inst = Instance(("a", "b"), 2, (
            SoftConstraint(("a",), unary([1, None])),
            SoftConstraint(("a", "b"), table([["1/2", 0], [3, "7/2"]])),
            SoftConstraint(("b", "a"), IntervalFunction(1, 2, INF)),
        ))
        text = format_instance(inst)
        assert "unary a 1 inf" in text
        assert "binary a b 1/2 0 / 3 7/2" in text
        assert "gi b a 1 2 inf" in text
        assert parse_instance(text) == inst

    @pytest.mark.parametrize("name", ["a b", "x\ty", "x#1", "#", 7, ("x", 1)])
    def test_refuses_names_that_cannot_round_trip(self, name):
        # "a b" reads back as two tokens, "x#1" as "x", 7 as "7"
        inst = Instance(("ok", name), 2, (
            SoftConstraint(("ok", name), IntervalFunction(1, 2, 3)),))
        with pytest.raises(ParameterError) as info:
            format_instance(inst)
        assert repr(name) in str(info.value)


# Texts whose lines join a head (a directive, with its names) and tokens
# from the format's own vocabulary plus tokens near its edges: a zero
# denominator, a superscript digit, a leading zero, a decimal point and a
# number too long for a machine word.  The prefixes declare a domain and
# variables, so that many lines reach the evaluation and bound parsers.
_PREFIXES = ("", "scsp 1\n", "scsp 1\ndomain 2\nvar a\nvar b\n")
_HEADS = ("", "scsp 1", "domain", "var a", "unary a", "binary a b",
          "gi a b")
_TOKENS = ("a", "b", "/", "#", "inf", "1/0", "\u00b2", "01", "1.5", "0",
           "1", "2", "1" + "0" * 29)


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from(_PREFIXES),
       st.lists(st.tuples(st.sampled_from(_HEADS),
                          st.lists(st.sampled_from(_TOKENS), max_size=6)),
                max_size=4))
def test_fuzzed_text_parses_or_raises_parse_error(prefix, lines):
    text = prefix + "".join(" ".join((head, *tokens)) + "\n"
                            for head, tokens in lines)
    try:
        inst = parse_instance(text)
    except ParseError:
        return
    assert isinstance(inst, Instance)
    assert parse_instance(format_instance(inst)) == inst
