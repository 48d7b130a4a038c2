"""The text parser ``ring.parse_terms`` on long input and against the
earlier scanner-and-stage-loop parser, kept below verbatim as a reference
(module-level ``parse_terms`` here is that reference)."""

import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from twistedops import ring
from twistedops.ring import (
    _POSINT,
    LambdaPoly,
    LocFn,
    ParseError,
    RingContext,
    SuperFn,
    ZPoly,
    _bounded,
    _exponent,
    parse_lambda,
    parse_scalar,
)
from twistedops.weyl import diffop_str, parse_diffop


# ---------------------------------------------------------------------------
# Reference: the scanners and the four-stage loop that ``_TERM`` replaced
# ---------------------------------------------------------------------------

def _split_terms(text: str) -> list[str]:
    """Split a sum on ' + ' at paren depth zero; every term must be non-empty."""
    parts, depth, start = [], 0, 0
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and text.startswith(" + ", i):
            parts.append(text[start:i])
            i += 3
            start = i
            continue
        i += 1
    parts.append(text[start:])
    parts = [p.strip() for p in parts]
    if not all(parts):
        raise ParseError(f"empty term in {text!r}")
    return parts


def _group_end(text: str) -> int:
    """Index just past the parenthesised group that opens ``text``."""
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                return i + 1
    raise ParseError(f"unclosed group in {text!r}")


def _lead_groups(token: str) -> tuple[LambdaPoly, str]:
    """Parse the leading coefficient groups ``(scalar)`` and ``(Lpoly)``."""
    if not token.startswith("("):
        raise ParseError(f"term must open with a coefficient group: {token!r}")
    end = _group_end(token)
    scalar = parse_scalar(token[1:end - 1])
    rest = token[end:]
    coeff = LambdaPoly.const(scalar)
    if rest.startswith("("):
        end = _group_end(rest)
        coeff = parse_lambda(rest[1:end - 1]).scale(scalar)
        rest = rest[end:]
    return coeff, rest.strip()


# one factor after the coefficient groups, with the operator before it
_FACTOR = re.compile(
    rf"\s*(?P<op>[*/])\s*(?:(?P<var>[zd])(?P<index>{_POSINT})(?:\^(?P<exp>{_POSINT}))?"
    rf"|(?P<w>w)|(?P<F>F)(?:\^(?P<k>{_POSINT}))?)"
)


def parse_term(term: str, n: int) -> tuple[LambdaPoly, tuple, bool, int, tuple]:
    """Parse one textual term.

    The grammar, with optional whitespace around ``*`` and ``/``::

        term   := groups {"*" z-factor} ["*" "w"] ["/" "F" ["^" k]] {"*" d-factor}
        groups := "(" scalar ")" ["(" Lpoly ")"]
        factor := ("z" | "d") index ["^" k]

    Indices, exponents and k are positive decimal integers below
    EXPONENT_LIMIT; so must be each exponent summed over repeated
    factors and the total degree of the z-factors and the coefficient's
    power of L, else ParseError.

    Returns (coefficient, z-monomial, odd?, denominator power, d-monomial).
    """
    coeff, rest = _lead_groups(term.strip())
    zmono = [0] * n
    dmono = [0] * n
    odd = False
    k = 0
    stage = 0  # 0: z-factors, 1: after w, 2: after the F-power, 3: d-factors
    pos = 0
    while pos < len(rest):
        m = _FACTOR.match(rest, pos)
        if m is None:
            raise ParseError(f"unexpected text {rest[pos:]!r} in term {term!r}")
        pos = m.end()
        if m["op"] == "/":
            if not m["F"] or stage >= 2:
                raise ParseError(f"misplaced denominator in term {term!r}")
            k, stage = _exponent(m["k"] or "1", term), 2
        elif m["w"]:
            if stage >= 1:
                raise ParseError(f"misplaced w in term {term!r}")
            odd, stage = True, 1
        elif m["var"]:
            idx = _exponent(m["index"], term) - 1
            if idx >= n:
                raise ParseError(f"index out of range in {m['var']}{m['index']}")
            if m["var"] == "z":
                if stage > 0:
                    raise ParseError(f"misplaced z-factor in term {term!r}")
                mono = zmono
            else:
                mono, stage = dmono, 3
            mono[idx] = _bounded(mono[idx] + _exponent(m["exp"] or "1", term), term)
        else:
            raise ParseError(f"F may only appear as a denominator in term {term!r}")
    _bounded(sum(zmono) + max(coeff.degree, 0), term)
    return coeff, tuple(zmono), odd, k, tuple(dmono)


def parse_terms(text: str, ctx: RingContext):
    """Each term of ``text`` as (coefficient, derivative multi-index); ``0`` has none."""
    text = text.strip()
    if text == "0":
        return
    for term in _split_terms(text):
        coeff, zmono, odd, k, dmono = parse_term(term, ctx.n)
        frac = LocFn(ctx, ZPoly.monomial(ctx.n, zmono, coeff), k)
        yield (SuperFn.from_locfn(LocFn.zero(ctx), frac) if odd else SuperFn.from_locfn(frac)), dmono



# ---------------------------------------------------------------------------
# Both parsers accept the same strings and read the same values
# ---------------------------------------------------------------------------

_WS = ["", " ", "  ", "\t", "\n", "\x0b", "\x1c", "\u00a0", "\u2003"]
_SEPARATORS = [" + ", "  + ", " +  ", "\t + \t", "\n + ", " + \n", " + \x1c", "\u2003 + \u00a0", " \u00a0 + "]
_BAD_SEPARATORS = ["+", " +", "+ ", "\t+ ", " +\t", " +\n", " \x0b+ ", "\u00a0+ ", " +\u00a0", " +  + "]
_GROUPS = [
    "(1)", "(-2/3)", "(1+1i)", "(0)", "( 1 )", "((1))", "(2)(L)", "(1)(1 + -2*L + L^2)",
    "(1)((1+1i)*L)", "(1)(1 + (2)*L)", "(1)(1 + 2)", "(1)(L^32767)", "(1)(\u2003L\t)",
]
_BAD_GROUPS = [
    "((1)", "(()", "(1))", "(((1)))", "1", "0", "(1)((L))", "(1) (L)", "(1)(1+1i*L)", "(1)(L^)",
    "(1)(L^32768)", "(1)(1 + (1)(2)*L)", "(1)((1 + 2)*L)", "(1)(((2))*L)",
]
# the second lists hold the spellings that fail, and the largest exponents
_Z, _BAD_Z = ["z1", "z2^2", "z4", "z3^12"], ["z1^32767", "z1^32768", "z5", "z01", "z1^0"]
_D, _BAD_D = ["d1", "d3^2", "d4"], ["d2^32767", "d2^32768", "d5", "d1^0"]
_F, _BAD_F = ["F", "F^2"], ["F^32767", "F^32768", "F^0"]
_OPS = ["*", " * ", "/", " / ", " ", "", "\t*", "*\u2003", "\x1c/ ", "\n*\n"]


def _mostly(good, bad):
    """A spelling from ``good`` or, less often, from ``bad``."""
    return st.sampled_from(good * 4 + bad)


_group = _mostly(_GROUPS, _BAD_GROUPS)
_separator = _mostly(_SEPARATORS, _BAD_SEPARATORS)
_z, _d, _f = _mostly(_Z, _BAD_Z), _mostly(_D, _BAD_D), _mostly(_F, _BAD_F)
_factor = _mostly(_Z + _D + _F + ["w"], _BAD_Z + _BAD_D + _BAD_F + ["z", "z1^-1", "d1^", "L", "x", ""])


@st.composite
def _ordered_terms(draw):
    """A term in grammar order: groups, z-factors, [w], [/ F^k], d-factors;
    now and then an operator is wrong or w comes twice."""
    def op(sign):
        return draw(st.sampled_from(_WS)) + draw(_mostly([sign] * 5, ["*", "/", ""])) + draw(st.sampled_from(_WS))

    term = draw(_group) + "".join(op("*") + f for f in draw(st.lists(_z, max_size=3)))
    term += "".join(op("*") + "w" for _ in range(draw(st.sampled_from([0, 1] * 3 + [2]))))
    if draw(st.booleans()):
        term += op("/") + draw(_f)
    return term + "".join(op("*") + f for f in draw(st.lists(_d, max_size=3)))


# a coefficient group and then factors in any order, with any operator
_free_terms = st.tuples(
    _group, st.lists(st.tuples(st.sampled_from(_OPS), _factor), max_size=4),
).map(lambda t: t[0] + "".join(op + f for op, f in t[1]))

_terms = st.one_of(_ordered_terms(), _ordered_terms(), _free_terms)

_sums = st.tuples(
    st.sampled_from(_WS),
    _terms,
    st.lists(st.tuples(_separator, _terms), max_size=2),
    st.sampled_from(["", "", "", "", " + (1)", " + ", " +", "+"]),
    st.sampled_from(_WS),
).map(lambda t: t[0] + t[1] + "".join(sep + term for sep, term in t[2]) + t[3] + t[4])


@st.composite
def _edited(draw, texts):
    """A text of ``texts`` with one or two characters deleted, inserted or replaced."""
    text = draw(texts)
    for _ in range(draw(st.integers(1, 2))):
        i, c = draw(st.integers(0, len(text))), draw(st.sampled_from("()+*/^ zdwFL0129i\t\u00a0"))
        text = draw(st.sampled_from([text[:i] + text[i + 1:], text[:i] + c + text[i:], text[:i] + c + text[i + 1:]]))
    return text


_texts = st.one_of(_sums, _edited(_sums), st.text(alphabet="()0123456789-+*/^ zdwFLi\t\n\u00a0", max_size=30))


def _outcome(parse, text, ctx):
    """The terms ``parse`` reads from ``text``, or None on ParseError."""
    try:
        return list(parse(text, ctx))
    except ParseError:
        return None


@given(text=_texts)
@settings(max_examples=1000, deadline=None)
def test_term_pattern_matches_the_stage_loop(full2, text):
    ctx = full2.ring
    want = _outcome(parse_terms, text, ctx)
    got = _outcome(ring.parse_terms, text, ctx)
    if want is None:
        assert got is None, text
        return
    assert got == want, text
    assert [(str(f), d) for f, d in got] == [(str(f), d) for f, d in want]


def test_both_parsers_on_the_listed_spellings(full2):
    ctx = full2.ring
    accepted = [
        "(1) + (2)", "(1)  + (2)", "(1) +  (2)", "(1)\t + \n(2)", "(1)\u2003 + \u00a0(2)", "0", " 0 ",
        "(1)((1+1i)*L)*z1", "(1)(1 + (2)*L) * w", "(1)*z1^32767", "(1) / F^32767 * d1^32767",
        "(1)*z2 * w / F * d1",
    ]
    rejected = [
        "(1)+(2)", "(1) +(2)", "(1)+ (2)", "(1) + ", "", "(1)*z1^32768", "(1)(L)*z1^32767",
        "(1) / F^32768", "(1)w", "(1) w", "(1)*w*w", "(1) * F", "(1)/z1", "(1) / d1", "(1) / w",
        "(1)*d1*z1", "(1)*d1 * w", "(1) / F / F", "(1) / F*z1", "(1) / F * w",
    ]
    for text in accepted + rejected:
        want = _outcome(parse_terms, text, ctx)
        assert _outcome(ring.parse_terms, text, ctx) == want, text
        assert (want is None) == (text in rejected), text


# ---------------------------------------------------------------------------
# Long input: a time bound that a backtracking pattern would break
# ---------------------------------------------------------------------------

def test_a_long_sum_parses_and_round_trips(full2):
    text = " + ".join(
        f"({i + 1})*z1^{i % 7 + 1}*z2^{i // 7 % 50 + 1} * d{i % 4 + 1}^{i % 3 + 1}*d{(i + 1) % 4 + 1}"
        for i in range(5000)
    )
    start = time.perf_counter()
    op = parse_diffop(text, full2)
    again = parse_diffop(diffop_str(op), full2)
    assert time.perf_counter() - start < 10
    assert again == op
    assert diffop_str(again) == diffop_str(op)


def test_a_long_malformed_term_fails_fast(full2):
    start = time.perf_counter()
    with pytest.raises(ParseError, match=re.escape("'*x'")):
        parse_diffop("(1)" + "*z1" * 30000 + "*x", full2)
    assert time.perf_counter() - start < 10


# ---------------------------------------------------------------------------
# Sums: the terms of each derivative index are summed once
# ---------------------------------------------------------------------------

def _parse_diffop_by_addition(text, alg):
    """Reference: each term added to the whole running sum, in order."""
    from twistedops.weyl import DiffOp

    out = DiffOp.zero(alg)
    for fn, dmono in ring.parse_terms(text, alg.ring):
        out = out + DiffOp(alg, {dmono: fn})
    return out


def _parse_superfn_by_addition(text, ctx):
    total = SuperFn.zero(ctx)
    for fn, dmono in ring.parse_terms(text, ctx):
        if any(dmono):
            raise ParseError("derivative factors are not allowed in a function")
        total = total + fn
    return total


def _fractions(fn):
    """The stored fractions of both parts: numerator and power of F, unreduced."""
    return [(part._num, part._k) for part in (fn.ev, fn.od)]


def _summed(parse, text, arg):
    """The value, its text and its stored fractions, or the error raised."""
    try:
        value = parse(text, arg)
    except ring.RingError as exc:
        return type(exc), str(exc)
    if isinstance(value, SuperFn):
        return value, str(value), _fractions(value)
    return value, diffop_str(value), {d: _fractions(c) for d, c in value.terms.items()}


# terms that repeat, cancel, change the power of F and now and then carry a
# d-factor, a malformed factor or an exponent whose lift by F overflows
_sum_term = st.tuples(
    st.sampled_from(["(1)", "(-1)", "(2)", "(-1/2)", "(1/2)", "(1)(L)", "(-1)(L)", "(1+1i)", "(0)"]),
    st.sampled_from(["", "*z1", "*z1", "*z2^2", "*z1*z4", "*z3^3"] * 3 + ["*z1^32766", "*z4^32767"]),
    st.sampled_from(["", "", " * w"]),
    st.sampled_from(["", "", " / F", " / F^2", " / F^3"]),
    st.sampled_from(["", "", "", " * d1", " * d2^2", " * d1*d3"] * 3 + ["*x"]),
).map("".join)
_long_sums = st.lists(_sum_term, min_size=1, max_size=14).map(" + ".join)


@given(text=_long_sums)
@settings(max_examples=400, deadline=None)
def test_sums_per_index_match_adding_each_term(full2, text):
    # same value, text and stored fraction as adding term by term, and the
    # same first error: ParseError, or DegreeError where a lift overflows
    assert _summed(parse_diffop, text, full2) == _summed(_parse_diffop_by_addition, text, full2), text
    ctx = full2.ring
    assert _summed(ring.parse_superfn, text, ctx) == _summed(_parse_superfn_by_addition, text, ctx), text


def test_a_lift_that_overflows_raises_as_adding_each_term_does(full2):
    # z1^32766 F has degree 32768: a z1^32766 cancelled before the / F term
    # arrives is never lifted, one still in the running sum is, in either order
    ctx = full2.ring
    quiet = "(1)*z1^32766 + (-1)*z1^32766 + (1) / F"
    assert ring.parse_superfn(quiet, ctx) == _parse_superfn_by_addition(quiet, ctx) != SuperFn.zero(ctx)
    for loud in ("(1)*z1^32766 + (1) / F", "(1) / F + (1)*z1^32766 + (-1)*z1^32766"):
        for parse in (ring.parse_superfn, _parse_superfn_by_addition):
            with pytest.raises(ring.DegreeError):
                parse(loud, ctx)


def _count_additions(monkeypatch):
    from twistedops.weyl import DiffOp

    calls = []
    for cls in (DiffOp, SuperFn):
        original = cls.__add__
        monkeypatch.setattr(cls, "__add__", lambda a, b, original=original: calls.append(a) or original(a, b))
    return calls


def test_a_long_sum_over_one_index_adds_once_per_index(monkeypatch, full2):
    # 20,000 terms over one d-monomial, even and odd, a few of them
    # repeated: at most one operator or SuperFn addition per index
    text = " + ".join(
        f"({i % 5 + 1})*z1^{i % 100 + 1}*z2^{i // 100 % 190 + 1}" + (" * w" if i % 3 else "") + " * d2"
        for i in range(20000)
    )
    calls = _count_additions(monkeypatch)
    start = time.perf_counter()
    op = parse_diffop(text, full2)
    assert len(calls) <= 1
    again = parse_diffop(diffop_str(op), full2)
    assert time.perf_counter() - start < 10
    assert len(calls) <= 2 and set(op.terms) == {(0, 1, 0, 0)}
    assert again == op and diffop_str(again) == diffop_str(op)
    function = text.replace(" * d2", "")
    calls.clear()
    fn = ring.parse_superfn(function, full2.ring)
    assert len(calls) <= 1 and fn == op.terms[(0, 1, 0, 0)]
