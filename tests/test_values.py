"""Every value type is immutable, however it was built: no slot can be
assigned or deleted.

Arithmetic builds its results through private factories that fill the
slots with plain stores and then retype the object to the public class.
Each case below pairs a value from the public constructor with an equal
one returned by arithmetic, so both construction paths are covered.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import twistedops
from twistedops import jordan
from twistedops.jordan import JElem
from twistedops.moyal import PolyZX, WOp, dequantize, symmetrize
from twistedops.ring import (
    LAMBDA,
    LambdaPoly,
    LocFn,
    ONE,
    RingContext,
    Scalar,
    SuperFn,
    ZERO,
    ZPoly,
)
from twistedops.weyl import DiffOp, PolyOpPlus


def _cases():
    J = jordan.make_full(2)
    ctx, n = J.ring, J.n
    z0 = ZPoly.coord(n, 0)
    num = ZPoly(n, {(1, 0, 0, 0, 0): Scalar(2)})
    b0, b1 = J.basis_element(0), J.basis_element(1)
    one_fn = SuperFn.one(ctx)
    return {
        "Scalar": (Scalar(Fraction(3, 4)), Scalar(3) * Scalar(Fraction(1, 4))),
        "Scalar-sum": (Scalar(1, -1), Scalar(Fraction(1, 2), Fraction(-1, 3)) + Scalar(Fraction(1, 2), Fraction(-2, 3))),
        "ZPoly": (num, z0 + z0),
        "LambdaPoly": (LambdaPoly((ZERO, Scalar(2))), LAMBDA + LAMBDA),
        "PolyZX": (PolyZX({(1, 0): Scalar(2)}), PolyZX.zeta() + PolyZX.zeta()),
        "PolyZX-dequantized": (PolyZX({(1, 1): ONE}), dequantize(symmetrize(PolyZX({(1, 1): ONE})))),
        "WOp": (WOp({(1, 1): ONE}), WOp.w() * WOp.d()),
        "LocFn": (LocFn(ctx, num, 1), LocFn(ctx, z0, 1) + LocFn(ctx, z0, 1)),
        "SuperFn": (SuperFn(ctx, LocFn.from_zpoly(ctx, num), LocFn.zero(ctx)),
                    SuperFn.from_zpoly(ctx, z0) + SuperFn.from_zpoly(ctx, z0)),
        "DiffOp": (DiffOp(J, {(1, 0, 0, 0): one_fn}), DiffOp.partial(J, 0).compose(DiffOp.identity(J))),
        "PolyOpPlus": (PolyOpPlus(J, {(1, 0, 0, 0): ZPoly.one(n)}),
                       PolyOpPlus.partial(J, 0) + PolyOpPlus.zero(J)),
        "JElem": (b1, J.product(J.unit_elem(), b1)),
        "JElem-zpoly": (JElem(ZPoly.coord(n, i) for i in range(n)), J.product(J.unit_elem(), J.generic_elem())),
        "JElem-triple": (b0, J.triple(b0, J.unit_elem(), J.unit_elem())),
        # no arithmetic returns a context: the second is the one an algebra builds
        "RingContext": (RingContext(n, J.normF, J.r), ctx),
    }


CASES = _cases()


def _slot_names(v) -> set:
    return {name for cls in type(v).__mro__ for name in getattr(cls, "__slots__", ())}


@pytest.mark.parametrize("name", list(CASES))
def test_values_are_immutable_and_equal_to_their_public_twin(name):
    public, built = CASES[name]
    cls = type(public)
    assert cls.__name__ == name.split("-")[0]
    assert type(built) is cls
    assert built == public and public == built
    assert hash(built) == hash(public)
    if cls is not RingContext:  # a context prints as an object, not as a value
        assert str(built) == str(public) and repr(built) == repr(public)
    for v in (public, built):
        for attr in _slot_names(v) | {"extra"}:
            with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
                setattr(v, attr, None)
            with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
                delattr(v, attr)
    assert built == public  # nothing above changed either value
    assert all(str(v) for v in (public, built))  # and both still print


def test_one_guard_and_no_weak_store_in_the_package():
    # every value type inherits ring.Frozen, and per-algebra memos live on
    # their algebra, so no module copies the guard or keeps a weak-key store
    setters, weak = [], []
    for path in sorted(Path(twistedops.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                names = [f.name for f in node.body if isinstance(f, ast.FunctionDef)]
                names += [t.id for a in node.body if isinstance(a, ast.Assign) for t in a.targets
                          if isinstance(t, ast.Name)]
                if "__setattr__" in names:
                    setters.append(f"{path.stem}.{node.name}")
            modules = ([a.name for a in node.names] if isinstance(node, ast.Import)
                       else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            weak += [f"{path.stem}: {m}" for m in modules if m.split(".")[0] == "weakref"]
    assert setters == ["ring.Frozen"]
    assert weak == []
