"""Definable integer index sequences and their asymptotic classification.

Hypernodes are named by node terms whose integer parameters are sequences
from this module.  Everything downstream (equality of hypernodes, galaxy
verdicts, hyperordinal comparison) reduces to classifying the eventual
behaviour of derived integer sequences, so alongside the evaluatable
sequences there is a small symbolic form (SymInt) closed under the
arithmetic the distance formulas need: add, subtract, negate, absolute
value, nonnegative scaling.  Its four variants are an exact affine form
(`Aff`), a band around a rational line (`Band`, the form of floor
quotients), a parity split (`ParityS`) and a class-only evaluator
(`Opaque`).

Symbolic semantics are cofinite: a SymInt describes the sequence for all but
finitely many n (never before its `start`).  Finite perturbations of a
sequence therefore leave its symbolic form, and hence every verdict, intact.

`classify` gives each SymInt one eventual-behaviour class, `Cls`: a range,
divergence to either side, unknown, or a parity split of two of these.
Every verdict reads that class per parity branch (`Cls.branches`): the
exact value, the magnitude bound (galaxies), the sign (order) or upward
divergence (closeness gaps).  `per_parity` owns the matching rule for
symbolic forms: split the `ParityS` arguments, work on each branch, fail
when a branch fails, rejoin.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

from .kernel import TruthSet
from .ordinal import HyperOrder

VALIDATION_HORIZON = 512


class SequenceDeclarationError(ValueError):
    """An Explicit sequence contradicts its declared class on the sampled prefix."""


# ====== Declared classes for opaque generators ======

@dataclass(frozen=True)
class BoundedDecl:
    bound: int

    def __post_init__(self) -> None:
        if self.bound < 0:
            raise ValueError("bound must be a natural")


@dataclass(frozen=True)
class MonotoneUnboundedDecl:
    pass


SeqDecl = BoundedDecl | MonotoneUnboundedDecl


# ====== Index sequences ======

class IndexSequence:
    """A definable map n -> integer, total on the naturals."""

    def value(self, n: int) -> int:
        raise NotImplementedError

    def to_sym(self) -> "SymInt":
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(IndexSequence):
    c: int

    def value(self, n: int) -> int:
        return self.c

    def to_sym(self) -> "SymInt":
        return Aff(0, self.c)

    def describe(self) -> str:
        return f"const({self.c})"


@dataclass(frozen=True)
class Affine(IndexSequence):
    a: int
    b: int

    def value(self, n: int) -> int:
        return self.a * n + self.b

    def to_sym(self) -> "SymInt":
        return Aff(self.a, self.b)

    def describe(self) -> str:
        return f"affine({self.a},{self.b})"


@dataclass(frozen=True)
class Parity(IndexSequence):
    """even branch at even n, odd branch at odd n; branches see the full index."""

    even: IndexSequence
    odd: IndexSequence

    def value(self, n: int) -> int:
        return self.even.value(n) if n % 2 == 0 else self.odd.value(n)

    def to_sym(self) -> "SymInt":
        return parity_sym(self.even.to_sym(), self.odd.to_sym())

    def describe(self) -> str:
        return f"parity({self.even.describe()},{self.odd.describe()})"


@dataclass(frozen=True)
class Patched(IndexSequence):
    """A tail sequence with finitely many overridden entries."""

    tail: IndexSequence
    overrides: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        seen = set()
        for n, _ in self.overrides:
            if n < 0 or n in seen:
                raise ValueError("override indices must be distinct naturals")
            seen.add(n)

    def value(self, n: int) -> int:
        for idx, v in self.overrides:
            if idx == n:
                return v
        return self.tail.value(n)

    def to_sym(self) -> "SymInt":
        sym = self.tail.to_sym()
        if self.overrides:
            sym = bump_start(sym, 1 + max(n for n, _ in self.overrides))
        return sym

    def describe(self) -> str:
        pairs = ",".join(f"{n}:{v}" for n, v in sorted(self.overrides))
        return f"patched({{{pairs}}},{self.tail.describe()})"


@dataclass(frozen=True)
class Explicit(IndexSequence):
    """Opaque generator with an optional declared asymptotic class.

    The declaration is validated on the sampled prefix at construction of any
    hypernode using the sequence; beyond that it is trusted.  With no
    declaration the sequence evaluates fine but classifies as indeterminate.
    """

    fn: Callable[[int], int]
    declared: SeqDecl | None = None
    label: str = "explicit"

    def value(self, n: int) -> int:
        return self.fn(n)

    def to_sym(self) -> "SymInt":
        if isinstance(self.declared, BoundedDecl):
            k = self.declared.bound
            return Opaque(self.fn, lo=-k, hi=k)
        if isinstance(self.declared, MonotoneUnboundedDecl):
            return Opaque(self.fn, to_pinf=True)
        return Opaque(self.fn)

    def describe(self) -> str:
        return self.label


@dataclass(frozen=True)
class Floor(IndexSequence):
    """a * floor((n + c) / q) + b, for a divisor q >= 1.

    Its band (see `Band`): with r = (n + c) mod q, which lies in [0, q - 1],
        floor((n + c) / q) = (n + c - r) / q,  so
        v(n) = (a/q)*n + (a*c/q + b) - (a/q)*r.
    The ends r = 0 and r = q - 1 give the offsets a*c/q + b and
    a*(c - q + 1)/q + b, the smaller one below.  This holds at every integer
    n, also where n + c < 0, since r is the nonnegative remainder.

    A label, when given, is the description; equality ignores it.
    """

    a: int
    b: int
    q: int
    c: int = 0
    label: str | None = dataclasses.field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.q < 1:
            raise ValueError("floor divisor must be positive")

    def value(self, n: int) -> int:
        return self.a * ((n + self.c) // self.q) + self.b

    def to_sym(self) -> "SymInt":
        if self.q == 1 or self.a == 0:
            return Aff(self.a, self.a * self.c + self.b)  # affine: no Fractions
        top = Fraction(self.a * self.c, self.q) + self.b
        bottom = top - Fraction(self.a * (self.q - 1), self.q)
        return band(Fraction(self.a, self.q), min(top, bottom), max(top, bottom),
                    self.value)

    def describe(self) -> str:
        return self.label or f"floor({self.a},{self.b},{self.q},{self.c})"


def perturb_sequence(seq: IndexSequence, overrides: Mapping[int, int]) -> IndexSequence:
    """Finitely many entry replacements; verdicts must not notice."""
    if not overrides:
        return seq
    if isinstance(seq, Patched):
        merged = dict(seq.overrides)
        merged.update(overrides)
        return Patched(seq.tail, tuple(sorted(merged.items())))
    return Patched(seq, tuple(sorted(overrides.items())))


def validate_declaration(seq: IndexSequence, horizon: int = VALIDATION_HORIZON) -> None:
    """Abort early when an Explicit declaration lies about the sampled prefix."""
    if isinstance(seq, Explicit) and seq.declared is not None:
        values = [seq.value(n) for n in range(horizon + 1)]
        if isinstance(seq.declared, BoundedDecl):
            k = seq.declared.bound
            for n, v in enumerate(values):
                if abs(v) > k:
                    raise SequenceDeclarationError(
                        f"{seq.describe()}: |value({n})| = {abs(v)} exceeds declared bound {k}")
        else:
            for n in range(1, len(values)):
                if values[n] < values[n - 1]:
                    raise SequenceDeclarationError(
                        f"{seq.describe()}: value decreases at n={n} despite monotone declaration")
    elif isinstance(seq, Parity):
        validate_declaration(seq.even, horizon)
        validate_declaration(seq.odd, horizon)
    elif isinstance(seq, Patched):
        validate_declaration(seq.tail, horizon)


# ====== Symbolic integer sequences ======

@dataclass(frozen=True)
class Aff:
    """a*n + b for all but finitely many n (none before start)."""

    a: int
    b: int
    start: int = 0


@dataclass(frozen=True)
class ParityS:
    even: "SymInt"
    odd: "SymInt"


@dataclass(frozen=True)
class Opaque:
    """Evaluatable but only class-certified: eventual range and/or divergence."""

    fn: Callable[[int], int] | None = None
    lo: int | None = None
    hi: int | None = None
    to_pinf: bool = False
    to_ninf: bool = False
    start: int = 0


@dataclass(frozen=True)
class Band:
    """slope*n + lo <= v(n) <= slope*n + hi at every n from start on.

    slope, lo and hi are Fractions and fn evaluates v; `band` builds them.
    Each rule holds pointwise at every n past the inputs' starts:
    - add: the two pairs of bounds add, so slopes and offsets add;
    - neg: -v lies between -slope*n - hi and -slope*n - lo;
    - scale by k >= 0: k*v lies between k*slope*n + k*lo and k*slope*n + k*hi;
    - classify: for slope > 0 the lower bound, hence v, passes every level
      (slope < 0 from above likewise); for slope 0 the integer v lies in
      [ceil lo, floor hi], a single value only when the two ends are equal;
    - abs, slope > 0: from the first n with slope*n + lo > -1 on, the
      integer v is >= 0, so |v| = v keeps the band (slope < 0: negate first);
    - zero set, slope > 0: from the first n with slope*n + lo > 0 on, v > 0.
    """

    slope: Fraction
    lo: Fraction
    hi: Fraction
    fn: Callable[[int], int] | None = None
    start: int = 0


SymInt = Aff | ParityS | Opaque | Band


def band(slope: Fraction, lo: Fraction, hi: Fraction,
         fn: Callable[[int], int] | None, start: int = 0) -> SymInt:
    """The band, with integer ends when flat; an exact one is an `Aff`."""
    if slope == 0:
        # the integer values lie in [ceil lo, floor hi]
        lo, hi = Fraction(math.ceil(lo)), Fraction(math.floor(hi))
    if lo == hi and lo.denominator == 1 and slope.denominator == 1:
        return Aff(int(slope), int(lo), start)
    return Band(slope, lo, hi, fn, start)


def _as_band(x: "Aff | Band") -> Band:
    if isinstance(x, Band):
        return x
    return Band(Fraction(x.a), Fraction(x.b), Fraction(x.b), _fn_of(x), x.start)


def _clears(x: Band, level: int) -> int:
    """First index from x's start on past which a rising band stays above level."""
    return max(x.start, math.floor((level - x.lo) / x.slope) + 1)


def sym_value(sym: SymInt, n: int) -> int:
    if isinstance(sym, Aff):
        return sym.a * n + sym.b
    if isinstance(sym, ParityS):
        return sym_value(sym.even if n % 2 == 0 else sym.odd, n)
    if sym.fn is None:
        raise ValueError("symbolic sequence has no evaluator")
    return sym.fn(n)


def sym_start(sym: SymInt) -> int:
    if isinstance(sym, ParityS):
        return max(sym_start(sym.even), sym_start(sym.odd))
    return sym.start


def bump_start(sym: SymInt, start: int) -> SymInt:
    if isinstance(sym, ParityS):
        return ParityS(bump_start(sym.even, start), bump_start(sym.odd, start))
    if start <= sym.start:
        return sym
    return dataclasses.replace(sym, start=start)


def parity_sym(even: SymInt, odd: SymInt) -> SymInt:
    # a branch is read on its own parity only, so a nested split flattens
    even, odd = _branch(even, "even"), _branch(odd, "odd")
    if even == odd:
        return even
    return ParityS(even, odd)


def _branch(sym: SymInt, side: str) -> SymInt:
    # eventual certificates on all n restrict soundly to either parity
    if isinstance(sym, ParityS):
        return sym.even if side == "even" else sym.odd
    return sym


def per_parity(fn: Callable, *args, join: Callable = parity_sym):
    """fn(*args), taken on each parity branch when an argument is a ParityS.

    Other arguments reach both branches unchanged.  The two results are
    rejoined by `join`; when either branch gives None, so does the whole.
    """
    if not any([isinstance(a, ParityS) for a in args]):
        return fn(*args)
    even = fn(*[_branch(a, "even") for a in args])
    odd = fn(*[_branch(a, "odd") for a in args])
    if even is None or odd is None:
        return None
    return join(even, odd)


# ====== Eventual-behaviour classification ======

@dataclass(frozen=True)
class Cls:
    """Eventual behaviour: a range, divergence, a parity split, or unknown."""

    kind: str                       # "range" | "pinf" | "ninf" | "split" | "unknown"
    lo: int | None = None
    hi: int | None = None
    exact: bool = False             # range with lo == hi holding exactly (eventually constant)
    even: "Cls | None" = None
    odd: "Cls | None" = None

    @property
    def branches(self) -> tuple["Cls", "Cls"]:
        """The classes on even and on odd indices."""
        if self.kind == "split":
            return self.even, self.odd
        return self, self

    @property
    def value(self) -> int | None:
        """The eventual constant, or None when the class certifies none."""
        return self.lo if self.exact else None

    @property
    def magnitude(self) -> tuple[int, bool] | None:
        """(bound, tight): |v_n| <= bound on both branches, and tight when
        |v_n| equals it there; None unless both branches are ranges."""
        even, odd = self.branches
        if even.kind != "range" or odd.kind != "range":
            return None
        be, bo = max(abs(even.lo), abs(even.hi)), max(abs(odd.lo), abs(odd.hi))
        return max(be, bo), even.exact and odd.exact and be == bo

    @property
    def diverges(self) -> bool:
        """|v_n| exceeds every bound on both branches."""
        even, odd = self.branches
        return even.kind in ("pinf", "ninf") and odd.kind in ("pinf", "ninf")

    @property
    def sign(self) -> HyperOrder | None:
        """Eventual sign of one branch; None when the class cannot tell."""
        if self.kind == "pinf":
            return HyperOrder.GREATER
        if self.kind == "ninf":
            return HyperOrder.LESS
        if self.kind != "range":
            return None
        if self.lo > 0:
            return HyperOrder.GREATER
        if self.hi < 0:
            return HyperOrder.LESS
        return HyperOrder.EQUAL if self.exact else None


UNKNOWN = Cls("unknown")
PINF = Cls("pinf")
NINF = Cls("ninf")


def _range(lo: int, hi: int, exact: bool = False) -> Cls:
    return Cls("range", lo, hi, exact)


def classify(sym: SymInt) -> Cls:
    if isinstance(sym, Aff):
        if sym.a > 0:
            return PINF
        if sym.a < 0:
            return NINF
        return _range(sym.b, sym.b, exact=True)
    if isinstance(sym, ParityS):
        # a branch is read on its own parity only, so a nested split flattens
        e, o = classify(sym.even).branches[0], classify(sym.odd).branches[1]
        if e == o:
            return e
        return Cls("split", even=e, odd=o)
    if isinstance(sym, Band):
        if sym.slope:
            return PINF if sym.slope > 0 else NINF
        return _range(int(sym.lo), int(sym.hi))  # flat ends are unequal integers
    if sym.to_pinf:
        return PINF
    if sym.to_ninf:
        return NINF
    if sym.lo is not None and sym.hi is not None:
        return _range(sym.lo, sym.hi)
    return UNKNOWN


def _cls_add(x: Cls, y: Cls) -> Cls:
    if x.kind == "unknown" or y.kind == "unknown":
        return UNKNOWN
    if x.kind == "pinf":
        return PINF if y.kind in ("pinf", "range") else UNKNOWN
    if x.kind == "ninf":
        return NINF if y.kind in ("ninf", "range") else UNKNOWN
    if y.kind in ("pinf", "ninf"):
        return _cls_add(y, x)
    return _range(x.lo + y.lo, x.hi + y.hi, x.exact and y.exact)


def _from_cls(c: Cls, fn: Callable[[int], int] | None, start: int) -> SymInt:
    if c.value is not None:
        return Aff(0, c.value, start)
    if c.kind == "range":
        return Opaque(fn, lo=c.lo, hi=c.hi, start=start)
    if c.kind == "pinf":
        return Opaque(fn, to_pinf=True, start=start)
    if c.kind == "ninf":
        return Opaque(fn, to_ninf=True, start=start)
    return Opaque(fn, start=start)


# ====== Symbolic arithmetic ======

def sym_neg(x: SymInt) -> SymInt:
    if isinstance(x, Aff):
        return Aff(-x.a, -x.b, x.start)
    if isinstance(x, ParityS):
        return per_parity(sym_neg, x)
    fn = None if _fn_of(x) is None else (lambda n, f=_fn_of(x): -f(n))
    if isinstance(x, Band):
        return band(-x.slope, -x.hi, -x.lo, fn, x.start)
    c = classify(x)
    if c.kind == "range":
        return _from_cls(_range(-c.hi, -c.lo, c.exact), fn, sym_start(x))
    return _from_cls({"pinf": NINF, "ninf": PINF}.get(c.kind, c), fn, sym_start(x))


def _fn_of(x: SymInt) -> Callable[[int], int] | None:
    if isinstance(x, Aff):
        return lambda n: x.a * n + x.b
    return x.fn


def sym_add(x: SymInt, y: SymInt) -> SymInt:
    if isinstance(x, Aff) and isinstance(y, Aff):
        return Aff(x.a + y.a, x.b + y.b, max(x.start, y.start))
    if isinstance(x, ParityS) or isinstance(y, ParityS):
        return per_parity(sym_add, x, y)
    start = max(sym_start(x), sym_start(y))
    f, g = _fn_of(x), _fn_of(y)
    fn = None if f is None or g is None else (lambda n: f(n) + g(n))
    if isinstance(x, (Aff, Band)) and isinstance(y, (Aff, Band)):
        bx, by = _as_band(x), _as_band(y)
        return band(bx.slope + by.slope, bx.lo + by.lo, bx.hi + by.hi, fn, start)
    return _from_cls(_cls_add(classify(x), classify(y)), fn, start)


def sym_sub(x: SymInt, y: SymInt) -> SymInt:
    return sym_add(x, sym_neg(y))


def sym_abs(x: SymInt) -> SymInt:
    if isinstance(x, Aff):
        if x.a > 0:
            # sign settles once a*n + b >= 0
            settle = 0 if x.b >= 0 else (-x.b + x.a - 1) // x.a
            return Aff(x.a, x.b, max(x.start, settle))
        if x.a < 0:
            return sym_abs(sym_neg(x))
        return Aff(0, abs(x.b), x.start)
    if isinstance(x, ParityS):
        return per_parity(sym_abs, x)
    if isinstance(x, Band) and x.slope < 0:
        return sym_abs(sym_neg(x))
    c = classify(x)
    fn = None if _fn_of(x) is None else (lambda n, f=_fn_of(x): abs(f(n)))
    if isinstance(x, Band) and x.slope:
        return dataclasses.replace(x, fn=fn, start=_clears(x, -1))
    if c.kind in ("pinf", "ninf"):
        return _from_cls(PINF, fn, sym_start(x))
    if c.kind == "range":
        if c.lo >= 0:
            return _from_cls(c, fn, sym_start(x))
        if c.hi <= 0:
            return _from_cls(_range(-c.hi, -c.lo, c.exact), fn, sym_start(x))
        return _from_cls(_range(0, max(-c.lo, c.hi)), fn, sym_start(x))
    return Opaque(fn, start=sym_start(x))


def sym_scale(k: int, x: SymInt) -> SymInt:
    if k < 0:
        raise ValueError("scale factor must be a natural")
    if isinstance(x, Aff):
        return Aff(k * x.a, k * x.b, x.start)
    if isinstance(x, ParityS):
        return per_parity(sym_scale, k, x)
    if k == 0:
        return Aff(0, 0, sym_start(x))
    fn = None if _fn_of(x) is None else (lambda n, f=_fn_of(x): k * f(n))
    if isinstance(x, Band):
        return band(k * x.slope, k * x.lo, k * x.hi, fn, x.start)
    c = classify(x)
    if c.kind == "range":
        return _from_cls(_range(k * c.lo, k * c.hi, c.exact), fn, sym_start(x))
    return _from_cls(c, fn, sym_start(x))


def sym_widen(x: SymInt, lo: int, hi: int, fn: Callable[[int], int]) -> SymInt:
    """A sequence, evaluated by fn, between x + lo and x + hi at every index.

    On one parity branch: a band or an affine form widens its offsets and
    keeps its slope; any other form keeps only its class, widened.
    """
    if isinstance(x, (Aff, Band)):
        b = _as_band(x)
        return band(b.slope, b.lo + lo, b.hi + hi, fn, b.start)
    return _from_cls(_cls_add(classify(x), _range(lo, hi)), fn, sym_start(x))


# ====== Truth sets from symbolic deltas ======

def eq_truthset(delta: SymInt) -> TruthSet | None:
    """Classification of {n : delta(n) == 0}, or None when unclassifiable.

    Thresholds are settle points: the claimed pattern holds at every n past
    them, so an affine delta contributes its root, not just its start.
    """
    if isinstance(delta, ParityS):
        return per_parity(eq_truthset, delta, join=_parity_truthset)
    if isinstance(delta, Aff):
        if delta.a == 0:
            return TruthSet("cofinite" if delta.b == 0 else "finite", delta.start)
        root_hit = (-delta.b) % delta.a == 0
        root = (-delta.b) // delta.a if root_hit else None
        if root is not None and root >= delta.start:
            return TruthSet("finite", root + 1)
        return TruthSet("finite", delta.start)
    if isinstance(delta, Band) and delta.slope:
        return TruthSet("finite", _clears(delta if delta.slope > 0 else sym_neg(delta), 0))
    c = classify(delta)
    if c.kind == "range" and not c.exact and (c.lo > 0 or c.hi < 0):
        return TruthSet("finite", sym_start(delta))  # brackets hold pointwise
    return None


def _parity_truthset(even: TruthSet, odd: TruthSet) -> TruthSet:
    t = max(even.threshold, odd.threshold)
    if even.kind == odd.kind:
        return TruthSet(even.kind, t)
    return TruthSet("split", t, even_true=(even.kind == "cofinite"))


def eq_const_truthset(sym: SymInt, value: int) -> TruthSet | None:
    """Classification of {n : sym(n) == value}, or None when unclassifiable."""
    return eq_truthset(sym_sub(sym, Aff(0, value)))


def zone_by_magnitude(delta: SymInt, images: tuple[int, int, int]) -> SymInt | None:
    """Map |delta| through (value at 0, value at 1, value at >= 2).

    Returns None when the classification cannot separate the zones; callers
    fall back to a bounded opaque form instead of guessing.
    """
    return per_parity(_zone_from, sym_abs(delta), images)


def _zone_from(mag: SymInt, images: tuple[int, int, int]) -> SymInt | None:
    c = classify(mag)
    start = sym_start(mag)
    if c.kind == "pinf":
        if isinstance(mag, (Aff, Band)):
            # settle where the magnitude has provably reached 2
            return Aff(0, images[2], _clears(_as_band(mag), 1))
        return None  # divergence without a computable settle point
    if c.value is not None:
        return Aff(0, images[min(c.value, 2)], start)
    if c.kind == "range" and c.lo >= 2:
        return Aff(0, images[2], start)  # brackets hold pointwise
    return None
