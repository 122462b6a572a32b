"""Scalar reverse-mode automatic differentiation.

A :class:`Tape` records elementary scalar operations (add, mul, div, sqrt,
sin, cos, exp, log, atan2, min and custom fused reductions) performed on
:class:`DiffScalar` values. A single backward sweep then yields exact
derivatives of one output with respect to every registered leaf.

Untracked scalars (not attached to any tape) behave bit-identically to plain
floats: the same ``math`` calls are made and nothing is recorded. Complex
arithmetic is handled by :class:`DiffComplex`, a pair of real components.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence


class TapeError(ValueError):
    """Raised on tape misuse (foreign outputs, mixed tapes)."""


class DiffScalar:
    """A real scalar, optionally recorded on a tape.

    ``slot`` is the node index on ``tape``, or -1 when untracked. Arithmetic
    between scalars recorded on two different tapes is an error.
    """

    __slots__ = ("value", "tape", "slot")

    def __init__(self, value: float, tape: "Tape | None" = None, slot: int = -1):
        self.value = value
        self.tape = tape
        self.slot = slot

    # -- helpers -----------------------------------------------------------

    def _coerce(self, other):
        """Wrap a real operand, or None for another type (a DiffComplex right operand
        of +, - and * takes over through its reflected method)."""
        if isinstance(other, DiffScalar):
            if other.tape is not None and self.tape is not None and other.tape is not self.tape:
                raise TapeError("operands recorded on different tapes")
            return other
        if isinstance(other, (int, float)):
            return DiffScalar(float(other))
        return None

    def __float__(self):
        return float(self.value)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _binary(self, o, self.value + o.value, 1.0, 1.0)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _binary(self, o, self.value - o.value, 1.0, -1.0)

    def __rsub__(self, other):
        o = self._coerce(other)
        return _binary(o, self, o.value - self.value, 1.0, -1.0)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _binary(self, o, self.value * o.value, o.value, self.value)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        inv = 1.0 / o.value
        return _binary(self, o, self.value / o.value, inv, -self.value * inv * inv)

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def __neg__(self):
        return _unary(self, -self.value, -1.0)

    def __pow__(self, p):
        v = self.value ** p
        return _unary(self, v, p * self.value ** (p - 1))

    def __abs__(self):
        return _unary(self, abs(self.value), 1.0 if self.value >= 0.0 else -1.0)

    # value-based comparisons: branching (line search, minimum) happens on
    # the primal value, never on the derivative
    def __lt__(self, other):
        return self.value < _val(other)

    def __gt__(self, other):
        return self.value > _val(other)


def _val(x) -> float:
    return x.value if isinstance(x, DiffScalar) else float(x)


def _unary(x: DiffScalar, value: float, partial: float) -> DiffScalar:
    t = x.tape
    if t is None or x.slot < 0:
        return DiffScalar(value)
    return t._record(value, (x.slot,), (partial,))


def _binary(a: DiffScalar, b: DiffScalar, value: float, da: float, db: float) -> DiffScalar:
    ta, tb = a.tape, b.tape
    if ta is None and tb is None:
        return DiffScalar(value)
    if ta is None:
        return tb._record(value, (b.slot,), (db,))
    if tb is None:
        return ta._record(value, (a.slot,), (da,))
    return ta._record(value, (a.slot, b.slot), (da, db))


# -- math functions (dispatch on plain floats vs tracked scalars) -----------

def sqrt(x):
    if isinstance(x, DiffScalar):
        v = math.sqrt(x.value)
        return _unary(x, v, 0.5 / v if v != 0.0 else math.inf)
    return math.sqrt(x)


def sin(x):
    if isinstance(x, DiffScalar):
        return _unary(x, math.sin(x.value), math.cos(x.value))
    return math.sin(x)


def cos(x):
    if isinstance(x, DiffScalar):
        return _unary(x, math.cos(x.value), -math.sin(x.value))
    return math.cos(x)


def exp(x):
    if isinstance(x, DiffScalar):
        v = math.exp(x.value)
        return _unary(x, v, v)
    return math.exp(x)


def log(x):
    if isinstance(x, DiffScalar):
        return _unary(x, math.log(x.value), 1.0 / x.value)
    return math.log(x)


def atan2(y, x):
    if isinstance(y, DiffScalar) or isinstance(x, DiffScalar):
        yd = y if isinstance(y, DiffScalar) else DiffScalar(float(y))
        xd = x if isinstance(x, DiffScalar) else DiffScalar(float(x))
        d = yd.value * yd.value + xd.value * xd.value
        return _binary(yd, xd, math.atan2(yd.value, xd.value), xd.value / d, -yd.value / d)
    return math.atan2(y, x)


def minimum(a, b):
    """min with subgradient: ties resolve to the first argument."""
    av, bv = _val(a), _val(b)
    take_a = av <= bv
    if isinstance(a, DiffScalar) or isinstance(b, DiffScalar):
        ad = a if isinstance(a, DiffScalar) else DiffScalar(float(a))
        bd = b if isinstance(b, DiffScalar) else DiffScalar(float(b))
        return _binary(ad, bd, av if take_a else bv, 1.0 if take_a else 0.0, 0.0 if take_a else 1.0)
    return av if take_a else bv


class Tape:
    """Growable record of scalar operations with named parameter leaves.

    Single-writer: one recording context per tape. Nodes are stored as flat
    parallel lists (parent slots, local partials); the backward sweep visits
    each node exactly once, so gradients cost one pass over the recording.
    """

    def __init__(self):
        self._parents: list[tuple[int, ...]] = []
        self._partials: list[tuple[float, ...]] = []
        self._leaf_names: dict[int, str] = {}

    @property
    def num_nodes(self) -> int:
        return len(self._parents)

    def leaf(self, value: float, name: str | None = None) -> DiffScalar:
        """Register a differentiable input. ``name`` keys its gradient."""
        slot = len(self._parents)
        self._parents.append(())
        self._partials.append(())
        if name is not None:
            self._leaf_names[slot] = name
        return DiffScalar(float(value), self, slot)

    def _record(self, value: float, parents: tuple[int, ...], partials: tuple[float, ...]) -> DiffScalar:
        self._parents.append(parents)
        self._partials.append(partials)
        return DiffScalar(value, self, len(self._parents) - 1)

    def record_custom(self, value: float, inputs: Sequence[DiffScalar],
                      partials: Sequence[float]) -> DiffScalar:
        """Record a fused operation with arbitrarily many inputs.

        ``partials[i]`` must be d(value)/d(inputs[i]). Untracked inputs are
        skipped. Used for vectorized reductions whose inner arithmetic would
        be wasteful to tape element by element.
        """
        par, pd = [], []
        for x, p in zip(inputs, partials):
            if isinstance(x, DiffScalar) and x.tape is not None:
                if x.tape is not self:
                    raise TapeError("input recorded on a different tape")
                par.append(x.slot)
                pd.append(float(p))
        return self._record(value, tuple(par), tuple(pd))

    def gradient(self, output: DiffScalar) -> dict[str, float]:
        """Reverse sweep: derivatives of ``output`` w.r.t. every named leaf.

        Leaves that do not feed into ``output`` get exactly 0.0.
        """
        if not isinstance(output, DiffScalar) or output.tape is not self or output.slot < 0:
            raise TapeError("output was not recorded on this tape")
        adj = [0.0] * (output.slot + 1)
        adj[output.slot] = 1.0
        parents, partials = self._parents, self._partials
        for i in range(output.slot, -1, -1):
            a = adj[i]
            if a == 0.0:
                continue
            for s, p in zip(parents[i], partials[i]):
                adj[s] += a * p
        return {name: adj[slot] if slot < len(adj) else 0.0
                for slot, name in self._leaf_names.items()}


class DiffComplex:
    """Complex number with scalar-like (float or DiffScalar) components."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0.0):
        self.re = re
        self.im = im

    @staticmethod
    def from_complex(z: complex) -> "DiffComplex":
        return DiffComplex(z.real, z.imag)

    @staticmethod
    def expj(phase) -> "DiffComplex":
        """Unit phasor e^{j*phase}."""
        return DiffComplex(cos(phase), sin(phase))

    def to_complex(self) -> complex:
        return complex(_val(self.re), _val(self.im))

    def __add__(self, other):
        o = _ccoerce(other)
        return DiffComplex(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = _ccoerce(other)
        return DiffComplex(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = _ccoerce(other)
        return DiffComplex(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        if isinstance(other, (int, float, DiffScalar)):
            return DiffComplex(self.re * other, self.im * other)
        o = _ccoerce(other)
        return DiffComplex(self.re * o.re - self.im * o.im,
                           self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _ccoerce(other)
        # Smith's division: scale by the larger component of o instead of
        # forming |o|^2, which under- or overflows far sooner than o itself
        if abs(_val(o.re)) >= abs(_val(o.im)):
            r = o.im / o.re
            d = o.re + o.im * r
            return DiffComplex((self.re + self.im * r) / d, (self.im - self.re * r) / d)
        r = o.re / o.im
        d = o.re * r + o.im
        return DiffComplex((self.re * r + self.im) / d, (self.im * r - self.re) / d)

    def conj(self) -> "DiffComplex":
        return DiffComplex(self.re, -self.im)

    def abs2(self):
        """|z|^2 as a scalar-like real."""
        return self.re * self.re + self.im * self.im

    def __abs__(self):
        return sqrt(self.abs2())


def _ccoerce(z) -> DiffComplex:
    if isinstance(z, DiffComplex):
        return z
    if isinstance(z, complex):
        return DiffComplex(z.real, z.imag)
    return DiffComplex(z, 0.0)


def csqrt_posreal(z: DiffComplex) -> DiffComplex:
    """Complex square root on the Re >= 0 branch.

    For arguments with non-positive imaginary part (lossy media under the
    e^{+j2pi f t} time convention) the result has Im <= 0, so transmitted
    fields decay into the medium. On the negative real axis the +j branch
    is taken.

    On a tape the root is one node per component, with the derivative of
    the analytic root, dw/dz = 1 / 2w. Differentiating the half-angle steps
    instead would lose the derivative on the positive real axis (sigma = 0)
    and amplify their rounding when Im z is small. The value is cmath's
    root, which takes the larger component from the half-angle formula and
    the smaller as |Im z| over twice it, so neither cancels when
    |Im z| << |Re z|.
    """
    # + 0.0 puts an imaginary part of -0.0 on the +j side of the cut
    w = cmath.sqrt(complex(_val(z.re), _val(z.im) + 0.0))
    u, v = w.real, w.imag
    tape = next((x.tape for x in (z.re, z.im)
                 if isinstance(x, DiffScalar) and x.tape is not None), None)
    if tape is None:
        return DiffComplex(u, v)
    s = 0.5 / (u * u + v * v)  # 1/2w = (u - jv) s
    return DiffComplex(tape.record_custom(u, (z.re, z.im), (u * s, v * s)),
                       tape.record_custom(v, (z.re, z.im), (-v * s, u * s)))
