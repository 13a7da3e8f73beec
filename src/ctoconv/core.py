"""Domain types, validation and the shared numeric policy.

Numbers are plain floats in float mode and fractions.Fraction in rational
mode.  All arithmetic in the library, the simplex kernel included, is
generic over the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import (
    DimensionMismatch,
    NonPositiveGibbsWeight,
    NotNormalized,
    ValidationError,
    ZeroTotalMass,
)

Number = Union[float, Fraction]

FLOAT = "float"
RATIONAL = "rational"


def parse_number(tok, mode: str) -> Number:
    """Convert a JSON scalar (number or 'a/b' string) to the mode's type."""
    if isinstance(tok, str):
        val = Fraction(tok)
    elif isinstance(tok, bool):
        raise ValidationError(f"not a number: {tok!r}")
    elif isinstance(tok, int):
        val = Fraction(tok)
    elif isinstance(tok, float):
        if mode == RATIONAL:
            raise ValidationError(
                f"rational mode requires integers or 'a/b' strings, got {tok!r}"
            )
        val = tok
    else:
        raise ValidationError(f"not a number: {tok!r}")
    return val if mode == RATIONAL else float(val)


def encode_number(x: Number):
    """Inverse of parse_number for JSON output."""
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return x


@dataclass(frozen=True)
class NumericPolicy:
    """Arithmetic mode plus the three float-mode tolerances.

    In rational mode every comparison is exact and the tolerances are unused.
    """

    mode: str = FLOAT
    eps_cmp: float = 1e-9
    eps_lp: float = 1e-7
    eps_merge: float = 1e-12

    def __post_init__(self):
        if self.mode not in (FLOAT, RATIONAL):
            raise ValidationError(f"unknown numeric mode {self.mode!r}")
        if self.mode == FLOAT:
            if not (0 < self.eps_merge <= self.eps_cmp <= self.eps_lp):
                raise ValidationError(
                    "tolerances must satisfy 0 < eps_merge <= eps_cmp <= eps_lp"
                )

    @property
    def exact(self) -> bool:
        return self.mode == RATIONAL

    def zero(self) -> Number:
        return Fraction(0) if self.exact else 0.0

    def one(self) -> Number:
        return Fraction(1) if self.exact else 1.0

    def number(self, tok) -> Number:
        return parse_number(tok, self.mode)

    # -- tolerant comparisons ------------------------------------------------

    def close(self, a: Number, b: Number, eps: float | None = None) -> bool:
        if self.exact:
            return a == b
        if eps is None:
            eps = self.eps_cmp
        return abs(a - b) <= eps

    def leq(self, a: Number, b: Number, eps: float | None = None) -> bool:
        """a <= b, with absolute slack eps in float mode."""
        if self.exact:
            return a <= b
        if eps is None:
            eps = self.eps_cmp
        return a <= b + eps

    def nonneg(self, a: Number, eps: float | None = None) -> bool:
        return self.leq(self.zero(), a, eps)


RATIONAL_POLICY = NumericPolicy(mode=RATIONAL)


# -- small generic linear algebra helpers ------------------------------------


def vdot(a: Sequence[Number], b: Sequence[Number]) -> Number:
    if len(a) != len(b):
        raise DimensionMismatch(f"dot of lengths {len(a)} and {len(b)}")
    return sum(x * y for x, y in zip(a, b))


def matvec(m: Sequence[Sequence[Number]], v: Sequence[Number]) -> list:
    return [vdot(row, v) for row in m]


def vsum(vs: Iterable[Sequence[Number]]) -> list:
    out = None
    for v in vs:
        if out is None:
            out = list(v)
        else:
            if len(v) != len(out):
                raise DimensionMismatch("summing vectors of different lengths")
            out = [a + b for a, b in zip(out, v)]
    if out is None:
        raise DimensionMismatch("empty vector sum")
    return out


def scale(c: Number, v: Sequence[Number]) -> list:
    return [c * x for x in v]


# -- Gibbs context -----------------------------------------------------------


@dataclass(frozen=True)
class GibbsContext:
    """Energy spectrum, inverse temperature and the derived Gibbs weights."""

    gibbs: tuple
    beta: Number
    partition: Number
    policy: NumericPolicy
    energies: tuple | None = None

    @property
    def dim(self) -> int:
        return len(self.gibbs)

    @staticmethod
    def from_energies(
        energies: Sequence[float], beta: float = 1.0, policy: NumericPolicy | None = None
    ) -> "GibbsContext":
        policy = policy or NumericPolicy()
        if policy.exact:
            raise ValidationError(
                "rational mode requires Gibbs weights given directly "
                "(exp(-beta*E) is generically irrational)"
            )
        if len(energies) < 1:
            raise ValidationError("need at least one energy level")
        if beta <= 0:
            raise ValidationError("beta must be positive")
        weights = [math.exp(-beta * e) for e in energies]
        z = sum(weights)
        ctx = GibbsContext(
            gibbs=tuple(w / z for w in weights),
            beta=float(beta),
            partition=z,
            policy=policy,
            energies=tuple(float(e) for e in energies),
        )
        return validate_context(ctx)

    @staticmethod
    def from_weights(
        weights: Sequence[Number], policy: NumericPolicy | None = None
    ) -> "GibbsContext":
        """Gibbs weights supplied directly; beta defaults to 1, E_i = -ln g_i."""
        policy = policy or NumericPolicy()
        w = tuple(policy.number(x) if not isinstance(x, (float, Fraction)) else x
                  for x in weights)
        ctx = GibbsContext(
            gibbs=w,
            beta=policy.one(),
            partition=policy.one(),
            policy=policy,
            energies=None,
        )
        return validate_context(ctx)

    def energy_levels(self) -> tuple:
        """Energies, deriving E_i = -ln(g_i)/beta when not given explicitly."""
        if self.energies is not None:
            return self.energies
        beta = float(self.beta)
        return tuple(-math.log(float(g)) / beta for g in self.gibbs)


def validate_context(ctx: GibbsContext) -> GibbsContext:
    if ctx.dim < 1:
        raise ValidationError("Gibbs context needs dimension >= 1")
    for g in ctx.gibbs:
        if g <= 0:
            raise NonPositiveGibbsWeight(f"Gibbs weight {g} is not positive")
    total = sum(ctx.gibbs)
    if not ctx.policy.close(total, ctx.policy.one()):
        raise NotNormalized(f"Gibbs weights sum to {total}, expected 1")
    return ctx


# -- states ------------------------------------------------------------------


@dataclass(frozen=True)
class StateVector:
    """A (sub-)normalized distribution over the energy levels."""

    w: tuple

    def __post_init__(self):
        object.__setattr__(self, "w", tuple(self.w))

    @property
    def dim(self) -> int:
        return len(self.w)

    @property
    def mass(self) -> Number:
        return sum(self.w)

    def validate(self, policy: NumericPolicy) -> "StateVector":
        for x in self.w:
            if not policy.nonneg(x):
                raise ValidationError(f"negative component {x} in state vector")
        if not policy.leq(self.mass, policy.one()):
            raise ValidationError(f"state mass {self.mass} exceeds 1")
        return self

    def normalized(self) -> "StateVector":
        m = self.mass
        if m == 0:
            raise ZeroTotalMass("cannot normalize a zero vector")
        return StateVector(tuple(x / m for x in self.w))

    def scaled(self, c: Number) -> "StateVector":
        return StateVector(tuple(c * x for x in self.w))


@dataclass(frozen=True)
class CQState:
    """Classical-quantum joint state as a tuple of weighted columns."""

    columns: tuple

    def __post_init__(self):
        object.__setattr__(
            self,
            "columns",
            tuple(c if isinstance(c, StateVector) else StateVector(tuple(c))
                  for c in self.columns),
        )

    @property
    def n_branches(self) -> int:
        return len(self.columns)

    @property
    def dim(self) -> int:
        return self.columns[0].dim if self.columns else 0

    @property
    def branch_masses(self) -> tuple:
        return tuple(c.mass for c in self.columns)

    @property
    def total_mass(self) -> Number:
        return sum(self.branch_masses)

    def conditionals(self) -> list:
        """The normalized per-branch states (branches must have positive mass)."""
        return [c.normalized() for c in self.columns]

    def validate(self, policy: NumericPolicy) -> "CQState":
        if not self.columns:
            raise ZeroTotalMass("joint state has no columns")
        d = self.dim
        for c in self.columns:
            if c.dim != d:
                raise DimensionMismatch("joint state columns differ in dimension")
            c.validate(policy)
        if not policy.close(self.total_mass, policy.one()):
            raise NotNormalized(f"joint state mass {self.total_mass} != 1")
        return self


def canonicalize_cq(state: CQState, policy: NumericPolicy) -> CQState:
    """Drop zero-mass columns, clip float noise, rescale total mass to one."""
    zero = policy.zero()
    cols = []
    for c in state.columns:
        w = list(c.w)
        for i, x in enumerate(w):
            if x < 0:
                if policy.nonneg(x):
                    w[i] = zero
                else:
                    raise ValidationError(f"negative component {x} in joint state")
        sv = StateVector(tuple(w))
        if sv.mass > 0:
            cols.append(sv)
    if not cols:
        raise ZeroTotalMass("joint state has zero total mass")
    total = sum(c.mass for c in cols)
    if not policy.close(total, policy.one()):
        raise NotNormalized(f"joint state mass {total} != 1")
    if total != policy.one():
        cols = [c.scaled(policy.one() / total) for c in cols]
    return CQState(tuple(cols))


# -- operations on states ----------------------------------------------------


@dataclass(frozen=True)
class TOMatrix:
    """Column-stochastic matrix fixing the Gibbs vector (states are columns)."""

    t: tuple  # rows

    def __post_init__(self):
        object.__setattr__(self, "t", tuple(tuple(row) for row in self.t))

    @property
    def dim(self) -> int:
        return len(self.t)

    def apply(self, v: StateVector) -> StateVector:
        if v.dim != self.dim:
            raise DimensionMismatch("matrix/vector dimension mismatch")
        return StateVector(tuple(matvec(self.t, v.w)))

    def validate(self, ctx: GibbsContext) -> "TOMatrix":
        policy = ctx.policy
        d = self.dim
        if any(len(row) != d for row in self.t):
            raise DimensionMismatch("thermal-operation matrix is not square")
        for row in self.t:
            for x in row:
                if not policy.nonneg(x):
                    raise ValidationError(f"negative matrix entry {x}")
        for j in range(d):
            col_sum = sum(self.t[i][j] for i in range(d))
            if not policy.close(col_sum, policy.one()):
                raise ValidationError(f"column {j} sums to {col_sum}, expected 1")
        fixed = matvec(self.t, ctx.gibbs)
        for a, b in zip(fixed, ctx.gibbs):
            if not policy.close(a, b):
                raise ValidationError("matrix does not fix the Gibbs vector")
        return self

    @staticmethod
    def identity(d: int, policy: NumericPolicy) -> "TOMatrix":
        one, zero = policy.one(), policy.zero()
        return TOMatrix(tuple(
            tuple(one if i == j else zero for j in range(d)) for i in range(d)
        ))


@dataclass(frozen=True)
class CTOPlan:
    """Row-stochastic control map plus one Gibbs-stochastic matrix per (x, y)."""

    control: tuple  # ell x m rows
    branch_maps: dict = field(compare=False)  # (x, y) -> TOMatrix

    def __post_init__(self):
        object.__setattr__(self, "control", tuple(tuple(r) for r in self.control))

    @property
    def n_in(self) -> int:
        return len(self.control)

    @property
    def n_out(self) -> int:
        return len(self.control[0]) if self.control else 0

    def validate(self, ctx: GibbsContext) -> "CTOPlan":
        policy = ctx.policy
        m = self.n_out
        for row in self.control:
            if len(row) != m:
                raise DimensionMismatch("ragged control matrix")
            for x in row:
                if not policy.nonneg(x):
                    raise ValidationError(f"negative control entry {x}")
            if not policy.close(sum(row), policy.one()):
                raise ValidationError("control matrix row does not sum to 1")
        for key, t in self.branch_maps.items():
            if key[0] >= self.n_in or key[1] >= m:
                raise DimensionMismatch(f"branch map index {key} out of range")
            t.validate(ctx)
        return self
