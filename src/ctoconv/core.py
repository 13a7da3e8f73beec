"""Domain types, validation and the shared numeric policy.

Numbers are plain floats in float mode and fractions.Fraction in rational
mode.  All arithmetic in the library, the simplex kernel included, is
generic over the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence, Union

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

_ZERO, _ONE = Fraction(0), Fraction(1)  # shared: a Fraction is immutable


def parse_number(tok, mode: str) -> Number:
    """Convert a JSON scalar (number or 'a/b' string) or a Fraction to the
    mode's type; rational mode refuses floats."""
    if isinstance(tok, Fraction):
        val = tok
    elif isinstance(tok, str):
        try:
            val = Fraction(tok)
        except (ValueError, ZeroDivisionError):
            raise ValidationError(f"not a number: {tok!r}") from None
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
    exact: bool = field(init=False, repr=False, compare=False)  # mode == RATIONAL

    def __post_init__(self):
        if self.mode not in (FLOAT, RATIONAL):
            raise ValidationError(f"unknown numeric mode {self.mode!r}")
        object.__setattr__(self, "exact", self.mode == RATIONAL)
        if self.mode == FLOAT:
            if not (0 < self.eps_merge <= self.eps_cmp <= self.eps_lp):
                raise ValidationError(
                    "tolerances must satisfy 0 < eps_merge <= eps_cmp <= eps_lp"
                )

    def zero(self) -> Number:
        return _ZERO if self.exact else 0.0

    def one(self) -> Number:
        return _ONE if self.exact else 1.0

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
        """0 <= a, with absolute slack eps in float mode (as `leq`)."""
        if self.exact:
            return 0 <= a
        return 0.0 <= a + (self.eps_cmp if eps is None else eps)


# -- small generic linear algebra helpers ------------------------------------


def vdot(a: Sequence[Number], b: Sequence[Number]) -> Number:
    if len(a) != len(b):
        raise DimensionMismatch(f"dot of lengths {len(a)} and {len(b)}")
    return sum(x * y for x, y in zip(a, b))


def matvec(m: Sequence[Sequence[Number]], v: Sequence[Number]) -> list:
    return [vdot(row, v) for row in m]


def _over_lcm(xs) -> tuple:
    """Ints and Fractions over one denominator: (D, [n_i]) with x_i = n_i/D
    and D the lcm of their denominators."""
    try:
        dens = [x.denominator for x in xs]
    except AttributeError:  # a float where exact arithmetic needs ints and Fractions
        raise ValidationError("float entry in rational mode") from None
    den = math.lcm(*dens)
    return den, [x.numerator * (den // d) for x, d in zip(xs, dens)]


def _exact_sum(xs) -> Fraction:
    """The sum of ints and Fractions as one Fraction, with no Fraction built
    per addition."""
    den, ns = _over_lcm(xs)
    return Fraction(sum(ns), den)


def _check_entries(xs, policy: NumericPolicy, what: str) -> None:
    """The entry rule: each x nonnegative as `policy.nonneg` judges, inlined
    per mode, and no float in rational mode."""
    if policy.exact:
        for x in xs:  # an int or Fraction is judged by its numerator
            if isinstance(x, float) or x.numerator < 0:
                if not 0 <= x:
                    raise ValidationError(f"negative {what} {x}")
                raise ValidationError(f"float {what} {x} in rational mode")
    else:
        eps = policy.eps_cmp
        for x in xs:
            if not 0.0 <= x + eps:
                raise ValidationError(f"negative {what} {x}")


# -- Gibbs context -----------------------------------------------------------


@dataclass(frozen=True)
class GibbsContext:
    """Energy spectrum, inverse temperature and the derived Gibbs weights;
    checked by `validate_context` when made.  `_ints`, not a field, holds
    (G, [G_i], [P // G_i]) in rational mode, g_i = G_i/G and P = lcm(G_i)."""

    gibbs: tuple
    beta: Number
    partition: Number
    policy: NumericPolicy
    energies: tuple | None = None

    def __post_init__(self):
        validate_context(self)
        big_g, gs = _over_lcm(self.gibbs) if self.policy.exact else (None, ())
        p = math.lcm(*gs)
        object.__setattr__(self, "_ints", (big_g, tuple(gs), tuple([p // x for x in gs]))
                           if gs else None)

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
        return GibbsContext(
            gibbs=tuple(w / z for w in weights),
            beta=float(beta),
            partition=z,
            policy=policy,
            energies=tuple(float(e) for e in energies),
        )

    @staticmethod
    def from_weights(
        weights: Sequence[Number], policy: NumericPolicy | None = None
    ) -> "GibbsContext":
        """Gibbs weights supplied directly, each read by `policy.number`;
        beta defaults to 1, E_i = -ln g_i."""
        policy = policy or NumericPolicy()
        one = policy.one()
        return GibbsContext(gibbs=tuple(policy.number(x) for x in weights),
                            beta=one, partition=one, policy=policy)

    def energy_levels(self) -> tuple:
        """Energies, deriving E_i = -ln(g_i)/beta when not given explicitly."""
        if self.energies is not None:
            return self.energies
        beta = float(self.beta)
        return tuple(-math.log(float(g)) / beta for g in self.gibbs)


def validate_context(ctx: GibbsContext) -> GibbsContext:
    if ctx.dim < 1:
        raise ValidationError("Gibbs context needs dimension >= 1")
    kinds, what = ((int, Fraction), "int or Fraction") if ctx.policy.exact else (float, "float")
    if not all(isinstance(g, kinds) for g in ctx.gibbs):
        raise ValidationError(f"{ctx.policy.mode} mode takes {what} Gibbs weights")
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

    @cached_property
    def _ints(self) -> tuple:
        """Rational mode's form (D, [n_i]) of w (`_over_lcm`), held once
        read: not a field.  A float entry raises and nothing is held."""
        return _over_lcm(self.w)

    def validate(self, policy: NumericPolicy) -> "StateVector":
        """Entries nonnegative and mass at most 1 as `policy.nonneg` and
        `policy.leq` judge, inlined per mode; no floats in rational mode."""
        self._checked_mass(policy)
        return self

    def _checked_mass(self, policy: NumericPolicy) -> Number:
        """The mass, once `validate`'s checks pass (they raise otherwise); in
        rational mode on `_ints`, the entry rule raising only on a miss."""
        if policy.exact:
            try:
                den, ns = self._ints
            except ValidationError:  # a float entry
                ns = None
            if ns is None or min(ns, default=0) < 0:  # raises, with the entry's message
                _check_entries(self.w, policy, "component")
            mass, bound = Fraction(sum(ns), den), 1
        else:
            _check_entries(self.w, policy, "component")
            mass, bound = self.mass, 1.0 + policy.eps_cmp
        if not mass <= bound:
            raise ValidationError(f"state mass {mass} exceeds 1")
        return mass

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
        d, masses = self.dim, []
        for c in self.columns:  # each column summed once
            if c.dim != d:
                raise DimensionMismatch("joint state columns differ in dimension")
            masses.append(c._checked_mass(policy))
        _check_joint(masses, policy)
        return self


def _check_joint(masses, policy: NumericPolicy) -> Number:
    """The joint rule on column masses: at least one column, a total of one.
    Returns the total."""
    if not masses:
        raise ZeroTotalMass("joint state has no columns of positive mass")
    total = _exact_sum(masses) if policy.exact else sum(masses)
    if not policy.close(total, policy.one()):
        raise NotNormalized(f"joint state mass {total} != 1")
    return total


def canonicalize_cq(state: CQState, policy: NumericPolicy) -> CQState:
    """Drop zero-mass columns, clip float noise, rescale total mass to one."""
    zero, exact = policy.zero(), policy.exact
    cols, masses = [], []
    for c in state.columns:
        w = list(c.w)
        for i, x in enumerate(w):
            if x < 0:
                if policy.nonneg(x):
                    w[i] = zero
                else:
                    raise ValidationError(f"negative component {x} in joint state")
        c = StateVector(tuple(w))  # each kept column summed once, on its held form
        mass = Fraction(sum(c._ints[1]), c._ints[0]) if exact else c.mass
        if mass > 0:
            cols.append(c)
            masses.append(mass)
    total = _check_joint(masses, policy)
    if total != policy.one():
        cols = [c.scaled(policy.one() / total) for c in cols]
    return CQState(tuple(cols))


# -- operations on states ----------------------------------------------------


class TOMatrix:
    """Column-stochastic matrix fixing the Gibbs vector (states are columns).

    `TOMatrix(rows)` is a dense matrix, the one-factor case.  `product`
    keeps synthesis's B S E (`synth`) as E's rows, {column: entry} dicts;
    S's steps (j, k, keep, a, b), each taking x_j, x_k to keep x_j + a s and
    keep x_k + b s with s = x_j + x_k; and home[i] = (k, B[i][k]), B's one
    entry in row i.  `apply` runs the factors, and the rows `t` are their
    product, built on first read.  `_exact_mix` applies a weighted sum of
    products that share their steps and B in one integer pass.
    """

    __slots__ = ("_t", "_e", "_steps", "_home")

    def __init__(self, t):
        self._t, self._e, self._steps, self._home = tuple(map(tuple, t)), None, None, None

    @classmethod
    def product(cls, e, steps, home) -> "TOMatrix":
        m = cls.__new__(cls)
        m._t, m._e, m._steps, m._home = None, e, steps, home
        return m

    @property
    def t(self) -> tuple:
        """The rows; row i of a product is B[i][k] times row k of S E, built
        from copies of E's rows, so reading `t` changes no factor."""
        if self._t is None:
            e = [dict(row) for row in self._e]  # the steps mix rows in place
            for j, k, keep, a, b in self._steps:  # S E, over both rows' supports
                ka, kb, ej, ek = keep + a, keep + b, e[j], e[k]
                for c, x in ej.items():
                    y = ek.get(c)
                    if y is None:  # a cell held by one row takes two products
                        ej[c], ek[c] = ka * x, b * x
                    else:
                        s = x + y
                        ej[c], ek[c] = keep * x + a * s, keep * y + b * s
                if len(ek) > len(ej):  # ek now holds every key of ej
                    for c, y in ek.items():
                        if c not in ej:
                            ej[c], ek[c] = a * y, kb * y
            d, zero = len(self._home), 0 * self._home[0][1]  # a zero of B's type
            rows = []
            for k, b in self._home:
                row = [zero] * d
                for c, x in e[k].items():
                    row[c] = b * x
                rows.append(tuple(row))
            self._t = tuple(rows)
        return self._t

    @property
    def dim(self) -> int:
        return len(self._t if self._e is None else self._home)

    def __eq__(self, other):
        return self.t == other.t if isinstance(other, TOMatrix) else NotImplemented

    def __hash__(self):
        return hash(self.t)

    def __repr__(self):
        return f"TOMatrix(t={self.t!r})"

    def apply(self, v: StateVector) -> StateVector:
        if v.dim != self.dim:
            raise DimensionMismatch("matrix/vector dimension mismatch")
        w, out = v.w, []  # zeros are skipped: each would cost a Fraction product
        if self._e is not None:  # E, then the steps, then B
            for row in self._e:
                acc = None
                for c, x in row.items():
                    if x:
                        acc = x * w[c] if acc is None else acc + x * w[c]
                out.append(0 * w[0] if acc is None else acc)
            for j, k, keep, a, b in self._steps:
                s = out[j] + out[k]
                out[j], out[k] = keep * out[j] + a * s, keep * out[k] + b * s
            return StateVector(tuple([b * out[k] for k, b in self._home]))
        for row in self._t:
            acc = None  # the first product starts the sum: no Fraction(0) to add
            for x, y in zip(row, w):
                if x:
                    acc = x * y if acc is None else acc + x * y
            out.append(0 * row[0] if acc is None else acc)  # a zero row: its entries' zero
        return StateVector(tuple(out))

    def validate(self, ctx: GibbsContext) -> "TOMatrix":
        policy = ctx.policy
        d = self.dim
        if any(len(row) != d for row in self.t):
            raise DimensionMismatch("thermal-operation matrix is not square")
        for row in self.t:
            _check_entries(row, policy, "matrix entry")
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


def _exact_mix(terms):
    """sum_x r_x T_x u_x over terms (r_x, T_x, u_x) as Fractions, when the T_x
    are products sharing one list of steps and one B, as synthesis's maps
    into one target branch do: B S (sum_x r_x E_x u_x) on integers, u_x read
    as its held `_ints`.  Cell k holds z[k] / den[k]; a step brings its two
    cells to one denominator and takes them over the lcm of its numbers, so
    it costs O(1).  Terms must be given; None for a dense map, unshared
    factors or a float, and the caller then applies each map by itself."""
    _, t0, u0 = terms[0]
    steps, home = t0._steps, t0._home
    if home is None or len(home) != u0.dim or any(
            t._steps is not steps or t._home is not home for _, t, _ in terms):
        return None
    try:
        parts = []  # (denominator, r's numerator, E u's integers) per term
        for r, t, u in terms:
            du, un = u._ints
            de, en = _over_lcm([x for row in t._e for x in row.values()])
            en = iter(en)
            v = [sum([next(en) * un[c] for c in row]) for row in t._e]
            dr, (rn,) = _over_lcm((r,))
            parts.append((dr * de * du, rn, v))
        d0 = math.lcm(*[p[0] for p in parts])
        z, den = [0] * len(t0._e), [d0] * len(t0._e)
        for td, rn, v in parts:
            f = d0 // td * rn
            z = [a + f * b for a, b in zip(z, v)]
        for j, k, keep, a, b in steps:  # keep form, nonnegative throughout
            ell, (kn, an, bn) = _over_lcm((keep, a, b))
            zj, zk, dj, dk = z[j], z[k], den[j], den[k]
            if dj != dk:
                lv = math.lcm(dj, dk)
                zj, zk, dj = zj * (lv // dj), zk * (lv // dk), lv
            s = zj + zk
            z[j], z[k] = kn * zj + an * s, kn * zk + bn * s
            den[j] = den[k] = dj * ell
        db, bs = _over_lcm([b for _, b in home])
    except ValidationError:  # a float, which the map-by-map sum refuses
        return None
    return [Fraction(b * z[k], den[k] * db) for (k, _), b in zip(home, bs)]


@dataclass(frozen=True)
class CTOPlan:
    """Row-stochastic control map R and a Gibbs-stochastic matrix for each
    (x, y) with R[x][y] != 0, which `apply_cto` requires; validate checks those."""

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
            _check_entries(row, policy, "control entry")
            if not policy.close(sum(row), policy.one()):
                raise ValidationError("control matrix row does not sum to 1")
        for key, t in self.branch_maps.items():
            if key[0] >= self.n_in or key[1] >= m:
                raise DimensionMismatch(f"branch map index {key} out of range")
            t.validate(ctx)
        return self
