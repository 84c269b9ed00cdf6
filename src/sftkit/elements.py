"""Exact element-level arithmetic for the model families where coefficients
matter.

Three coefficient regimes:
  * prime characteristic over a monoid (coefficients mod p, killed monomials
    vanish),
  * the rank-1 model with 2-adically local integer coefficients, where the
    scalar 2 and the weight-1 monomial are the same element, so normalization
    folds the coefficient's 2-valuation into the exponent,
  * the integer-coefficient model Z + 2xZ[x] (its own membership predicates).

Elements are immutable term maps kept in a fixed term order. In all three
rings the stored form is canonical (the dyadic one keeps one term per
exponent class mod 1; see DyadicRing), so equality is structural. Every
ring also handles the degree-1 polynomial extension by one extra variable t,
tracked as a plain integer degree on each term.

A product is one pass over the term pairs: the coefficient products
accumulate straight into the dict that normalization starts from.

Over the two monoid rings a stored term key is (lattice point, t-degree): the
point is the exponent times the monoid's denominator bound, the integer
frame the ideal layer works in (MonoidPresentation.to_lattice), so a product
of monomials is a tuple add and the kill predicate and ideal membership take
the point as it is. An exponent off the lattice (say 3/4 on a monoid whose
generators have denominator 2) keeps its exact value at the same scale: that
entry is a Fraction, every integral entry an int, and such a monomial is
never killed and never in an ideal. ExponentVector stays at the edges:
make_element and monomial_element take (ExponentVector, tdeg) keys and
convert them once, and PolyElement.terms is the ExponentVector view.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add
from typing import Iterator, Optional, Union

from .budget import SearchContext
from .errors import (DegreeBudgetExceeded, PreconditionViolated,
                     UnsupportedIdeal)
from .exponents import ExponentVector, MonoidPresentation
from .ideals import MonomialIdeal, ideal_lattice_member


def _v2_int(n: int) -> int:
    if n == 0:
        raise ValueError("valuation of zero")
    return (n & -n).bit_length() - 1


def _on_lattice(v: tuple) -> bool:
    return all(type(x) is int for x in v)


def _exact(v: tuple) -> tuple:
    """v with integral Fraction entries (sums of two off-lattice entries can
    be integral) turned into ints."""
    return tuple(x if type(x) is int or x.denominator != 1 else x.numerator
                 for x in v)


# ---------------------------------------------------------------------------
# rings


@dataclass(frozen=True)
class _MonoidRing:
    """Term keys of a monoid ring: (lattice point, tdeg) stored,
    (ExponentVector, tdeg) at the edges."""

    monoid: MonoidPresentation

    def stored_terms(self, terms):
        S = self.monoid
        s0 = S.denominator_bound
        out = []
        for (e, td), c in terms:
            if e.dim != S.dim:
                raise ValueError("exponent dimension mismatch")
            v = [0] * S.dim
            for i, x in e.entries:
                y = x * s0
                v[i] = y.numerator if y.denominator == 1 else y
            out.append(((tuple(v), td), c))
        return out

    def edge_terms(self, stored) -> tuple:
        from_lattice = self.monoid.from_lattice
        return tuple(((from_lattice(v), td), c) for (v, td), c in stored)


@dataclass(frozen=True)
class CharPMonoidRing(_MonoidRing):
    """Monoid algebra over the prime field F_p, truncated by the monoid's
    zero-monomial predicate."""

    p: int

    def normalize(self, terms, ctx: Optional[SearchContext] = None):
        p = self.p
        acc: dict[tuple[tuple, int], int] = {}
        for k, c in terms:
            c %= p
            if c:
                acc[k] = acc.get(k, 0) + c
        return self._finish(acc, ctx)

    def multiply(self, fs, gs, ctx: Optional[SearchContext] = None):
        """normalize() of the pairwise term products, in one pass."""
        p = self.p
        acc: dict[tuple[tuple, int], int] = {}
        for (v1, t1), c1 in fs:
            for (v2, t2), c2 in gs:
                c = c1 * c2 % p
                if c:
                    k = (tuple(map(add, v1, v2)), t1 + t2)
                    acc[k] = acc.get(k, 0) + c
        return self._finish(acc, ctx)

    def _finish(self, acc: dict, ctx: Optional[SearchContext]):
        """Reduce, drop killed monomials and sort the accumulated terms;
        kill checks run in the dict's insertion order."""
        p = self.p
        S = self.monoid
        weight = S.lattice_weight
        killable = S.kills
        out = []
        for (v, td), c in acc.items():
            c %= p
            if not c:
                continue
            w = weight(v)
            if type(w) is not int:  # some entry is a Fraction
                v = _exact(v)
                if not _on_lattice(v):
                    out.append((td, w, v, c))
                    continue
                w = weight(v)
            if killable and S.lattice_killed(v, ctx):
                continue
            out.append((td, w, v, c))
        out.sort()  # keys are distinct, so c never decides
        return tuple(((v, td), c) for td, _w, v, c in out)


@dataclass(frozen=True)
class DyadicRing(_MonoidRing):
    """Rank-1 monoid algebra with 2-adically local coefficients.

    The weight-1 generator is the scalar 2, so x^(e+1) = 2 * x^e, and terms
    whose exponents differ by an integer are one term: with r the least of
    their exponents, sum c_j * x^(e_j) = W * x^r for W = sum c_j *
    2^(e_j - r), and W = u * 2^v with u a 2-adic unit gives u * x^(r+v)
    (W = 0 drops the class). Normal form keeps that one term per
    (exponent class mod 1, t-degree), off-lattice exponents included.

    Monomials of distinct classes are linearly independent, so the form is
    canonical: equal elements have equal stored terms, whatever the order
    of the input. With distinct exponents and unit coefficients the lowest
    term of a sum cannot cancel, so a monomial ideal contains the element
    exactly when it contains every term.
    """

    def __post_init__(self):
        if self.monoid.dim != 1:
            raise ValueError("the dyadic ring is rank 1")

    def normalize(self, terms, ctx: Optional[SearchContext] = None):
        return self._fold((v[0], td, c.numerator, c.denominator)
                          for (v, td), c in terms)

    def multiply(self, fs, gs, ctx: Optional[SearchContext] = None):
        """normalize() of the pairwise term products, in one pass."""
        return self._fold((v1[0] + v2[0], t1 + t2, c1.numerator * c2.numerator,
                           c1.denominator * c2.denominator)
                          for (v1, t1), c1 in fs for (v2, t2), c2 in gs)

    def _fold(self, terms):
        """The normal form of (lattice exponent, tdeg, n, d) terms, each
        n/d * x^e. Each class accumulates [r, wn, wd]: its least exponent so
        far and W = wn/wd, wd odd, at that exponent; at the lattice scale s0
        an exponent step of 1 is s0."""
        s0 = self.monoid.denominator_bound
        acc: dict[tuple, list] = {}
        for e, td, n, d in terms:
            if not n:
                continue
            if not d & 1:
                raise PreconditionViolated(
                    "coefficients are 2-adically integral",
                    f"got {Fraction(n, d)}")
            key = (e % s0, td)
            cls = acc.get(key)
            if cls is None:
                acc[key] = [e, n, d]
                continue
            r, wn, wd = cls
            k = (e - r) // s0
            if k < 0:  # a new least exponent: W moves down to it
                wn <<= -k
                cls[0] = e
            else:
                n <<= k
            cls[1], cls[2] = wn * d + n * wd, wd * d
        out = []
        for (_e, td), (r, wn, wd) in acc.items():
            if wn:
                v = _v2_int(wn)
                out.append(((_exact((r + v * s0,)), td), Fraction(wn >> v, wd)))
        out.sort(key=lambda t: (t[0][1], t[0][0]))
        return tuple(out)


@dataclass(frozen=True)
class Int2xRing:
    """Z + 2xZ[x]: integer polynomials whose nonconstant coefficients are
    even. Term keys are (x-degree, t-degree), stored and at the edges."""

    def stored_terms(self, terms):
        return terms

    def edge_terms(self, stored) -> tuple:
        return stored

    def normalize(self, terms, ctx: Optional[SearchContext] = None):
        acc: dict[tuple[int, int], int] = {}
        for (xd, td), c in terms:
            if c:
                k = (td, xd)
                acc[k] = acc.get(k, 0) + c
        for (td, xd), c in acc.items():
            if xd > 0 and c % 2:
                raise PreconditionViolated(
                    "coefficients of positive x-powers are even",
                    f"coefficient {c} at x^{xd} t^{td}")
        return self._finish(acc)

    def multiply(self, fs, gs, ctx: Optional[SearchContext] = None):
        """normalize() of the pairwise term products, in one pass; a
        product of two elements of the ring needs no parity check."""
        acc: dict[tuple[int, int], int] = {}
        for (x1, t1), c1 in fs:
            for (x2, t2), c2 in gs:
                k = (t1 + t2, x1 + x2)
                acc[k] = acc.get(k, 0) + c1 * c2
        return self._finish(acc)

    @staticmethod
    def _finish(acc: dict):
        """The stored terms of coefficients accumulated under (t-degree,
        x-degree) keys, whose plain sort is the stored order (the keys
        alone sort faster than the items)."""
        out = []
        for k in sorted(acc):
            c = acc[k]
            if c:
                out.append(((k[1], k[0]), c))
        return tuple(out)


Ring = Union[CharPMonoidRing, DyadicRing, Int2xRing]


# ---------------------------------------------------------------------------
# elements


@dataclass(frozen=True)
class PolyElement:
    """An element as its stored terms ((key, coeff), ...), in the ring's
    canonical order: t-degree first, so the last term has the largest.

    Monoid rings store (lattice point, tdeg) keys (see the module docstring,
    off-lattice exponents included); the integer model stores (xdeg, tdeg).
    `terms` is the read-only view with the edge keys, (ExponentVector, tdeg)
    on monoid rings, that reports and repr show.
    """

    ring: Ring
    stored: tuple

    @cached_property
    def terms(self) -> tuple:
        return self.ring.edge_terms(self.stored)

    @property
    def is_zero(self) -> bool:
        return not self.stored

    def max_tdeg(self) -> int:
        return self.stored[-1][0][1] if self.stored else 0

    @cached_property
    def _xdeg(self) -> int:
        """The largest x-degree of an integer-model element (0 for zero),
        for element_multiply's degree cap, which sets it on the products
        it forms, so an element is scanned at most once."""
        return _max_xdeg(self.stored)

    def __repr__(self):
        if self.is_zero:
            return "Poly(0)"
        bits = []
        for k, c in self.terms[:6]:
            bits.append(f"{c}*{k}")
        if len(self.terms) > 6:
            bits.append("...")
        return "Poly(" + " + ".join(bits) + ")"


def _max_xdeg(stored) -> int:
    return max([k[0] for k, _ in stored], default=0)


def _check_degree_cap(cap: int, tdeg: int, xdeg: int = 0) -> None:
    """The degree budget of one product: its t-degree, then (integer model)
    its x-degree."""
    if tdeg > cap:
        raise DegreeBudgetExceeded(f"t-degree {tdeg} exceeds cap {cap}")
    if xdeg > cap:
        raise DegreeBudgetExceeded(f"x-degree {xdeg} exceeds cap {cap}")


def _element(ring: Ring, stored, ctx: Optional[SearchContext]) -> PolyElement:
    return PolyElement(ring, ring.normalize(stored, ctx))


def make_element(ring: Ring, terms, ctx: Optional[SearchContext] = None) -> PolyElement:
    """Element from (key, coeff) pairs; keys are (ExponentVector, tdeg) for
    monoid rings and (xdeg, tdeg) for the integer model."""
    return _element(ring, ring.stored_terms(terms), ctx)


def zero_element(ring: Ring) -> PolyElement:
    return PolyElement(ring, ())


def element_add(f: PolyElement, g: PolyElement,
                ctx: Optional[SearchContext] = None) -> PolyElement:
    if f.ring != g.ring:
        raise PreconditionViolated("operands share a model")
    return _element(f.ring, f.stored + g.stored, ctx)


def element_multiply(f: PolyElement, g: PolyElement,
                     ctx: Optional[SearchContext] = None) -> PolyElement:
    """Exact product in the quotient; killed monomials vanish, coefficients
    reduce per the ring's regime."""
    ring = f.ring
    if ring is not g.ring and ring != g.ring:
        raise PreconditionViolated("operands share a model")
    if ctx is None:
        ctx = SearchContext()
    xdeg = f._xdeg + g._xdeg if isinstance(ring, Int2xRing) else 0
    _check_degree_cap(ctx.budgets.degree_cap, f.max_tdeg() + g.max_tdeg(), xdeg)
    out = PolyElement(ring, ring.multiply(f.stored, g.stored, ctx))
    if xdeg:
        # Z[x, t] has no zero divisors: a nonzero product's largest
        # x-degree is the sum of its factors'
        out.__dict__["_xdeg"] = xdeg if out.stored else 0
    return out


def element_power(f: PolyElement, n: int,
                  ctx: Optional[SearchContext] = None) -> PolyElement:
    if n < 1:
        raise PreconditionViolated("n >= 1", f"got {n}")
    out = f
    for _ in range(n - 1):
        if out.is_zero:
            break  # 0 * f = 0, and the degree cap already passed 2 * deg f
        out = element_multiply(out, f, ctx)
    return out


def element_scale(f: PolyElement, c, ctx: Optional[SearchContext] = None) -> PolyElement:
    return _element(f.ring, [(k, coeff * c) for k, coeff in f.stored], ctx)


# ---------------------------------------------------------------------------
# ideal handles for the integer model


def _prefix_products(combos, factors, multiply, ctx) -> Iterator[tuple]:
    """(combo, product of factors[j] for j in combo) for index tuples in
    lexicographic order. Each proper prefix is multiplied once, at the first
    combo that has it, so a product (and any budget error it raises) happens
    at the same combo as a left-to-right product per combo would."""
    head: tuple = ()  # the current combo[:-1]
    stack: list = []  # stack[j]: product over head[:j + 1]
    for combo in combos:
        if combo[:-1] != head:
            new = combo[:-1]
            i = 0
            for a, b in zip(new, head):
                if a != b:
                    break
                i += 1
            del stack[i:]
            for j in new[i:]:
                stack.append(multiply(stack[-1], factors[j], ctx) if stack
                             else factors[j])
            head = new
        last = factors[combo[-1]]
        yield combo, multiply(stack[-1], last, ctx) if stack else last


@dataclass(frozen=True)
class IntIdeal:
    """Membership predicate for the catalog ideals of Z + 2xZ[x].

    A coefficient at x^k needs 2-valuation >= v0 (k = 0), v_low (1 <= k <=
    thresh), v_high (k > thresh); relax_at, when set, lowers the requirement
    at that single degree to v0 (used for quotient images).

    Carries the ideal protocol the verdict layer is written against (see
    MonomialIdeal) on monomial keys: every generator is one term c*x^j at
    t-degree 0, and `generators` lists them as (j, c). A product of keys adds
    degrees and multiplies coefficients; `contains` is the 2-valuation
    predicate on one key, and on each term of a PolyElement (the form
    element_in_ideal passes). `gens` stays the PolyElement view that reports,
    repr, sampling and generator_elements read.
    """

    v0: int
    v_low: int
    v_high: int
    thresh: int
    gens: tuple[PolyElement, ...] = ()
    relax_at: Optional[int] = None
    label: str = ""

    def __post_init__(self):
        for g in self.gens:
            if len(g.stored) != 1 or g.stored[0][0][1] != 0:
                raise PreconditionViolated(
                    "integer-model ideal generators are monomials c*x^j",
                    f"got {g!r}")

    def required(self, xdeg: int) -> int:
        if xdeg == 0:
            return self.v0
        if self.relax_at is not None and xdeg == self.relax_at:
            return self.v0
        return self.v_low if xdeg <= self.thresh else self.v_high

    @cached_property
    def generators(self) -> tuple[tuple[int, int], ...]:
        """The generators as (x-degree, coefficient) keys, in gens order."""
        return tuple((k[0], c) for g in self.gens for k, c in g.stored)

    def contains(self, x, ctx: Optional[SearchContext] = None) -> bool:
        """x is a key (x-degree, coefficient); a PolyElement is inside when
        every one of its terms is."""
        if isinstance(x, PolyElement):
            # required() inlined; a stored coefficient is nonzero, so its
            # 2-valuation reaches need iff its low need bits are clear
            for (xd, _td), c in x.stored:
                need = (self.v0 if xd == 0 or xd == self.relax_at else
                        self.v_low if xd <= self.thresh else self.v_high)
                if c & ((1 << need) - 1):
                    return False
            return True
        xd, c = x
        return _v2_int(c) >= self.required(xd)

    def multiply(self, x: tuple[int, int], y: tuple[int, int],
                 ctx: Optional[SearchContext] = None) -> tuple[int, int]:
        xdeg = x[0] + y[0]
        _check_degree_cap((ctx or SearchContext()).budgets.degree_cap, 0, xdeg)
        return xdeg, x[1] * y[1]

    def nth_power(self, x: tuple[int, int], n: int,
                  ctx: Optional[SearchContext] = None) -> tuple[int, int]:
        """x^n one factor at a time, so a degree cap names the first
        x-degree past it."""
        out = x
        for _ in range(n - 1):
            out = self.multiply(out, x, ctx)
        return out

    def products(self, n: int, ctx: SearchContext):
        """(factors, key) for every n-fold product of generators,
        multiset-enumerated in lexicographic order, each shared prefix
        multiplied once; charged in full when iteration starts."""
        keys = self.generators
        count = math.comb(len(keys) + n - 1, n)
        ctx.precheck_multisets(count)
        ctx.charge_multisets(count)
        yield from _prefix_products(
            itertools.combinations_with_replacement(range(len(keys)), n),
            keys, self.multiply, ctx)

    def times_generators(self, points, ctx: SearchContext) -> list:
        """The distinct products of the keys `points` with the generators,
        in first-seen order; charged one multiset per pair, refused up
        front when they would not fit."""
        count = len(points) * len(self.generators)
        ctx.precheck_multisets(count)
        ctx.charge_multisets(count)
        return list(dict.fromkeys(self.multiply(x, g, ctx) for x in points
                                  for g in self.generators))

    def radical_index(self, x: tuple[int, int], kmax: int,
                      ctx: Optional[SearchContext] = None) -> Optional[int]:
        """Least k <= kmax with x^k in the ideal, or None."""
        cur = x
        for k in range(1, kmax + 1):
            if self.contains(cur):
                return k
            if k < kmax:
                cur = self.multiply(cur, x, ctx)
        return None

    def witness(self, x) -> dict:
        return {}

    def generator_elements(self, ring) -> list[PolyElement]:
        return list(self.gens)

    def power(self, m: int, ctx: Optional[SearchContext] = None) -> "IntIdeal":
        if m < 1:
            raise PreconditionViolated("m >= 1", f"got {m}")
        if m == 1:
            return self
        if self.relax_at is not None:
            raise UnsupportedIdeal("powers of quotient-relaxed ideals are not catalog ideals")
        ring = self.gens[0].ring if self.gens else Int2xRing()
        if self.thresh == 0:
            # principal (2^v0) case
            return IntIdeal(self.v0 * m, self.v0 * m + 1, self.v0 * m + 1, 0,
                            gens=(monomial_element(ring, 0, 1 << (self.v0 * m)),),
                            label=f"({1 << (self.v0 * m)})")
        new_gens = tuple(
            monomial_element(ring, j, 1 << m)
            for j in range(m * self.thresh + 1))
        return IntIdeal(m, m, m + 1, m * self.thresh, gens=new_gens,
                        label=f"{self.label or 'I'}^{m}")


def int_ideal_full(D: int, ring: Optional[Int2xRing] = None) -> IntIdeal:
    """(2, 2x, ..., 2x^D)"""
    ring = ring or Int2xRing()
    gens = tuple(monomial_element(ring, j, 2) for j in range(D + 1))
    return IntIdeal(1, 1, 2, D, gens=gens, label="I")


def int_ideal_two(ring: Optional[Int2xRing] = None) -> IntIdeal:
    """(2)"""
    ring = ring or Int2xRing()
    return IntIdeal(1, 2, 2, 0, gens=(monomial_element(ring, 0, 2),), label="(2)")


def monomial_element(ring: Ring, e, coeff=1, tdeg: int = 0,
                     ctx: Optional[SearchContext] = None) -> PolyElement:
    """Single-term element. For the integer model e is the x-degree."""
    return make_element(ring, [((e, tdeg), coeff)], ctx)


def element_in_ideal(f: PolyElement, ideal, ctx: Optional[SearchContext] = None) -> bool:
    """Exact ideal membership.

    Monoid models: every term's monomial must lie in the (monomial) ideal;
    the t-degree rides along free because the extension is by a polynomial
    variable. A monomial off the lattice lies in no ideal. Integer model:
    the per-degree 2-valuation predicate.
    """
    if ctx is None:
        ctx = SearchContext()
    if isinstance(ideal, IntIdeal):
        if not isinstance(f.ring, Int2xRing):
            raise UnsupportedIdeal("integer-model ideal applied to a monoid element")
        return ideal.contains(f)
    if not isinstance(ideal, MonomialIdeal):
        raise UnsupportedIdeal(f"unknown ideal handle {type(ideal).__name__}")
    if isinstance(f.ring, Int2xRing):
        raise UnsupportedIdeal("monomial ideal applied to an integer-model element")
    _check_frame(f.ring.monoid, ideal)
    for (v, _td), _c in f.stored:
        if not (_on_lattice(v) and ideal_lattice_member(ideal, v, ctx)):
            return False
    return True


def _check_frame(S: MonoidPresentation, ideal: MonomialIdeal):
    """Lattice points of S mean the same exponents in the ideal's monoid."""
    T = ideal.monoid
    if T is not S and (T.dim, T.denominator_bound) != (S.dim, S.denominator_bound):
        raise PreconditionViolated(
            "element and ideal share a lattice frame",
            f"ring monoid {S.name!r}, ideal monoid {T.name!r}")


# ---------------------------------------------------------------------------
# sampling and finite enumeration


def random_element(ring: Ring, ideal, degree_bound: int, seed: int,
                   ctx: Optional[SearchContext] = None,
                   allow_zero: bool = False) -> PolyElement:
    """Reproducible pseudo-random element of ideal * (ring extended by t).

    Deterministic in (seed, ring, ideal, degree_bound). Every summand is an
    ideal generator times a small ring element, so membership holds by
    construction. Resamples a few times rather than return zero (truncation
    can kill everything) unless allow_zero is set.
    """
    rng = random.Random(seed)
    for _attempt in range(24):
        f = _sample_once(ring, ideal, degree_bound, rng, ctx)
        if allow_zero or not f.is_zero:
            return f
    return f


def _sample_once(ring, ideal, degree_bound, rng, ctx):
    """One draw: every summand's terms, normalized once at the end."""
    nsum = rng.randint(1, 3)
    terms = []
    if isinstance(ideal, IntIdeal):
        if not isinstance(ring, Int2xRing):
            raise UnsupportedIdeal("integer-model ideal applied to a monoid ring")
        cap = (ctx or SearchContext()).budgets.degree_cap
        keys = ideal.generators
        for _ in range(nsum):
            gx, gc = keys[rng.randrange(len(keys))]
            a = rng.randint(-3, 3)
            xk = rng.randint(0, min(3, max(0, degree_bound)))
            b = rng.randint(-2, 2)
            td = rng.randint(0, degree_bound)
            # times the multiplier a t^td + 2b x^max(xk, 1), an element of the
            # ring; a zero part of it raises neither degree
            xk = max(xk, 1)
            _check_degree_cap(cap, td if a else 0, gx + xk if b else gx)
            terms += [((gx, td), gc * a), ((gx + xk, 0), 2 * b * gc)]
    else:
        _check_frame(ring.monoid, ideal)
        gens = ideal.generators
        if not gens:
            return zero_element(ring)
        mgens = ring.monoid._pack["scaled"]
        for _ in range(nsum):
            g = gens[rng.randrange(len(gens))]
            v = g
            for _k in range(rng.randint(0, 2)):
                v = tuple(map(add, v, mgens[rng.randrange(len(mgens))]))
            td = rng.randint(0, degree_bound)
            if isinstance(ring, CharPMonoidRing):
                coeff = rng.randint(1, ring.p - 1) if ring.p > 2 else 1
            else:
                coeff = rng.choice([1, 3, -1, 5])
            terms.append(((v, td), coeff))
    return _element(ring, terms, ctx)


def alive_ideal_monomials(ring: CharPMonoidRing, I: MonomialIdeal,
                          ctx: Optional[SearchContext] = None) -> list[ExponentVector]:
    """All non-killed monomials of I in an entry-bounded quotient, at every
    lattice point below the kill bound; only defined when S has one."""
    S = ring.monoid
    if S.kill_bound is None:
        raise UnsupportedIdeal("finite enumeration needs an entry-bounded quotient")
    _check_frame(S, I)
    if ctx is None:
        ctx = SearchContext()
    s0 = S.denominator_bound
    out = []
    for combo in itertools.product(range(S.kill_bound * s0), repeat=S.dim):
        if ideal_lattice_member(I, combo, ctx) and not S.lattice_killed(combo, ctx):
            out.append(combo)
    out.sort(key=lambda v: (S.lattice_weight(v), v))
    return [S.from_lattice(v) for v in out]


def enumerate_ideal_elements(ring: CharPMonoidRing, monomials, ctx=None):
    """Every F_p-combination of the given monomials, zero included."""
    keys = [k for k, _ in ring.stored_terms(((e, 0), 1) for e in monomials)]
    for coeffs in itertools.product(range(ring.p), repeat=len(keys)):
        yield _element(ring, list(zip(keys, coeffs)), ctx)
