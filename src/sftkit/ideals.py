"""Monomial-ideal algebra over a monoid presentation: membership, products,
powers, containment, radical membership, and nilpotency indices.

Ideals are kept with a canonical minimal generator list (ascending weight,
then lexicographic). Minimality under divisibility is decidable here because
the grading is positive: a divisor is strictly lighter, so one ascending pass
with a weight-gap prefilter settles it with very few membership searches.

Below the public edges (generator lists, membership targets and provenance
keys, all ExponentVector) the layer works in the monoid's lattice frame:
integer tuples equal to the exponent times the presentation's denominator
bound, with integer weights (MonoidPresentation.to_lattice).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import add, sub
from typing import Iterator, Optional

from .budget import SearchContext
from .errors import PreconditionViolated
from .exponents import ExponentVector, MonoidPresentation

VERIFIED = "verified"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class MonomialIdeal:
    """Finite generator list of exponent vectors inside a monoid.

    Construct through monomial_ideal(), which normalizes to the canonical
    minimal form; the raw constructor trusts its input.
    """

    monoid: MonoidPresentation
    gens: tuple[ExponentVector, ...]
    label: str = ""

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @cached_property
    def lattice_gens(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """(lattice point, integer weight) of each generator, in gens order."""
        S = self.monoid
        return tuple((v, S.lattice_weight(v))
                     for v in (_lattice_gen(S, g) for g in self.gens))

    def __repr__(self):
        tag = self.label or "ideal"
        return f"<{tag}: {len(self.gens)} gens>"


def _lattice_gen(S: MonoidPresentation, g: ExponentVector) -> tuple[int, ...]:
    v = S.to_lattice(g)
    if v is None:
        raise PreconditionViolated(
            "ideal generators lie in the monoid", f"{g!r} is off its lattice")
    return v


def _divides(S: MonoidPresentation, d: tuple, wd: int, ctx: SearchContext) -> bool:
    """Membership in S of a lattice difference d of weight wd, with cheap
    rejections before the engine runs.

    The prefilters mirror the engine's own root-node prunes, so they never
    change an answer, only skip charged search nodes.
    """
    if not any(d):
        return True
    minw, posm, negm = S._pack["tables"]
    if wd <= 0 or wd < minw[0]:
        return False
    # a coordinate can only move in a direction some generator moves it
    for k, x in enumerate(d):
        if x > 0:
            if not (posm[0] >> k) & 1:
                return False
        elif x < 0 and not (negm[0] >> k) & 1:
            return False
    return S.lattice_member(d, ctx) is not None


def minimalize(S: MonoidPresentation, points, ctx: SearchContext) -> list[tuple]:
    """Reduce a generating set of lattice points to the minimal one under
    divisibility in S, in canonical order.

    Killed (zero-monomial) points generate nothing and are dropped.
    Positive grading makes the minimal set unique, so the result does not
    depend on the route that produced `points`.
    """
    weighted = {}
    for v in points:
        if v not in weighted and not S.lattice_killed(v, ctx):
            weighted[v] = S.lattice_weight(v)
    order = sorted(weighted, key=lambda v: (weighted[v], v))
    minpos = S._pack["tables"][0][0]
    kept: list[tuple] = []
    kept_w: list[int] = []
    for cand in order:
        wc = weighted[cand]
        redundant = False
        for k, wk in zip(kept, kept_w):
            if wk > wc - minpos:
                break  # everything later is heavier still
            if _divides(S, tuple(map(sub, cand, k)), wc - wk, ctx):
                redundant = True
                break
        if not redundant:
            kept.append(cand)
            kept_w.append(wc)
    return kept


def monomial_ideal(S: MonoidPresentation, gens, ctx: Optional[SearchContext] = None,
                   label: str = "", verify_membership: bool = True) -> MonomialIdeal:
    """Canonical ideal from a raw generator list.

    Every generator must lie in the monoid (a generator equal to a monoid
    generator is accepted without a search); redundant and killed generators
    are dropped.
    """
    if ctx is None:
        ctx = SearchContext()
    gens = list(gens)
    if verify_membership:
        monoid_gen_set = set(S.gens)
        for g in gens:
            if g in monoid_gen_set or g.is_zero:
                continue
            if S.is_killed(g, ctx):
                continue  # the zero element; dropped below
            if S.member(g, ctx) is None:
                raise PreconditionViolated(
                    "ideal generators lie in the monoid", f"{g!r} is not in the monoid")
    kept = minimalize(S, [_lattice_gen(S, g) for g in gens], ctx)
    return MonomialIdeal(S, tuple(map(S.from_lattice, kept)), label)


def ideal_member(I: MonomialIdeal, target: ExponentVector,
                 ctx: Optional[SearchContext] = None) -> bool:
    """Exact membership of the monomial x^target in I.

    A killed target is the ring's zero element, which lies in every ideal.
    Otherwise target is in I iff it is a generator plus a monoid element. A
    target off the monoid's lattice is no monomial of the ring: not a member.
    """
    if ctx is None:
        ctx = SearchContext()
    v = I.monoid.to_lattice(target)
    return v is not None and ideal_lattice_member(I, v, ctx)


def ideal_lattice_member(I: MonomialIdeal, v: tuple, ctx: SearchContext) -> bool:
    """ideal_member for a lattice point of I's monoid."""
    S = I.monoid
    if S.lattice_killed(v, ctx):
        return True
    wv = S.lattice_weight(v)
    for g, wg in I.lattice_gens:
        if _divides(S, tuple(map(sub, v, g)), wv - wg, ctx):
            return True
    return False


def ideal_contains_witness(I: MonomialIdeal, J: MonomialIdeal,
                           ctx: Optional[SearchContext] = None) -> Optional[ExponentVector]:
    """First generator of J (canonical order) outside I, or None when J ⊆ I."""
    if I.monoid is not J.monoid and I.monoid != J.monoid:
        raise PreconditionViolated("same owning monoid")
    if ctx is None:
        ctx = SearchContext()
    for g, (v, _) in zip(J.gens, J.lattice_gens):
        if not ideal_lattice_member(I, v, ctx):
            return g
    return None


def ideal_contains(I: MonomialIdeal, J: MonomialIdeal,
                   ctx: Optional[SearchContext] = None) -> bool:
    """True iff J ⊆ I (every generator of J passes ideal_member)."""
    return ideal_contains_witness(I, J, ctx) is None


def ideal_powers(I: MonomialIdeal, mmax: int, ctx: SearchContext
                 ) -> Iterator[tuple[int, MonomialIdeal, dict[ExponentVector, tuple[int, ...]]]]:
    """(m, I^m, provenance) for m = 1..mmax, each power minimalize(I^(m-1)·I).

    provenance maps each generator of I^m to one factorization into indices
    of I's generators (deterministic: first seen in canonical order). A step
    is enumerated and charged only when the consumer asks for it.
    """
    S = I.monoid
    base = [v for v, _ in I.lattice_gens]
    # generators of the current power -> provenance, in canonical order
    layer = {v: (i,) for i, v in enumerate(base)}
    current = I
    for m in range(1, mmax + 1):
        if m > 1 and base:
            count = len(layer) * len(base)
            ctx.precheck_multisets(count)
            ctx.charge_multisets(count)
            nxt: dict[tuple, tuple[int, ...]] = {}
            for p, prov in layer.items():
                for j, g in enumerate(base):
                    e = tuple(map(add, p, g))
                    if e not in nxt:
                        nxt[e] = tuple(sorted(prov + (j,)))
            kept = minimalize(S, nxt, ctx)
            layer = {v: nxt[v] for v in kept}
            current = MonomialIdeal(S, tuple(map(S.from_lattice, kept)),
                                    f"{I.label or 'I'}^{m}")
        yield m, current, dict(zip(current.gens, layer.values()))


def ideal_power_with_provenance(I: MonomialIdeal, m: int,
                                ctx: Optional[SearchContext] = None
                                ) -> tuple[MonomialIdeal, dict[ExponentVector, tuple[int, ...]]]:
    """I^m plus, for each surviving generator, one factorization into
    indices of I's generators (deterministic: first seen in canonical order).
    """
    if m < 1:
        raise PreconditionViolated("m >= 1", f"got {m}")
    if ctx is None:
        ctx = SearchContext()
    for _, power, provenance in ideal_powers(I, m, ctx):
        pass
    return power, provenance


def ideal_power(I: MonomialIdeal, m: int,
                ctx: Optional[SearchContext] = None) -> MonomialIdeal:
    """The ideal generated by all m-fold products of generators, minimalized."""
    power, _ = ideal_power_with_provenance(I, m, ctx)
    return power


@dataclass(frozen=True)
class RadicalResult:
    status: str  # verified | refuted | inconclusive
    k: Optional[int] = None


def radical_member(B: MonomialIdeal, target: ExponentVector, kmax: int,
                   ctx: Optional[SearchContext] = None) -> RadicalResult:
    """Least k <= kmax with k*target in B.

    The only refutation this can issue is for the zero exponent vector, whose
    powers are all itself, so non-membership is decided for every power at
    once. Everything else that fails up to kmax is inconclusive: a larger
    power might still land in B.
    """
    if kmax < 1:
        raise PreconditionViolated("kmax >= 1", f"got {kmax}")
    if ctx is None:
        ctx = SearchContext()
    if target.is_zero:
        if ideal_member(B, target, ctx):
            return RadicalResult(VERIFIED, 1)
        return RadicalResult(REFUTED)
    for k in range(1, kmax + 1):
        if ideal_member(B, target.scale(k), ctx):
            return RadicalResult(VERIFIED, k)
    return RadicalResult(INCONCLUSIVE)


@dataclass(frozen=True)
class NilpotencyResult:
    status: str  # verified | inconclusive
    m: Optional[int] = None


def nilpotency_index(I: MonomialIdeal, B: MonomialIdeal, mmax: int,
                     ctx: Optional[SearchContext] = None) -> NilpotencyResult:
    """Least m <= mmax with I^m ⊆ B. Requires B ⊆ I."""
    if mmax < 1:
        raise PreconditionViolated("mmax >= 1", f"got {mmax}")
    if ctx is None:
        ctx = SearchContext()
    if not ideal_contains(I, B, ctx):
        raise PreconditionViolated("B ⊆ I", "the sub-ideal is not inside the ideal")
    for m, power, _ in ideal_powers(I, mmax, ctx):
        if ideal_contains(B, power, ctx):
            return NilpotencyResult(VERIFIED, m)
    return NilpotencyResult(INCONCLUSIVE)
