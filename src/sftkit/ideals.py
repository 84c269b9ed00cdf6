"""Monomial-ideal algebra over a monoid presentation: membership, products,
powers, radical indices, and the least power inside a sub-ideal.

Ideals are kept with a canonical minimal generator list (ascending weight,
then lexicographic). Minimality under divisibility is decidable here because
the grading is positive: a divisor is strictly lighter, so one ascending pass
with a weight-gap prefilter settles it with very few membership searches.

Below the public edges (monomial_ideal's generators, ideal_member's target
and ideal_power_with_provenance's keys, all ExponentVector) the layer works
in the monoid's lattice frame: integer tuples equal to the exponent times
the presentation's denominator bound, with integer weights
(MonoidPresentation.to_lattice). A MonomialIdeal stores its generators as
lattice points, so building, multiplying and comparing ideals never leaves
the frame; `gens` is the ExponentVector view. Each power step sums the
previous power's generators with the base's: as a pair loop, or in rank 1 as
a bitset sumset with the same result. Each route is charged for what it
forms: the pair loop one multiset per pair, the sumset one per distinct sum.

Membership of a point in an ideal loops over the generators g, lightest
first, asking whether the point minus g is in the monoid. In rank 1 the
loop is answered from the ideal's generator bitsets and a byte copy of the
context's one reachability bitset, one node per query that reads it, as the
reachability bit test is charged (_rank1_member); first_pair_outside scans
generator pairs by shifts for the witness search, one multiset per distinct
sum it decides.

MonomialIdeal also carries the ideal protocol the verdict layer is written
against: its elements are lattice points, `generators` lists them,
`contains`, `multiply`, `nth_power`, `power`, `products`,
`times_generators` and `radical_index` work on them, `witness` names one
in a report and `generator_elements` turns the generators into ring
elements. The integer model's IntIdeal carries the same methods on
monomial keys (x-degree, coefficient); its `products` enumerates multisets
of generators in lexicographic order and multiplies each shared prefix
once.
least_power_inside decides the least n with I^n ⊆ B on either kind through
that protocol, without building a full power. Whole-ideal questions go
through the same protocol: J ⊆ I is I.contains on each of J's generators,
and the least k with x^k in B is B.radical_index.

Orbits. The coordinate permutations of MonoidPresentation._sym_classes
form a group G of automorphisms of S. When G also leaves the kill
invariant and an ideal's generator set is closed under it, membership in
that ideal is the same for every point of a G-orbit. Then
least_power_inside keeps one representative per orbit of its outside set
(and charges for those alone), minimalize decides redundancy once per
orbit of an invariant input, and the verdict layer's generator checks
decide one generator per orbit (one_per_orbit). Everywhere else (rank 1,
no symmetry, a non-invariant ideal or kill, IntIdeal) the representative
is the point itself, on the same code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import add, sub
from typing import Iterator, Optional

from .budget import SearchContext
from .errors import PreconditionViolated
from . import exponents
from .exponents import ExponentVector, MonoidPresentation

@dataclass(frozen=True)
class MonomialIdeal:
    """Finite generator list of a monomial ideal inside a monoid, stored as
    lattice points of the monoid in canonical order.

    Construct through monomial_ideal() (ExponentVector generators, each
    checked to lie in the monoid) or lattice_ideal() (lattice points known
    to), which normalize to the canonical minimal form; the raw constructor
    trusts its input. `gens` is the read-only view with ExponentVector
    generators that reports and ideal_power_with_provenance show.
    """

    monoid: MonoidPresentation
    generators: tuple[tuple[int, ...], ...]
    label: str = ""

    @cached_property
    def gens(self) -> tuple[ExponentVector, ...]:
        return tuple(map(self.monoid.from_lattice, self.generators))

    @cached_property
    def gen_weights(self) -> tuple[int, ...]:
        """Integer grading of each generator, in generators order."""
        return tuple(map(self.monoid.lattice_weight, self.generators))

    @cached_property
    def _rank1(self) -> Optional[tuple[int, int, int, int, int]]:
        """What _rank1_member reads, fixed per ideal: (bit g for each
        generator g, bit gmax - g for each, the least generator g0, the
        largest gmax, the least monoid generator m). None off rank 1, on a
        monoid or an ideal without generators, or when the generators are
        not strictly ascending inside the membership table's range
        0.._RANK1_BOUND."""
        S = self.monoid
        if S.dim != 1 or not S.gens or not self.generators:
            return None
        vals = [g for (g,) in self.generators]
        if not (0 <= vals[0] and vals[-1] <= exponents._RANK1_BOUND) or any(
                x >= y for x, y in zip(vals, vals[1:])):
            return None
        bits = reflected = 0
        for (g,) in self.generators:
            bits |= 1 << g
            reflected |= 1 << (vals[-1] - g)
        return bits, reflected, vals[0], vals[-1], S._pack["gens_int"][-1][0]

    @cached_property
    def _invariant(self) -> bool:
        """The monoid's symmetry group G acts on the model and leaves this
        ideal invariant (MonoidPresentation._acts_on its generators)."""
        return self.monoid._acts_on(self.generators)

    @property
    def is_zero(self) -> bool:
        return not self.generators

    def __repr__(self):
        tag = self.label or "ideal"
        return f"<{tag}: {len(self.generators)} gens>"

    # -- the ideal protocol, on lattice points

    def contains(self, v: tuple, ctx: Optional[SearchContext] = None) -> bool:
        return ideal_lattice_member(self, v, ctx or SearchContext())

    def multiply(self, v: tuple, w: tuple, ctx=None) -> tuple:
        return tuple(map(add, v, w))

    def nth_power(self, v: tuple, n: int, ctx=None) -> tuple:
        return tuple(n * x for x in v)

    def power(self, m: int, ctx: Optional[SearchContext] = None) -> "MonomialIdeal":
        return _power(self, m, ctx)[0]

    def products(self, n: int, ctx: Optional[SearchContext] = None) -> list:
        """(factors, point) for each generator of I^n; factors index gens."""
        return [(factors, v) for v, factors in _power(self, n, ctx)[1].items()]

    def times_generators(self, points, ctx: SearchContext) -> list:
        """The distinct products of `points` with the generators, in
        first-seen order of the (point, generator) pairs, the points taken
        in ascending order in rank 1; charged as _sums charges."""
        if self.monoid.dim == 1:
            points = sorted(points)
        return list(_sums(self.monoid, points, self.generators, ctx))

    def radical_index(self, v: tuple, kmax: int,
                      ctx: Optional[SearchContext] = None) -> Optional[int]:
        """Least k <= kmax with k·v in the ideal, or None; kmax must be at
        least 1.

        None decides nothing for a nonzero v: a larger multiple might still
        land in the ideal. The zero point is its own every multiple, so it
        is tested once and None then means no power of it lies inside.
        """
        if kmax < 1:
            raise PreconditionViolated("kmax >= 1", f"got {kmax}")
        if ctx is None:
            ctx = SearchContext()
        for k in range(1, (kmax if any(v) else 1) + 1):
            if ideal_lattice_member(self, tuple(k * x for x in v), ctx):
                return k
        return None

    def witness(self, v: tuple) -> dict:
        return {"exponent": self.monoid.from_lattice(v)}

    def generator_elements(self, ring) -> list:
        from .elements import _check_frame, _element  # elements imports this module
        _check_frame(ring.monoid, self)
        return [_element(ring, [((v, 0), 1)], None) for v in self.generators]


def _identity(x):
    return x


def orbit_rep(*ideals):
    """The map x -> representative of x's orbit under the monoid's
    coordinate symmetries G (MonoidPresentation._sym_classes) when G acts
    on the model and leaves every ideal given invariant, else the identity
    (rank 1, no symmetry, a non-invariant ideal or kill, the integer
    model's IntIdeal).

    Then membership in each of them, and the least power of x inside, is
    the same for x and its representative, so a question asked of every
    point of an orbit needs deciding once.
    """
    if all(isinstance(J, MonomialIdeal) and J._invariant for J in ideals):
        return ideals[0].monoid._orbit_rep
    return _identity


def one_per_orbit(points, *ideals) -> Iterator[tuple[int, object]]:
    """(i, points[i]) for each point whose orbit_rep(*ideals) no earlier
    point has: the points a check that holds orbit by orbit must decide."""
    rep, seen = orbit_rep(*ideals), set()
    for i, x in enumerate(points):
        r = rep(x)
        if r not in seen:
            seen.add(r)
            yield i, x


def _divides(S: MonoidPresentation, d: tuple, wd: int, ctx: SearchContext) -> bool:
    """Membership in S of a lattice difference d of weight wd, with cheap
    rejections before the engine runs.

    The prefilters mirror the engine's own root-node prunes, so they never
    change an answer, only skip charged search nodes.
    """
    if not any(d):
        return True
    minw, posm, negm, _ = S._pack["tables"]
    if wd <= 0 or wd < minw[0]:
        return False
    # a coordinate can only move in a direction some generator moves it
    for k, x in enumerate(d):
        if x > 0:
            if not (posm[0] >> k) & 1:
                return False
        elif x < 0 and not (negm[0] >> k) & 1:
            return False
    return S.lattice_contains(d, ctx)


def minimalize(S: MonoidPresentation, points, ctx: SearchContext) -> list[tuple]:
    """Reduce a generating set of lattice points to the minimal one under
    divisibility in S, in canonical order.

    Killed (zero-monomial) points generate nothing and are dropped.
    Positive grading makes the minimal set unique, so the result does not
    depend on the route that produced `points`.

    When the monoid's symmetry group G acts on the model and the points
    left are a G-invariant set (MonoidPresentation._acts_on), redundancy
    is decided once per G-orbit and the answer reused for the orbit's
    other points: a point is only tested against kept points lighter than
    it, those form an invariant set (the unique minimal set of an
    invariant set is invariant), and G preserves weight and divisibility.
    Otherwise every point is decided.
    """
    weighted = {}
    for v in points:
        if v not in weighted and not (S.kills and S.lattice_killed(v, ctx)):
            weighted[v] = S.lattice_weight(v)
    order = sorted(weighted, key=lambda v: (weighted[v], v))
    rep = None  # chosen at the first redundancy test, which many calls never make
    minpos = S._pack["tables"][0][0]
    kept: list[tuple] = []
    kept_w: list[int] = []
    decided: dict[tuple, bool] = {}  # orbit representative -> redundant
    for cand in order:
        wc = weighted[cand]
        redundant = False
        if kept and kept_w[0] <= wc - minpos:  # a kept point may divide cand
            if rep is None:
                rep = S._orbit_rep if S._acts_on(weighted) else _identity
            r = rep(cand)
            if r not in decided:
                for k, wk in zip(kept, kept_w):
                    if wk > wc - minpos:
                        break  # everything later is heavier still
                    if _divides(S, tuple(map(sub, cand, k)), wc - wk, ctx):
                        redundant = True
                        break
                decided[r] = redundant
            redundant = decided[r]
        if not redundant:
            kept.append(cand)
            kept_w.append(wc)
    return kept


def monomial_ideal(S: MonoidPresentation, gens, ctx: Optional[SearchContext] = None,
                   label: str = "") -> MonomialIdeal:
    """Canonical ideal from a raw generator list.

    Every generator must lie in the monoid (a generator equal to a monoid
    generator is accepted without a search); redundant and killed generators
    are dropped.
    """
    if ctx is None:
        ctx = SearchContext()
    monoid_gens = S._gen_lookup
    points = []
    for g in gens:
        v = S.to_lattice(g)
        # monoid generators and the zero vector are members outright; a
        # killed point is the zero element, which minimalize drops
        if v not in monoid_gens and (
                v is None or any(v) and not S.lattice_killed(v, ctx)
                and not S.lattice_contains(v, ctx)):
            raise PreconditionViolated(
                "ideal generators lie in the monoid", f"{g!r} is not in the monoid")
        points.append(v)
    return lattice_ideal(S, points, ctx, label)


def lattice_ideal(S: MonoidPresentation, points, ctx: Optional[SearchContext] = None,
                  label: str = "") -> MonomialIdeal:
    """Canonical ideal from lattice points the caller knows lie in S (the
    monoid's own generators, or multiples of an ideal's generators); unlike
    monomial_ideal it runs no membership check."""
    return MonomialIdeal(S, tuple(minimalize(S, points, ctx or SearchContext())),
                         label)


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
    if S.kills and S.lattice_killed(v, ctx):
        return True
    if S.dim == 1:
        found = _rank1_member(I, v[0], ctx)
        if found is not None:
            return found
    wv = S.lattice_weight(v)
    for g, wg in zip(I.generators, I.gen_weights):
        if _divides(S, tuple(map(sub, v, g)), wv - wg, ctx):
            return True
    return False


def _rank1_member(I: MonomialIdeal, a: int, ctx: SearchContext) -> Optional[bool]:
    """The generator loop of ideal_lattice_member for the rank-1 point a,
    answered from bitsets, or None where it cannot be: a search is due but
    ctx has no reachability table yet, or a is past min(L, _RANK1_BOUND) +
    g0 (L the table bound, g0 the least generator of I), where the loop
    would grow the table or search.

    No search is due when a - m < g0 (m the least monoid generator): then
    a is a member iff it is a generator, at no charge. Otherwise the
    table's bits a - gmax .. a - g0, read off as bytes so the cost does not
    grow with L, line up with the generators reflected about gmax: their
    AND marks every g with a - g a nonzero element of S, and a is a member
    iff some g is marked or a is a generator. A query that reads the table
    is charged one node, as the reachability bit test is.
    """
    fixed = I._rank1
    if fixed is None:
        return None
    gbits, reflected, g0, gmax, m = fixed
    if a - m < g0:
        return a >= 0 and bool(gbits >> a & 1)  # no search is due
    tables = I.monoid._ctx_tables(ctx)
    table = tables.get("rank1")
    if table is None or a > min(table[0], exponents._RANK1_BOUND) + g0:
        return None
    nonzero = tables.get("rank1_bytes")
    if nonzero is None or nonzero[0] is not table:
        L = table[0]
        nonzero = tables["rank1_bytes"] = (
            table, (table[1] & ~1).to_bytes((L >> 3) + 1, "little"))
    lo = a - gmax  # bit k of window: table bit lo + k, generator gmax - k
    first = lo if lo > 0 else 0
    window = int.from_bytes(nonzero[1][first >> 3:((a - g0) >> 3) + 1],
                            "little") >> (first & 7) << (first - lo)
    ctx.charge_nodes(1)
    return bool(window & reflected) or bool(gbits >> a & 1)


def _pair_sums(layer: list, base: tuple) -> dict:
    """Every sum of a layer point and a base point, in first-seen order of
    the (layer index, base index) pairs, mapped to that first pair."""
    first: dict[tuple, tuple[int, int]] = {}
    for i, p in enumerate(layer):
        for j, g in enumerate(base):
            e = tuple(map(add, p, g))
            if e not in first:
                first[e] = (i, j)
    return first


def _rank1_sums(layer: list, base: tuple) -> dict:
    """_pair_sums for rank-1 points in ascending (canonical) order, as a
    bitset sumset: the base's bitset shifted by each layer point in turn,
    keeping only the bits no earlier layer point set. Those come out in
    ascending order, which is base order, so the result, its order and the
    pairs are the pair loop's."""
    lo, p0 = base[0][0], layer[0][0]
    bits = 0
    for (g,) in base:
        bits |= 1 << (g - lo)
    index = {g - lo: j for j, (g,) in enumerate(base)}
    first: dict[tuple, tuple[int, int]] = {}
    seen = 0
    for i, (p,) in enumerate(layer):
        shift = p - p0
        new = (bits << shift) & ~seen
        seen |= new
        while new:
            low = new & -new
            k = low.bit_length() - 1
            first[(p0 + lo + k,)] = (i, index[k - shift])
            new ^= low
    return first


def _sums(S: MonoidPresentation, points: list, base: tuple,
          ctx: SearchContext) -> dict:
    """_pair_sums of points and base, charged for what the route forms. In
    rank 1, with points ascending, a bitset sumset while it spans no more
    than the membership table does, charged one multiset per distinct sum
    it returns; otherwise the pair loop, charged |points|·|base| multisets
    and refused up front when they would not fit."""
    if (S.dim == 1 and points and base and points[-1][0] - points[0][0]
            + base[-1][0] - base[0][0] <= exponents._RANK1_BOUND):
        first = _rank1_sums(points, base)
        ctx.charge_multisets(len(first))
        return first
    count = len(points) * len(base)
    ctx.precheck_multisets(count)
    ctx.charge_multisets(count)
    return _pair_sums(points, base)


def rank1_pair_scan_fits(I) -> bool:
    """first_pair_outside applies: a rank-1 MonomialIdeal whose pair sums
    span no more than the membership table does."""
    return (isinstance(I, MonomialIdeal) and I._rank1 is not None
            and 2 * (I.generators[-1][0] - I.generators[0][0])
            <= exponents._RANK1_BOUND)


def first_pair_outside(I: MonomialIdeal, B, inside: dict,
                       ctx: SearchContext) -> Optional[tuple[tuple, tuple]]:
    """((i, j), g_i + g_j) for the lexicographically least pair i < j of I's
    rank-1 generators whose sum is not in B, or None, by shifts: row i's
    sums are the bitset of g_{j>i} shifted by g_i, and only the bits no
    earlier row set are new. Each new sum, ascending, is looked up in
    `inside` (point -> in B, shared with the caller) and otherwise decided
    by B.contains and recorded there; the first one outside B is the
    witness.

    Charged for what it forms: one multiset per distinct sum it decides,
    up to and including the witness, and B.contains's nodes once per
    distinct sum in scan order. Requires rank1_pair_scan_fits(I).
    """
    vals = [g for (g,) in I.generators]
    lo = vals[0]
    index = {g: j for j, g in enumerate(vals)}
    bits = I._rank1[0] >> lo
    seen = 0  # bit s: the sum 2*lo + s was met in an earlier row
    for i, gi in enumerate(vals):
        off = gi - lo
        new = ((bits >> (off + 1)) << (2 * off + 1)) & ~seen
        seen |= new
        while new:
            low = new & -new
            s = low.bit_length() - 1
            ctx.charge_multisets(1)
            v = (2 * lo + s,)
            hit = inside.get(v)
            if hit is None:
                hit = inside[v] = B.contains(v, ctx)
            if not hit:
                return (i, index[s - off + lo]), v
            new ^= low
    return None


def _power(I: MonomialIdeal, m: int, ctx: Optional[SearchContext]
           ) -> tuple[MonomialIdeal, dict[tuple, tuple[int, ...]]]:
    """(I^m, layer), each power from 2 to m minimalize(I^(m-1)·I), charged
    as _sums charges its route.

    layer maps each generator of I^m, in canonical order, to one
    factorization into indices of I's generators: that of the first
    (generator of I^(m-1), generator of I) pair, both in canonical order,
    that sums to it.
    """
    if m < 1:
        raise PreconditionViolated("m >= 1", f"got {m}")
    if ctx is None:
        ctx = SearchContext()
    S = I.monoid
    base = I.generators
    layer = {v: (i,) for i, v in enumerate(base)}
    power = I
    for k in range(2, m + 1 if base else 2):  # the zero ideal is its own power
        first = _sums(S, list(layer), base, ctx)
        kept = minimalize(S, first, ctx)
        factors = list(layer.values())
        layer = {}
        for v in kept:
            i, j = first[v]
            layer[v] = tuple(sorted(factors[i] + (j,)))
        power = MonomialIdeal(S, tuple(kept), f"{I.label or 'I'}^{k}")
    return power, layer


def ideal_power_with_provenance(I: MonomialIdeal, m: int,
                                ctx: Optional[SearchContext] = None
                                ) -> tuple[MonomialIdeal, dict[ExponentVector, tuple[int, ...]]]:
    """I^m plus, for each surviving generator, one factorization into
    indices of I's generators (deterministic: first seen in canonical order).
    """
    power, layer = _power(I, m, ctx)
    return power, dict(zip(power.gens, layer.values()))


def least_power_inside(I, B, cap: int, ctx: SearchContext) -> Optional[int]:
    """Least n <= cap with I^n ⊆ B, or None, for two ideals of one kind
    (MonomialIdeal, or the integer model's IntIdeal).

    Decided on the outside set: the n-fold products of I's generators that
    are not in B. B is an ideal, so a product in B stays in B under one
    more factor, and the outside set at n is the distinct products of the
    one at n - 1 with I's generators, minus B. I^n ⊆ B iff it is empty. No
    full power is built and nothing is minimalized.

    The outside set is kept as orbit representatives (orbit_rep): when the
    monoid's symmetry group G acts on the model and leaves I and B
    invariant, the outside set at each step is G-invariant, and the
    products of its representatives with I's generators reach every orbit
    of the next one, so each orbit is decided once and the least n is the
    same. Otherwise the representative is the point itself. Each step is
    charged by I.times_generators for the products of the representatives
    it forms.
    """
    rep = orbit_rep(I, B)
    outside: list = []
    for n in range(1, cap + 1):
        products = (I.generators if n == 1
                    else I.times_generators(outside, ctx))
        outside = [x for x in dict.fromkeys(map(rep, products))
                   if not B.contains(x, ctx)]
        if not outside:
            return n
    return None
