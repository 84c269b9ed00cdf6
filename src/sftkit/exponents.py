"""Exponent vectors and finitely generated exponent monoids with positive
gradings.

The membership decision (is a target vector a nonnegative integer combination
of the generators?) is the hot path of the whole toolkit. It is run on scaled
integer vectors: rank-1 targets through a bitset table, everything else
through the bounded depth-first search in _search_py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Iterable, Iterator, Optional

from . import _search_py
from .budget import SearchContext
from .errors import PreconditionViolated, SearchBudgetExceeded

ENGINE_NAME = _search_py.ENGINE_NAME

# cap on the ambient dimension, checked by the model constructors before
# they build anything (the search's coordinate masks are Python ints, so the
# cap is a sanity bound on model size, not a word width)
MAX_DIM = 64

# cap on the generators a model family builds (8! = 40,320, rational_valuation
# at denBound 8), checked from its parameters before anything is built: a
# sanity bound on model size, so an oversized claim file is refused, not run
MAX_GENS = 40320

# rank-1 targets up to this value use the bitset table; beyond it the
# depth-first search takes over (the table would need that many bits)
_RANK1_BOUND = 1 << 22

# the least bound a rank-1 table is built to
_RANK1_MIN = 4096


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"exponent entries must be exact rationals, got {type(x).__name__}")


@dataclass(frozen=True)
class ExponentVector:
    """Sparse rational exponent vector: the exponent of a monomial.

    entries holds (index, value) pairs, index-sorted, zero values omitted.
    """

    dim: int
    entries: tuple[tuple[int, Fraction], ...]

    def __post_init__(self):
        last = -1
        for idx, val in self.entries:
            if not 0 <= idx < self.dim:
                raise ValueError(f"index {idx} outside ambient dimension {self.dim}")
            if idx <= last:
                raise ValueError("entries must be strictly index-sorted")
            if val == 0:
                raise ValueError("zero entries must be omitted")
            last = idx

    @classmethod
    def from_dense(cls, values: Iterable) -> "ExponentVector":
        vals = [_as_fraction(v) for v in values]
        entries = tuple((i, v) for i, v in enumerate(vals) if v != 0)
        return cls(len(vals), entries)

    @classmethod
    def from_map(cls, dim: int, mapping: dict) -> "ExponentVector":
        entries = tuple(sorted((i, _as_fraction(v)) for i, v in mapping.items() if v != 0))
        return cls(dim, entries)

    @classmethod
    def zero(cls, dim: int) -> "ExponentVector":
        return cls(dim, ())

    @classmethod
    def unit(cls, dim: int, index: int, value=1) -> "ExponentVector":
        return cls.from_map(dim, {index: value})

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def dense(self) -> tuple[Fraction, ...]:
        out = [Fraction(0)] * self.dim
        for i, v in self.entries:
            out[i] = v
        return tuple(out)

    def entry(self, i: int) -> Fraction:
        for idx, v in self.entries:
            if idx == i:
                return v
            if idx > i:
                break
        return Fraction(0)

    def tdeg(self) -> Fraction:
        return sum((v for _, v in self.entries), Fraction(0))

    def denominator_lcm(self) -> int:
        d = 1
        for _, v in self.entries:
            d = d * v.denominator // math.gcd(d, v.denominator)
        return d

    def __add__(self, other: "ExponentVector") -> "ExponentVector":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        m = dict(self.entries)
        for i, v in other.entries:
            m[i] = m.get(i, Fraction(0)) + v
        return ExponentVector.from_map(self.dim, m)

    def __sub__(self, other: "ExponentVector") -> "ExponentVector":
        return self + other.scale(-1)

    def scale(self, k: int) -> "ExponentVector":
        if k == 0:
            return ExponentVector.zero(self.dim)
        return ExponentVector(self.dim, tuple((i, v * k) for i, v in self.entries))

    def __repr__(self):
        if self.is_zero:
            return f"EV[0]^{self.dim}"
        body = ",".join(f"{i}:{v}" for i, v in self.entries)
        return f"EV({body})@{self.dim}"


@dataclass(frozen=True)
class MonoidMembershipWitness:
    """Multiplicities of generators summing to the target, sparse over
    presentation generator indices."""

    counts: tuple[tuple[int, int], ...]

    def resum(self, S: "MonoidPresentation") -> ExponentVector:
        acc = ExponentVector.zero(S.dim)
        for idx, c in self.counts:
            acc = acc + S.gens[idx].scale(c)
        return acc


# kill specs describe which monomials are identified with zero in a
# truncated quotient; they must be monotone under monomial divisibility.
#   ("entry_ge", p)        some coordinate reaches p
#   ("ideal_gens", (g,..)) the monomial lies in the ideal the vectors generate
#   ("or", s1, s2)         union of two specs
def _validate_kill(spec, dim: int):
    if spec is None:
        return
    tag = spec[0]
    if tag == "entry_ge":
        if len(spec) != 2 or not isinstance(spec[1], int) or spec[1] < 1:
            raise ValueError(f"bad kill spec {spec!r}")
    elif tag == "ideal_gens":
        if len(spec) != 2 or not isinstance(spec[1], tuple):
            raise ValueError(f"bad kill spec {spec!r}")
        for g in spec[1]:
            if not isinstance(g, ExponentVector) or g.dim != dim:
                raise ValueError("kill ideal generators must match the ambient dimension")
    elif tag == "or":
        if len(spec) != 3:
            raise ValueError(f"bad kill spec {spec!r}")
        _validate_kill(spec[1], dim)
        _validate_kill(spec[2], dim)
    else:
        raise ValueError(f"unknown kill spec tag {tag!r}")


@dataclass(frozen=True)
class MonoidPresentation:
    """Finitely many generator vectors plus a positive grading.

    The grading functional (one positive rational per coordinate) must be
    strictly positive on every generator; that is what makes membership
    search terminate and is checked at construction.

    Construction scales each generator to its lattice point once (see the
    lattice frame below) and runs its checks on those points and the
    integer grading: dimension, duplicates, positive weight. The search
    data in _pack, the symmetry classes and the ideal layer all start from
    the same points.
    """

    dim: int
    gens: tuple[ExponentVector, ...]
    weights: tuple[Fraction, ...]
    kill: Optional[tuple] = None
    name: str = ""
    # search-ready integer data, built by __post_init__: the lattice frame
    # (generators scaled by the denominator bound s0, in original order, and
    # the integer grading lam), and the same generators sorted by decreasing
    # integer weight (ties by original index) with their suffix tables
    _pack: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 1 <= self.dim <= MAX_DIM:
            raise ValueError(f"ambient dimension must be 1..{MAX_DIM}")
        if len(self.weights) != self.dim:
            raise ValueError("grading must assign a weight to every coordinate")
        weights = tuple(_as_fraction(w) for w in self.weights)
        object.__setattr__(self, "weights", weights)
        for w in weights:
            if w <= 0:
                raise ValueError("grading weights must be positive")
        kw = math.lcm(*(w.denominator for w in weights))
        lam = tuple(w.numerator * kw // w.denominator for w in weights)
        s0 = math.lcm(*(x.denominator for g in self.gens for _, x in g.entries))
        raw: list[tuple[int, ...]] = []
        iw: list[int] = []
        seen: set = set()
        for g in self.gens:
            if g.dim != self.dim:
                raise ValueError("generator dimension mismatch")
            v = [0] * self.dim
            for i, x in g.entries:
                v[i] = x.numerator * s0 // x.denominator
            v = tuple(v)
            if v in seen:  # scaling is injective, so equal points are equal gens
                raise ValueError(f"duplicate generator {g!r}")
            seen.add(v)
            w = sum(map(mul, lam, v))
            if w <= 0:
                raise ValueError(f"grading is not positive on generator {g!r}")
            raw.append(v)
            iw.append(w)
        _validate_kill(self.kill, self.dim)
        # decreasing weight, ties by index (a reverse sort is stable)
        order = sorted(range(len(raw)), key=iw.__getitem__, reverse=True)
        gens_int = tuple(raw[j] for j in order)
        weights_int = tuple(iw[j] for j in order)
        object.__setattr__(self, "_pack", {
            "s0": s0,
            "lam": lam,
            "scaled": tuple(raw),
            "order": tuple(order),
            "gens_int": gens_int,
            "weights_int": weights_int,
            "tables": _search_py.suffix_tables(gens_int, weights_int, self.dim),
        })

    def weight(self, e: ExponentVector) -> Fraction:
        return sum((self.weights[i] * v for i, v in e.entries), Fraction(0))

    @cached_property
    def denominator_bound(self) -> int:
        return self._pack["s0"]

    @cached_property
    def _sym_classes(self) -> tuple[tuple[int, ...], ...]:
        """Maximal groups of interchangeable coordinates: equal weight, and
        transposing any two maps the generator set onto itself. Membership is
        invariant under permuting such a group, so queries are canonicalized
        before searching (sorting entries within each group); symmetric
        targets then share one search tree and one memo."""
        if self.dim == 1 or not self.gens:
            return ()
        points = self._pack["scaled"]
        gset = set(points)

        def swap_ok(a: int, b: int) -> bool:
            for v in points:
                if v[a] == v[b]:
                    continue
                w = list(v)
                w[a], w[b] = w[b], w[a]
                if tuple(w) not in gset:
                    return False
            return True

        by_weight: dict = {}
        for k in range(self.dim):
            by_weight.setdefault(self.weights[k], []).append(k)
        classes = []
        for coords in by_weight.values():
            used: set[int] = set()
            for i, a in enumerate(coords):
                if a in used:
                    continue
                # transpositions through a fixed representative generate the
                # full symmetric group on the class, so pairwise tests suffice
                cls = [a]
                for b in coords[i + 1:]:
                    if b not in used and swap_ok(a, b):
                        cls.append(b)
                        used.add(b)
                if len(cls) > 1:
                    classes.append(tuple(cls))
        return tuple(sorted(classes))

    def _canonical_target(self, v: tuple):
        """(canonical lattice point, coordinate map) with map[k] = new home
        of coordinate k; (v, None) when nothing moves."""
        classes = self._sym_classes
        if not classes:
            return v, None
        perm = list(range(self.dim))
        changed = False
        for cls in classes:
            # decreasing value, ties by coordinate: a reverse sort is stable
            # and cls is ascending
            for pos, k in zip(cls, sorted(cls, key=v.__getitem__, reverse=True)):
                perm[k] = pos
                if k != pos:
                    changed = True
        if not changed:
            return v, None
        canon = [0] * self.dim
        for k in range(self.dim):
            canon[perm[k]] = v[k]
        return tuple(canon), perm

    @cached_property
    def _gen_lookup(self) -> dict:
        return {v: j for j, v in enumerate(self._pack["scaled"])}

    # -- the lattice frame -------------------------------------------------
    #
    # Every element of S is an integer combination of the generators, so it
    # lies on the lattice of vectors whose entries are multiples of 1/s0,
    # s0 the denominator bound. Below the public edges (ExponentVector in,
    # ExponentVector out) membership, the kill predicate and the ideal layer
    # work on lattice points: integer tuples equal to the vector times s0.

    def to_lattice(self, e: ExponentVector) -> Optional[tuple[int, ...]]:
        """e times the denominator bound as an integer tuple, or None when e
        is off the lattice (no element of S is). A denominator with a prime
        the bound lacks raises PreconditionViolated."""
        if e.dim != self.dim:
            raise ValueError("target dimension mismatch")
        s0 = self.denominator_bound
        out = [0] * self.dim
        for i, x in e.entries:
            q, r = divmod(x.numerator * s0, x.denominator)
            if r:
                self._check_denominators(e)
                return None
            out[i] = q
        return tuple(out)

    def from_lattice(self, v: tuple) -> ExponentVector:
        """The exponent vector of a lattice point."""
        s0 = self.denominator_bound
        return ExponentVector(
            self.dim, tuple((i, Fraction(x, s0)) for i, x in enumerate(v) if x))

    def lattice_weight(self, v: tuple) -> int:
        """Integer grading of a lattice point; order-compatible with weight()."""
        return sum(map(mul, self._pack["lam"], v))

    # -- kill predicate ----------------------------------------------------

    def is_killed(self, e: ExponentVector, ctx: Optional[SearchContext] = None) -> bool:
        """True when the monomial is identified with zero in the model. A
        vector off the lattice is no monomial of S, so nothing kills it."""
        if self.kill is None:
            return False
        v = self.to_lattice(e)
        return v is not None and self.lattice_killed(v, ctx)

    def lattice_killed(self, v: tuple, ctx: Optional[SearchContext] = None) -> bool:
        """is_killed for a lattice point."""
        return self._killed(self._lattice_kill, v, ctx)

    @cached_property
    def _lattice_kill(self):
        """The kill spec in the lattice frame: entry bounds times s0, kill
        generators as lattice points (one off the lattice divides no point
        on it, so it is left out)."""
        def scale(spec):
            if spec is None:
                return None
            tag = spec[0]
            if tag == "entry_ge":
                return (tag, spec[1] * self.denominator_bound)
            if tag == "ideal_gens":
                return (tag, tuple(v for v in map(self.to_lattice, spec[1])
                                   if v is not None))
            return (tag, scale(spec[1]), scale(spec[2]))

        return scale(self.kill)

    def _killed(self, spec, v, ctx) -> bool:
        if spec is None:
            return False
        tag = spec[0]
        if tag == "entry_ge":
            return max(v) >= spec[1]
        if tag == "ideal_gens":
            if ctx is None:
                ctx = SearchContext()
            for g in spec[1]:
                if self.lattice_contains(tuple(a - b for a, b in zip(v, g)),
                                         ctx):
                    return True
            return False
        return self._killed(spec[1], v, ctx) or self._killed(spec[2], v, ctx)

    # -- membership --------------------------------------------------------

    def _check_denominators(self, target: ExponentVector):
        d = target.denominator_lcm()
        s0 = self.denominator_bound
        while d > 1:
            g = math.gcd(d, s0)
            if g == 1:
                raise PreconditionViolated(
                    "target denominators divide a power of the presentation's denominator bound",
                    f"target denominator {target.denominator_lcm()}, bound {s0}")
            while d % g == 0:
                d //= g

    def member(self, target: ExponentVector,
               ctx: Optional[SearchContext] = None) -> Optional[MonoidMembershipWitness]:
        """Decide target ∈ S; the witness is deterministic.

        Queries are first canonicalized by sorting entries within
        interchangeable coordinate groups; for a target already in canonical
        form the witness is the lexicographically largest multiplicity
        vector with generators ordered by decreasing weight, and otherwise it
        is that witness pulled back along the coordinate permutation. It does
        not depend on the queries ctx saw before. A target off the lattice is
        not a member; callers that only need yes or no on a lattice point
        take lattice_contains, which agrees on every answer."""
        if ctx is None:
            ctx = SearchContext()
        v = self.to_lattice(target)
        if v is None:
            return None
        found = self._lattice_search(v, ctx)
        if found is None:
            return None
        counts, query, perm = found
        pack = self._pack
        if counts is None:
            counts = _rank1_counts(query[0], pack["gens_int"])
        order = pack["order"]
        scaled = pack["scaled"]
        pairs = sorted((order[j], c) for j, c in enumerate(counts) if c)
        if perm is not None:
            # witness decomposes the canonical target; pull each generator
            # back through the coordinate map to decompose the original
            remapped: dict[int, int] = {}
            for j, c in pairs:
                g = scaled[j]
                jj = self._gen_lookup[tuple(g[perm[k]] for k in range(self.dim))]
                remapped[jj] = remapped.get(jj, 0) + c
            pairs = sorted(remapped.items())
        if _resum(((scaled[j], c) for j, c in pairs), self.dim) != v:
            # soundness guard; never expected to fire
            raise AssertionError("membership witness does not re-sum to the target")
        return MonoidMembershipWitness(tuple(pairs))

    def lattice_contains(self, v: tuple, ctx: SearchContext) -> bool:
        """Is the lattice point v in S? The route for callers that need no
        witness (divisibility in the ideal layer, the kill predicate,
        generator checks).

        Same search and memo as member(). In rank 1 it is one bit test of
        the reachability table, 1 node, with no witness read off; otherwise
        the search's witness is re-summed against the canonicalized
        target."""
        found = self._lattice_search(v, ctx)
        if found is None:
            return False
        counts, query, _ = found
        if (counts is not None and _resum(zip(self._pack["gens_int"], counts),
                                          self.dim) != query):
            # soundness guard; never expected to fire
            raise AssertionError("membership witness does not re-sum to the target")
        return True

    def _lattice_search(self, v: tuple, ctx: SearchContext):
        """The boundary member and lattice_contains share: None for a
        non-member, else (counts over gens_int, the canonical target they
        sum to, its coordinate map from _canonical_target). counts is None
        for a rank-1 member, which is one bit test with no read-off."""
        if not any(v):
            return [], v, None
        if not self.gens:
            return None
        pack = self._pack
        wtarget = self.lattice_weight(v)
        if wtarget < 0:
            return None
        query, perm = self._canonical_target(v)
        if self.dim == 1 and 0 <= query[0] <= _RANK1_BOUND:
            a = query[0]
            bits = self._rank1_table(a, ctx)
            ctx.charge_nodes(1)
            if not (bits >> a) & 1:
                return None
            counts = None
        else:
            status, counts, nodes = _search_py.run_search(
                pack["gens_int"], pack["weights_int"], *pack["tables"],
                query, wtarget, ctx.nodes_left(),
                self._ctx_tables(ctx).setdefault("memo", {}))
            ctx.charge_nodes(nodes)
            if status == _search_py.BUDGET:
                raise SearchBudgetExceeded(ctx.nodes_used)
            if status == _search_py.NOT_MEMBER:
                return None
        return counts, query, perm

    def _ctx_tables(self, ctx: SearchContext) -> dict:
        """This presentation's search tables in the context: the rank-1
        reachability bitset (and the ideal layer's byte copy) and the search
        memo."""
        slot = ctx.tables.get(id(self))
        if slot is None or slot[0] is not self:
            slot = (self, {})
            ctx.tables[id(self)] = slot
        return slot[1]

    def _rank1_table(self, a: int, ctx: SearchContext) -> int:
        """Numerical-semigroup membership by bitset dynamic programming.

        The context keeps one reachability bitset of S, (bound, bits) under
        "rank1": bit v set when v <= bound is a sum of generators. It covers
        the context's largest query so far and grows geometrically, so a
        whole batch of queries against the same monoid costs one table.
        Each context is charged for its table as if it built it, one pass
        per generator, but the table at the least bound, _RANK1_MIN, is
        built once per presentation and shared. Returns a bitset covering a.
        """
        cache = self._ctx_tables(ctx)
        entry = cache.get("rank1")
        if entry is None or entry[0] < a:
            bound = max(a, _RANK1_MIN, 0 if entry is None else 2 * entry[0])
            bits = (self._rank1_base if bound == _RANK1_MIN
                    else _rank1_build(self._pack["gens_int"], bound))
            ctx.charge_nodes(len(self.gens) * max(1, bound.bit_length()))
            entry = (bound, bits)
            cache["rank1"] = entry
        return entry[1]

    @cached_property
    def _rank1_base(self) -> int:
        return _rank1_build(self._pack["gens_int"], _RANK1_MIN)


def _resum(terms, dim: int) -> tuple:
    """The sum of count * generator over (generator, count) pairs."""
    acc = [0] * dim
    for g, c in terms:
        if c:
            for k, x in enumerate(g):
                acc[k] += c * x
    return tuple(acc)


def _rank1_suffixes(gens_int, bound: int) -> Iterator[int]:
    """The reachability bitsets of the rank-1 generator suffixes up to
    bound, last generator first: the k-th one yielded (from 0) has bit v
    set when v <= bound is a sum of gens_int[n - 1 - k:]. The last one is
    the bitset of the whole monoid."""
    mask = (1 << (bound + 1)) - 1
    cur = 1
    for (g,) in reversed(gens_int):
        s = g
        while s <= bound:
            cur |= (cur << s) & mask
            s <<= 1
        yield cur


def _rank1_build(gens_int, bound: int) -> int:
    """The reachability bitset of the rank-1 monoid up to bound."""
    bits = 1
    for bits in _rank1_suffixes(gens_int, bound):
        pass
    return bits


def _rank1_counts(a: int, gens_int) -> list:
    """The witness of a rank-1 member a, read off the suffix reachability
    bitsets up to a, which are built for this read-off and dropped: the
    largest count for each generator in turn, the depth-first search's
    lexicographically largest contract."""
    suffix = [*_rank1_suffixes(gens_int, a)][::-1] + [1]  # of gens_int[i:]
    counts = [0] * len(gens_int)
    rem = a
    for i, (g,) in enumerate(gens_int):
        if rem == 0:
            break
        nxt = suffix[i + 1]
        c = rem // g
        while not (nxt >> (rem - c * g)) & 1:
            c -= 1
        counts[i] = c
        rem -= c * g
    return counts
