"""Exponent vectors and finitely generated exponent monoids with positive
gradings.

The membership decision (is a target vector a nonnegative integer combination
of the generators?) is the hot path of the whole toolkit. It is run on scaled
integer vectors by one of two interchangeable kernels: a compiled one when the
extension module built and the operands fit its integer guards, the pure
Python one otherwise. Both implement the identical bounded depth-first search
and report identical node counts, so budgets and reports do not depend on
which kernel ran.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional

from . import _search_py
from .budget import SearchContext
from .errors import PreconditionViolated, SearchBudgetExceeded

try:  # compiled kernel is optional; anything at all wrong means fall back
    if os.environ.get("SFTKIT_FORCE_PURE"):
        _search_cy = None
    else:
        from . import _search_cy  # type: ignore[attr-defined]
except Exception:  # pragma: no cover - depends on build environment
    _search_cy = None

ENGINE_NAME = _search_cy.ENGINE_NAME if _search_cy is not None else _search_py.ENGINE_NAME

MAX_DIM = 64  # suffix pruning uses 64-bit coordinate masks

# compiled-kernel operand guards (see _search_cy.pyx)
_ENTRY_LIMIT = 1 << 20
_WEIGHT_LIMIT = 1 << 30

# rank-1 targets up to this value use the bitset table; beyond it the
# generic search engines take over (the table would need that many bits)
_RANK1_BOUND = 1 << 22


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

    def lex_key(self) -> tuple:
        return self.dense()

    def __repr__(self):
        if self.is_zero:
            return f"EV[0]^{self.dim}"
        body = ",".join(f"{i}:{v}" for i, v in self.entries)
        return f"EV({body})@{self.dim}"


def scalar_multiple(e: ExponentVector, k: int) -> ExponentVector:
    """Exponent of the k-th power of a monomial; k must be >= 0."""
    if k < 0:
        raise PreconditionViolated("k >= 0", f"got {k}")
    return e.scale(k)


@dataclass(frozen=True)
class MonoidMembershipWitness:
    """Multiplicities of generators summing to the target, sparse over
    presentation generator indices."""

    counts: tuple[tuple[int, int], ...]

    def as_dict(self) -> dict[int, int]:
        return dict(self.counts)

    def resum(self, S: "MonoidPresentation") -> ExponentVector:
        acc = ExponentVector.zero(S.dim)
        for idx, c in self.counts:
            acc = acc + S.gens[idx].scale(c)
        return acc

    def total(self) -> int:
        return sum(c for _, c in self.counts)


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
    """

    dim: int
    gens: tuple[ExponentVector, ...]
    weights: tuple[Fraction, ...]
    kill: Optional[tuple] = None
    name: str = ""

    def __post_init__(self):
        if not 1 <= self.dim <= MAX_DIM:
            raise ValueError(f"ambient dimension must be 1..{MAX_DIM}")
        if len(self.weights) != self.dim:
            raise ValueError("grading must assign a weight to every coordinate")
        object.__setattr__(self, "weights", tuple(_as_fraction(w) for w in self.weights))
        for w in self.weights:
            if w <= 0:
                raise ValueError("grading weights must be positive")
        seen = set()
        for g in self.gens:
            if g.dim != self.dim:
                raise ValueError("generator dimension mismatch")
            if g in seen:
                raise ValueError(f"duplicate generator {g!r}")
            seen.add(g)
            if self.weight(g) <= 0:
                raise ValueError(f"grading is not positive on generator {g!r}")
        _validate_kill(self.kill, self.dim)

    def weight(self, e: ExponentVector) -> Fraction:
        return sum((self.weights[i] * v for i, v in e.entries), Fraction(0))

    @cached_property
    def denominator_bound(self) -> int:
        d = 1
        for g in self.gens:
            gd = g.denominator_lcm()
            d = d * gd // math.gcd(d, gd)
        return d

    @cached_property
    def _sym_classes(self) -> tuple[tuple[int, ...], ...]:
        """Maximal groups of interchangeable coordinates: equal weight, and
        transposing any two maps the generator set onto itself. Membership is
        invariant under permuting such a group, so queries are canonicalized
        before searching (sorting entries within each group); symmetric
        targets then share one search tree and one memo."""
        if self.dim == 1 or not self.gens:
            return ()
        dense = [g.dense() for g in self.gens]
        gset = set(dense)

        def swap_ok(a: int, b: int) -> bool:
            for v in dense:
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
            ranked = sorted(((v[k], k) for k in cls),
                            key=lambda t: (-t[0], t[1]))
            for pos, (_, k) in zip(cls, ranked):
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
    def _drop_tables(self):
        """Aggregate feasibility data for a one-shot infeasibility test, in
        the lattice frame.

        Any expression of a target must, for each coordinate k driven
        negative, use at least ceil(-t_k / maxdrop_k) generators with a
        negative k entry, and each of those contributes at least minpos[k0][k]
        to every coordinate k0 on which no generator is negative. When no
        generator lowers two coordinates at once those contributions add up,
        and the total cannot exceed t_k0. This decides integral infeasibility
        the rational relaxation misses.
        """
        gens = self._pack["scaled"]
        maxdrop = [0] * self.dim
        droppers: list[list[int]] = [[] for _ in range(self.dim)]
        separated = True
        for j, g in enumerate(gens):
            negs = [k for k in range(self.dim) if g[k] < 0]
            if len(negs) > 1:
                separated = False
            for k in negs:
                droppers[k].append(j)
                if -g[k] > maxdrop[k]:
                    maxdrop[k] = -g[k]
        nonneg = tuple(
            k0 for k0 in range(self.dim)
            if all(g[k0] >= 0 for g in gens))
        minpos = {}
        for k0 in nonneg:
            row = [0] * self.dim
            for k in range(self.dim):
                if droppers[k]:
                    row[k] = min(gens[j][k0] for j in droppers[k])
            if any(row):
                minpos[k0] = tuple(row)
        return {"maxdrop": tuple(maxdrop), "separated": separated,
                "minpos": minpos}

    def _infeasible_at_root(self, v: tuple) -> bool:
        dt = self._drop_tables
        maxdrop = dt["maxdrop"]
        for k in range(self.dim):
            if v[k] < 0 and maxdrop[k] == 0:
                return True
        for k0, row in dt["minpos"].items():
            cap = v[k0]
            total = 0
            for k in range(self.dim):
                x = v[k]
                if x < 0 and row[k] > 0:
                    cost = -(x // maxdrop[k]) * row[k]
                    if dt["separated"]:
                        total += cost
                        if total > cap:
                            return True
                    elif cost > cap:
                        return True
        return False

    @cached_property
    def _pack(self):
        """Engine-ready integer data: the lattice frame (generators scaled by
        the denominator bound s0, in original order), and the same generators
        sorted by decreasing integer weight (ties by original index)."""
        s0 = self.denominator_bound
        kw = 1
        for w in self.weights:
            kw = kw * w.denominator // math.gcd(kw, w.denominator)
        lam = tuple(int(w * kw) for w in self.weights)  # integer grading, scale kw

        def scaled(g: ExponentVector) -> tuple[int, ...]:
            return tuple(int(v * s0) for v in g.dense())

        raw = [scaled(g) for g in self.gens]
        iw = [sum(lam[k] * v[k] for k in range(self.dim)) for v in raw]
        order = sorted(range(len(self.gens)), key=lambda j: (-iw[j], j))
        gens_int = tuple(raw[j] for j in order)
        weights_int = tuple(iw[j] for j in order)
        minw, posm, negm = _search_py.suffix_tables(gens_int, weights_int, self.dim)
        cy_ok = (_search_cy is not None
                 and all(abs(e) < _ENTRY_LIMIT for v in gens_int for e in v)
                 and all(w < _WEIGHT_LIMIT for w in weights_int))
        return {
            "s0": s0,
            "lam": lam,
            "scaled": tuple(raw),
            "order": tuple(order),
            "gens_int": gens_int,
            "weights_int": weights_int,
            "tables": (minw, posm, negm),
            "cy_ok": cy_ok,
        }

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
        return sum(l * x for l, x in zip(self._pack["lam"], v))

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
            return any(x >= spec[1] for x in v)
        if tag == "ideal_gens":
            if ctx is None:
                ctx = SearchContext()
            for g in spec[1]:
                if self.lattice_member(tuple(a - b for a, b in zip(v, g)),
                                       ctx) is not None:
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
        form the witness is the lexicographically smallest multiplicity
        vector with generators ordered by decreasing weight, and otherwise it
        is that witness pulled back along the coordinate permutation. A
        target off the lattice is not a member."""
        if ctx is None:
            ctx = SearchContext()
        v = self.to_lattice(target)
        if v is None:
            return None
        pairs = self.lattice_member(v, ctx)
        return None if pairs is None else MonoidMembershipWitness(pairs)

    def lattice_member(self, v: tuple,
                       ctx: SearchContext) -> Optional[tuple[tuple[int, int], ...]]:
        """member() for a lattice point: the witness's (generator index,
        multiplicity) pairs, or None."""
        if not any(v):
            return ()
        if not self.gens:
            return None
        pack = self._pack
        wtarget = self.lattice_weight(v)
        if wtarget < 0:
            return None
        if self._infeasible_at_root(v):
            ctx.charge_nodes(1)
            return None

        query, perm = self._canonical_target(v)
        gens_int = pack["gens_int"]
        if self.dim == 1 and 0 <= query[0] <= _RANK1_BOUND:
            counts = self._member_rank1(query[0], gens_int, ctx)
            if counts is None:
                return None
        else:
            engine = _search_py
            if pack["cy_ok"] and all(abs(t) < _WEIGHT_LIMIT for t in query) \
                    and 0 <= wtarget < _WEIGHT_LIMIT:
                engine = _search_cy
            minw, posm, negm = pack["tables"]
            status, counts, nodes = engine.run_search(
                gens_int, pack["weights_int"], minw, posm, negm,
                query, wtarget, ctx.nodes_left(),
                self._ctx_tables(ctx).setdefault("memo", {}))
            ctx.charge_nodes(nodes)
            if status == _search_py.BUDGET:
                raise SearchBudgetExceeded(ctx.nodes_used)
            if status == _search_py.NOT_MEMBER:
                return None
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
        acc = [0] * self.dim
        for j, c in pairs:
            for k, x in enumerate(scaled[j]):
                acc[k] += c * x
        if tuple(acc) != v:  # soundness guard; never expected to fire
            raise AssertionError("membership witness does not re-sum to the target")
        return tuple(pairs)

    def _ctx_tables(self, ctx: SearchContext) -> dict:
        """This presentation's search tables in the context (rank-1 bitsets,
        the search memo)."""
        slot = ctx.tables.get(id(self))
        if slot is None or slot[0] is not self:
            slot = (self, {})
            ctx.tables[id(self)] = slot
        return slot[1]

    def _member_rank1(self, a: int, gens_int,
                      ctx: SearchContext) -> Optional[list]:
        """Numerical-semigroup membership by bitset dynamic programming.

        suffix[i] is the reachability bitset of the generator suffix i..end
        (bit v set when v is a sum from that suffix), built once per context
        and grown geometrically, so a whole batch of queries against the
        same monoid costs one table build. The witness read-off picks the
        smallest count for each generator in turn, matching the search
        engines' lexicographic-first contract.
        """
        gvals = tuple(v[0] for v in gens_int)
        n = len(gvals)
        cache = self._ctx_tables(ctx)
        entry = cache.get("rank1")
        if entry is None or entry[0] < a:
            bound = max(a, 4096, 0 if entry is None else 2 * entry[0])
            mask = (1 << (bound + 1)) - 1
            suffix = [0] * (n + 1)
            cur = 1
            suffix[n] = cur
            for i in range(n - 1, -1, -1):
                s = gvals[i]
                while s <= bound:
                    cur |= (cur << s) & mask
                    s <<= 1
                suffix[i] = cur
            ctx.charge_nodes(n * max(1, bound.bit_length()))
            entry = (bound, suffix)
            cache["rank1"] = entry
        suffix = entry[1]
        ctx.charge_nodes(1)
        if not (suffix[0] >> a) & 1:
            return None
        counts = [0] * n
        rem = a
        for i in range(n):
            if rem == 0:
                break
            g = gvals[i]
            nxt = suffix[i + 1]
            c = 0
            while c * g <= rem:
                if (nxt >> (rem - c * g)) & 1:
                    break
                c += 1
            counts[i] = c
            rem -= c * g
        return counts
