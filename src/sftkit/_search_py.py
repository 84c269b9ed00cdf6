"""Membership search kernel.

Decides whether an integer target vector is a nonnegative integer combination
of generator vectors, all carrying positive integer weights. Depth-first over
generators in the order given (callers sort by decreasing weight).

Multiplicities are tried from the largest down, so the first solution found
is the lexicographically largest multiplicity vector in that order.

The memo maps (residual tuple, generator index) to the first viable
multiplicity, which is the largest one, or -1 when the residual is not
expressible from that suffix. Every entry is what a complete search from
that node finds, so a witness read off the memo does not depend on which
queries filled it.

Node accounting: one node is charged on every call entry, memo hits and
pruned entries included. Reports carry these counts, so they are part of
the search's contract, not an implementation detail.

Prunes at a node (residual res, suffix i), each memoized as -1: the residual
weight is below the suffix's lightest generator; a coordinate has a sign no
suffix generator moves it in; or the suffix's drop table (see
`drop_infeasible`) shows the negative coordinates cannot be paid for.
"""

from __future__ import annotations

ENGINE_NAME = "pure"

FOUND = 0
NOT_MEMBER = 1
BUDGET = 2

_INF = 1 << 62


def suffix_tables(gens, weights, dim):
    """Per-suffix pruning data: (min_weight, positive-coord mask,
    negative-coord mask, drop table).

    Index i describes gens[i:]; index len(gens) is the empty suffix. The drop
    table of a suffix is (separated, rows), or None when it has no rows:
    - maxdrop[k] is the most any suffix generator lowers coordinate k; its
      droppers are the suffix generators with a negative k entry;
    - separated says no suffix generator lowers two coordinates at once;
    - rows holds (k0, ((k, maxdrop[k], minpos), ...)) for each coordinate k0
      no suffix generator lowers, with one term per coordinate k whose
      droppers all raise k0 by at least minpos > 0.
    All four are built in one backward pass, O(len(gens) * dim**2).
    """
    n = len(gens)
    minw = [0] * (n + 1)
    posm = [0] * (n + 1)
    negm = [0] * (n + 1)
    drops = [None] * (n + 1)
    minw[n] = _INF
    maxdrop = [0] * dim
    # minpos[k][k0]: least k0 entry over the droppers of k; None: no dropper
    minpos = [None] * dim
    separated = True
    for i in range(n - 1, -1, -1):
        w = weights[i]
        minw[i] = w if w < minw[i + 1] else minw[i + 1]
        p = posm[i + 1]
        m = negm[i + 1]
        g = gens[i]
        lowers = 0
        for k in range(dim):
            e = g[k]
            if e > 0:
                p |= 1 << k
            elif e < 0:
                m |= 1 << k
                lowers += 1
                if -e > maxdrop[k]:
                    maxdrop[k] = -e
                row = minpos[k]
                minpos[k] = list(g) if row is None else [
                    a if a < b else b for a, b in zip(row, g)]
        posm[i] = p
        negm[i] = m
        if lowers > 1:
            separated = False
        if m:
            rows = []
            for k0 in range(dim):
                if (m >> k0) & 1:
                    continue
                terms = tuple((k, maxdrop[k], row[k0])
                              for k, row in enumerate(minpos)
                              if row is not None and row[k0] > 0)
                if terms:
                    rows.append((k0, terms))
            if rows:
                drops[i] = (separated, tuple(rows))
    return tuple(minw), tuple(posm), tuple(negm), tuple(drops)


def drop_infeasible(drop, res) -> bool:
    """True when the drop table of a suffix proves res is no sum from it.

    Any expression of res must, for each coordinate k driven negative, use
    at least ceil(-res[k] / maxdrop[k]) droppers of k, and each of those
    adds at least minpos to every coordinate k0 no suffix generator lowers.
    Separated droppers are distinct generators, so those contributions add
    up, and the total cannot exceed res[k0]; otherwise each bound holds on
    its own. This decides integral infeasibility the rational relaxation
    misses.
    """
    separated, rows = drop
    for k0, terms in rows:
        cap = res[k0]
        total = 0
        for k, maxdrop, minpos in terms:
            x = res[k]
            if x < 0:
                cost = -(x // maxdrop) * minpos
                if separated:
                    total += cost
                    if total > cap:
                        return True
                elif cost > cap:
                    return True
    return False


def run_search(gens, weights, minw_suffix, pos_masks, neg_masks, drops,
               target, wtarget, allowance, memo):
    """Returns (status, counts or None, nodes_used).

    counts is indexed like gens. allowance is the maximum number of nodes
    chargeable; hitting it aborts with BUDGET and nothing is memoized for
    the aborted frontier.
    """
    ngens = len(gens)
    dim = len(target)
    nodes = 0
    stack = []  # frames: [res, wres, i, c]
    res = target
    wres = wtarget
    i = 0
    ret = None
    while True:
        if ret is None:
            # entering the call (res, wres, i)
            if nodes >= allowance:
                return (BUDGET, None, nodes)
            nodes += 1
            if wres == 0:
                ret = not any(res)
            elif wres < 0 or i == ngens:
                ret = False
            else:
                key = (res, i)
                v = memo.get(key)
                if v is not None:
                    ret = v >= 0
                elif wres < minw_suffix[i]:
                    memo[key] = -1
                    ret = False
                else:
                    needp = 0
                    needn = 0
                    for k in range(dim):
                        rk = res[k]
                        if rk > 0:
                            needp |= 1 << k
                        elif rk < 0:
                            needn |= 1 << k
                    if ((needp & ~pos_masks[i]) or (needn & ~neg_masks[i])
                            or (needn and drops[i] is not None
                                and drop_infeasible(drops[i], res))):
                        memo[key] = -1
                        ret = False
                    else:
                        # descend with the largest multiplicity first
                        c = wres // weights[i]
                        stack.append([res, wres, i, c])
                        if c:
                            g = gens[i]
                            res = tuple([res[k] - c * g[k]
                                         for k in range(dim)])
                            wres -= c * weights[i]
                        i += 1
                        continue
            # fall through to unwind with ret set
        if not stack:
            break
        frame = stack[-1]
        if ret:
            memo[(frame[0], frame[2])] = frame[3]
            stack.pop()
            continue
        c = frame[3] - 1
        if c < 0:
            memo[(frame[0], frame[2])] = -1
            stack.pop()
            continue
        frame[3] = c
        fres = frame[0]
        fi = frame[2]
        g = gens[fi]
        res = tuple([fres[k] - c * g[k] for k in range(dim)])
        wres = frame[1] - c * weights[fi]
        i = fi + 1
        ret = None

    if not ret:
        return (NOT_MEMBER, None, nodes)
    counts = [0] * ngens
    res = target
    i = 0
    while any(res):
        c = memo[(res, i)]
        if c:
            counts[i] = c
            g = gens[i]
            res = tuple([res[k] - c * g[k] for k in range(dim)])
        i += 1
    return (FOUND, counts, nodes)
