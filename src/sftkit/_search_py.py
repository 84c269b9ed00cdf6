"""Membership search kernel.

Decides whether an integer target vector is a nonnegative integer combination
of generator vectors, all carrying positive integer weights. Depth-first over
generators in the order given (callers sort by decreasing weight), trying
multiplicities in increasing order, so the first solution found is the
lexicographically smallest multiplicity vector in that order.

The memo maps (residual tuple, generator index) to the first viable
multiplicity, or -1 when the residual is not expressible from that suffix.
Node accounting: one node is charged on every call entry, memo hits and
pruned entries included. Reports carry these counts, so they are part of
the search's contract, not an implementation detail.
"""

from __future__ import annotations

ENGINE_NAME = "pure"

FOUND = 0
NOT_MEMBER = 1
BUDGET = 2

_INF = 1 << 62


def suffix_tables(gens, weights, dim):
    """Per-suffix pruning data: (min_weight, positive-coord mask, negative-coord mask).

    Index i describes gens[i:]; index len(gens) is the empty suffix.
    """
    n = len(gens)
    minw = [0] * (n + 1)
    posm = [0] * (n + 1)
    negm = [0] * (n + 1)
    minw[n] = _INF
    for i in range(n - 1, -1, -1):
        w = weights[i]
        minw[i] = w if w < minw[i + 1] else minw[i + 1]
        p = posm[i + 1]
        m = negm[i + 1]
        g = gens[i]
        for k in range(dim):
            e = g[k]
            if e > 0:
                p |= 1 << k
            elif e < 0:
                m |= 1 << k
        posm[i] = p
        negm[i] = m
    return tuple(minw), tuple(posm), tuple(negm)


def run_search(gens, weights, minw_suffix, pos_masks, neg_masks,
               target, wtarget, allowance, memo):
    """Returns (status, counts or None, nodes_used).

    counts is indexed like gens. allowance is the maximum number of nodes
    chargeable; hitting it aborts with BUDGET and nothing is memoized for
    the aborted frontier.
    """
    ngens = len(gens)
    dim = len(target)
    nodes = 0
    stack = []  # frames: [res, wres, i, c, cmax]
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
                    if (needp & ~pos_masks[i]) or (needn & ~neg_masks[i]):
                        memo[key] = -1
                        ret = False
                    else:
                        # descend with multiplicity 0 of generator i
                        stack.append([res, wres, i, 0, wres // weights[i]])
                        i += 1
                        continue
            # fall through to unwind with ret set
        if not stack:
            break
        frame = stack[-1]
        if ret:
            memo[(frame[0], frame[2])] = frame[3]
            stack.pop()
            ret = True
            continue
        c = frame[3] + 1
        if c > frame[4]:
            memo[(frame[0], frame[2])] = -1
            stack.pop()
            ret = False
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
