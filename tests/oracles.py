"""Brute-force oracles, implemented independently of the package.

These deliberately avoid the production code paths: lengths come from BFS
or double loops, Bruhat comparisons from subwords of a reduced word or from
rank counts, coset representatives from enumerating the arrangements of
each position block, the Billey-Postnikov maximality from scans over whole
parabolic subgroups, the Levi stabilizer from coset lengths, and the
degree-1 heads from scans of the subword interval.
"""

from __future__ import annotations

import itertools
from collections import deque
from functools import lru_cache


def ident(n):
    return tuple(range(1, n + 1))


def inv_count(w):
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def swap_positions(w, i):
    out = list(w)
    out[i - 1], out[i] = out[i], out[i - 1]
    return tuple(out)


def swap_values(w, i):
    out = list(w)
    a, b = out.index(i), out.index(i + 1)
    out[a], out[b] = out[b], out[a]
    return tuple(out)


def multiply(x, y):
    return tuple(x[v - 1] for v in y)


def bfs_length(w):
    """Graph distance from the identity in the right Cayley graph."""
    n = len(w)
    start = ident(n)
    if w == start:
        return 0
    seen = {start}
    frontier = deque([(start, 0)])
    while frontier:
        x, dist = frontier.popleft()
        for i in range(1, n):
            y = swap_positions(x, i)
            if y == w:
                return dist + 1
            if y not in seen:
                seen.add(y)
                frontier.append((y, dist + 1))
    raise AssertionError("unreachable")


def a_reduced_word(w):
    word = []
    w = tuple(w)
    while True:
        d = next((i for i in range(1, len(w)) if w[i - 1] > w[i]), None)
        if d is None:
            return tuple(reversed(word))
        w = swap_positions(w, d)
        word.append(d)


def subword_interval(w):
    """All u with a reduced word occurring as a subword of a fixed reduced
    word of w; by the subword characterization this is the lower Bruhat
    interval of w."""
    n = len(w)
    elems = {ident(n)}
    for r in a_reduced_word(w):
        elems |= {swap_positions(x, r) for x in elems if x[r - 1] < x[r]}
    return elems


def position_block_lists(J, n):
    blocks, cur = [], [1]
    for i in range(1, n):
        if i in J:
            cur.append(i + 1)
        else:
            blocks.append(cur)
            cur = [i + 1]
    blocks.append(cur)
    return blocks


def parabolic_group(J, n):
    """All of W_J by filling each position block with its own permutation."""
    blocks = position_block_lists(J, n)
    out = []
    for choice in itertools.product(*[itertools.permutations(b) for b in blocks]):
        elem = [0] * n
        for block, image in zip(blocks, choice):
            for pos, val in zip(block, image):
                elem[pos - 1] = val
        out.append(tuple(elem))
    return out


@lru_cache(maxsize=None)
def _least_arrangement(values):
    """The arrangement of a set of values with fewest inversions, found by
    enumerating every arrangement; it must be the only one."""
    arrangements = list(itertools.permutations(values))
    lengths = [inv_count(a) for a in arrangements]
    least = min(lengths)
    assert lengths.count(least) == 1
    return arrangements[lengths.index(least)]


def coset_min(w, J):
    """Minimum-length element of w W_J.  Right multiplication by W_J
    rearranges the entries inside each position block, and whether two
    entries of different blocks form an inversion does not depend on those
    arrangements, so each block is minimized on its own."""
    out = list(w)
    for block in position_block_lists(J, len(w)):
        least = _least_arrangement(frozenset(w[p - 1] for p in block))
        for p, v in zip(block, least):
            out[p - 1] = v
    return tuple(out)


def coset_longest(J, n):
    elems = parabolic_group(J, n)
    best = max(elems, key=inv_count)
    assert sum(1 for c in elems if inv_count(c) == inv_count(best)) == 1
    return best


def quotient_perms(n, J):
    return [w for w in itertools.permutations(range(1, n + 1))
            if not any(w[i - 1] > w[i] for i in J)]


def covers_below(w, J, n):
    """W^J elements one inversion below w, filtered by the subword oracle."""
    interval = subword_interval(w)
    target = inv_count(w) - 1
    return {t for t in quotient_perms(n, J)
            if inv_count(t) == target and t in interval}


def covers_by_length(w, J):
    """W^J elements w (i j) one inversion below w: the Bruhat covers are
    exactly the reflections that lower the length by one."""
    target = inv_count(w) - 1
    out = set()
    for i, j in itertools.combinations(range(len(w)), 2):
        t = list(w)
        t[i], t[j] = t[j], t[i]
        if inv_count(t) == target and not any(t[k - 1] > t[k] for k in J):
            out.add(tuple(t))
    return out


@lru_cache(maxsize=None)
def rank_matrix(w):
    """Entry (i, j), for 1 <= i < n and 2 <= j <= n: how many of w(1..i)
    are >= j."""
    n = len(w)
    return tuple(sum(1 for x in w[:i] if x >= j)
                 for i in range(1, n) for j in range(2, n + 1))


def rank_leq(u, w):
    """Bruhat order by the rank-matrix criterion: u <= w iff for every
    prefix length i and threshold j, at most as many of u(1..i) as of
    w(1..i) are >= j."""
    return all(a <= b for a, b in zip(rank_matrix(tuple(u)), rank_matrix(tuple(w))))


def bp_maximal_scan(w, J, K, u):
    """The W_K scan: u admits no strictly larger element of W_K without a
    right descent in J below w.  Elements below w come from the subword
    interval, comparisons above u from the rank criterion."""
    below = subword_interval(w)
    return not any(x != u and x in below and not any(x[j - 1] > x[j] for j in J)
                   and rank_leq(u, x) for x in parabolic_group(K, len(w)))


def max_levi_by_length(w, J):
    """Indices i with s_i * w not lengthening the coset representative,
    the coset minimum found by enumerating the whole coset."""
    lw = inv_count(w)
    return frozenset(i for i in range(1, len(w))
                     if inv_count(coset_min(swap_values(w, i), J)) <= lw)


_stabilizer = lru_cache(maxsize=None)(max_levi_by_length)


@lru_cache(maxsize=None)
def _stable_interval(tau, J):
    """The elements of W^J below tau with their Levi stabilizers, sorted
    by (length, lex): the interval from the subword oracle, stability from
    the length test."""
    below = [x for x in subword_interval(tau) if not any(x[j - 1] > x[j] for j in J)]
    below.sort(key=lambda x: (inv_count(x), x))
    return tuple((x, _stabilizer(x, J)) for x in below)


def heads_scan(tau, J, I):
    """(heads, minimal head, maximal proper heads) below tau by brute force:
    the I-stable elements of the interval, the one rank_leq-below all of
    them, and the proper ones rank_leq-below no other proper one.  Heads
    and maximal heads are sorted by (length, lex)."""
    J, I = frozenset(J), frozenset(I)
    heads = [x for x, stab in _stable_interval(tuple(tau), J) if I <= stab]
    minima = [h for h in heads if all(rank_leq(h, g) for g in heads)]
    assert len(minima) == (1 if heads else 0)
    proper = [h for h in heads if h != tuple(tau)]
    # g > h forces g to be longer, so only later elements can lie above h
    maximal = [h for i, h in enumerate(proper)
               if not any(rank_leq(h, g) for g in proper[i + 1:])]
    return tuple(heads), (minima[0] if heads else None), tuple(maximal)
