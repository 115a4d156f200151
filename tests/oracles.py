"""Brute-force oracles, implemented independently of the package.

These deliberately avoid the production code paths: lengths come from BFS
or double loops, Bruhat comparisons from subwords of a reduced word or from
rank counts, coset representatives from enumerating the arrangements of
each position block, the Billey-Postnikov maximality from scans over whole
parabolic subgroups, Poincare polynomials from scans of the whole
quotient, the Levi stabilizer from coset lengths, left
descents from the inversion counts of value swaps, the degree-1 heads
from scans of the subword interval, the ends of a double coset from the
whole coset, and Grassmann permutations written down from their column
sets.
"""

from __future__ import annotations

import itertools
import operator
from collections import deque
from functools import lru_cache


def ident(n):
    return tuple(range(1, n + 1))


def subsets(items):
    """Every subset of ``items``, by size and then lexicographically."""
    items = sorted(items)
    return [frozenset(c) for r in range(len(items) + 1)
            for c in itertools.combinations(items, r)]


def grassmann_perm(n, columns):
    """The Grassmann permutation of a column set: the columns in increasing
    order, then the other values of 1..n in increasing order."""
    cols = sorted(columns)
    return tuple(cols + [v for v in range(1, n + 1) if v not in cols])


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


def double_coset(x, J, I):
    """W_I x W_J inside W^J by brute force, sorted by inversion count: the
    coset minimum of a x for every a in W_I, since (a x b) W_J = a x W_J."""
    return sorted({coset_min(multiply(a, x), J) for a in parabolic_group(I, len(x))},
                  key=inv_count)


def double_coset_ends(x, J, I):
    """(least, largest) element of W_I x W_J inside W^J, ranked by
    inversion count; each must be the only one of its length."""
    members = double_coset(x, J, I)
    lengths = [inv_count(m) for m in members]
    assert lengths.count(lengths[0]) == lengths.count(lengths[-1]) == 1
    return members[0], members[-1]


def block_reversal(J, n):
    """The longest element of W_J written down, not searched for: each
    position block reversed.  Nothing is enumerated, so it serves any rank."""
    out = [0] * n
    for block in position_block_lists(J, n):
        for p, v in zip(block, reversed(block)):
            out[p - 1] = v
    return tuple(out)


@lru_cache(maxsize=None)
def left_descents_by_length(w):
    """Indices i with s_i * w shorter than w: swapping the values i, i + 1
    lowers the inversion count."""
    lw = inv_count(w)
    return frozenset(i for i in range(1, len(w))
                     if inv_count(swap_values(w, i)) < lw)


def bp_support_by_descents(v, u, J, K):
    """The support test as defined: every index of K in a reduced word of v
    is a left descent of u * w0(J), the longest element of the coset u W_J."""
    top = multiply(u, block_reversal(J, len(u)))
    return _letters(v) & frozenset(K) <= left_descents_by_length(top)


@lru_cache(maxsize=None)
def _letters(w):
    return frozenset(a_reduced_word(w))


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
    are >= j, counted as each prefix grows by one entry."""
    n = len(w)
    at_least = [0] * (n + 1)  # at_least[j]: entries of the prefix >= j
    out = []
    for x in w[:-1]:
        for j in range(1, x + 1):
            at_least[j] += 1
        out += at_least[2:]
    return tuple(out)


def rank_leq(u, w):
    """Bruhat order by the rank-matrix criterion: u <= w iff for every
    prefix length i and threshold j, at most as many of u(1..i) as of
    w(1..i) are >= j."""
    return all(a <= b for a, b in zip(rank_matrix(tuple(u)), rank_matrix(tuple(w))))


@lru_cache(maxsize=16)
def _graded_quotient(n, J):
    """Each element of W^J as its rank matrix and inversion count; the
    matrices bypass rank_matrix's unbounded memo."""
    return tuple((rank_matrix.__wrapped__(x), inv_count(x)) for x in quotient_perms(n, J))


def poincare_scan(w, J):
    """The Poincare polynomial of w in W^J by a scan: every element of W^J
    tested against w by the rank criterion and graded by its inversion
    count."""
    top = rank_matrix(tuple(w))
    coeffs = [0] * (inv_count(w) + 1)
    for ranks, ell in _graded_quotient(len(w), frozenset(J)):
        if all(map(operator.le, ranks, top)):
            coeffs[ell] += 1
    return tuple(coeffs)


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


stabilizer = lru_cache(maxsize=None)(max_levi_by_length)


@lru_cache(maxsize=None)
def _stable_interval(tau, J):
    """The elements of W^J below tau with their Levi stabilizers, sorted
    by (length, lex): the interval from the subword oracle, stability from
    the length test."""
    below = [x for x in subword_interval(tau) if not any(x[j - 1] > x[j] for j in J)]
    below.sort(key=lambda x: (inv_count(x), x))
    return tuple((x, stabilizer(x, J)) for x in below)


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


def boundary_longest_first(heads, tau):
    """The maximal proper heads among ``heads`` (sorted by length, lex),
    found longest first by the rank criterion: a proper head that is not
    maximal lies below a longer maximal one, which is already kept.  Each
    head's rank matrix is built once and not memoized."""
    proper = [h for h in heads if h != tuple(tau)]
    ranks = [rank_matrix.__wrapped__(h) for h in proper]
    kept = []
    for k in reversed(range(len(proper))):
        if not any(all(map(operator.le, ranks[k], ranks[g])) for g in kept):
            kept.append(k)
    return tuple(proper[k] for k in reversed(kept))


def brute_force_checks(w, J, I):
    """(divisor, stable, criterion, witness) for each Schubert divisor of
    ``w``, in lexicographic order, from the oracles alone: covers by
    length, stability by coset lengths, heads by the interval scan.  The
    criteria are the strings the toroidal report prints."""
    out = []
    for tau in sorted(covers_by_length(w, J)):
        if I <= stabilizer(tau, J):
            out.append((tau, True, "criterion-1", None))
            continue
        heads, least, _ = heads_scan(tau, J, I)
        out.append((tau, False, "violated", least) if heads
                   else (tau, False, "criterion-2", None))
    return out
