"""Independent brute-force reference implementations.

Everything here is written with plain loops and its own scalar coordinate
operations, sharing no code path with the library's vectorized checkers or
incremental algorithms, so agreement between the two is meaningful
evidence.
"""

import itertools
import math

import numpy as np


def sc_min0(a, b):
    if a != b and a != 0 and b != 0:
        return 0
    return min(a, b)


def sc_max0(a, b):
    if a != b and a != 0 and b != 0:
        return 0
    return max(a, b)


def sc_id0(a, b):
    return a if a == b else 0


def vec_min0(s, t):
    return tuple(sc_min0(a, b) for a, b in zip(s, t))


def vec_max0(s, t):
    return tuple(sc_max0(a, b) for a, b in zip(s, t))


def vec_id0(s, t):
    return tuple(sc_id0(a, b) for a, b in zip(s, t))


def every_assignment(n, k):
    return itertools.product(range(k + 1), repeat=n)


def every_orthant(n, k):
    return itertools.product(range(1, k + 1), repeat=n)


def every_subset(n):
    for mask in range(2**n):
        yield frozenset(e for e in range(n) if mask >> e & 1)


def restricted(x, keep):
    return tuple(v if e in keep else 0 for e, v in enumerate(x))


def is_k_submodular(f, n, k, eps):
    """Loop-based test of the defining inequality over all pairs."""
    for s in every_assignment(n, k):
        for t in every_assignment(n, k):
            if f(s) + f(t) < f(vec_min0(s, t)) + f(vec_max0(s, t)) - eps:
                return False
    return True


def is_submodular_set_function(h, n, eps):
    """Classical submodularity of a k=1 oracle over membership vectors."""

    def as_vec(subset):
        return tuple(1 if e in subset else 0 for e in range(n))

    for a in every_subset(n):
        for b in every_subset(n):
            lhs = h(as_vec(a)) + h(as_vec(b))
            rhs = h(as_vec(a & b)) + h(as_vec(a | b))
            if lhs < rhs - eps:
                return False
    return True


def is_orthant_submodular(f, n, k, eps):
    """For every orthant, check the restriction-based inequality directly."""
    for orthant in every_orthant(n, k):
        for a in every_subset(n):
            for b in every_subset(n):
                lhs = f(restricted(orthant, a)) + f(restricted(orthant, b))
                rhs = f(restricted(orthant, a & b)) + f(restricted(orthant, a | b))
                if lhs < rhs - eps:
                    return False
    return True


def clashes(s, t):
    """Whether some element holds two different nonzero labels in s and t."""
    return any(a != b and a != 0 and b != 0 for a, b in zip(s, t))


def assignment_at(index, n, k):
    """The assignment of index sum_e x_e (k+1)^e, element 0 least significant."""
    x = []
    for _ in range(n):
        x.append(index % (k + 1))
        index //= k + 1
    return tuple(x)


def first_nonclash_violation(f, n, k, eps):
    """The first pair (s, t) without a clash, in lexicographic order of
    (index(s), index(t)), with f(s) + f(t) < f(min0(s,t)) + f(max0(s,t)) - eps,
    or None: the orthant inequality f(o|A) + f(o|B) >= f(o|A&B) + f(o|A|B),
    since the pairs (o|A, o|B) are exactly the pairs without a clash."""
    size = (k + 1) ** n
    for i in range(size):
        s = assignment_at(i, n, k)
        for j in range(size):
            t = assignment_at(j, n, k)
            if clashes(s, t):
                continue
            if f(s) + f(t) < f(vec_min0(s, t)) + f(vec_max0(s, t)) - eps:
                return s, t
    return None


def is_r_wise_monotone(f, n, k, r, eps):
    for e in range(n):
        for s in every_assignment(n, k):
            if s[e] != 0:
                continue
            base = f(s)
            gains = [
                f(s[:e] + (i,) + s[e + 1 :]) - base for i in range(1, k + 1)
            ]
            for labels in itertools.combinations(range(k), r):
                if sum(gains[i] for i in labels) < -eps:
                    return False
    return True


def with_labels(x, labels):
    """x with element e set to label v for each (e, v) in ``labels``."""
    y = list(x)
    for e, v in labels:
        y[e] = v
    return tuple(y)


def local_shortfalls(f, n, k):
    """Largest shortfalls of the local rows, as (singles, pairs), None when
    there are no such rows: 2 f(s) - f(s+e:i) - f(s+e:j) over labels i < j,
    and f(s) + f(s+a:i+b:j) - f(s+a:i) - f(s+b:j) over elements a < b, for
    every s that leaves the named elements unassigned."""
    singles = pairs = None
    for s in every_assignment(n, k):
        free = [e for e in range(n) if s[e] == 0]
        for e in free:
            for i, j in itertools.combinations(range(1, k + 1), 2):
                d = 2 * f(s) - f(with_labels(s, [(e, i)])) - f(with_labels(s, [(e, j)]))
                singles = d if singles is None else max(singles, d)
        for a, b in itertools.combinations(free, 2):
            for i in range(1, k + 1):
                for j in range(1, k + 1):
                    d = (f(s) + f(with_labels(s, [(a, i), (b, j)]))
                         - f(with_labels(s, [(a, i)])) - f(with_labels(s, [(b, j)])))
                    pairs = d if pairs is None else max(pairs, d)
    return singles, pairs


def brute_max_value(f, n, k, orthants_only=False):
    states = every_orthant(n, k) if orthants_only else every_assignment(n, k)
    return max(f(x) for x in states)


def expect_random_orthant(f, n, k):
    values = [f(x) for x in every_orthant(n, k)]
    return math.fsum(values) / len(values)


def expect_randomized_greedy(f, n, k, order=None, eps=1e-9):
    """Recursive decision-tree expectation, one node at a time, independent
    of the library's level-by-level enumerator.  Each node takes the step
    of :func:`sample_randomized_greedy`: its k children's values, the gains
    against its own value clamped at zero and summed left to right into
    beta.  When eps < beta < inf it branches to every label of positive
    clamped gain, with its probability times clamped / beta; otherwise it
    goes on with its probability to label 1 (beta <= eps) or label k
    (beta = inf, which no running sum exceeds).  A leaf's probability is
    that product along its path from 1.0 at the root, and the expectation is
    math.fsum of probability times value over the leaves, so it is the exact
    tree's, branch for branch and to the bit.  f is called once at the root
    and k times per internal node; a sum that overflows raises
    OverflowError."""
    order = list(range(n)) if order is None else list(order)
    terms = []

    def go(s, value, prob, depth):
        if depth == len(order):
            terms.append(prob * value)
            return
        e = order[depth]
        children = [f(s[:e] + (i,) + s[e + 1 :]) for i in range(1, k + 1)]
        clamped = [y - value if y - value > 0.0 else 0.0 for y in children]
        beta = 0.0
        for g in clamped:
            beta += g
        if beta <= eps:
            picks = [(1, prob)]
        elif beta == math.inf:
            picks = [(k, prob)]
        else:
            picks = [(i, prob * (g / beta)) for i, g in enumerate(clamped, 1) if g > 0.0]
        for label, p in picks:
            go(s[:e] + (label,) + s[e + 1 :], children[label - 1], p, depth + 1)

    root = (0,) * n
    go(root, f(root), 1.0, 0)
    return math.fsum(terms)


def sample_randomized_greedy(f, n, k, seed, order=None, eps=1e-9):
    """One seeded run of the randomized greedy, one element and one label at
    a time.  Per element: the k gains against f(s), clamped at zero and
    summed left to right into beta; when beta > eps, one draw r from
    ``default_rng(seed)`` and the first label whose running sum of clamped
    gains exceeds u = r * beta (label k when none does), otherwise label 1;
    f(s) is then the chosen child's value.  Returns the orthant, f of it
    and one (element, clamped gains, beta, label) tuple per step, with
    1 + n * k calls of f."""
    rng = np.random.default_rng(seed)
    s = (0,) * n
    value = f(s)
    steps = []
    for e in range(n) if order is None else order:
        children = [f(s[:e] + (i,) + s[e + 1 :]) for i in range(1, k + 1)]
        raw = [y - value for y in children]
        clamped = [g if g > 0.0 else 0.0 for g in raw]
        beta = 0.0
        for g in clamped:
            beta += g
        label = 1
        if beta > eps:
            u = rng.random() * beta
            acc, label = 0.0, k
            for i, g in enumerate(clamped, start=1):
                acc += g
                if u < acc:
                    label = i
                    break
        s = s[:e] + (label,) + s[e + 1 :]
        value = children[label - 1]
        steps.append((e, clamped, beta, label))
    return s, value, steps


def next_double(word):
    """numpy's ``next_double`` on one raw 64-bit word: its top 53 bits,
    scaled by 2^-53 into [0, 1)."""
    return (word >> 11) * 2.0**-53


def bounded_draws(words, k):
    """numpy's bounded draws of a label in 1..k (Lemire's method) from raw
    64-bit words, as (label, accepted) pairs in stream order.  For
    k <= 2^32 a draw is a 32-bit half, the low half of a word first, else a
    whole word.  A draw x of w bits gives label 1 + floor(x * k / 2^w), and
    is rejected when x * k mod 2^w < (2^w - k) mod k."""
    width = 32 if k <= 2**32 else 64
    draws = []
    for word in words:
        if width == 32:
            draws += [word % 2**32, word // 2**32]
        else:
            draws.append(word)
    return [(1 + x * k // 2**width, x * k % 2**width >= (2**width - k) % k)
            for x in draws]


def bounded_labels(words, k, n):
    """``integers(1, k + 1, size=n)`` from raw words: the first n accepted
    labels of :func:`bounded_draws` (none is drawn at k = 1), or None when
    the words run out first."""
    if k == 1:
        return [1] * n
    labels = [label for label, accepted in bounded_draws(words, k) if accepted]
    return labels[:n] if len(labels) >= n else None


def sample_random_orthant(f, n, k, seed):
    """The orthant of labels ``default_rng(seed).integers(1, k + 1, n)`` and
    its value."""
    s = tuple(int(v) for v in np.random.default_rng(seed).integers(1, k + 1, size=n))
    return s, f(s)


def violation_margin(f, counterexample):
    """Re-evaluate a reported pair counterexample with the scalar ops here
    and return rhs - lhs recomputed from scratch (positive means the
    inequality really is violated)."""
    s = tuple(counterexample["s"])
    t = tuple(counterexample["t"])
    inequality = counterexample["inequality"]
    if "id0" in inequality:
        lhs = f(s) + f(t)
        rhs = 2.0 * f(vec_id0(s, t))
    else:
        lhs = f(s) + f(t)
        rhs = f(vec_min0(s, t)) + f(vec_max0(s, t))
    assert math.isclose(lhs, counterexample["lhs"], rel_tol=0, abs_tol=1e-12)
    assert math.isclose(rhs, counterexample["rhs"], rel_tol=0, abs_tol=1e-12)
    return rhs - lhs


def monotone_violation_margin(f, counterexample):
    """Re-evaluate a reported marginal-sum counterexample; returns the
    negated sum (positive means genuinely violated)."""
    s = tuple(counterexample["s"])
    e = counterexample["element"]
    base = f(s)
    total = sum(
        f(s[:e] + (i,) + s[e + 1 :]) - base for i in counterexample["labels"]
    )
    assert math.isclose(total, counterexample["lhs"], rel_tol=0, abs_tol=1e-12)
    return -total
