"""Oracles the tests check the library against, one per concept, each
the definition written out plainly.  This module imports nothing from
``affinegsb``, so a fault in the library cannot hide in its oracle.
Rules are (lhs, rhs) pairs and ambiguities (i, j, word, offset_j)
tuples, as the library's ``Rule`` and ``Ambiguity`` are.
"""


def deglex_key(w):
    """Sort key of deg-lex order: longer words are greater, and of two
    words of one length the one with the lower symbol id at the first
    difference is greater (r0 > r1 > ... > rn)."""
    return len(w), bytes(255 - c for c in w)


def reduce_once_by_scan(w, rules):
    """One rewrite step: the lowest-index rule whose lhs occurs in w, at
    its leftmost occurrence, with one ``bytes.find`` per rule; None if w
    is reduced."""
    for lhs, rhs in rules:
        p = w.find(lhs)
        if p >= 0:
            return w[:p] + rhs + w[p + len(lhs):]
    return None


def chain_end(w, rules):
    """w after ``reduce_once_by_scan`` steps until it is reduced."""
    while (nxt := reduce_once_by_scan(w, rules)) is not None:
        w = nxt
    return w


def one_step_rewrites(amb, rules):
    """The ambiguity word rewritten by rule i at its start and by rule j
    at offset_j."""
    i, j, w, p = amb
    (li, ri), (lj, rj) = rules[i], rules[j]
    return ri + w[len(li):], w[:p] + rj + w[p + len(lj):]


def descendants_by_steps(amb, rules):
    """The two one-step rewrites stepped in the library's order: the
    deg-lex-greater word steps until the two meet or it is reduced, and
    then the other one steps to its end."""
    x, y = one_step_rewrites(amb, rules)
    while x != y:
        if deglex_key(y) > deglex_key(x):
            x, y = y, x
        nxt = reduce_once_by_scan(x, rules)
        if nxt is None:
            return x, chain_end(y, rules)
        x = nxt
    return x, y


def descendants_by_chain_ends(amb, rules):
    """The chain ends of the two one-step rewrites, each taken alone."""
    return tuple(chain_end(x, rules) for x in one_step_rewrites(amb, rules))


def all_rewrite_fixpoints(w, rules):
    """Every irreducible word reachable by applying rules in any order."""
    seen = set()
    out = set()
    stack = [w]
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        seen.add(cur)
        hit = False
        for lhs, rhs in rules:
            start = cur.find(lhs)
            while start >= 0:
                hit = True
                stack.append(cur[:start] + rhs + cur[start + len(lhs):])
                start = cur.find(lhs, start + 1)
        if not hit:
            out.add(cur)
    return out


def find_first_forbidden_by_scan(w, rules):
    """The earliest-starting leading word in w as (position, rule), ties
    to the lowest index; None if w is reduced."""
    best = None
    for rule in rules:
        p = w.find(rule[0])
        if p >= 0 and (best is None or p < best[0]):
            best = (p, rule)
    return best


def pair_ambiguities_by_slices(i, li, j, lj):
    """The ambiguities of one ordered rule pair, with every overlap length
    tried by comparing a suffix of li with a prefix of lj."""
    out = []
    if i != j:
        if len(lj) <= len(li):
            p = li.find(lj)
            while p >= 0:
                out.append((i, j, li, p))
                p = li.find(lj, p + 1)
    for t in range(1, min(len(li), len(lj))):
        if li[-t:] == lj[:t]:
            out.append((i, j, li + lj[t:], len(li) - t))
    return out


def ambiguities_by_all_pairs(rules):
    """The ambiguities of every ordered rule pair, ascending by deg-lex of
    word (then by the ambiguity tuple)."""
    out = [a for i, (li, _) in enumerate(rules) for j, (lj, _) in enumerate(rules)
           for a in pair_ambiguities_by_slices(i, li, j, lj)]
    return sorted(out, key=lambda a: (deglex_key(a[2]), a))


def is_composite(amb, rules):
    """A leading word lies strictly inside the ambiguity word, touching
    neither end; inclusions are never composite."""
    i, _, w, _ = amb
    return len(w) > len(rules[i][0]) and any(lhs in w[1:-1] for lhs, _ in rules)


# The group side.  An element of the rank-n affine group is its window
# [x(1), ..., x(n+1)], with x(i + n + 1) = x(i) + n + 1.  Right
# multiplication by s_i swaps the entries at i and i + 1 (s_0 those at 0
# and 1), and s_i is a right descent exactly when that swap lowers the
# length: x(i) > x(i + 1).  Deg-lex ranks r0 > r1 > ... > rn, so the
# normal form is the reduced word that is lex-least in that order: it
# starts with the highest-index left descent, r0 last.  The left descents
# of an element are the right descents of its inverse.
def times(window, a):
    """The window of x s_a, given the window of x."""
    x = list(window)
    size = len(x)
    if a == 0:
        x[0], x[-1] = x[-1] - size, x[0] + size
    else:
        x[a - 1], x[a] = x[a], x[a - 1]
    return tuple(x)


def right_descents(window):
    """The right descents of x, highest index first and s_0 last."""
    size = len(window)
    out = [i for i in range(size - 1, 0, -1) if window[i - 1] > window[i]]
    if window[-1] - size > window[0]:
        out.append(0)
    return out


def affine_inversions(window):
    """The length of x, given its window: Shi's count, the sum over
    i < j of |floor((x(j) - x(i)) / (n + 1))| (Bjorner & Brenti,
    Combinatorics of Coxeter Groups, 2005, section 8.3)."""
    size = len(window)
    return sum(abs((window[j] - window[i]) // size)
               for i in range(size) for j in range(i + 1, size))


def group_normal_form(word, n):
    """The deg-lex normal form of the element a reduced or unreduced word
    names, read off the window of its inverse."""
    inverse = tuple(range(1, n + 2))
    for a in reversed(word):
        inverse = times(inverse, a)
    out = []
    while descents := right_descents(inverse):
        out.append(descents[0])
        inverse = times(inverse, descents[0])
    return bytes(out)
