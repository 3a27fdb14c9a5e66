"""Rules, compositions, Buchberger-Shirshov completion and normal forms.

Rules are binomial semigroup relations: a deg-lex-greater leading word
rewrites to a smaller word.  Completion repeatedly resolves ambiguities
(overlaps and inclusions of leading words) until every composition is
trivial, which makes rewriting confluent and normal forms unique.
"""

from __future__ import annotations

import heapq
import marshal
import os
import signal
import threading
from contextlib import ExitStack, contextmanager, suppress
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .words import RankMismatchError, deglex_greater, deglex_key


class Rule(NamedTuple):
    lhs: bytes
    rhs: bytes


class CompletionLimitError(RuntimeError):
    """Raised when completion exceeds its resource limits.

    The partial rule set reached so far is attached as ``partial``; it
    may hold rules that a later rule supersedes.
    """

    def __init__(self, message, partial):
        super().__init__(message)
        self.partial = partial


def make_rule(u, v):
    """Orient the relation u = v into a Rule, deg-lex-larger side first."""
    if u == v:
        raise ValueError("rule sides must differ")
    return Rule(u, v) if deglex_greater(u, v) else Rule(v, u)


def _outside_alphabet(w, alphabet_size):
    return RankMismatchError(f"symbol id {max(w)} outside alphabet of size {alphabet_size}")


class LeadingWordIndex:
    """Aho-Corasick automaton over a list of nonempty words (leading words).

    States are the distinct prefixes of the words, found breadth-first
    with children in ascending symbol order, i.e. by ascending (length,
    bytes); state 0 is the empty prefix.  The k-th matching state found
    (some word is a suffix of its prefix) gets the id ``~k``, the others
    0, 1, ... in that order; the tables index ids ``~k`` from the end, so
    a scan tests ``s < 0`` before it reads ``low``.  For each state s:

    - ``goto[s][c]`` is the state of the longest suffix of prefix(s) + c
      that is again a prefix of some word (the trie edge if there is one,
      else the failure link's transition), so the table is complete;
    - ``low[s]`` is the lowest index k of a word that is a suffix of
      prefix(s), or the number of words if there is none (for a RuleSet's
      index, word k is the lhs of rule k); ``low[0]`` is the word count.

    After reading any text from state 0 the current state is the longest
    suffix of the text that is a prefix of some word, and ``low`` of that
    state is the lowest index of a word ending at the last letter.
    Building costs O(total length of the words + states * alphabet_size);
    failure links are found breadth-first, so a state's link is always
    found before it.
    """

    def __init__(self, words, alphabet_size):
        words = list(words)
        # ends[v] is the lowest index of a word ending at trie node v, or
        # none (the number of words), bound once so that every state
        # without a match shares one int object
        none = len(words)
        trie, ends = [{}], [none]
        for k, w in enumerate(words):
            if not w:
                raise ValueError("leading words must be nonempty")
            if max(w) >= alphabet_size:
                raise _outside_alphabet(w, alphabet_size)
            v = 0
            for c in w:
                nxt = trie[v].get(c)
                if nxt is None:
                    nxt = trie[v][c] = len(trie)
                    trie.append({})
                    ends.append(none)
                v = nxt
            ends[v] = min(ends[v], k)
        # order lists (trie node, id, failure link) of the states found; a
        # child is found when its parent is expanded and takes its failure
        # link from the parent's
        self.goto = goto = [None] * len(trie)
        self.low = low = [none] * len(trie)
        order, plain, matching = [(0, 0, 0)], 1, 0
        for v, s, f in order:
            back = goto[f] if s else [0] * alphabet_size
            row = list(back)
            for c, child in sorted(trie[v].items()):
                k = min(ends[child], low[back[c]])
                if k < none:
                    t, matching = ~matching, matching + 1
                else:
                    t, plain = plain, plain + 1
                row[c], low[t] = t, k
                order.append((child, t, back[c]))
            goto[s] = row


_INDEX_TAIL = 8  # rules an extended RuleSet may hold past its shared index


@dataclass(frozen=True)
class RuleSet:
    """Deg-lex oriented, duplicate-free rules over symbols 0..alphabet_size-1.

    The rules are kept as a tuple.  The ``index`` over their leading words
    covers ``rules[:index.low[0]]``: all of them when it is built on first
    use, a prefix when ``extended`` shares the parent's index.  A stack
    pass (``normal_form``, ``_remainders``) over a set with rules past
    its shared index re-indexes that set in full, once.
    """

    rules: tuple
    alphabet_size: int

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))
        seen = set()
        for r in self.rules:
            self._check(r, seen)
            seen.add(r)

    def _check(self, r, present):
        """Raise the constructor's error if rule r cannot join the rules in present."""
        for w in r:
            if w and max(w) >= self.alphabet_size:
                raise _outside_alphabet(w, self.alphabet_size)
        if not deglex_greater(r.lhs, r.rhs):
            raise ValueError(f"rule not deg-lex oriented: {r}")
        if r in present:
            raise ValueError(f"duplicate rule: {r}")

    def extended(self, rule):
        """This set with rule appended; only rule is checked.  The new set
        shares this set's built index while at most ``_INDEX_TAIL`` rules
        lie past the rules it covers, and else builds its own on first use."""
        self._check(rule, self.rules)
        # the old rules passed their checks, so __post_init__ is skipped
        out = object.__new__(RuleSet)
        out.__dict__.update(rules=self.rules + (rule,), alphabet_size=self.alphabet_size)
        index = self.__dict__.get("index")
        if index is not None and len(out.rules) - index.low[0] <= _INDEX_TAIL:
            out.__dict__["index"] = index
        return out

    def __len__(self):
        return len(self.rules)

    def __getstate__(self):
        # pickles and copies hold the rules, not the index built from them
        return {"rules": self.rules, "alphabet_size": self.alphabet_size}

    def leading_words(self):
        return {r.lhs for r in self.rules}

    @cached_property
    def index(self):
        """The LeadingWordIndex of the lhs, word k being rules[k].lhs."""
        return LeadingWordIndex([r.lhs for r in self.rules], self.alphabet_size)


def reduce_once(w, rs):
    """One elimination of a leading word, or None if w is reduced.

    The lowest-index applicable rule wins and its leftmost occurrence is
    replaced.  The result is strictly deg-lex-smaller than w.  One pass
    of ``rs.index`` over the whole of w finds the lowest index of a
    covered leading word in w (``low`` names, at each letter, the lowest
    index ending there); only if there is none are the rules past the
    index tested in order with ``lhs in w``.  ``bytes.replace(lhs, rhs,
    1)`` then rewrites that lhs at its first occurrence, the same step as
    a scan of the rules in order.  Raises RankMismatchError if w has a
    symbol outside the alphabet of rs.
    """
    goto, low = rs.index.goto, rs.index.low
    best, s = low[0], 0
    try:
        for c in w:
            s = goto[s][c]
            if s < 0 and low[s] < best:
                best = low[s]
    except IndexError:
        raise _outside_alphabet(w, rs.alphabet_size) from None
    if best < low[0]:
        lhs, rhs = rs.rules[best]
        return w.replace(lhs, rhs, 1)
    for lhs, rhs in rs.rules[low[0]:]:
        if lhs in w:
            return w.replace(lhs, rhs, 1)
    return None


def normal_form(w, rs):
    """The normal form of w, in one left-to-right pass through ``rs.index``.

    The pass keeps the letters written so far and the index state after
    each.  Where leading words end at the next letter, the lowest-index
    one pops its letters and states and puts its rhs back in front of the
    unread input (Aho & Corasick, CACM 1975).  Each step is a deg-lex
    decrease, so the pass ends; on a Groebner-Shirshov basis it ends on
    the unique normal form (Book & Otto, 1993).  This is
    ``_resumed_normal_forms`` of the one word, so a set built by
    ``extended`` with rules past its shared index is re-indexed in full.
    Raises RankMismatchError if w has a symbol outside the alphabet of
    rs.
    """
    if w and max(w) >= rs.alphabet_size:
        raise _outside_alphabet(w, rs.alphabet_size)
    return _resumed_normal_forms([w], rs)[0]


def is_reduced(w, rs):
    """True if no leading word of rs occurs in w: reduce_once finding nothing.

    One pass of ``rs.index`` over all of w, so a symbol outside the
    alphabet raises RankMismatchError wherever it stands.
    """
    return reduce_once(w, rs) is None


def find_first_forbidden(w, rs):
    """Leftmost occurrence of any leading word in w, as (position, rule).

    Leftmost means the earliest start; ties at the same position go to the
    lowest-index rule.  Returns None if w is reduced, which one
    ``reduce_once`` pass decides; only a reducible w is then scanned rule
    by rule.
    """
    if reduce_once(w, rs) is None:
        return None
    pos, _, rule = min((w.find(r.lhs), k, r) for k, r in enumerate(rs.rules) if r.lhs in w)
    return pos, rule


class Ambiguity(NamedTuple):
    """An overlap or inclusion of the leading words of rules i and j.

    ``word`` starts with lhs_i and contains lhs_j at ``offset_j``.
    Inclusion: word == lhs_i contains lhs_j.  Intersection: a proper
    overlap, word = lhs_i . b = a . lhs_j with a, b nonempty.
    """

    i: int
    j: int
    word: bytes
    offset_j: int


def _pair_ambiguities(i, li, j, lj):
    """Ambiguities of the ordered rule pair (i, j) with nonempty leading
    words li, lj: inclusions by ascending offset, then intersections by
    descending offset.

    An intersection starts lhs_j at an offset p >= 1 of lhs_i where
    lhs_i[p:] is a proper prefix of lhs_j, so p holds the first letter of
    lhs_j and p > len(li) - len(lj); ``bytes.rfind`` visits only those
    offsets.
    """
    out = []
    if i != j:
        # inclusions of lhs_j in lhs_i (a and b may both be empty)
        if len(lj) <= len(li):
            p = li.find(lj)
            while p >= 0:
                out.append(Ambiguity(i, j, li, p))
                p = li.find(lj, p + 1)
    lo = max(1, len(li) - len(lj) + 1)
    p = li.rfind(lj[0], lo)
    while p >= 0:
        if lj.startswith(li[p:]):
            out.append(Ambiguity(i, j, li[:p] + lj, p))
        p = li.rfind(lj[0], lo, p)
    return out


def _file(table, k, words):
    """Append rule index k to the list of each word in words."""
    for w in words:
        table.setdefault(w, []).append(k)


def _by_word(amb):
    """Sort key of ambiguities: deg-lex of the word, then the tuple."""
    return deglex_key(amb.word), amb


def _ambiguities_by_pair(rs):
    """Every ambiguity of rs, by ascending rule pair (i, j), unsorted.

    ``_pair_ambiguities`` runs only on the pairs that have one.  Rule j
    meets lhs_i in an intersection exactly when lhs_j starts with a
    proper suffix of lhs_i; a table that files every rule under each
    proper prefix of its lhs names those rules.  lhs_j lies inside lhs_i
    (j != i) exactly when it ends at a letter where one pass of
    ``rs.index`` over lhs_i reports a leading word, or when it is one of
    the leading words past the index and ``in`` finds it; only the
    factors ending at such a letter are looked up.
    """
    rules = rs.rules
    prefixes, by_lhs = {}, {}
    for k, (lhs, _) in enumerate(rules):
        _file(prefixes, k, (lhs[:t] for t in range(1, len(lhs))))
        _file(by_lhs, k, (lhs,))
    goto, none = rs.index.goto, rs.index.low[0]
    uncovered = list(enumerate((r.lhs for r in rules[none:]), none))
    for i, (li, _) in enumerate(rules):
        meets, inside, s = set(), set(), 0
        for p in range(1, len(li)):
            meets.update(prefixes.get(li[p:], ()))
        for q, c in enumerate(li, 1):
            s = goto[s][c]
            if s < 0:
                for p in range(q):
                    inside.update(by_lhs.get(li[p:q], ()))
        inside.update(j for j, lj in uncovered if lj in li)
        inside.discard(i)
        for j in sorted(meets | inside):
            yield from _pair_ambiguities(i, li, j, rules[j].lhs)


def ambiguities(rs):
    """All ambiguities over ordered rule pairs, ascending by deg-lex of word."""
    return sorted(_ambiguities_by_pair(rs), key=_by_word)


def _rewrites(amb, rules):
    """The two one-step rewrites of the ambiguity word: by rule amb.i at
    its start and by rule amb.j at offset_j."""
    ri, rj, w, p = rules[amb.i], rules[amb.j], amb.word, amb.offset_j
    return ri.rhs + w[len(ri.lhs):], w[:p] + rj.rhs + w[p + len(rj.lhs):]


def _composite(amb, rs):
    """True if amb is an intersection whose word has a leading word of rs
    strictly inside (touching neither end).

    Its composition then follows from the two shorter ambiguities of that
    leading word with lhs_i and lhs_j, so it is trivial modulo its word
    once they are (Kapur, Musser & Narendran, JSC 1988).  Inclusions are
    never composite.
    """
    return len(amb.word) > len(rs.rules[amb.i].lhs) and not is_reduced(amb.word[1:-1], rs)


def _usable_cpus():
    """The CPUs this process may run on; 1 without ``os.sched_getaffinity``
    (not Linux) or while a second thread runs, as a fork copies only the
    calling thread."""
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def _send(pipe, message):
    """Write message (ints, bytes, and lists and plain tuples of them) to
    pipe, framed."""
    data = marshal.dumps(message)
    pipe.write(len(data).to_bytes(8, "little"))
    pipe.write(data)
    pipe.flush()


def _recv(pipe):
    """The next message ``_send`` wrote to pipe, or None at its end,
    also where the writer died with the message half written."""
    head = pipe.read(8)
    if len(head) < 8:
        return None
    size = int.from_bytes(head, "little")
    data = pipe.read(size)
    return marshal.loads(data) if len(data) == size else None


def _request(pipe, message):
    """Send message to a child, which closes its pipe only if it failed."""
    try:
        _send(pipe, message)
    except BrokenPipeError:
        raise ChildProcessError("a composing child failed before a request") from None


def _reply(pipe):
    """The next message of a child, which ends its pipe or cuts a message
    short only if it failed."""
    message = _recv(pipe)
    if message is None:
        raise ChildProcessError("a composing child failed before its reply")
    return message


@contextmanager
def _forked(p, serve):
    """Fork up to p - 1 children that each run ``serve(requests, replies)``
    on their two pipes and exit; yield the (requests, replies) pipes of the
    children forked, in the order forked.

    A refused fork forks no further, so fewer children may be yielded.
    A child never returns into the caller, and no child outlives the
    block: at its end the pipes are closed and every child reaped, after
    a SIGKILL if the block raised.  A child that exits with a nonzero
    status raises ChildProcessError.
    """
    children = []  # (pid, requests, replies)
    try:
        for _ in range(p - 1):
            (down, to_child), (from_child, up) = os.pipe(), os.pipe()
            try:
                pid = os.fork()
            except OSError:
                for fd in (down, to_child, from_child, up):
                    os.close(fd)
                break
            if pid == 0:  # never return, flush inherited stdio or run atexit handlers
                code = 1
                try:
                    # an earlier child sees the end of its requests only
                    # once no process holds their write end
                    for _, requests, replies in children:
                        requests.close()
                        replies.close()
                    os.close(to_child)
                    os.close(from_child)
                    with open(down, "rb") as requests, open(up, "wb") as replies:
                        serve(requests, replies)
                    code = 0
                finally:
                    os._exit(code)
            os.close(down)
            os.close(up)
            children.append((pid, open(to_child, "wb"), open(from_child, "rb")))
        yield [(requests, replies) for _, requests, replies in children]
    except BaseException:
        for pid, _, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for _, requests, replies in children:
            replies.close()
            with suppress(BrokenPipeError):  # a request a dead child left unread
                requests.close()
        statuses = [os.waitpid(pid, 0)[1] for pid, _, _ in children]
    if any(statuses):
        raise ChildProcessError(f"a composing child failed; wait statuses {statuses}")


def _serving(rs):
    """The loop of a composing child forked with rs: for each request
    (rules, part), extend its copy of rs by the rules sent and reply with
    ``_remainders`` of the part over it."""
    def serve(requests, replies):
        live = rs
        while (request := _recv(requests)) is not None:
            rules, part = request
            for rule in rules:
                live = live.extended(Rule(*rule))
            _send(replies, _remainders([Ambiguity(*a) for a in part], live))
    return serve


def _composed_in_parts(batch, rs, children, rules):
    """``_remainders(batch, rs)``, resolved in contiguous parts of the
    batch, one per process.

    Each child of ``_serving(rs)`` is sent rules, those added to rs since
    it last heard, and its part; the caller's part comes first and is
    yielded while the children resolve theirs.  A failed child raises
    ChildProcessError.
    """
    cut = [len(batch) * r // (len(children) + 1) for r in range(len(children) + 2)]
    for r, (requests, _) in enumerate(children, 1):
        _request(requests, ([tuple(rule) for rule in rules],
                            [tuple(amb) for amb in batch[cut[r]:cut[r + 1]]]))
    yield from _remainders(batch[:cut[1]], rs)
    for r, (_, replies) in enumerate(children, 1):
        for k, lhs, rhs in _reply(replies):
            yield (cut[r] + k, lhs, rhs)


def _shared_prefixes(words):
    """For a sorted list of words: how many letters each word shares with
    the word before it (0 for the first), and for each word the depths,
    ascending, at which its pass leaves a snapshot for a later word.

    A later word j resumes at depth common[j] from the snapshot of the
    last word k before it with common[k] <= common[j]: every word between
    them shares more than common[j] letters with its predecessor, so word
    k reads at least that far.  If common[k] == common[j], word k resumed
    from that same snapshot and leaves none.
    """
    common, takes, rising = [0], [[]], [0]  # rising: earlier words, common ascending
    for j in range(1, len(words)):
        u, v = words[j - 1], words[j]
        m = min(len(u), len(v))
        # the first byte that differs is the highest nonzero byte of the xor
        x = int.from_bytes(u[:m], "big") ^ int.from_bytes(v[:m], "big")
        d = m - (x.bit_length() + 7) // 8
        while common[rising[-1]] > d:
            rising.pop()
        if common[rising[-1]] < d:
            takes[rising[-1]].append(d)
        rising.append(j)
        common.append(d)
        takes.append([])
    for t in takes:
        t.reverse()  # found deepest first
    return common, takes


def _resumed_normal_forms(words, rs):
    """``normal_form`` of each of words, a sorted list, in order.

    Each word's stack pass starts from the snapshot (letters written and
    index states) that an earlier word's pass left at the longest prefix
    the word shares with the word before it.  A pass reads its input in
    segments, the last one after the depths ``_shared_prefixes`` names,
    and leaves a snapshot at the end of each but the last.  Within a
    segment it scans letters until a leading word ends, pops the letters
    of the lowest-index one, and scans its rhs followed by the rest of
    the segment.  A set built by ``extended`` with rules past its shared
    index is first re-indexed in full, in place, so that the sets later
    extended from it share the full index: the rules past it have higher
    indices than every covered rule, so the lowest index ending at a
    letter is the same.
    """
    if rs.index.low[0] < len(rs.rules):
        rs.__dict__.pop("index", None)  # the cached property builds a full one
    goto, low, rules = rs.index.goto, rs.index.low, rs.rules
    common, takes = _shared_prefixes(words)
    saved, forms = [(0, b"", [0])], []  # snapshots (depth, out, states), depth ascending
    for w, d, cuts in zip(words, common, takes):
        while saved[-1][0] > d:
            saved.pop()
        _, out, states = saved[-1]
        out, states = bytearray(out), states[:]
        s = states[-1]
        for t in (*cuts, None):
            seg = w[d:t]
            while seg:
                for c in seg:
                    s = goto[s][c]
                    if s < 0:
                        break
                    states.append(s)
                else:
                    out += seg
                    break
                # a leading word ends at seg[i]: pop its back letters
                # before seg[i], scan rhs and then the rest of seg
                lhs, rhs = rules[low[s]]
                i, back = len(states) - len(out) - 1, len(lhs) - 1
                if i >= back:
                    out += seg[:i - back]
                else:
                    del out[len(out) + i - back:]
                del states[len(out) + 1:]
                s = states[-1]
                seg = rhs + seg[i + 1:]
            if t is not None:
                saved.append((t, bytes(out), states[:]))
                d = t
        forms.append(bytes(out))
    return forms


def _remainders(batch, rs):
    """(k, lhs, rhs) for each prime ambiguity batch[k] whose two one-step
    rewrites have two normal forms over rs, in batch order; lhs -> rhs is
    ``make_rule`` of the two forms, the remainder rule.

    The composite ambiguities are skipped, and the distinct rewrites of
    the others take their normal forms in one ``_resumed_normal_forms``.
    """
    pairs = [(k, _rewrites(a, rs.rules)) for k, a in enumerate(batch) if not _composite(a, rs)]
    words = sorted({w for _, pair in pairs for w in pair})
    forms = dict(zip(words, _resumed_normal_forms(words, rs)))
    return [(k, *make_rule(forms[x], forms[y])) for k, (x, y) in pairs if forms[x] != forms[y]]


_RUN = 256  # ambiguities per process: at 512 affine A4's 869 and E6's 624 were
# checked in one process and took 1.27x and 1.14x as long; at 1,024 E7, ~B4 and
# ~D4 took 1.2-1.4x


def is_gs_basis(rs):
    """Check confluence on the ambiguities that are not composite.

    Returns (True, []) or (False, witnesses) with the failing prime
    ambiguities, in the order of ``ambiguities``.  The flag is the same as
    if every ambiguity were composed: by induction on the length of the
    word, a composite one is trivial modulo its word once all shorter ones
    are, and a confluent basis makes every composition trivial.

    Rewriting by rs terminates, so the flag does not depend on how the
    two one-step rewrites of each prime ambiguity are reduced (Newman's
    lemma; Book & Otto, String-Rewriting Systems, 1993): rs is confluent
    exactly when the two have one normal form by any strategy.  So each
    ambiguity of the listing is resolved once, by ``_remainders``, in
    contiguous parts, one per process and at most one per ``_RUN``
    ambiguities (``_composed_in_parts``); the prime ones whose rewrites
    have two normal forms are the witnesses, sorted by ``_by_word``, a
    total order, so the flag and the witnesses do not depend on p.  A
    failed child raises ChildProcessError.
    """
    ambs = list(_ambiguities_by_pair(rs))  # builds rs.index before any fork
    p = max(1, min(_usable_cpus(), len(ambs) // _RUN))
    with _forked(p, _serving(rs)) as children:
        witnesses = sorted((ambs[k] for k, _, _ in _composed_in_parts(ambs, rs, children, ())),
                           key=_by_word)
    return (not witnesses, witnesses)


_FORK_BATCH = 128  # ambiguities of the batch that forks the drain: at 64 the drains of
# affine A4, ~B4, ~D4 and E7 fork and gained nothing past the noise; at 256 affine
# A5's drain never forks and took 1.07-1.10x as long
_BATCH = 64  # ambiguities of a batch resolved in parts once forked: at 128 the drains of
# affine A5 and A6 took 1.05-1.07x as long, and at 32 0.95-0.99x, within the noise


def _chain_end(w, rs):
    """w after reduce_once steps until it is reduced."""
    while (nxt := reduce_once(w, rs)) is not None:
        w = nxt
    return w


class _Completion:
    """Mutable completion state: an append-only rule table plus an ambiguity queue.

    ``live`` is the RuleSet of every rule created, in creation order, and
    queued ambiguities refer to rules by their index in ``live.rules``.
    ``add_equation`` takes the two sides of a new equation to the ends of
    their ``reduce_once`` chains over it (``_chain_end``), so the rule it
    makes does not depend on ``normal_form``'s strategy.  ``live`` only
    grows: a rule whose lhs contains a later lhs stays, and the
    inclusion is queued like an overlap.  Adding a rule replaces it by
    ``live.extended(rule)``, so the index over the older rules is shared
    until more than ``_INDEX_TAIL`` rules lie past it, or until a batch
    resolved against it re-indexes it in full.

    Invariant: the ambiguities of every pair of rules are queued when the
    later of the two is added.  ``drain`` pops every queued ambiguity of
    the least word length as one batch, resolves the whole batch by
    ``_remainders`` against ``live`` as it was at the start of the batch
    (frozen), and then passes each remainder rule to ``add_equation``, in
    batch order, which reduces its two sides again under the growing
    ``live``.  Each normal form is reached by rewriting steps, so an
    ambiguity whose two forms agree is joined under the frozen set.
    This is sound:

    - a composition that the rules of L join stays joined under any
      L' containing L;
    - an ambiguity that is composite with respect to the frozen L is also
      composite with respect to the final set;
    - the two shorter ambiguities through the inner leading word of a
      composite one were popped in an earlier batch, because a batch
      starts only when nothing shorter is queued.

    So once ``drain`` has emptied the queue, every composition is trivial
    and ``live`` is a Groebner-Shirshov basis; ``complete`` drains once and
    certifies the interreduction, raising ValueError rather than draining
    again if the certificate fails.  The reduced basis is unique for the
    order (Book & Otto, 1993), so batching keeps ``complete``'s result.

    The first batch of at least ``_FORK_BATCH`` ambiguities forks a child
    of ``_serving(live)`` for each usable CPU but one, once per drain;
    from then on ``_composed_in_parts`` cuts every batch of at least
    ``_BATCH`` ambiguities into contiguous parts, one per process, and
    sends each child the rules added since its last part.  A part's
    normal forms do not depend on the other words resolved with it, so
    neither do the remainders.  The drain is
    batched even when p = 1, so the pushes, the rules and the limit
    errors never depend on the CPU count.  ``prefixes`` and ``suffixes``
    file every rule under each proper prefix and each proper suffix of
    its lhs; they name the rules a new rule overlaps.
    """

    def __init__(self, alphabet_size, max_rules, max_degree):
        self.max_rules = max_rules
        self.max_degree = max_degree
        self.live = RuleSet((), alphabet_size)
        self.pending = []
        self.prefixes = {}
        self.suffixes = {}

    def add_equation(self, u, v):
        u, v = _chain_end(u, self.live), _chain_end(v, self.live)
        if u == v:
            return
        # both sides are normal, so no rule has this lhs already
        rule = make_rule(u, v)
        idx = len(self.live)
        if idx >= self.max_rules:
            raise CompletionLimitError(f"rule limit {self.max_rules} exceeded", self.live)
        self.live = self.live.extended(rule)
        rules = self.live.rules
        lhs = rule.lhs
        _file(self.prefixes, idx, (lhs[:t] for t in range(1, len(lhs))))
        _file(self.suffixes, idx, (lhs[t:] for t in range(1, len(lhs))))
        # lhs is normal under the older rules, so it meets a rule k in a
        # proper overlap, lhs_k starting with a proper suffix of lhs (the
        # pair (idx, k)) or ending with a proper prefix of it (the pair
        # (k, idx)), or lies inside lhs_k (the pair (k, idx) again)
        after = {k for p in range(1, len(lhs)) for k in self.prefixes.get(lhs[p:], ())}
        before = {k for t in range(1, len(lhs)) for k in self.suffixes.get(lhs[:t], ())}
        before.update(k for k in range(idx) if lhs in rules[k].lhs)
        for k in sorted(after | before):
            if k in after:
                for amb in _pair_ambiguities(idx, lhs, k, rules[k].lhs):
                    self._push(amb)
            if k in before and k != idx:
                for amb in _pair_ambiguities(k, rules[k].lhs, idx, lhs):
                    self._push(amb)

    def _push(self, amb):
        if len(amb.word) > self.max_degree:
            raise CompletionLimitError(
                f"ambiguity degree {len(amb.word)} exceeds limit {self.max_degree}",
                self.live,
            )
        heapq.heappush(self.pending, (deglex_key(amb.word), amb))

    def drain(self):
        with ExitStack() as stack:
            children, sent = None, 0  # the children's pipes, once forked; the rules they hold
            while self.pending:
                d, batch = len(self.pending[0][1].word), []
                while self.pending and len(self.pending[0][1].word) == d:
                    batch.append(heapq.heappop(self.pending)[1])
                live = self.live
                if children is None and len(batch) >= _FORK_BATCH and (p := _usable_cpus()) > 1:
                    live.index  # built once, before the children copy live
                    children, sent = stack.enter_context(_forked(p, _serving(live))), len(live)
                shared = children if children and len(batch) >= _BATCH else []
                # the caller's part is added while the children compose theirs
                for _, lhs, rhs in _composed_in_parts(batch, live, shared, live.rules[sent:]):
                    self.add_equation(lhs, rhs)
                if shared:
                    sent = len(live)


def complete(rs, max_rules=100000, max_degree=64):
    """Buchberger-Shirshov completion to the reduced Groebner-Shirshov basis.

    Processes ambiguities smallest-first (deg-lex of the ambiguity word),
    adding nontrivial composition remainders as new rules, until every
    composition is trivial; then interreduces the live rules and returns
    that basis once ``is_gs_basis`` certifies it.  The drain invariant of
    ``_Completion`` makes the certificate hold; if it fails, ValueError
    names the number of witnesses and the first one's word.  May not
    terminate for arbitrary input; the limits raise CompletionLimitError
    carrying the live rules reached so far.
    """
    state = _Completion(rs.alphabet_size, max_rules, max_degree)
    for r in rs.rules:
        state.add_equation(r.lhs, r.rhs)
    state.drain()
    result = interreduce(state.live)
    ok, witnesses = is_gs_basis(result)
    if not ok:
        raise ValueError(
            f"completion fails its certificate: {len(witnesses)} nontrivial compositions, "
            f"the first on the word of symbol ids {list(witnesses[0].word)}"
        )
    return result


def interreduce(rs):
    """Minimize a Groebner-Shirshov basis.

    Drops rules whose lhs properly contains another retained lhs (or
    duplicates one) and reduces every rhs to normal form under the
    retained rules.  One pass suffices: the retained lhs are fixed before
    it, so a rhs irreducible under them is irreducible under the result.
    """
    kept = []
    for r in sorted(rs.rules, key=lambda r: (deglex_key(r.lhs), deglex_key(r.rhs))):
        if any(k.lhs in r.lhs for k in kept):
            continue
        kept.append(r)
    base = RuleSet(kept, rs.alphabet_size)
    return RuleSet([Rule(r.lhs, normal_form(r.rhs, base)) for r in kept], rs.alphabet_size)
