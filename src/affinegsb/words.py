"""Words over a finite ranked alphabet and the deg-lex order.

A word is a ``bytes`` object whose entries are symbol ids.  Symbol ids
double as precedence ranks: id 0 is the greatest symbol, id 1 the next,
and so on.  For the built-in generator names ``r0 > r1 > ... > rn`` the
id of ``ri`` is simply ``i``.  The empty word is the monoid identity and
prints as ``"1"``.
"""

from __future__ import annotations

EMPTY = b""


class RankMismatchError(ValueError):
    """A word contains symbols outside the alphabet it is used with."""


class WordSyntaxError(ValueError):
    """A word string does not parse over the given alphabet."""


class Alphabet:
    """Translates between symbol names and ids.

    ``names`` is listed in precedence order, greatest first, so the id of
    a symbol equals its precedence rank.  A name must print and parse
    back as itself: one nonempty token, not ``1`` (the identity) and
    without ``=`` or ``#`` (reserved by the presentation file format).
    """

    def __init__(self, names):
        names = list(names)
        if len(names) != len(set(names)):
            raise ValueError("duplicate generator names")
        if not names:
            raise ValueError("alphabet must be nonempty")
        if len(names) > 255:
            raise ValueError("alphabet too large")
        for name in names:
            if name == "1" or name.split() != [name] or "=" in name or "#" in name:
                raise ValueError(f"invalid generator name {name!r}")
        self.names = names
        self._ids = {name: i for i, name in enumerate(names)}

    @property
    def size(self):
        return len(self.names)

    def id(self, name):
        try:
            return self._ids[name]
        except KeyError:
            raise WordSyntaxError(f"unknown generator {name!r}") from None

    def word(self, text):
        """Parse whitespace-separated tokens; ``"1"`` is the empty word."""
        text = text.strip()
        if text == "1" or not text:
            return EMPTY
        return bytes(self.id(tok) for tok in text.split())

    def text(self, word):
        """Format a word; the empty word prints as ``"1"``."""
        if not word:
            return "1"
        return " ".join(self.names[c] for c in word)

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.names == other.names

    def __repr__(self):
        return f"Alphabet({self.names!r})"


def affine_alphabet(n):
    """The alphabet r0 > r1 > ... > rn of the rank-n affine presentation."""
    return Alphabet([f"r{i}" for i in range(n + 1)])


# maps symbol id c to 255 - c, so bytes order on the image is reversed
_COMPLEMENT = bytes(range(255, -1, -1))


def deglex_key(w):
    """Sort key: ascending order under this key is ascending deg-lex.

    Longer words are greater; equal lengths compare left-to-right with
    lower ids (higher precedence) greater.
    """
    return (len(w), w.translate(_COMPLEMENT))


def deglex_greater(u, v):
    """True if u is deg-lex greater than v, i.e. deglex_key(u) > deglex_key(v).

    Builds no key: words of equal length compare as bytes, reversed.
    """
    return len(u) > len(v) or (len(u) == len(v) and u < v)
