"""Permutations, standard cycle form, the flatten map, and brute-force
counting of length-3 vincular pattern occurrences.

The brute-force counters here are the oracle every recurrence, closed form,
series and bijection in this package is checked against, so they stay as
close to the definitions as possible: standard cycle form writes each cycle
with its smallest element first and orders cycles by increasing first
element; flattening erases the parentheses; an occurrence of a pattern
xy-z / x-yz / x-y-z is an order-isomorphic triple with the glued positions
adjacent in the host.

The sweeps walk the (n-1)! flattened words (the arrangements of [n] that
start with 1), not S_n, by one lemma: cycles open at 1 and at any subset of
the word's later right-to-left minima, nowhere else, so a word with r such
minima has 2^(r-1) preimages.  tests/test_perm_core.py checks the lemma on
the literal n! flatten sweep for n <= 8, and every brute counter for n <= 7.

All types are immutable values, safe to share between threads; the
exhaustive sweeps are deterministic, so splitting a sweep and merging the
per-chunk counts is sound if a caller wants parallelism.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .qpoly import QPoly

#: Default refusal bound for full-S_n sweeps (10! hosts is the practical
#: ceiling for an exhaustive run on one core).
DEFAULT_MAX_N = 10


class CapExceeded(ValueError):
    """A brute-force enumeration was refused because n exceeds the cap."""


@dataclass(frozen=True)
class Permutation:
    """A permutation of [n] in one-line notation, 1-based values."""

    word: tuple[int, ...]

    def __post_init__(self):
        word = tuple(self.word)
        object.__setattr__(self, "word", word)
        if sorted(word) != list(range(1, len(word) + 1)):
            raise ValueError(f"not a permutation of [n]: {word}")

    def __len__(self):
        return len(self.word)

    def __str__(self):
        return "".join(map(str, self.word)) if len(self.word) < 10 else str(self.word)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))


@dataclass(frozen=True)
class CycleForm:
    """Standard cycle form: min-first cycles, ordered by increasing minima."""

    cycles: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        cycles = tuple(tuple(c) for c in self.cycles)
        object.__setattr__(self, "cycles", cycles)
        support = [x for c in cycles for x in c]
        if sorted(support) != list(range(1, len(support) + 1)):
            raise ValueError("cycles do not partition [n]")
        firsts = []
        for c in cycles:
            if not c or c[0] != min(c):
                raise ValueError(f"cycle {c} does not start with its minimum")
            firsts.append(c[0])
        if firsts != sorted(firsts):
            raise ValueError("cycles not ordered by increasing first element")

    def to_permutation(self) -> Permutation:
        """Apply the cycle action: within each cycle, x maps to its successor."""
        n = sum(len(c) for c in self.cycles)
        word = [0] * n
        for c in self.cycles:
            for i, x in enumerate(c):
                word[x - 1] = c[(i + 1) % len(c)]
        return Permutation(tuple(word))

    def __str__(self):
        return "".join("(" + ",".join(map(str, c)) + ")" for c in self.cycles)


@dataclass(frozen=True)
class VincularPattern3:
    """A length-3 pattern with optional adjacency requirements.

    ``glue12`` forces the host positions matching letters 1,2 of the pattern
    to be adjacent (type (2,1), written xy-z); ``glue23`` forces positions
    2,3 adjacent (type (1,2), written x-yz); neither glued is the classical
    pattern x-y-z.
    """

    letters: tuple[int, int, int]
    glue12: bool = False
    glue23: bool = False

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        if sorted(self.letters) != [1, 2, 3]:
            raise ValueError(f"letters must be a permutation of 1,2,3: {self.letters}")
        if self.glue12 and self.glue23:
            raise ValueError("fully glued length-3 blocks are not supported")

    @classmethod
    def from_string(cls, text: str) -> "VincularPattern3":
        parts = text.strip().split("-")
        digits = tuple(int(ch) for ch in "".join(parts))
        if len(digits) != 3 or "" in parts:
            raise ValueError(f"cannot parse pattern {text!r}")
        lens = tuple(len(p) for p in parts)
        if lens == (2, 1):
            return cls(digits, glue12=True)
        if lens == (1, 2):
            return cls(digits, glue23=True)
        if lens == (1, 1, 1):
            return cls(digits)
        raise ValueError(f"cannot parse pattern {text!r}")

    def __str__(self):
        a, b, c = (str(x) for x in self.letters)
        if self.glue12:
            return f"{a}{b}-{c}"
        if self.glue23:
            return f"{a}-{b}{c}"
        return f"{a}-{b}-{c}"


def to_standard_cycle_form(p: Permutation) -> CycleForm:
    """Orbits of p, each written min-first, ordered by increasing minima."""
    word = p.word
    n = len(word)
    seen = [False] * (n + 1)
    cycles = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cycle = []
        x = start
        while not seen[x]:
            seen[x] = True
            cycle.append(x)
            x = word[x - 1]
        cycles.append(tuple(cycle))
    return CycleForm(tuple(cycles))


def flatten(p: Permutation) -> Permutation:
    """Concatenate the standard cycle form; the result always starts with 1."""
    return Permutation(_flatten_word(p.word))


def flatten_cycle_form(c: CycleForm) -> Permutation:
    return Permutation(tuple(x for cyc in c.cycles for x in cyc))


def _flatten_word(word: tuple[int, ...]) -> tuple[int, ...]:
    n = len(word)
    seen = [False] * (n + 1)
    out = []
    append = out.append
    for start in range(1, n + 1):
        if seen[start]:
            continue
        x = start
        while not seen[x]:
            seen[x] = True
            append(x)
            x = word[x - 1]
    return tuple(out)


# ---------------------------------------------------------------------------
# Occurrence counting
# ---------------------------------------------------------------------------

def _count_word(w: tuple[int, ...], pat: VincularPattern3) -> int:
    p1, p2, p3 = pat.letters
    xy, xz, yz = p1 < p2, p1 < p3, p2 < p3
    if pat.glue12:
        return _count_glue12(w, xy, xz, yz)
    if pat.glue23:
        return _count_glue23(w, xy, xz, yz)
    return _count_classical(w, xy, xz, yz)


def _count_glue12(w, xy, xz, yz):
    n = len(w)
    total = 0
    for i in range(n - 2):
        a, b = w[i], w[i + 1]
        if (a < b) != xy:
            continue
        for k in range(i + 2, n):
            c = w[k]
            if (a < c) == xz and (b < c) == yz:
                total += 1
    return total


def _count_glue23(w, xy, xz, yz):
    n = len(w)
    total = 0
    for j in range(1, n - 1):
        b, c = w[j], w[j + 1]
        if (b < c) != yz:
            continue
        for i in range(j):
            a = w[i]
            if (a < b) == xy and (a < c) == xz:
                total += 1
    return total


def _count_classical(w, xy, xz, yz):
    n = len(w)
    total = 0
    for i in range(n - 2):
        a = w[i]
        for j in range(i + 1, n - 1):
            b = w[j]
            if (a < b) != xy:
                continue
            for k in range(j + 1, n):
                c = w[k]
                if (a < c) == xz and (b < c) == yz:
                    total += 1
    return total


def count_occurrences(host: Permutation, pat: VincularPattern3) -> int:
    """Number of occurrences of pat in the host word itself."""
    return _count_word(host.word, pat)


def count_in_flattened_sense(p: Permutation, pat: VincularPattern3) -> int:
    """Occurrences of pat in flatten(p)."""
    return _count_word(_flatten_word(p.word), pat)


# ---------------------------------------------------------------------------
# Exhaustive enumeration
# ---------------------------------------------------------------------------

def _check_cap(n: int, max_n: int):
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if n > max_n:
        raise CapExceeded(
            f"refusing exhaustive enumeration at n={n}: cap is {max_n} "
            f"(raise the cap explicitly to go further)")


def enumerate_permutations(n: int, max_n: int = DEFAULT_MAX_N):
    """Yield all n! permutations in lexicographic order, lazily."""
    _check_cap(n, max_n)
    for word in itertools.permutations(range(1, n + 1)):
        yield Permutation(word)


def _flat_words(n: int, second: int | None = None):
    """Yield each flattened word of S_n (starting 1, or 1, second) with its
    number of preimages 2^(r-1), r = its number of right-to-left minima."""
    head = (1,) if second is None else (1, second)
    rest = [x for x in range(2, n + 1) if x not in head]
    for tail in itertools.permutations(rest):
        word = head + tail
        low, r = n + 1, 0
        for x in reversed(word):
            if x < low:
                low, r = x, r + 1
        yield word, 1 << (r - 1)


def _bucket(words, pat: VincularPattern3) -> QPoly:
    """Sum of weight * q^(occurrences of pat in word) over (word, weight)."""
    buckets: Counter = Counter()
    for word, weight in words:
        buckets[_count_word(word, pat)] += weight
    return QPoly([buckets[i] for i in range(max(buckets, default=-1) + 1)])


def brute_distribution(n: int, pat: VincularPattern3,
                       max_n: int = DEFAULT_MAX_N) -> QPoly:
    """Sum of q^(occurrences of pat in flatten(p)) over all p in S_n."""
    _check_cap(n, max_n)
    return _bucket(_flat_words(n), pat)


def brute_refined_distribution(n: int, pat: VincularPattern3, k: int,
                               max_n: int = DEFAULT_MAX_N) -> QPoly:
    """Same as brute_distribution, restricted to flatten(p) starting 1,k."""
    _check_cap(n, max_n)
    if not 2 <= k <= n:
        raise ValueError(f"prefix letter k={k} out of range 2..{n}")
    return _bucket(_flat_words(n, k), pat)


def brute_total_occurrences(n: int, pat: VincularPattern3,
                            max_n: int = DEFAULT_MAX_N) -> int:
    """Total occurrences of pat in flatten(p) summed over all p in S_n."""
    return brute_distribution(n, pat, max_n).derivative().evaluate(1)


def brute_avoider_count(n: int, pat: VincularPattern3,
                        max_n: int = DEFAULT_MAX_N) -> int:
    """Number of p in S_n whose flattened form avoids pat."""
    return brute_distribution(n, pat, max_n).constant_term()
