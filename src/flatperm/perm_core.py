"""Permutations, standard cycle form, the flatten map, and brute-force
counting of length-3 vincular pattern occurrences.

The brute-force counters here are the oracle every recurrence, closed form,
series and bijection in this package is checked against, so they stay as
close to the definitions as possible: standard cycle form writes each cycle
with its smallest element first and orders cycles by increasing first
element; flattening erases the parentheses; an occurrence of a pattern
xy-z / x-yz / x-y-z is an order-isomorphic triple with the glued positions
adjacent in the host.

The oracle works on the (n-1)! flattened words (the arrangements of [n]
that start with 1), not S_n, by one lemma: cycles open at 1 and at any
subset of the word's later right-to-left minima, nowhere else, so a word
with r such minima has 2^(r-1) preimages.  tests/test_perm_core.py checks
the lemma on the literal n! flatten sweep for n <= 8, and every brute
counter for n <= 7.

Which pattern takes which route:

* xy-z (all five of the paper's, and 13-2): the rank pass, right to left
  over (number of letters placed, rank of the front letter among them),
  about n^3 / 3 steps;
* x-yz: the set pass, right to left over (suffix set, front letter),
  one term per (suffix set, old front, new letter), (n - 1)(n - 2) 2^(n-3)
  terms in all;
* x-y-z (classical): the word walk, which visits the words one by one
  (``_flat_words``, ``_bucket``) and counts each in O(n^3) by
  ``_count_word``'s three position loops (a glued pattern fixes one
  loop's position, so its count is O(n^2)).  ``bijections``' 31-2 check
  walks the same words, unweighted (``_flat_word_tuples``).

The set pass is the subset recursion of Bellman and Held-Karp (1962):
about 2^(n-3) n^2 terms replace (n-1)! n^2 comparisons.  The rank pass is
that recursion collapsed by order type.  Neither uses anything from the
recurrences, so both stay an independent check on them.
tests/test_perm_core.py compares both with the word walk on all 12 glued
patterns for n <= 8, whole and for every k, and each layer, state by
state, with the per-transition loop that steps every state (S, b) to every
(S + {a}, a) for n <= 9.

Both passes place the letters 2..n right to left; a state (S, b) is the
set S of letters placed so far and the front letter b.  Prepending a
letter a not in S puts the pair a, b in the glued positions, as x, y of an
xy-z pattern or y, z of an x-yz one, and adds the occurrences whose third
letter is any fitting letter on its side: z in S - {b} for xy-z; x among
the letters not placed yet, 1 included, a excluded, for x-yz.  It also
makes a a right-to-left minimum exactly when a < min(S).  All of this
depends on (a, b, S) alone, not on the order of S - {b}, so one value per
state carries everything later steps need, and suffixes with equal (S, b)
are merged.  Placing 1 last adds no weight (1 opens every preimage's first
cycle), its xy-z occurrences, and no x-yz occurrence (no letter precedes
it); the state whose front letter was k then holds g_n(1k).  So one pass
yields every g_n(1k) at once, and g_n is their sum.  ``_FRONTS`` keeps
those n - 1 packed values per (n, pattern), so the whole distribution and
every refined call at that n read one pass; an entry is stored only once
its pass has finished, and only after the cap check has let the call
through, so a refused or interrupted call leaves no entry and the cap
holds whatever the memo holds.

The order-type lemma, for xy-z.  A suffix's weight, 2^(its right-to-left
minima), and its xy-z occurrences, triples within the suffix, depend only
on the relative order of its letters.  Writing the letters of S as
1..|S| in the same order (standardizing) changes neither, so every state
on an L-set whose front is its r-th smallest letter holds the same value
F_L[r], the weighted distribution of the words on 1..L that start with r.
The rank pass keeps these L values (``_rank_layers``).  A new letter of
rank a among the L + 1 letters goes in front of each old front of rank r,
which then has rank b = r + [r >= a].  When a, b are in the order of x, y,
the term F_L[r] is shifted by s once per rank, not a or b, that the
pattern puts where z goes: below both (min(a, b) - 1 ranks), between them
(|a - b| - 1) or above both (L + 1 - max(a, b)).  The sum doubles when
a = 1, a new right-to-left minimum.  Each (a, r) pair is counted on its
own from the pattern letters, with no prefix sums: about L^2 steps per
layer, n^3 / 3 in all.  ``_fronts`` reads g_n(1k) as F_{n-1}[k - 1], k
being the (k - 1)-th smallest of 2..n, and adds prepending 1's
occurrences.

x-yz cannot use the lemma: its occurrences are counted as soon as the
adjacent pair y, z is placed, before x is, so a state counts letters not
placed yet, and which of those fit depends on the set S itself, not on
ranks within it.  For 3-12 at n = 4, the suffixes 23 and 24 have the same
order type, but the unplaced 4 completes the occurrence 4, 2, 3 with the
first and nothing completes one with the second.  So x-yz keeps one value
per state (S, b), on the set pass (``_layers``).

Each layer of the set pass is formed as the rank pass forms its own, one
term per pair.  The new state (S + {a}, a) sums value(S, b) over the
fronts b in S.  When a and b are in the order of y and z, the term is
shifted by s once per letter that can still play x: a letter not placed
yet, 1 included and a excluded, lying where the pattern puts x, below
both of a and b, between them or above both.  That count is one
``bit_count`` of the mask of unplaced letters ANDed with the mask of that
range, which lies strictly beside a and so never holds it.  Other terms
are added unshifted, and the sum doubles when a < min(S), a new
right-to-left minimum.

Each state's value is its distribution at q = 2^s, the slot width s the
least multiple of 8 with n! < 2^s; a new occurrence is a shift by s, and a
new minimum doubles the value.  That width is enough, whatever the
pattern: the suffixes on an L-set, weighted by 2^(their right-to-left
minima), total 2 * 3 * ... * (L + 1) = (L + 1)! (the minima's generating
function over S_L is x (x + 1) ... (x + L - 1), at x = 2), with
L <= n - 1; the fronts together total n!, front k alone (n - 1)!, or
2 (n - 1)! for k = 2.  Each new set-pass value is a sum of shifted
values of the states on one set, each once; a shift moves coefficients
between slots without adding to them, so every coefficient is at most
the total weight of the states on that set, at most n!.  The rank pass's
values are sums of the same kind: F_L[r] is the value of the existing
states on an L-set with front rank r, and each partial sum for the new
rank a is a sum of shifted F_L[r], each r once, that is of the states on
one L-set (the letters behind the front of any (L + 1)-set whose front
has rank a), each once.  So every
coefficient of every state, and of every sum of states either pass forms,
lies in [0, n!], below 2^s; no slot carries into the next, and each
packed value is read back exactly by ``qpoly._unpack``.

Costs, CPU of the passes in a fresh process on a shared 2-vCPU Intel Xeon
VM, CPython 3.11.7, medians of 5.  The six xy-z rank passes together take
0.57 ms at n = 10, 0.92 ms at 12, 1.6 ms at 14, 2.6 ms at 16, 6.7 ms at
20 and 0.26 s at 40, with the process's peak RSS at 18.3 MB throughout;
the set pass they replace took 7.5 ms, 40 ms, 0.18 s and 1.03 s at
n = 10 to 16, and 37 MB at 16 (BENCH_rank_pass.json).  On the set pass, a
whole 3-12 distribution takes 2.7 ms at n = 10, 15 ms at 12, 88 ms at 14
and 0.55 s at 16, and 3-21 about as long, with peak RSS 41 MB (3-12) and
46 MB (3-21) at 16 (BENCH_xyz_pairs.json).  That is about twice the
letter sweep this pass had before, which summed each placed set's states
in one pass over the letters.  In the package only ``verify``'s
identities suite runs x-yz patterns, at n <= 8 by default and never past
the cap.

Validation.  The public constructors ``Permutation``, ``CycleForm`` and
``VincularPattern3`` check their input, since it may come from outside;
every entry must be an ``int`` (``bool`` excluded), since a float equal to
an integer would pass the range checks and fail, or print wrong, later.
That test is ``_value._all_ints``; ``_value``'s docstring states the
package's one rule for exact input and lists every place it applies.
A flag (``VincularPattern3``'s ``glue12`` and ``glue23``, a
``bijections.MarkedPartition`` mark) must be a ``bool`` or the int 0 or 1,
which equal False and True and hash alike, and is stored as a ``bool``;
any other value, a string say, would print as the flag it stands for yet
make a value unequal to the one it prints as.
``Permutation._raw`` skips the check, and only three places use it, where
the word is a permutation by construction: ``enumerate_permutations``
(``itertools.permutations`` of 1..n), ``flatten_cycle_form`` (the letters
of a ``CycleForm``, whose own check makes them partition [n]) and
``CycleForm.to_permutation`` (the successor map of those same cycles).
The exhaustive tests in tests/test_bijections.py compare every such value
with the checked constructor's for n <= 7.

Threads.  All types here are immutable values (``_value.FrozenValue``):
assigning to a field raises AttributeError, and pickle and copy rebuild a
value through its checking constructor.  The memo ``_FRONTS``,
like the package's other memos (the table builders in ``recurrences``,
the special numbers in ``closed_forms``), is per process and unguarded,
so the library is single-threaded: call it from one thread at a time.
The exhaustive sweeps are deterministic, so splitting a sweep across
processes and merging the per-chunk counts is sound if a caller wants
parallelism.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

from ._value import FrozenValue, _all_ints
from .qpoly import QPoly, _derivative_at_one, _unpack

#: Default refusal bound for the oracle, the same for every route: for the
#: word walk of the classical x-y-z patterns, 10! hosts is the practical
#: ceiling of an exhaustive run on one core.  The set pass (x-yz, 0.55 s
#: at n = 16 for 3-12, BENCH_xyz_pairs.json) and the rank pass (xy-z,
#: 0.26 s for all six at n = 40, BENCH_rank_pass.json) are far cheaper
#: but keep this bound; per-route budgets are still to be decided
#: (ROADMAP item 6).
DEFAULT_MAX_N = 10


class CapExceeded(ValueError):
    """A brute-force enumeration was refused because n exceeds the cap."""


def _all_flags(values) -> bool:
    """Whether every entry is a bool, or the int 0 or 1 (see Validation)."""
    return all(type(v) in (bool, int) and v in (0, 1) for v in values)


class Permutation(FrozenValue):
    """A permutation of [n] in one-line notation, 1-based values."""

    __slots__ = ("word",)

    def __init__(self, word: tuple[int, ...]):
        word = tuple(word)
        if not _all_ints(word) \
                or sorted(word) != list(range(1, len(word) + 1)):
            raise ValueError(f"not a permutation of [n]: {word}")
        object.__setattr__(self, "word", word)

    @classmethod
    def _raw(cls, word: tuple[int, ...]) -> "Permutation":
        """A permutation from a word already known to be one, unchecked."""
        p = cls.__new__(cls)
        object.__setattr__(p, "word", word)
        return p

    def __len__(self):
        return len(self.word)

    def __str__(self):
        return "".join(map(str, self.word)) if len(self.word) < 10 else str(self.word)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))


class CycleForm(FrozenValue):
    """Standard cycle form: min-first cycles, ordered by increasing minima."""

    __slots__ = ("cycles",)

    def __init__(self, cycles: tuple[tuple[int, ...], ...]):
        cycles = tuple(map(tuple, cycles))
        support = [x for c in cycles for x in c]
        if not _all_ints(support):
            raise ValueError(f"cycle entries must be integers: {cycles}")
        support.sort()
        if support != list(range(1, len(support) + 1)):
            raise ValueError("cycles do not partition [n]")
        firsts = []
        for c in cycles:
            if not c or c[0] != min(c):
                raise ValueError(f"cycle {c} does not start with its minimum")
            firsts.append(c[0])
        if firsts != sorted(firsts):
            raise ValueError("cycles not ordered by increasing first element")
        object.__setattr__(self, "cycles", cycles)

    def to_permutation(self) -> Permutation:
        """Apply the cycle action: within each cycle, x maps to its successor."""
        n = sum(len(c) for c in self.cycles)
        word = [0] * n
        for c in self.cycles:
            for i, x in enumerate(c):
                word[x - 1] = c[(i + 1) % len(c)]
        return Permutation._raw(tuple(word))

    def __str__(self):
        return "".join("(" + ",".join(map(str, c)) + ")" for c in self.cycles)


class VincularPattern3(FrozenValue):
    """A length-3 pattern with optional adjacency requirements.

    ``glue12`` forces the host positions matching letters 1,2 of the pattern
    to be adjacent (type (2,1), written xy-z); ``glue23`` forces positions
    2,3 adjacent (type (1,2), written x-yz); neither glued is the classical
    pattern x-y-z.
    """

    __slots__ = ("letters", "glue12", "glue23")

    def __init__(self, letters: tuple[int, int, int], glue12: bool = False,
                 glue23: bool = False):
        letters = tuple(letters)
        if not _all_ints(letters) or sorted(letters) != [1, 2, 3]:
            raise ValueError(f"letters must be a permutation of 1,2,3: {letters}")
        if not _all_flags((glue12, glue23)):
            raise ValueError(f"glue flags must be bools: glue12={glue12!r}, "
                             f"glue23={glue23!r}")
        if glue12 and glue23:
            raise ValueError("fully glued length-3 blocks are not supported")
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "glue12", bool(glue12))
        object.__setattr__(self, "glue23", bool(glue23))

    @classmethod
    def from_string(cls, text: str) -> "VincularPattern3":
        parts = text.strip().split("-")
        joined = "".join(parts)
        if len(joined) != 3 or "" in parts \
                or not (joined.isascii() and joined.isdigit()):
            raise ValueError(f"cannot parse pattern {text!r}")
        digits = tuple(map(int, joined))
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
    """Orbits of p, each written min-first, ordered by increasing minima:
    the flattened word cut after every letter that p does not map to the
    letter following it."""
    word = p.word
    flat = _flatten_word(word)
    # the 0 past the end, an image of no letter, ends the last cycle
    ext = flat + (0,)
    ends = [i for i in range(1, len(ext)) if word[ext[i - 1] - 1] != ext[i]]
    return CycleForm(tuple(flat[a:b] for a, b in zip([0] + ends, ends)))


def flatten(p: Permutation) -> Permutation:
    """Concatenate the standard cycle form; the result always starts with 1."""
    return Permutation(_flatten_word(p.word))


def flatten_cycle_form(c: CycleForm) -> Permutation:
    return Permutation._raw(tuple(itertools.chain.from_iterable(c.cycles)))


def _flatten_word(word: tuple[int, ...]) -> tuple[int, ...]:
    """The orbits of word, each walked from its least letter, least letters
    ascending: the flattened word, which ``to_standard_cycle_form`` cuts
    into cycles."""
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
    """Occurrences of pat in the word w: the positions i < j < k, with
    j = i + 1 when pat glues its first two letters and k = j + 1 when it
    glues its last two, whose letters w[i], w[j], w[k] are in the relative
    order of ``pat.letters``.  A glue leaves j or k one value, so a word
    costs O(n^2) for a glued pattern and O(n^3) for a classical one."""
    p1, p2, p3 = pat.letters
    xy, xz, yz = p1 < p2, p1 < p3, p2 < p3
    n = len(w)
    total = 0
    for i in range(n - 2):
        a = w[i]
        for j in range(i + 1, i + 2 if pat.glue12 else n - 1):
            b = w[j]
            if (a < b) != xy:
                continue
            for k in range(j + 1, j + 2 if pat.glue23 else n):
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
        yield Permutation._raw(word)


def _flat_word_tuples(n: int, second: int | None = None):
    """Iterate over the flattened words of S_n (the arrangements of [n]
    starting 1, or 1, second), each once, in lexicographic order."""
    head = (1,) if second is None else (1, second)
    rest = [x for x in range(2, n + 1) if x not in head]
    return map(head.__add__, itertools.permutations(rest))


def _flat_words(n: int, second: int | None = None):
    """Yield each flattened word of S_n (starting 1, or 1, second) with its
    number of preimages 2^(r-1), r = its number of right-to-left minima.
    A caller that needs no weights iterates ``_flat_word_tuples``."""
    for word in _flat_word_tuples(n, second):
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


def _slot_bytes(n: int) -> int:
    """Bytes per slot of the oracle pass at n: the least s = 8 * bytes
    with n! < 2^s."""
    return (math.factorial(n).bit_length() + 7) // 8


def _rank_layers(n: int, pat: VincularPattern3, s: int):
    """Yield the layers of the right-to-left pass over the xy-z pattern pat
    after each letter of 2..n is placed: after L letters, the list F_L of L
    values, F_L[r - 1] the weighted distribution, evaluated at q = 2^s, of
    the suffixes on any L-set that start with its r-th smallest letter
    (n >= 2; see the module docstring)."""
    x, y, z = pat.letters
    up = x < y
    # the ranks that can play z: below both glued ranks, above both, or
    # between them
    below, above = z < min(x, y), z > max(x, y)
    # the last letter is always a right-to-left minimum
    layer = [2]
    yield layer
    for size in range(1, n - 1):
        nxt = []
        # the new letter takes rank a among the size + 1 letters, the old
        # front of rank r then has rank b = r + (r >= a); a and b play x
        # and y when b lies on a's side that the pattern sets
        for a in range(1, size + 2):
            value = 0
            for r, v in enumerate(layer, 1):
                b = r + (r >= a)
                if (a < b) == up:
                    lo, hi = min(a, b), max(a, b)
                    v <<= s * (lo - 1 if below else size + 1 - hi if above
                               else hi - lo - 1)
                value += v
            # a new least letter is a new right-to-left minimum
            nxt.append(value << 1 if a == 1 else value)
        layer = nxt
        yield layer


def _layers(n: int, pat: VincularPattern3, s: int):
    """Yield the states of the right-to-left pass over the x-yz pattern pat
    after each letter of 2..n is placed: {S: {b: value}}, with S the mask
    of placed letters (letter c at bit c - 2), b the front one, and value
    the weighted distribution of the suffixes on S that start with b,
    evaluated at q = 2^s (n >= 2; see the module docstring)."""
    x, y, z = pat.letters
    up = y < z
    # the letters that can play x: below both glued letters, above both,
    # or between them
    below, above = x < min(y, z), x > max(y, z)
    letters = range(2, n + 1)

    def span(a, b):
        """The letters on x's side of the new letter a and the old front b,
        letter c at bit c - 1, when a and b play y and z; else none.  A
        side lies strictly below, between or above a and b, so it never
        holds a."""
        if (a < b) != up:
            return 0
        lo, hi = min(a, b), max(a, b)
        return ((1 << (lo - 1)) - 1 if below else -(1 << hi) if above
                else (1 << (hi - 1)) - (1 << lo))

    spans = {a: {b: span(a, b) for b in letters} for a in letters}
    # every letter, 1 included, at bit c - 1
    every = (1 << n) - 1
    # the last letter is always a right-to-left minimum
    layer = {1 << (b - 2): {b: 2} for b in letters}
    yield layer
    for _ in range(n - 2):
        nxt: dict = {}
        for placed, values in layer.items():
            # the letters not placed yet, 1 included, at bit c - 1
            free = every & ~(placed << 1)
            low = placed & -placed   # a letter below this bit is a new minimum
            for a in letters:
                bit = 1 << (a - 2)
                if placed & bit:
                    continue
                # one shift by s per free letter that completes an
                # occurrence with a and b
                row = spans[a]
                value = 0
                for b, v in values.items():
                    value += v << s * (free & row[b]).bit_count()
                nxt.setdefault(placed | bit, {})[a] = \
                    value << 1 if bit < low else value
        layer = nxt
        yield layer


def _fronts(n: int, pat: VincularPattern3) -> tuple[dict, int]:
    """Packed g_n(1k) for 2 <= k <= n of the glued pattern pat, keyed by
    k, and the slot width in bytes (n >= 2)."""
    width = _slot_bytes(n)
    s = 8 * width
    if pat.glue23:
        for top in _layers(n, pat, s):
            pass
        # prepending 1 adds no weight (1 opens the first cycle of every
        # preimage) and no x-yz occurrence (no letter precedes it)
        (fronts,) = top.values()
        return fronts, width
    for top in _rank_layers(n, pat, s):
        pass
    # letter k is the (k - 1)-th smallest of 2..n.  Prepending 1 adds no
    # weight; x = 1 lies below every other letter, so x < y = k and x < z
    # are needed, and z is then any letter on its side of k.
    fronts = dict(enumerate(top, 2))
    x, y, z = pat.letters
    if x < y and x < z:
        fronts = {k: value << s * (n - k if y < z else k - 2)
                  for k, value in fronts.items()}
    return fronts, width


#: ``_fronts(n, pat)`` by (n, pat), each entry stored once its pass has
#: finished.
_FRONTS: dict = {}


def _memo_fronts(n: int, pat: VincularPattern3) -> tuple[dict, int]:
    """``_fronts(n, pat)``, read from ``_FRONTS`` once a pass for (n, pat)
    has finished in this process."""
    key = (n, pat)
    if key not in _FRONTS:
        _FRONTS[key] = _fronts(n, pat)
    return _FRONTS[key]


def brute_distribution(n: int, pat: VincularPattern3,
                       max_n: int = DEFAULT_MAX_N) -> QPoly:
    """Sum of q^(occurrences of pat in flatten(p)) over all p in S_n."""
    _check_cap(n, max_n)
    if not (pat.glue12 or pat.glue23) or n == 1:
        return _bucket(_flat_words(n), pat)
    fronts, width = _memo_fronts(n, pat)
    return _unpack(sum(fronts.values()), width)


def brute_refined_distribution(n: int, pat: VincularPattern3, k: int,
                               max_n: int = DEFAULT_MAX_N) -> QPoly:
    """Same as brute_distribution, restricted to flatten(p) starting 1,k."""
    _check_cap(n, max_n)
    if not 2 <= k <= n:
        raise ValueError(f"prefix letter k={k} out of range 2..{n}")
    if not (pat.glue12 or pat.glue23):
        return _bucket(_flat_words(n, k), pat)
    fronts, width = _memo_fronts(n, pat)
    return _unpack(fronts[k], width)


def brute_total_occurrences(n: int, pat: VincularPattern3,
                            max_n: int = DEFAULT_MAX_N) -> int:
    """Total occurrences of pat in flatten(p) summed over all p in S_n."""
    return _derivative_at_one(brute_distribution(n, pat, max_n))


def brute_avoider_count(n: int, pat: VincularPattern3,
                        max_n: int = DEFAULT_MAX_N) -> int:
    """Number of p in S_n whose flattened form avoids pat."""
    return brute_distribution(n, pat, max_n).constant_term()
