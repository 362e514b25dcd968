"""Constructive bijections for flattened-pattern avoiders.

Three maps, each with its inverse reconstructed and verified by exhaustive
round trips in the test suite:

* marked set partitions of {2,...,n}  <->  permutations whose flattened
  form avoids 23-1 (a partition with k blocks lands on a flattened form
  with exactly k ascents);
* 23-1 avoiders  <->  32-1 avoiders, by reversing the letters strictly
  between consecutive suffix minima of the flattened word (the interiors
  of its maximal descending runs) while keeping every letter in its
  original cycle; the same word operation inverts it, only the domain
  check changes;
* the observation that avoiding 31-2 in the flattened sense is the same as
  classically avoiding 3-1-2, checked by a full sweep.

Validation.  ``MarkedPartition`` checks its input, as ``Permutation`` and
``CycleForm`` do, and its marks as ``perm_core`` checks flags.
``MarkedPartition._raw`` skips the check and is used only by
``enumerate_marked_partitions``, whose blocks partition {2,...,n} by
construction, each sorted descending and in order of first use, which is
the order of their minima.  The maps' outputs are what the checks
test, so every ``CycleForm`` and ``MarkedPartition`` a map builds goes
through the checking constructor, and each map keeps its domain check.
The flattened words are built unchecked (``perm_core.flatten_cycle_form``
reads a checked ``CycleForm``).  tests/test_bijections.py compares every
unchecked value with the checked constructor's for n <= 7.

Each map is its flatten and domain check around a word-level core that
takes the cycle form and its flattened word and returns plain fields:
``_runs_partition`` (blocks and marks), and ``_reverse_runs`` (cycles),
which the reversal and its inverse share: it cuts (``_cut``) the word
that ``_chain_reversal`` returns at the cycle lengths.  Each domain check
is one right-to-left scan, ``_contains_23_1`` or ``_contains_32_1``.

The ``verify`` bijection suite flattens and scans each source once and
calls the word operations itself: it raises the maps' domain error from
its stored flag, builds each forward image through the checking
constructor, and builds no round-trip value at all (fields equal to a
valid value's are valid).  The partition check compares
``_runs_partition``'s fields with the source's; that is as strong as
comparing values because the core returns tuples, exactly as the
constructor stores them.  The reversal check calls ``_chain_reversal``
once per direction.  The image's cycles are the reversed word cut at the
source's cycle lengths by ``_cut``, and the round trip compares the
reversal of that word with the source's word: both sides are cut at the
same lengths, so the words are equal exactly when the cycles are.
tests/test_bijections.py checks the cores against the maps for every
source with n <= 7.

Threads.  Everything here is a pure function of immutable values, and this
module keeps no memo; the exhaustive sweeps can be partitioned freely
across processes.  The package's memos elsewhere (``recurrences``,
``closed_forms``, ``perm_core``) are per process and unguarded, so the
library as a whole is single-threaded.
"""

from __future__ import annotations

import itertools

from ._value import FrozenValue
from .perm_core import (DEFAULT_MAX_N, CycleForm, VincularPattern3,
                        _all_flags, _all_ints, _check_cap, _flat_word_tuples,
                        flatten_cycle_form)

_PAT_23_1 = VincularPattern3.from_string("23-1")
_PAT_32_1 = VincularPattern3.from_string("32-1")


class MarkedPartition(FrozenValue):
    """A set partition of {2,...,n} with a marked subset of blocks.

    Blocks are ordered by ascending minima and each block is written in
    descending order; marks[i] tells whether blocks[i] is marked.
    """

    __slots__ = ("blocks", "marks")

    def __init__(self, blocks: tuple[tuple[int, ...], ...],
                 marks: tuple[bool, ...]):
        blocks = tuple(tuple(b) for b in blocks)
        marks = tuple(marks)
        if not _all_flags(marks):
            raise ValueError(f"marks must be bools: {marks}")
        marks = tuple(map(bool, marks))
        if len(blocks) != len(marks):
            raise ValueError("need one mark flag per block")
        support = [x for b in blocks for x in b]
        n = len(support) + 1
        if not _all_ints(support) \
                or sorted(support) != list(range(2, n + 1)):
            raise ValueError("blocks must partition {2,...,n}")
        minima = []
        for b in blocks:
            if list(b) != sorted(b, reverse=True):
                raise ValueError(f"block {b} not in descending order")
            minima.append(b[-1])
        if minima != sorted(minima):
            raise ValueError("blocks not ordered by ascending minima")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "marks", marks)

    @classmethod
    def _raw(cls, blocks: tuple[tuple[int, ...], ...],
             marks: tuple[bool, ...]) -> "MarkedPartition":
        """A marked partition from fields already known to be valid,
        unchecked."""
        p = cls.__new__(cls)
        object.__setattr__(p, "blocks", blocks)
        object.__setattr__(p, "marks", marks)
        return p

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks) + 1


def enumerate_marked_partitions(n: int):
    """All marked partitions of {2,...,n}, blocks descending, minima ascending."""
    elements = list(range(2, n + 1))

    def assignments(i: int, blocks: list[list[int]]):
        if i == len(elements):
            yield [sorted(b, reverse=True) for b in blocks]
            return
        x = elements[i]
        for b in blocks:
            b.append(x)
            yield from assignments(i + 1, blocks)
            b.pop()
        blocks.append([x])
        yield from assignments(i + 1, blocks)
        blocks.pop()

    for blocks in assignments(0, []):
        frozen = tuple(tuple(b) for b in blocks)
        for marks in itertools.product((False, True), repeat=len(frozen)):
            yield MarkedPartition._raw(frozen, marks)


def partition_to_23_1_avoider(p: MarkedPartition) -> CycleForm:
    """Write the blocks after a leading 1; a marked block defers its minimum
    to open the next cycle.  The image avoids 23-1 in the flattened sense
    and has one ascent per block."""
    cycles: list[list[int]] = [[1]]
    for block, marked in zip(p.blocks, p.marks):
        if marked:
            cycles[-1].extend(block[:-1])
            cycles.append([block[-1]])
        else:
            cycles[-1].extend(block)
    return CycleForm(tuple(tuple(c) for c in cycles))


def _descending_runs(word: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Maximal descending runs of everything after the leading 1."""
    runs: list[list[int]] = []
    for x in word[1:]:
        if runs and x < runs[-1][-1]:
            runs[-1].append(x)
        else:
            runs.append([x])
    return tuple(tuple(r) for r in runs)


def _domain_error(pat: VincularPattern3) -> ValueError:
    """The error a map raises on a cycle form outside its domain, one whose
    flattened word contains pat."""
    return ValueError(
        f"flattened form contains {pat}; not in the bijection's domain")


def avoider_23_1_to_partition(c: CycleForm) -> MarkedPartition:
    """Inverse of partition_to_23_1_avoider.

    The blocks are the maximal descending runs of the flattened word; a
    block is marked exactly when its minimum opens a cycle of c.
    """
    word = flatten_cycle_form(c).word
    if _contains_23_1(word):
        raise _domain_error(_PAT_23_1)
    return MarkedPartition(*_runs_partition(c, word))


def _runs_partition(c: CycleForm, word: tuple[int, ...]
                    ) -> tuple[tuple[tuple[int, ...], ...], tuple[bool, ...]]:
    """The blocks and marks of avoider_23_1_to_partition(c), from c and its
    flattened word, which must avoid 23-1.  Both come out as tuples, the
    form the checked constructor stores."""
    runs = _descending_runs(word)
    cycle_openers = {cyc[0] for cyc in c.cycles} - {1}
    if not cycle_openers <= {run[-1] for run in runs}:
        raise AssertionError("cycle opener off a run minimum; cannot happen "
                             "for a valid standard cycle form")
    return runs, tuple(run[-1] in cycle_openers for run in runs)


def _reverse_runs(c: CycleForm, word: tuple[int, ...]
                  ) -> tuple[tuple[int, ...], ...]:
    """The cycles of the chain reversal of word (c's flattened word), cut
    at c's cycle lengths: the word operation of map_23_1_to_32_1 and of
    its inverse alike."""
    return _cut(_chain_reversal(word), c)


def _cut(word, c: CycleForm) -> tuple[tuple[int, ...], ...]:
    """word cut into tuples at c's cycle lengths."""
    out = []
    pos = 0
    for cyc in c.cycles:
        out.append(tuple(word[pos:pos + len(cyc)]))
        pos += len(cyc)
    return tuple(out)


def _chain_reversal(word: tuple[int, ...]) -> list[int]:
    """Walk the chain 1 = m_1, m_2, ... where each m is the smallest letter
    to the right of the previous one, reversing the letters strictly between
    consecutive chain positions.  Applied to a word whose runs descend this
    turns each run interior ascending, and vice versa; the extra chain stops
    inside a trailing run reverse nothing.

    The chain positions come from one right-to-left scan: low[i] is the
    position of the smallest letter of word[i:]."""
    n = len(word)
    low = list(range(n))
    for i in range(n - 2, -1, -1):
        if word[low[i + 1]] < word[i]:
            low[i] = low[i + 1]
    new_word = list(word)
    pos = 0
    while pos < n - 1:
        nxt = low[pos + 1]
        new_word[pos + 1:nxt] = word[nxt - 1:pos:-1]
        pos = nxt
    return new_word


def map_23_1_to_32_1(c: CycleForm) -> CycleForm:
    """Reverse the interior of each maximal descending run of the flattened
    word (the letters strictly between consecutive suffix minima); letters
    stay in their original cycles.

    The ascent-bottom letters of the flattened word are 1 and all the run
    minima except the last, so this is the "reverse between consecutive
    ascent bottoms" description extended to the final run, which it must
    cover: the image of 1432 has to avoid 32-1.
    """
    word = flatten_cycle_form(c).word
    if _contains_23_1(word):
        raise _domain_error(_PAT_23_1)
    return CycleForm(_reverse_runs(c, word))


def inverse_32_1_to_23_1(c: CycleForm) -> CycleForm:
    """Inverse of map_23_1_to_32_1: the identical chain reversal, entered
    from the 32-1-avoiding side."""
    word = flatten_cycle_form(c).word
    if _contains_32_1(word):
        raise _domain_error(_PAT_32_1)
    return CycleForm(_reverse_runs(c, word))


def _contains_23_1(word: tuple[int, ...]) -> bool:
    """Whether word has an occurrence of the vincular 23-1: an ascent
    word[i] < word[i + 1] and a later letter below word[i].  One
    right-to-left scan keeps low, the smallest letter of word[i + 2:]."""
    if len(word) < 3:
        return False
    low = word[-1]
    for i in range(len(word) - 3, -1, -1):
        a, b = word[i], word[i + 1]
        if low < a < b:
            return True
        if b < low:
            low = b
    return False


def _contains_32_1(word: tuple[int, ...]) -> bool:
    """Whether word has an occurrence of the vincular 32-1: a descent
    word[i] > word[i + 1] and a later letter below word[i + 1], by the
    scan of ``_contains_23_1``."""
    if len(word) < 3:
        return False
    low = word[-1]
    for i in range(len(word) - 3, -1, -1):
        a, b = word[i], word[i + 1]
        if low < b < a:
            return True
        if b < low:
            low = b
    return False


def _contains_31_2(word: tuple[int, ...]) -> bool:
    """Whether word has an occurrence of the vincular 31-2: a descent
    word[i] > word[i + 1] and a later letter strictly between the two."""
    for i in range(len(word) - 2):
        a, b = word[i], word[i + 1]
        if a > b:
            for c in word[i + 2:]:
                if b < c < a:
                    return True
    return False


def _contains_3_1_2(word: tuple[int, ...]) -> bool:
    """Whether word has an occurrence of the classical 3-1-2: positions
    i < j < k with word[j] < word[k] < word[i].  For fixed j, k some i
    exists exactly when the largest letter before j exceeds word[k]."""
    top = 0
    for j in range(len(word) - 1):
        b = word[j]
        if top > b:
            for c in word[j + 1:]:
                if b < c < top:
                    return True
        elif b > top:
            top = b
    return False


def check_31_2_equivalence(n: int, max_n: int = DEFAULT_MAX_N) -> bool:
    """True when, over all of S_n, the flattened form avoids the vincular
    31-2 exactly when it avoids the classical 3-1-2.  The check reads the
    (n-1)! flattened words, not their preimage counts, and scans each word
    only up to its first occurrence of either pattern.  n = 1..8 takes
    8-10 ms of CPU (shared 2-vCPU Intel Xeon VM, CPython 3.11.7, best of 9,
    five runs)."""
    _check_cap(n, max_n)
    for word in _flat_word_tuples(n):
        if _contains_31_2(word) != _contains_3_1_2(word):
            return False
    return True
