"""Tokenization and n-gram overlap metrics for description quality.

The tokenizer is frozen because every metric value depends on it:
lowercase, split on whitespace, and detach punctuation as single-character
tokens, except that '.' and ',' sitting directly between two digits stay
inside the token (decimals like 3.5 and groupings like 120,000 survive).
The implementation splits the lowercased text on whitespace first: a word
of letters and digits is one token, one that only adds a final punctuation
mark is two, and only other words are scanned character by character.
That is exact because whitespace ends a token, and to the '.'/',' rule a
whitespace neighbor is as much a non-digit as the end of the text.  The
character loop that defines the tokenizer is kept in the tests as its oracle.

Scores are reported on a 0..100 scale.

A hypothesis is scored against its whole reference set at once.  A
`References`, prepared once per set and shared by its hypotheses, holds
per n-gram order each reference's counts and key set and their union, so
a clipped overlap takes the n-grams that occur once in the hypothesis by
set intersection and looks up only the few that repeat; and it packs
every reference's token positions into one int per token, so one
bit-parallel LCS pass over the hypothesis serves all references.  The
per-reference loops this replaced are kept in the tests as oracles.
`score_pair` counts the hypothesis's own n-grams once per order and
hands them to BLEU and ROUGE-N.
"""

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple, Union

Tokens = Tuple[str, ...]


class EmptyReportError(ValueError):
    """corpus_report called with no scored pairs."""


def tokenize(text: str) -> List[str]:
    """Lowercase, whitespace-split, punctuation detached; '.'/',' kept
    when both neighbors are digits."""
    out: List[str] = []
    for word in text.lower().split():
        if word.isalnum():
            out.append(word)
        elif word[:-1].isalnum():  # a trailing '.'/',' has no digit after
            out += (word[:-1], word[-1])
        else:
            _split_word(word, out)
    return out


def _split_word(word: str, out: List[str]) -> None:
    """Append the tokens of one whitespace-free word that holds punctuation:
    each punctuation character is a token of its own, except a '.' or ','
    with a digit on both sides inside the word."""
    start = 0
    last = len(word) - 1
    for i, ch in enumerate(word):
        if ch.isalnum() or (ch in ".," and 0 < i < last
                            and word[i - 1].isdigit()
                            and word[i + 1].isdigit()):
            continue
        if start < i:
            out.append(word[start:i])
        out.append(ch)
        start = i + 1
    if start <= last:
        out.append(word[start:])


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    """N-gram counts; a unigram is its token, whose hash str caches."""
    return Counter(zip(*(tokens[i:] for i in range(n))) if n > 1 else tokens)


# the n-grams that occur once, as a set; those that repeat; their counts
Grams = Tuple[FrozenSet, list, List[int]]


def _hyp_grams(hyp: Sequence[str], n: int) -> Grams:
    counts = _ngrams(hyp, n)
    repeated = [g for g, c in counts.items() if c > 1]
    # a plain dict hands its stored hashes on: no n-gram is hashed again
    return (frozenset(dict(counts)).difference(repeated), repeated,
            [counts[g] for g in repeated])


class _RefGrams:
    """One n-gram order of a reference set: each reference's counts, their
    union of keys, and, once ROUGE-N asks, each reference's key set.  A
    clipped overlap sums, over hypothesis n-grams, the smaller of the
    hypothesis and the reference count."""

    def __init__(self, refs: Sequence[Tokens], n: int):
        self.counts = tuple(_ngrams(r, n) for r in refs)
        # a plain dict hands its stored hashes on: no n-gram is hashed again
        self.union = frozenset().union(*map(dict, self.counts))
        self._most: Dict[object, int] = {}

    @cached_property
    def keys(self) -> Tuple[FrozenSet, ...]:
        return tuple(frozenset(dict(c)) for c in self.counts)

    def overlaps(self, grams: Grams) -> List[int]:
        """The clipped overlap with each reference (ROUGE-N)."""
        once, repeated, counts = grams
        return [len(once & keys) + sum(map(
                    min, counts, map(ref.get, repeated, repeat(0))))
                for keys, ref in zip(self.keys, self.counts)]

    def clipped(self, grams: Grams) -> int:
        """The clipped overlap with each n-gram's highest count in any one
        reference (BLEU), found and cached only for repeated n-grams."""
        once, repeated, counts = grams
        return len(once & self.union) + sum(map(
            min, counts, map(self._most_count, repeated)))

    def _most_count(self, gram) -> int:
        if gram not in self.union:
            return 0
        if gram not in self._most:
            self._most[gram] = max(map(
                dict.get, self.counts, repeat(gram), repeat(0)))
        return self._most[gram]


class References:
    """One reference set, tokenized and counted once and then shared by
    every hypothesis scored against it.  The n-gram tables of an order are
    built the first time a metric asks for that order, the packed LCS
    masks the first time ROUGE-L does."""

    def __init__(self, refs: Iterable[Sequence[str]]):
        self.tokens: Tuple[Tokens, ...] = tuple(tuple(r) for r in refs)
        if not self.tokens:
            raise ValueError("refs: need at least one reference")
        self.lengths: Tuple[int, ...] = tuple(len(r) for r in self.tokens)
        self._grams: Dict[int, _RefGrams] = {}

    @classmethod
    def from_texts(cls, texts: Iterable[str]) -> "References":
        """References from raw texts, through the frozen tokenizer."""
        return cls(tokenize(t) for t in texts)

    def grams(self, n: int) -> _RefGrams:
        """The order-n n-gram tables."""
        if n not in self._grams:
            self._grams[n] = _RefGrams(self.tokens, n)
        return self._grams[n]

    @cached_property
    def _packed(self) -> Tuple[Dict[str, int], int, Tuple[int, ...]]:
        """Token -> one int holding every reference's position mask, each
        reference in a field of its own with a zero guard bit above it;
        the int of all field bits; and each field's bits."""
        masks: Dict[str, int] = {}
        fields = []
        off = 0
        bits = [1 << i for i in range(max(self.lengths))]
        for ref, length in zip(self.tokens, self.lengths):
            own: Dict[str, int] = {}
            for tok, bit in zip(ref, bits):
                own[tok] = own.get(tok, 0) | bit
            for tok, mask in own.items():
                masks[tok] = masks.get(tok, 0) | (mask << off)
            fields.append(((1 << length) - 1) << off)
            off += length + 1
        return masks, sum(fields), tuple(fields)

    def lcs(self, hyp: Sequence[str]) -> List[int]:
        """Longest common subsequence length of hyp with each reference,
        by one pass of the bit-vector recurrence over hyp: V starts as the
        field bits and, per token, U = V & mask, V = (V + U) | (V - U).
        A carry out of a field stops at its guard bit, and U is a subset
        of V, so the subtraction never borrows.  The zero bits of a field
        count that reference's LCS."""
        masks, full, fields = self._packed
        v = full
        get = masks.get
        for y in hyp:
            u = v & get(y, 0)
            v = ((v + u) | (v - u)) & full
        zeros = full ^ v
        return [(zeros & f).bit_count() for f in fields]


RefsLike = Union[References, Sequence[Sequence[str]]]


def _references(refs: RefsLike) -> References:
    return refs if isinstance(refs, References) else References(refs)


def bleu(hyp: Sequence[str], refs: RefsLike, max_n: int = 4) -> float:
    """BLEU with uniform weights, brevity penalty, and add-one smoothing
    applied to n >= 2 orders that have zero matches.  Zero unigram overlap
    scores 0."""
    if max_n < 1:
        raise ValueError(f"max_n: must be >= 1, got {max_n}")
    return _bleu([_hyp_grams(hyp, n) for n in range(1, max_n + 1)], len(hyp),
                 _references(refs))


def _bleu(hyp_grams: Sequence[Grams], c: int, refs: References) -> float:
    """`bleu` of a hypothesis of c tokens whose `_hyp_grams` of orders 1
    to max_n are hyp_grams."""
    if c == 0:
        return 0.0
    max_n = len(hyp_grams)
    log_sum = 0.0
    for n, grams in enumerate(hyp_grams, 1):
        total = max(c - n + 1, 0)
        matched = refs.grams(n).clipped(grams)
        if n == 1 and matched == 0:
            return 0.0
        if matched == 0 and n >= 2:
            p = (matched + 1) / (total + 1)
        else:
            p = matched / total
        log_sum += math.log(p)
    # brevity penalty against the reference length closest to c (ties: shorter)
    r = min((abs(length - c), length) for length in refs.lengths)[1]
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    return 100.0 * bp * math.exp(log_sum / max_n)


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def rouge_n(hyp: Sequence[str], refs: RefsLike, n: int) -> float:
    """ROUGE-N F1, maximum over references."""
    if n < 1:
        raise ValueError(f"n: must be >= 1, got {n}")
    return _rouge_n(_hyp_grams(hyp, n), len(hyp), _references(refs), n)


def _rouge_n(grams: Grams, c: int, refs: References, n: int) -> float:
    """`rouge_n` of a hypothesis of c tokens whose `_hyp_grams` of order
    n are grams."""
    hyp_total = max(c - n + 1, 0)
    overlaps = refs.grams(n).overlaps(grams)
    best = 0.0
    for ref_len, overlap in zip(refs.lengths, overlaps):
        ref_total = max(ref_len - n + 1, 0)
        if hyp_total == 0 or ref_total == 0:
            continue
        best = max(best, _f1(overlap / hyp_total, overlap / ref_total))
    return 100.0 * best


def rouge_l(hyp: Sequence[str], refs: RefsLike) -> float:
    """ROUGE-L F1 from LCS length, maximum over references."""
    refs = _references(refs)
    if not hyp:
        return 0.0
    m = len(hyp)
    best = 0.0
    for lcs, ref_len in zip(refs.lcs(hyp), refs.lengths):
        if ref_len:
            best = max(best, _f1(lcs / m, lcs / ref_len))
    return 100.0 * best


@dataclass
class ScoredPair:
    scores: Dict[str, float] = field(default_factory=dict)
    kind: str = ""


def score_pair(hyp_text: str, ref_texts: Union[References, Sequence[str]],
               kind: str = "") -> ScoredPair:
    """Tokenize and score one hypothesis against its references, given as
    texts or as a `References.from_texts` set shared across hypotheses:
    BLEU-4, ROUGE-1, ROUGE-2 and ROUGE-L."""
    refs = (ref_texts if isinstance(ref_texts, References)
            else References.from_texts(ref_texts))
    hyp = tuple(tokenize(hyp_text))
    grams = [_hyp_grams(hyp, n) for n in range(1, 5)]
    c = len(hyp)
    scores = {"bleu4": _bleu(grams, c, refs),
              "rouge1": _rouge_n(grams[0], c, refs, 1),
              "rouge2": _rouge_n(grams[1], c, refs, 2),
              "rougeL": rouge_l(hyp, refs)}
    return ScoredPair(scores, kind)


def corpus_report(pairs: Sequence[ScoredPair]) -> Dict[str, Dict[str, float]]:
    """Mean score per chart kind plus an unweighted overall row."""
    if not pairs:
        raise EmptyReportError("no scored pairs to report")
    metrics: List[str] = sorted({m for p in pairs for m in p.scores})
    rows: Dict[str, Dict[str, float]] = {}
    kinds = sorted({p.kind for p in pairs})
    for kind in kinds + ["overall"]:
        group = pairs if kind == "overall" else [p for p in pairs if p.kind == kind]
        rows[kind] = {
            m: sum(p.scores.get(m, 0.0) for p in group) / len(group)
            for m in metrics
        }
    return rows


def format_report(rows: Dict[str, Dict[str, float]]) -> str:
    """Aligned text table for a corpus_report result."""
    metrics = sorted({m for r in rows.values() for m in r})
    name_w = max(len(k) for k in rows)
    header = " " * name_w + "  " + "  ".join(f"{m:>8}" for m in metrics)
    lines = [header]
    for kind, row in rows.items():
        cells = "  ".join(f"{row[m]:8.2f}" for m in metrics)
        lines.append(f"{kind:<{name_w}}  {cells}")
    return "\n".join(lines)
