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

A hypothesis is scored against its whole reference set at once, from one
table.  A `References`, prepared once per set and shared by its
hypotheses, packs every reference's token positions into one int per
token, read from a byte bitmap, each reference in a field of its own.
ROUGE-L runs the bit-vector LCS recurrence (Crochemore et al. 2001) over
the hypothesis once for all references.  BLEU and ROUGE-N read the same
table: the mask of hypothesis token i shifted up one and ANDed with the
mask of token i + 1 marks where that bigram ends in every reference, and
so on up the orders.  Each occurrence of an n-gram in the hypothesis then
uses up the lowest unused mark of every field at once, with one add, so
the marks used in a field are the clipped overlap with that reference,
and the occurrences that found a mark are BLEU's clipped count.  One such
pass over orders 1 to 4 scores a pair.  The per-reference loops and the
shift-and-OR table build this replaced are kept in the tests as oracles.
"""

import math
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from typing import DefaultDict, Dict, Iterable, List, Sequence, Tuple, Union

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


class References:
    """One reference set, tokenized once and then shared by every
    hypothesis scored against it.  Its packed position table is built the
    first time a metric asks for it."""

    def __init__(self, refs: Iterable[Sequence[str]]):
        self.tokens: Tuple[Tokens, ...] = tuple(tuple(r) for r in refs)
        if not self.tokens:
            raise ValueError("refs: need at least one reference")
        self.lengths: Tuple[int, ...] = tuple(len(r) for r in self.tokens)

    @classmethod
    def from_texts(cls, texts: Iterable[str]) -> "References":
        """References from raw texts, through the frozen tokenizer."""
        return cls(tokenize(t) for t in texts)

    @cached_property
    def _packed(self) -> Tuple[Dict[str, int], int, Tuple[int, ...], int, int]:
        """Token -> one int holding every reference's position mask, each
        reference in a field of its own with a zero guard bit above it;
        the int of all field bits; each field's bits; the lowest bit of
        every field; and every guard bit.  A token's int is read at once
        from a byte bitmap of its positions, not shifted and ORed."""
        size = (sum(self.lengths) + len(self.lengths) + 7) >> 3
        bitmaps: DefaultDict[str, bytearray] = defaultdict(
            lambda: bytearray(size))
        fields = []
        lows = guards = off = 0
        for ref, length in zip(self.tokens, self.lengths):
            for i, tok in enumerate(ref, off):
                bitmaps[tok][i >> 3] |= 1 << (i & 7)
            fields.append(((1 << length) - 1) << off)
            lows |= 1 << off
            guards |= 1 << (off + length)
            off += length + 1
        masks = {tok: int.from_bytes(bits, "little")
                 for tok, bits in bitmaps.items()}
        return masks, sum(fields), tuple(fields), lows, guards

    def lcs(self, hyp: Sequence[str]) -> List[int]:
        """Longest common subsequence length of hyp with each reference,
        by one pass of the bit-vector recurrence over hyp: V starts as the
        field bits and, per token, U = V & mask, V = (V + U) | (V - U).
        A carry out of a field stops at its guard bit, and U is a subset
        of V, so the subtraction never borrows.  The zero bits of a field
        count that reference's LCS."""
        masks, full, fields = self._packed[:3]
        v = full
        get = masks.get
        for y in hyp:
            u = v & get(y, 0)
            v = ((v + u) | (v - u)) & full
        zeros = full ^ v
        return [(zeros & f).bit_count() for f in fields]

    def overlaps(self, hyp: Sequence[str],
                 max_n: int) -> List[Tuple[int, List[int]]]:
        """Per n-gram order 1 to max_n: the clipped overlap with each
        n-gram's highest count in any one reference (BLEU), and the
        clipped overlap with each reference (ROUGE-N).

        The order-n mask of hyp position i, the order-(n - 1) mask shifted
        up one and ANDed with the mask of token i + n - 1, has a bit set
        where that n-gram ends in a reference; a field's top bit shifts
        onto its guard bit, so no n-gram spans two references.  Equal
        n-grams have equal masks and different ones disjoint masks.  Each
        occurrence in hyp uses up, in every field, the lowest bit of its
        mask not yet used: m + (guards - lows) subtracts one from every
        field, borrowing at most from its guard bit, so m & that clears
        each field's lowest bit.  It equals (m | guards) - lows, as m
        never holds a guard bit, with one wide operation fewer.  An
        occurrence that finds a bit left in any field is clipped in; the
        bits used in a field are the overlap with that reference."""
        masks, full, fields, lows, guards = self._packed
        step = guards - lows
        first = [masks.get(tok, 0) for tok in hyp]
        ends = first
        out = []
        for n in range(1, max_n + 1):
            if n > 1:
                ends = [(m << 1) & b if m else 0
                        for m, b in zip(ends, first[n - 1:])]
            clipped = 0
            free = full
            for m in ends:
                if m:
                    m &= free
                    if m:
                        clipped += 1
                        free ^= m ^ (m & (m + step))
            used = full ^ free
            out.append((clipped, [(used & f).bit_count() for f in fields]))
        return out


RefsLike = Union[References, Sequence[Sequence[str]]]


def _references(refs: RefsLike) -> References:
    return refs if isinstance(refs, References) else References(refs)


def bleu(hyp: Sequence[str], refs: RefsLike, max_n: int = 4) -> float:
    """BLEU with uniform weights, brevity penalty, and add-one smoothing
    applied to n >= 2 orders that have zero matches.  Zero unigram overlap
    scores 0."""
    if max_n < 1:
        raise ValueError(f"max_n: must be >= 1, got {max_n}")
    refs = _references(refs)
    return _bleu([clipped for clipped, _ in refs.overlaps(hyp, max_n)],
                 len(hyp), refs.lengths)


def _bleu(matches: Sequence[int], c: int, lengths: Sequence[int]) -> float:
    """`bleu` of a hypothesis of c tokens whose clipped counts of orders 1
    to max_n are matches."""
    if c == 0:
        return 0.0
    log_sum = 0.0
    for n, matched in enumerate(matches, 1):
        total = max(c - n + 1, 0)
        if n == 1 and matched == 0:
            return 0.0
        if matched == 0 and n >= 2:
            p = (matched + 1) / (total + 1)
        else:
            p = matched / total
        log_sum += math.log(p)
    # brevity penalty against the reference length closest to c (ties: shorter)
    r = min((abs(length - c), length) for length in lengths)[1]
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    return 100.0 * bp * math.exp(log_sum / len(matches))


def rouge_n(hyp: Sequence[str], refs: RefsLike, n: int) -> float:
    """ROUGE-N F1, maximum over references."""
    if n < 1:
        raise ValueError(f"n: must be >= 1, got {n}")
    refs = _references(refs)
    return _rouge_n(refs.overlaps(hyp, n)[-1][1], len(hyp), refs.lengths, n)


def _rouge_n(overlaps: Sequence[int], c: int, lengths: Sequence[int],
             n: int) -> float:
    """`rouge_n` of a hypothesis of c tokens whose clipped overlaps of
    order n with the references are overlaps."""
    hyp_total = c - n + 1
    best = 0.0
    for ref_len, overlap in zip(lengths, overlaps):
        if overlap:  # else F1 is 0; n-grams are on both sides
            p, r = overlap / hyp_total, overlap / (ref_len - n + 1)
            f1 = 2 * p * r / (p + r)
            if f1 > best:
                best = f1
    return 100.0 * best


def rouge_l(hyp: Sequence[str], refs: RefsLike) -> float:
    """ROUGE-L F1 from LCS length, maximum over references."""
    refs = _references(refs)
    if not hyp:
        return 0.0
    m = len(hyp)
    best = 0.0
    for lcs, ref_len in zip(refs.lcs(hyp), refs.lengths):
        if lcs:  # a zero LCS has F1 0
            p, r = lcs / m, lcs / ref_len
            f1 = 2 * p * r / (p + r)
            if f1 > best:
                best = f1
    return 100.0 * best


@dataclass
class ScoredPair:
    """The metric scores of one hypothesis, and the chart kind it describes."""

    scores: Dict[str, float] = field(default_factory=dict)
    kind: str = ""


# what score_pair's scores depend on besides the texts, in the form of
# SacreBLEU's signature (Post 2018); tok is raised whenever tokenize's
# output changes
SIGNATURE = "tok:1|bleu:max_n=4|smooth:add-one,n>=2|bp:closest-ref,tie-shorter"


def score_pair(hyp_text: str, ref_texts: Union[References, Sequence[str]],
               kind: str = "") -> ScoredPair:
    """Tokenize and score one hypothesis against its references, given as
    texts or as a `References.from_texts` set shared across hypotheses:
    BLEU-4, ROUGE-1, ROUGE-2 and ROUGE-L, from one overlap pass."""
    refs = (ref_texts if isinstance(ref_texts, References)
            else References.from_texts(ref_texts))
    hyp = tokenize(hyp_text)
    orders = refs.overlaps(hyp, 4)
    c, lengths = len(hyp), refs.lengths
    scores = {"bleu4": _bleu([clipped for clipped, _ in orders], c, lengths),
              "rouge1": _rouge_n(orders[0][1], c, lengths, 1),
              "rouge2": _rouge_n(orders[1][1], c, lengths, 2),
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
