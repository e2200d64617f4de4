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
`References`, prepared once per set and shared by its hypotheses, packs
every reference's token positions into one int per token, read from a
byte bitmap, each reference in a field of its own.  Every metric walks
the hypothesis once over that table (`References.pair_counts`), taking
one step of the bit-vector LCS (Crochemore et al. 2001) and clipping the
n-grams of orders 1 to 4 against every reference at once.  The
per-reference loops and the shift-and-OR table build this replaced are
kept in the tests as oracles.
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

    def pair_counts(self, hyp: Sequence[str]) -> Tuple[
            List[int], Tuple[List[int], List[int]], List[int]]:
        """BLEU's clipped counts of orders 1 to 4, the overlaps of orders 1
        and 2 with each reference and the LCS lengths, from one walk.

        The LCS: V starts as the field bits and, per token, U = V & mask,
        V = (V + U) | (V - U).  A carry out of a field stops at its guard
        bit, and U is a subset of V, so the subtraction never borrows.  The
        zero bits of a field count that reference's LCS.

        Order n's end mask, order n - 1's from the previous token shifted up
        one and ANDed with the token's mask, has a bit set where that n-gram
        ends in a reference; a field's top bit shifts onto its guard bit, so no
        n-gram spans two references.  Equal n-grams have equal masks and
        different ones disjoint masks.  An n-gram ends where its (n - 1)-gram
        suffix does, so e3 lies within e2 and e2 within e1: an order whose
        lower order's mask was 0 keeps its own 0.  A token in no reference has
        mask 0: it ends every n-gram and leaves the LCS as it is.  Each
        occurrence uses up, in every field, the lowest bit of its mask that its
        order has not used: x never holds a guard bit, so x + (guards - lows)
        is (x | guards) - lows, which subtracts one from every field, borrowing
        at most from its guard bit, and x & that clears each field's lowest
        bit.  An occurrence that finds a bit left in any field is clipped in,
        and the bits used in a field are the overlap with that reference.  Each
        order clips against its own unused bits, so its counts do not depend on
        which other orders are read."""
        masks, full, fields, lows, guards = self._packed
        step = guards - lows
        get = masks.get
        v = free1 = free2 = free3 = free4 = full
        e1 = e2 = e3 = c1 = c2 = c3 = c4 = 0
        for tok in hyp:
            m = get(tok, 0)
            if not m:
                e1 = e2 = e3 = 0
                continue
            u = v & m
            v = ((v + u) | (v - u)) & full
            if e3:
                x = (e3 << 1) & m & free4
                if x:
                    c4 += 1
                    free4 ^= x ^ (x & (x + step))
            if e2:
                e3 = (e2 << 1) & m
                x = e3 & free3
                if x:
                    c3 += 1
                    free3 ^= x ^ (x & (x + step))
            if e1:
                e2 = (e1 << 1) & m
                x = e2 & free2
                if x:
                    c2 += 1
                    free2 ^= x ^ (x & (x + step))
            e1 = m
            x = m & free1
            if x:
                c1 += 1
                free1 ^= x ^ (x & (x + step))
        used1, used2, zeros = full ^ free1, full ^ free2, full ^ v
        return ([c1, c2, c3, c4],
                ([(used1 & f).bit_count() for f in fields],
                 [(used2 & f).bit_count() for f in fields]),
                [(zeros & f).bit_count() for f in fields])


RefsLike = Union[References, Sequence[Sequence[str]]]


def _references(refs: RefsLike) -> References:
    return refs if isinstance(refs, References) else References(refs)


def bleu(hyp: Sequence[str], refs: RefsLike, max_n: int = 4) -> float:
    """BLEU of orders 1 to max_n (at most 4) with uniform weights, brevity
    penalty, and add-one smoothing applied to n >= 2 orders that have zero
    matches.  Zero unigram overlap scores 0."""
    if not 1 <= max_n <= 4:
        raise ValueError(f"max_n: must be in 1..4, got {max_n}")
    refs = _references(refs)
    return _bleu(refs.pair_counts(hyp)[0][:max_n], len(hyp), refs.lengths)


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
    """ROUGE-N F1 for n 1 or 2, maximum over references."""
    if not 1 <= n <= 2:
        raise ValueError(f"n: must be in 1..2, got {n}")
    refs = _references(refs)
    overlaps = refs.pair_counts(hyp)[1][n - 1]
    return _rouge_n(overlaps, len(hyp), refs.lengths, n)


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
    return _rouge_l(refs.pair_counts(hyp)[2], len(hyp), refs.lengths)


def _rouge_l(lcs_lengths: Sequence[int], c: int,
             lengths: Sequence[int]) -> float:
    """`rouge_l` of a hypothesis of c tokens whose LCS lengths with the
    references are lcs_lengths."""
    best = 0.0
    for lcs, ref_len in zip(lcs_lengths, lengths):
        if lcs:  # a zero LCS has F1 0, and an empty hypothesis has only those
            p, r = lcs / c, lcs / ref_len
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
    BLEU-4, ROUGE-1, ROUGE-2 and ROUGE-L, from one pass over the
    hypothesis (`References.pair_counts`)."""
    refs = (ref_texts if isinstance(ref_texts, References)
            else References.from_texts(ref_texts))
    hyp = tokenize(hyp_text)
    clipped, (unigrams, bigrams), lcs = refs.pair_counts(hyp)
    c, lengths = len(hyp), refs.lengths
    scores = {"bleu4": _bleu(clipped, c, lengths),
              "rouge1": _rouge_n(unigrams, c, lengths, 1),
              "rouge2": _rouge_n(bigrams, c, lengths, 2),
              "rougeL": _rouge_l(lcs, c, lengths)}
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
