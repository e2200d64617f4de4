"""Tokenization and n-gram overlap metrics for description quality.

The tokenizer is frozen because every metric value depends on it:
lowercase, split on whitespace, and detach punctuation as single-character
tokens, except that '.' and ',' sitting directly between two digits stay
inside the token (decimals like 3.5 and groupings like 120,000 survive).
The implementation splits the lowercased text on whitespace first: a word
of letters and digits only is one token as it stands, and only a word with
punctuation in it is scanned character by character.  That is exact
because whitespace ends a token, and to the '.'/',' rule a whitespace
neighbor is as much a non-digit as the end of the text.  The character
loop that defines the tokenizer is kept in the tests as its oracle.

Scores are reported on a 0..100 scale.

The reference side of a pair is prepared once per reference set: a
`References` holds the reference token tuples, their lengths and, per
n-gram order, the per-reference counts (ROUGE-N) and their maxima (BLEU),
so several hypotheses scored against one set share that work.  ROUGE-L
finds each longest common subsequence with a bit-parallel recurrence on
Python ints (Allison & Dix 1986; Hyyro 2004): the hypothesis token
positions become bit masks once per call, and each reference costs a few
int operations per token instead of one table row per token.
"""

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple, Union

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
    return Counter(zip(*(tokens[i:] for i in range(n))))


def _clipped(counts: Dict[tuple, int], limits: Dict[tuple, int]) -> int:
    """Sum over the n-grams in both tables of the smaller count."""
    return sum(min(counts[g], limits[g]) for g in counts.keys() & limits.keys())


class References:
    """One reference set, tokenized and counted once and then shared by
    every hypothesis scored against it.  The n-gram tables of an order are
    built the first time a metric asks for that order."""

    def __init__(self, refs: Iterable[Sequence[str]]):
        self.tokens: Tuple[Tokens, ...] = tuple(tuple(r) for r in refs)
        if not self.tokens:
            raise ValueError("refs: need at least one reference")
        self.lengths: Tuple[int, ...] = tuple(len(r) for r in self.tokens)
        self._counts: Dict[int, Tuple[Counter, ...]] = {}
        self._max_counts: Dict[int, Dict[tuple, int]] = {}

    @classmethod
    def from_texts(cls, texts: Iterable[str]) -> "References":
        """References from raw texts, through the frozen tokenizer."""
        return cls(tokenize(t) for t in texts)

    def counts(self, n: int) -> Tuple[Counter, ...]:
        """The n-gram counts of each reference."""
        if n not in self._counts:
            self._counts[n] = tuple(_ngrams(r, n) for r in self.tokens)
        return self._counts[n]

    def max_counts(self, n: int) -> Dict[tuple, int]:
        """Each n-gram's highest count in any one reference."""
        if n not in self._max_counts:
            best: Dict[tuple, int] = {}
            get = best.get
            for counts in self.counts(n):
                for gram, cnt in counts.items():
                    if cnt > get(gram, 0):
                        best[gram] = cnt
            self._max_counts[n] = best
        return self._max_counts[n]


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
    c = len(hyp)
    if c == 0:
        return 0.0
    log_sum = 0.0
    for n in range(1, max_n + 1):
        hyp_counts = _ngrams(hyp, n)
        total = max(c - n + 1, 0)
        matched = _clipped(hyp_counts, refs.max_counts(n))
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
    refs = _references(refs)
    hyp_counts = _ngrams(hyp, n)
    hyp_total = max(len(hyp) - n + 1, 0)
    best = 0.0
    for ref_len, ref_counts in zip(refs.lengths, refs.counts(n)):
        ref_total = max(ref_len - n + 1, 0)
        if hyp_total == 0 or ref_total == 0:
            continue
        overlap = _clipped(hyp_counts, ref_counts)
        best = max(best, _f1(overlap / hyp_total, overlap / ref_total))
    return 100.0 * best


def _position_masks(tokens: Sequence[str]) -> Dict[str, int]:
    """Token -> int with bit i set where tokens[i] is that token."""
    masks: Dict[str, int] = {}
    for i, tok in enumerate(tokens):
        masks[tok] = masks.get(tok, 0) | (1 << i)
    return masks


def _lcs_masked(masks: Dict[str, int], m: int, b: Sequence[str]) -> int:
    """LCS length of b and the length-m sequence behind `masks`.

    Bit-vector recurrence (Hyyro 2004): V starts as m one-bits and, for
    each token of b, U = V & mask and V = (V + U) | (V - U), kept to m
    bits.  The number of zero bits in V is the LCS length so far.
    """
    full = (1 << m) - 1
    v = full
    get = masks.get
    for y in b:
        u = v & get(y, 0)
        v = ((v + u) | (v - u)) & full
    return m - v.bit_count()


def rouge_l(hyp: Sequence[str], refs: RefsLike) -> float:
    """ROUGE-L F1 from LCS length, maximum over references."""
    refs = _references(refs)
    if not hyp:
        return 0.0
    m = len(hyp)
    masks = _position_masks(hyp)
    best = 0.0
    for ref, ref_len in zip(refs.tokens, refs.lengths):
        if not ref_len:
            continue
        lcs = _lcs_masked(masks, m, ref)
        best = max(best, _f1(lcs / m, lcs / ref_len))
    return 100.0 * best


@dataclass
class ScoredPair:
    hypothesis: Tokens
    references: Tuple[Tokens, ...]
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
    scores = {"bleu4": bleu(hyp, refs, 4), "rouge1": rouge_n(hyp, refs, 1),
              "rouge2": rouge_n(hyp, refs, 2), "rougeL": rouge_l(hyp, refs)}
    return ScoredPair(hyp, refs.tokens, scores, kind)


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
