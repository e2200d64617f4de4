"""Plain reference implementations the benchmark checks the program against,
plus the percentile helper it reports latencies with.

The metric definitions follow the chartscribe README: tokens are lowercased,
whitespace-split, punctuation detached, with '.' and ',' kept between two
digits; BLEU has uniform weights, add-one smoothing for orders >= 2 with no
match, and a brevity penalty against the closest reference length (ties go
to the shorter); ROUGE-L is the F1 of the longest common subsequence, best
over the references.  Scores are on a 0..100 scale.
"""

import math
import re
from collections import Counter
from typing import List, Sequence

_TOKEN_RE = re.compile(r"(?:[^\W_]|(?<=\d)[.,](?=\d))+|\S")


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of the
    values at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 < p <= 100:
        raise ValueError(f"p: must be in (0, 100], got {p}")
    ordered = sorted(values)
    return ordered[math.ceil(p / 100 * len(ordered)) - 1]


def tokenize(text: str) -> List[str]:
    return _TOKEN_RE.findall(text.lower())


def bleu(hyp: Sequence[str], refs: Sequence[Sequence[str]], max_n: int = 4) -> float:
    if not hyp:
        return 0.0
    log_p = 0.0
    for n in range(1, max_n + 1):
        grams = Counter(tuple(hyp[i:i + n]) for i in range(len(hyp) - n + 1))
        ref_grams = [Counter(tuple(r[i:i + n]) for i in range(len(r) - n + 1))
                     for r in refs]
        clipped = sum(min(count, max(rg[gram] for rg in ref_grams))
                      for gram, count in grams.items())
        total = max(len(hyp) - n + 1, 0)
        if clipped == 0:
            if n == 1:
                return 0.0
            log_p += math.log(1 / (total + 1))
        else:
            log_p += math.log(clipped / total)
    closest = min(refs, key=lambda r: (abs(len(r) - len(hyp)), len(r)))
    penalty = 1.0 if len(hyp) >= len(closest) \
        else math.exp(1 - len(closest) / len(hyp))
    return 100.0 * penalty * math.exp(log_p / max_n)


def lcs_len(a: Sequence[str], b: Sequence[str]) -> int:
    """Full-table dynamic program."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[len(a)][len(b)]


def rouge_l(hyp: Sequence[str], refs: Sequence[Sequence[str]]) -> float:
    best = 0.0
    for ref in refs:
        if not hyp or not ref:
            continue
        lcs = lcs_len(hyp, ref)
        if lcs:
            p, r = lcs / len(hyp), lcs / len(ref)
            best = max(best, 2 * p * r / (p + r))
    return 100.0 * best
