"""Tokenizer and overlap-metric behavior, including the frozen oracle values."""

import importlib.util
import math
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from chartscribe.evalmetrics import (
    EmptyReportError, References, ScoredPair, bleu,
    corpus_report, format_report, rouge_l, rouge_n, score_pair, tokenize,
)


def toks(text):
    return tokenize(text)


class TestTokenize:
    """Lowercasing, punctuation detachment, and the digit-interior exception."""

    def test_basic_sentence(self):
        assert toks("The cat sat.") == ["the", "cat", "sat", "."]

    def test_comma_detached_after_word(self):
        assert toks("In 1970, values rose") == ["in", "1970", ",", "values", "rose"]

    def test_decimal_point_kept_between_digits(self):
        assert toks("roughly 3.5 million") == ["roughly", "3.5", "million"]

    def test_thousands_comma_kept_between_digits(self):
        assert toks("about 120,000 tonnes") == ["about", "120,000", "tonnes"]

    def test_trailing_period_after_digits_detached(self):
        assert toks("ended in 2015.") == ["ended", "in", "2015", "."]

    def test_percent_sign_detached(self):
        assert toks("rose to 45%") == ["rose", "to", "45", "%"]

    def test_parentheses_detached(self):
        assert toks("(net)") == ["(", "net", ")"]

    def test_en_dash_is_own_token(self):
        assert toks("1994–1996") == ["1994", "–", "1996"]

    def test_empty_and_whitespace(self):
        assert toks("") == []
        assert toks("   \t\n") == []

    def test_lowercases(self):
        assert toks("Coffee EXPORTS") == ["coffee", "exports"]

    def test_unit_suffix_stays_attached(self):
        assert toks("300g per week") == ["300g", "per", "week"]


def tokenize_loop(text):
    """The frozen character loop that defines the tokenizer: the oracle."""
    s = text.lower()
    out = []
    buf = []
    n = len(s)
    for i, ch in enumerate(s):
        if ch.isspace():
            if buf:
                out.append("".join(buf))
                buf = []
        elif ch.isalnum():
            buf.append(ch)
        elif ch in ".," and 0 < i < n - 1 and s[i - 1].isdigit() \
                and s[i + 1].isdigit():
            buf.append(ch)
        else:
            if buf:
                out.append("".join(buf))
                buf = []
            out.append(ch)
    if buf:
        out.append("".join(buf))
    return out


# digits, the two kept separators, whitespace, a dash, digits that are not
# decimal (superscript two, one half), a connector, a capital whose
# lowercase is two characters, and a capital sigma
TRICKY = st.text(alphabet="12.,\t \u2013\u00b2\u00bd_\u0130\u03a3aA",
                 max_size=40)


class TestTokenizeMatchesLoop:
    """The whole-word tokenizer against the character loop it replaced."""

    @settings(max_examples=500)
    @given(st.text())
    def test_any_text(self, text):
        assert tokenize(text) == tokenize_loop(text)

    @settings(max_examples=500)
    @given(TRICKY)
    def test_tricky_alphabet(self, text):
        assert tokenize(text) == tokenize_loop(text)

    @settings(max_examples=300)
    @given(st.lists(st.one_of(st.text(max_size=20), TRICKY), max_size=8))
    def test_space_join_concatenates_tokens(self, parts):
        assert tokenize(" ".join(parts)) == \
            [tok for part in parts for tok in tokenize(part)]

    @pytest.mark.parametrize("text", [
        "Up 3.5% to 120,000 (x2).", "1,2.3,", ".5 5. ,5 5,", "a.b 1.a a.1",
        "x\u00b2.5 2.\u00b2", "\u0130stanbul \u03a3\u03a3 \u039f\u03a3",
        "in 2015. 1,2, x, \u00bd. \u00b2, a.. .",
        "1994\u20131996", "tab\tsep\u2003em\u00a0nbsp",
    ])
    def test_fixed_cases(self, text):
        assert tokenize(text) == tokenize_loop(text)


class TestBleu:
    """BLEU-4 with add-one smoothing and the closest-length brevity penalty."""

    def test_oracle_value(self):
        # all precisions 1 except the smoothed 4-gram order; c=3, r=4
        score = bleu(toks("the cat sat"), [toks("the cat sat down")], 4)
        assert abs(score - 100.0 * math.exp(1.0 - 4.0 / 3.0)) < 1e-9
        assert abs(score - 71.65) < 0.01

    def test_identity_scores_100(self):
        h = toks("a steady rise across the window")
        assert bleu(h, [list(h)], 4) == pytest.approx(100.0)

    def test_zero_unigram_overlap_scores_zero(self):
        assert bleu(toks("x y z"), [toks("p q r")], 4) == 0.0

    def test_empty_hypothesis_scores_zero(self):
        assert bleu([], [toks("a b")], 4) == 0.0

    def test_length_tie_picks_shorter_reference(self):
        # refs of length 2 and 4 are equally far from c=3; r=2 keeps BP=1
        score = bleu(toks("a b c"), [toks("a b"), toks("a b c d")], 4)
        assert score == pytest.approx(100.0)

    def test_smoothing_values_by_hand(self):
        # p1=3/5, p2=(0+1)/(4+1), p3=1/4, p4=1/3, BP=1
        score = bleu(toks("a x b y c"), [toks("a p b q c")], 4)
        expected = 100.0 * (0.6 * 0.2 * 0.25 * (1.0 / 3.0)) ** 0.25
        assert score == pytest.approx(expected)

    def test_longer_hypothesis_no_brevity_penalty(self):
        short = bleu(toks("a b c d"), [toks("a b c d")], 2)
        padded = bleu(toks("a b c d e"), [toks("a b c d")], 2)
        assert short == pytest.approx(100.0)
        assert padded < 100.0  # precision drops but BP stays 1

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            bleu(toks("a"), [], 4)
        with pytest.raises(ValueError):
            bleu(toks("a"), [toks("a")], 0)


class TestRougeN:
    """Clipped n-gram F1, maximized over references."""

    def test_identity(self):
        h = toks("values rose sharply after 2004")
        assert rouge_n(h, [list(h)], 1) == pytest.approx(100.0)
        assert rouge_n(h, [list(h)], 2) == pytest.approx(100.0)

    def test_disjoint(self):
        assert rouge_n(toks("a b"), [toks("c d")], 1) == 0.0

    def test_clipping(self):
        # hyp repeats a token the reference has once: overlap clips to 1
        score = rouge_n(toks("a a a"), [toks("a")], 1)
        assert score == pytest.approx(100.0 * 0.5)  # P=1/3, R=1, F1=0.5

    def test_max_over_references(self):
        h = toks("a b c")
        weak, strong = toks("a z z"), toks("a b c")
        assert rouge_n(h, [weak, strong], 1) == pytest.approx(100.0)

    def test_short_hypothesis_zero_for_high_order(self):
        assert rouge_n(toks("a"), [toks("a b")], 2) == 0.0

    def test_rejects_order_zero(self):
        with pytest.raises(ValueError, match="n: must be >= 1, got 0"):
            rouge_n(toks("a"), [toks("a")], 0)


class TestRougeL:
    """LCS-based F1, maximized over references."""

    def test_oracle_value(self):
        assert rouge_l(toks("a b c"), [toks("a c")]) == pytest.approx(80.0)

    def test_identity(self):
        h = toks("the trend is flat")
        assert rouge_l(h, [list(h)]) == pytest.approx(100.0)

    def test_disjoint(self):
        assert rouge_l(toks("a b"), [toks("c d")]) == 0.0

    def test_non_contiguous_subsequence(self):
        # LCS=3, P=3/5, R=1, F1=0.75
        assert rouge_l(toks("a x b y c"), [toks("a b c")]) == pytest.approx(75.0)

    def test_empty_hypothesis(self):
        assert rouge_l([], [toks("a")]) == 0.0


def lcs_len(a, b):
    """Longest common subsequence length by rouge_l's bit-parallel LCS."""
    return References([b]).lcs(a)[0]


def lcs_len_dp(a, b):
    """Longest common subsequence length, two-row dynamic program: the
    oracle for the bit-parallel lcs_len."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b):
            if x == y:
                cur.append(prev[j] + 1)
            else:
                cur.append(max(cur[j], prev[j + 1]))
        prev = cur
    return prev[-1]


def token_lists(alphabet_size):
    alphabet = [f"t{i}" for i in range(alphabet_size)]
    return st.lists(st.sampled_from(alphabet), max_size=200)


class TestBitParallelLcs:
    """The bit-vector LCS against the dynamic program, across the 64-bit
    word boundaries of the reference masks."""

    @settings(max_examples=150)
    @given(token_lists(3), token_lists(3))
    def test_small_alphabet_matches_dp(self, a, b):
        assert lcs_len(a, b) == lcs_len_dp(a, b)

    @settings(max_examples=150)
    @given(token_lists(50), token_lists(50))
    def test_large_alphabet_matches_dp(self, a, b):
        assert lcs_len(a, b) == lcs_len_dp(a, b)

    @pytest.mark.parametrize("m", [63, 64, 65, 127, 128, 129, 200])
    def test_word_boundary_lengths(self, m):
        rng = random.Random(m)
        a = [rng.choice("abc") for _ in range(m)]
        b = [rng.choice("abc") for _ in range(m + 7)]
        assert lcs_len(a, b) == lcs_len_dp(a, b)
        assert lcs_len(a, a) == m


WORDS = ("the values rose fell steadily sharply from to in 1970 2015 3.5 "
         "120,000 % , . ( ) peak low coffee exports tonnes").split()


def words(seed, n):
    rng = random.Random(seed)
    return " ".join(rng.choice(WORDS) for _ in range(n))


# hypothesis, references, and the scores the two-row-DP implementation gave
PINNED = (
    ("Coffee exports rose steadily from 120,000 tonnes in 1970 to 3.5 "
     "million in 2015.",
     ("Coffee exports rose from 120,000 tonnes in 1970 to 3.5 million by "
      "2015.",
      "Exports of coffee grew steadily (from 120,000 tonnes) between 1970 "
      "and 2015.",
      "In 2015, coffee exports peaked at 3.5 million tonnes."),
     {"bleu4": 63.688528974715474, "rouge1": 89.65517241379311,
      "rouge2": 74.07407407407408, "rougeL": 89.65517241379311}),
    (words(1, 150), tuple(words(s, 60 + 17 * s) for s in range(2, 9)),
     {"bleu4": 16.908958611401932, "rouge1": 79.48717948717949,
      "rouge2": 23.870967741935488, "rougeL": 32.78688524590164}),
    ("a b c d", ("x y z", "", "a", "d c b a"),
     {"bleu4": 45.18010018049224, "rouge1": 100.0, "rouge2": 0.0,
      "rougeL": 40.0}),
)


# the eval benchmark's shape: 30 references and 4 hypotheses of 100 words,
# the last one a 20-word text said five times, so its n-grams repeat; the
# scores the shift-and-OR table build gave
BENCH_SCALE_REFS = tuple(words(s, 100) for s in range(300, 330))
BENCH_SCALE = (
    (words(400, 100),
     {"bleu4": 21.34358213439415, "rouge1": 81.0,
      "rouge2": 22.22222222222222, "rougeL": 33.0}),
    (words(401, 100),
     {"bleu4": 20.593359027054323, "rouge1": 80.00000000000001,
      "rouge2": 23.232323232323232, "rougeL": 35.0}),
    (words(402, 100),
     {"bleu4": 21.169334235723223, "rouge1": 83.99999999999999,
      "rouge2": 21.212121212121215, "rougeL": 37.0}),
    (" ".join([words(403, 20)] * 5),
     {"bleu4": 10.502954963531131, "rouge1": 67.0,
      "rouge2": 7.07070707070707, "rougeL": 39.0}),
)


class TestPreparedReferences:
    """Scores stay exact when the reference side is prepared once."""

    @pytest.mark.parametrize("hyp, refs, expected", PINNED,
                             ids=["sentence", "long-random", "edge"])
    def test_pinned_scores(self, hyp, refs, expected):
        assert score_pair(hyp, refs).scores == expected
        assert score_pair(hyp, References.from_texts(refs)).scores == expected

    def test_pinned_scores_at_benchmark_scale(self):
        refs = References.from_texts(BENCH_SCALE_REFS)
        assert [score_pair(hyp, refs).scores for hyp, _ in BENCH_SCALE] == \
            [expected for _, expected in BENCH_SCALE]

    def test_shared_set_matches_fresh_lists(self):
        ref_texts = [words(s, 40 + s) for s in range(10, 16)]
        refs = References.from_texts(ref_texts)
        fresh = [tokenize(t) for t in ref_texts]
        for seed in range(20, 26):
            hyp = tokenize(words(seed, 30 + 3 * seed))
            for max_n in (4, 2, 5):
                assert bleu(hyp, refs, max_n) == bleu(hyp, fresh, max_n)
            for n in (2, 1, 3):
                assert rouge_n(hyp, refs, n) == rouge_n(hyp, fresh, n)
            assert rouge_l(hyp, refs) == rouge_l(hyp, fresh)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            References([])

    def test_one_overlap_pass_per_pair(self, monkeypatch):
        passes = []
        overlaps = References.overlaps

        def counted(self, hyp, max_n):
            passes.append(max_n)
            return overlaps(self, hyp, max_n)
        monkeypatch.setattr(References, "overlaps", counted)
        hyp, refs, expected = PINNED[0]
        assert score_pair(hyp, refs).scores == expected
        assert passes == [4]


# The per-reference loops the packed table replaced: the oracles.

def ngram_counts(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def clipped_oracle(counts, limits):
    """Sum over the n-grams in both tables of the smaller count."""
    return sum(min(counts[g], limits[g]) for g in counts.keys() & limits.keys())


def max_counts_oracle(tables):
    """Each n-gram's highest count in any one table."""
    best = {}
    for counts in tables:
        for gram, cnt in counts.items():
            if cnt > best.get(gram, 0):
                best[gram] = cnt
    return best


def position_masks(tokens):
    """Token -> int with bit i set where tokens[i] is that token."""
    masks = {}
    for i, tok in enumerate(tokens):
        masks[tok] = masks.get(tok, 0) | (1 << i)
    return masks


def packed_oracle(refs):
    """`References._packed` by the shift-and-OR build it replaced: each
    reference's own position masks, shifted to its field and ORed into
    the table's ints."""
    lengths = [len(r) for r in refs]
    masks = {}
    fields = []
    lows = guards = off = 0
    for ref, length in zip(refs, lengths):
        for tok, mask in position_masks(ref).items():
            masks[tok] = masks.get(tok, 0) | (mask << off)
        fields.append(((1 << length) - 1) << off)
        lows |= 1 << off
        guards |= 1 << (off + length)
        off += length + 1
    return masks, sum(fields), tuple(fields), lows, guards


def lcs_masked_oracle(masks, m, b):
    """LCS length of b and the length-m sequence behind `masks`, one
    reference a pass: V starts as m one-bits and, for each token of b,
    U = V & mask and V = (V + U) | (V - U), kept to m bits."""
    full = (1 << m) - 1
    v = full
    for y in b:
        u = v & masks.get(y, 0)
        v = ((v + u) | (v - u)) & full
    return m - v.bit_count()


def bleu_oracle(hyp, refs, max_n):
    c = len(hyp)
    if c == 0:
        return 0.0
    log_sum = 0.0
    for n in range(1, max_n + 1):
        total = max(c - n + 1, 0)
        limits = max_counts_oracle([ngram_counts(r, n) for r in refs])
        matched = clipped_oracle(ngram_counts(hyp, n), limits)
        if n == 1 and matched == 0:
            return 0.0
        if matched == 0 and n >= 2:
            p = (matched + 1) / (total + 1)
        else:
            p = matched / total
        log_sum += math.log(p)
    r = min((abs(len(ref) - c), len(ref)) for ref in refs)[1]
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    return 100.0 * bp * math.exp(log_sum / max_n)


def f1_oracle(precision, recall):
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def rouge_n_oracle(hyp, refs, n):
    hyp_counts = ngram_counts(hyp, n)
    hyp_total = max(len(hyp) - n + 1, 0)
    best = 0.0
    for ref in refs:
        ref_total = max(len(ref) - n + 1, 0)
        if hyp_total == 0 or ref_total == 0:
            continue
        overlap = clipped_oracle(hyp_counts, ngram_counts(ref, n))
        best = max(best, f1_oracle(overlap / hyp_total, overlap / ref_total))
    return 100.0 * best


def rouge_l_oracle(hyp, refs):
    if not hyp:
        return 0.0
    masks = position_masks(hyp)
    best = 0.0
    for ref in refs:
        if ref:
            lcs = lcs_masked_oracle(masks, len(hyp), ref)
            best = max(best, f1_oracle(lcs / len(hyp), lcs / len(ref)))
    return 100.0 * best


def overlaps_oracle(hyp, refs, max_n):
    """Per order 1 to max_n: the clipped count against each n-gram's
    highest count in any one reference, and the clipped overlap with each
    reference."""
    out = []
    for n in range(1, max_n + 1):
        hyp_counts = ngram_counts(hyp, n)
        tables = [ngram_counts(r, n) for r in refs]
        out.append((clipped_oracle(hyp_counts, max_counts_oracle(tables)),
                    [clipped_oracle(hyp_counts, t) for t in tables]))
    return out


EDGE_LENGTHS = (0, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 128, 129)
FILL_LENGTHS = (1, 2, 3, 7, 8, 9, 63, 64, 65, 127, 128, 129)


@st.composite
def scoring_cases(draw):
    """A hypothesis and 1, 2, 3 or 40 references over 2 to 4 tokens, so
    n-grams repeat.  References may be empty or sit at the 64-bit word
    boundaries or at the byte boundaries of the table's bitmaps; the
    hypothesis is empty, one token, random, or longer than every
    reference."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    alphabet = "abcd"[:draw(st.integers(2, 4))]
    count = draw(st.sampled_from((1, 2, 3, 40)))
    lengths = draw(st.lists(
        st.one_of(st.sampled_from(EDGE_LENGTHS), st.integers(0, 30)),
        min_size=count, max_size=count))
    longest = max(lengths)
    hyp_len = draw(st.one_of(st.just(0), st.just(1), st.integers(0, 40),
                             st.integers(longest + 1, longest + 8)))
    refs = [[rng.choice(alphabet) for _ in range(n)] for n in lengths]
    return [rng.choice(alphabet) for _ in range(hyp_len)], refs


class TestAgainstOracles:
    """Overlaps, LCS lengths and scores equal those of the per-reference
    loops, to the bit."""

    @settings(max_examples=150)
    @given(scoring_cases())
    def test_packed_table(self, case):
        _, refs = case
        assert References(refs)._packed == packed_oracle(refs)

    @settings(max_examples=150)
    @given(scoring_cases())
    def test_overlaps(self, case):
        hyp, refs = case
        assert References(refs).overlaps(hyp, 5) == \
            overlaps_oracle(hyp, refs, 5)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_overlap_fills_every_field(self, n):
        """One token repeated: each reference holds its n-gram as often as
        the reference allows, the hypothesis more often still."""
        refs = [["x"] * length for length in FILL_LENGTHS]
        hyp = ["x"] * (max(FILL_LENGTHS) + 3)
        orders = References(refs).overlaps(hyp, n)
        assert orders == overlaps_oracle(hyp, refs, n)
        assert orders[-1] == (max(FILL_LENGTHS) - n + 1,
                              [max(length - n + 1, 0)
                               for length in FILL_LENGTHS])

    def test_hypothesis_repeats_past_every_reference(self):
        refs = [tokenize("a b c a b"), tokenize("a b d"), tokenize("c a b c")]
        hyp = tokenize("a b a b a b a b c")
        orders = References(refs).overlaps(hyp, 3)
        assert orders == overlaps_oracle(hyp, refs, 3)
        # "a b" occurs 4 times in hyp and at most twice in one reference
        assert orders[1] == (3, [3, 1, 2])

    @settings(max_examples=150)
    @given(scoring_cases())
    def test_lcs_lists(self, case):
        hyp, refs = case
        masks = position_masks(hyp)
        assert References(refs).lcs(hyp) == \
            [lcs_masked_oracle(masks, len(hyp), r) for r in refs]

    @settings(max_examples=150)
    @given(scoring_cases())
    def test_scores(self, case):
        hyp, refs = case
        prepared = References(refs)
        for max_n in range(1, 6):
            assert bleu(hyp, prepared, max_n) == bleu_oracle(hyp, refs, max_n)
        for n in (1, 2, 3):
            assert rouge_n(hyp, prepared, n) == rouge_n_oracle(hyp, refs, n)
        assert rouge_l(hyp, prepared) == rouge_l_oracle(hyp, refs)

    @pytest.mark.parametrize("m", [63, 64, 65, 127, 128, 129])
    def test_oracle_lcs_matches_dp(self, m):
        rng = random.Random(m)
        a = [rng.choice("abc") for _ in range(m)]
        b = [rng.choice("abc") for _ in range(m + 7)]
        assert lcs_masked_oracle(position_masks(a), m, b) == lcs_len_dp(a, b)


BENCH_REFERENCE = (Path(__file__).resolve().parents[1] / "perfbench"
                   / "reference.py")


def load_bench_reference():
    spec = importlib.util.spec_from_file_location("perfbench_reference",
                                                  BENCH_REFERENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SENTENCES = st.lists(st.sampled_from(WORDS), max_size=40).map(" ".join)


class TestAgainstBenchmarkReference:
    """score_pair against the benchmark's own plain BLEU and ROUGE-L,
    written apart from this package."""

    reference = load_bench_reference()

    @settings(max_examples=150)
    @given(SENTENCES, st.lists(SENTENCES, min_size=1, max_size=6))
    def test_bleu4_and_rouge_l(self, hyp, refs):
        ref = self.reference
        h = ref.tokenize(hyp)
        tokenized = [ref.tokenize(r) for r in refs]
        scores = score_pair(hyp, refs).scores
        assert abs(scores["bleu4"] - ref.bleu(h, tokenized)) <= 1e-9
        assert abs(scores["rougeL"] - ref.rouge_l(h, tokenized)) <= 1e-9


class TestScoringAndReport:
    """score_pair convenience wrapper and the per-kind report."""

    def test_score_pair_identity(self):
        pair = score_pair("A steady rise.", ["A steady rise."], kind="line")
        for metric in ("bleu4", "rouge1", "rouge2", "rougeL"):
            assert pair.scores[metric] == pytest.approx(100.0)

    def test_permutation_keeps_rouge1_drops_bleu(self):
        ref = "the value climbs steadily over the years shown"
        hyp = "shown years the over steadily climbs value the"
        pair = score_pair(hyp, [ref])
        assert pair.scores["rouge1"] == pytest.approx(100.0)
        assert pair.scores["bleu4"] < pair.scores["rouge1"]

    def test_report_groups_and_overall(self):
        pairs = [
            ScoredPair({"bleu4": 80.0}, "line"),
            ScoredPair({"bleu4": 60.0}, "line"),
            ScoredPair({"bleu4": 40.0}, "scatter"),
        ]
        rows = corpus_report(pairs)
        assert rows["line"]["bleu4"] == pytest.approx(70.0)
        assert rows["scatter"]["bleu4"] == pytest.approx(40.0)
        assert rows["overall"]["bleu4"] == pytest.approx(60.0)

    def test_report_rejects_empty(self):
        with pytest.raises(EmptyReportError):
            corpus_report([])

    def test_format_report_is_aligned_text(self):
        rows = corpus_report([ScoredPair({"bleu4": 50.0}, "line")])
        out = format_report(rows)
        assert "line" in out and "overall" in out and "bleu4" in out
