"""Slotted sentence templates annotated with rhetorical moves.

A template is one sentence with `{slot}` markers plus applicability
conditions: which rhetorical move it serves (M1 overview, M2 chart
configuration, M3 interpretation, M3_1 numeric support, M4 evaluative
comment, M5 conclusion), which chart category it suits, which trend
classes it may describe, and how many series it expects.

Banks load from a tab-separated file, one record per line; the shipped
seed bank lives in the package's data directory.  Loading validates slot
vocabulary and move tags, splits each template's text into literal and
slot pieces, and indexes the templates by every (move, category, trend,
arity) cell the description planner can request; a cell with no template
is a coverage error.  `query` on such a cell is a lookup.
"""

import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .trend import CATEGORIES, REACHABLE_CELLS, TrendClass

MOVES = ("M1", "M2", "M3", "M3_1", "M4", "M5")

SLOT_VOCABULARY = frozenset({
    "title", "chart_kind_phrase", "y_label", "x_label", "unit",
    "series_name", "series_name_2", "x_first", "x_last", "x_at_max",
    "x_at_min", "y_first", "y_last", "y_max", "y_min", "y_mean", "delta",
    "trend_phrase", "comparison_phrase", "n_categories", "entity_list",
})

_SLOT_RE = re.compile(r"\{([A-Za-z0-9_]+)\}")

CellKey = Tuple[str, str, Optional[str], int]  # move, category, trend, arity


class BankFormatError(ValueError):
    """Malformed bank file (field counts, enums, duplicate ids)."""


class UnknownSlotError(BankFormatError):
    """Template text references a slot outside the vocabulary."""


class UnknownMoveError(BankFormatError):
    """Template declares a move tag outside M1..M5."""


class CoverageError(BankFormatError):
    """Bank leaves some reachable (move, category, trend, arity) cell empty."""

    def __init__(self, holes: Sequence[CellKey], source: str = "<bank>"):
        self.holes = list(holes)
        cells = "; ".join(
            f"({m}, {c}, {t or 'any'}, arity={a})" for m, c, t, a in self.holes[:8]
        )
        more = "" if len(self.holes) <= 8 else f" and {len(self.holes) - 8} more"
        super().__init__(
            f"{source}: bank has {len(self.holes)} coverage holes: {cells}{more}")


class EmptyQueryError(LookupError):
    """A query on a validated bank returned nothing."""


@dataclass(frozen=True)
class Template:
    """One bank record: the text of a move and the charts it applies to."""

    id: str
    move: str
    category: str  # one of CATEGORIES or "any"
    trend_applicability: FrozenSet[str]  # empty set means any
    series_arity: int  # 1, 2, or 0 meaning any
    origin: str  # human | paraphrase
    text: str

    @cached_property
    def pieces(self) -> Tuple[str, ...]:
        """The text split once into alternating literal and slot-name
        pieces: even positions are literal text, odd positions slot names."""
        return tuple(_SLOT_RE.split(self.text))

    def slots(self) -> List[str]:
        return list(self.pieces[1::2])

    def matches(self, move: str, category: str, trend: Optional[str],
                arity: int) -> bool:
        if self.move != move:
            return False
        if self.category != "any" and self.category != category:
            return False
        if self.trend_applicability:
            if trend is None or trend not in self.trend_applicability:
                return False
        if self.series_arity and self.series_arity != arity:
            return False
        return True

    def wildcard_count(self) -> int:
        return ((self.category == "any")
                + (not self.trend_applicability)
                + (self.series_arity == 0))


def _scan(ranked: Iterable[Template], move: str, category: str,
          trend: Optional[str], arity: int) -> List[Template]:
    """The templates of `ranked` that match the request, in its order."""
    return [t for t in ranked if t.matches(move, category, trend, arity)]


@dataclass
class TemplateBank:
    """The templates, in bank order, and their index: every cell of
    `REACHABLE_CELLS` x `MOVES` maps to its `_scan` result, built once when
    the bank is made.  The templates must not change after that."""

    templates: Tuple[Template, ...]
    # query order: exact matches before `any` matches, ties broken by id
    _ranked: Tuple[Template, ...] = field(init=False, repr=False,
                                          compare=False)
    _index: Dict[CellKey, Tuple[Template, ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        self._ranked = tuple(sorted(
            self.templates, key=lambda t: (t.wildcard_count(), t.id)))
        by_move: Dict[str, List[Template]] = {m: [] for m in MOVES}
        for t in self._ranked:
            by_move.setdefault(t.move, []).append(t)
        self._index = {
            (move, category, trend, arity):
                tuple(_scan(by_move[move], move, category, trend, arity))
            for category, trend, arity in REACHABLE_CELLS
            for move in MOVES
        }


def _validate_template(t: Template) -> None:
    if t.move not in MOVES:
        raise UnknownMoveError(f"template {t.id}: unknown move {t.move!r}")
    if t.category not in CATEGORIES + ("any",):
        raise BankFormatError(f"template {t.id}: unknown category {t.category!r}")
    if t.origin not in ("human", "paraphrase"):
        raise BankFormatError(f"template {t.id}: unknown origin {t.origin!r}")
    for cls in t.trend_applicability:
        try:
            TrendClass(cls)
        except ValueError:
            raise BankFormatError(
                f"template {t.id}: unknown trend class {cls!r}"
            ) from None
    for slot in t.slots():
        if slot not in SLOT_VOCABULARY:
            raise UnknownSlotError(f"template {t.id}: unknown slot {{{slot}}}")
    literal = "".join(t.pieces[::2])
    if "{" in literal or "}" in literal:
        raise BankFormatError(f"template {t.id}: stray brace in text")
    if t.move in ("M3", "M4") and "{trend_phrase}" in t.text \
            and not t.trend_applicability:
        raise BankFormatError(
            f"template {t.id}: {t.move} mentions a trend phrase but declares "
            f"trend applicability 'any'"
        )


def parse_bank(text: str, source: str = "<bank>") -> TemplateBank:
    """Parse and validate bank records from tab-separated text."""
    templates: List[Template] = []
    seen = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 7:
            raise BankFormatError(
                f"{source}:{lineno}: expected 7 tab-separated fields, "
                f"got {len(fields)}"
            )
        tid, move, category, trend_s, arity_s, origin, body = fields
        if tid in seen:
            raise BankFormatError(f"{source}:{lineno}: duplicate template id {tid!r}")
        seen.add(tid)
        if trend_s == "any":
            trend: FrozenSet[str] = frozenset()
        else:
            trend = frozenset(p.strip() for p in trend_s.split(",") if p.strip())
            if not trend:
                raise BankFormatError(f"{source}:{lineno}: empty trend list")
        if arity_s == "any":
            arity = 0
        elif arity_s in ("1", "2"):
            arity = int(arity_s)
        else:
            raise BankFormatError(f"{source}:{lineno}: bad arity {arity_s!r}")
        t = Template(tid, move, category, trend, arity, origin, body)
        try:
            _validate_template(t)
        except BankFormatError as exc:
            raise type(exc)(f"{source}:{lineno}: {exc}") from None
        templates.append(t)
    if not templates:
        raise BankFormatError(f"{source}: no templates found")
    bank = TemplateBank(tuple(templates))
    holes = [key for key, hits in bank._index.items() if not hits]
    if holes:
        raise CoverageError(holes, source)
    return bank


def load_bank(path) -> TemplateBank:
    """Load and validate a bank file."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise BankFormatError(f"{p}: not UTF-8 text: {exc}") from None
    return parse_bank(text, source=str(p))


def load_default_bank() -> TemplateBank:
    """Load the seed bank shipped inside the package."""
    # importlib.resources loads tempfile, shutil, random, bz2 and lzma, so
    # it is imported by the first call, not by `import chartscribe`
    from importlib import resources
    text = resources.files("chartscribe").joinpath("data/seed_bank.tsv") \
        .read_text(encoding="utf-8")
    return parse_bank(text, source="seed_bank.tsv")


def query(bank: TemplateBank, move: str, category: str,
          trend: Optional[str], arity: int) -> List[Template]:
    """Templates matching the request; exact matches before `any` matches,
    ties broken by template id.  Never empty on a validated bank.  A
    reachable cell is read from the bank's index; any other request is
    scanned.  The list is the caller's own."""
    if move not in MOVES:
        raise UnknownMoveError(f"unknown move {move!r}")
    indexed = bank._index.get((move, category, trend, arity))
    hits = (list(indexed) if indexed is not None
            else _scan(bank._ranked, move, category, trend, arity))
    if not hits:
        raise EmptyQueryError(
            f"no template for (move={move}, category={category}, "
            f"trend={trend}, arity={arity})"
        )
    return hits
