"""A template bank written back to its file format, for tests that edit a
bank's text or write a bank file."""

from chartscribe.templatebank import TemplateBank

BANK_HEADER = "# template-bank v1"


def serialize_bank(bank: TemplateBank) -> str:
    """Bank back to its file format, records in bank order."""
    lines = [BANK_HEADER,
             "# fields: id, move, category, trend, arity, origin, text"]
    for t in bank.templates:
        trend_s = "any" if not t.trend_applicability \
            else ",".join(sorted(t.trend_applicability))
        arity_s = "any" if t.series_arity == 0 else str(t.series_arity)
        lines.append("\t".join(
            (t.id, t.move, t.category, trend_s, arity_s, t.origin, t.text)
        ))
    return "\n".join(lines) + "\n"
