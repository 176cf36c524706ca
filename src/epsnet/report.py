"""Reports as plain JSON.

A report record's JSON is its dataclass fields, by name (:class:`Record`);
:func:`plain_json` turns any report value into plain JSON types.  This module
never imports numpy, so the Diophantine subcommands can write reports
without it.  The command line imports it when it writes a report.
"""

from __future__ import annotations

import math
import sys
from dataclasses import fields


def plain_json(value):
    """Copy of a report value in plain JSON types, with non-finite floats
    written as the strings "inf", "-inf" and "nan".  A value with a
    ``to_json_dict`` method is written as that dict, which must itself be
    plain JSON."""
    if hasattr(value, "to_json_dict"):
        return value.to_json_dict()
    if isinstance(value, dict):
        return {k: plain_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain_json(v) for v in value]
    np = sys.modules.get("numpy")  # a numpy scalar implies numpy is loaded
    if np is not None and isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else "inf" if value > 0 else "-inf"
    return value


class Record:
    """Base of the report dataclasses whose JSON is their fields, by name."""

    def to_json_dict(self) -> dict:
        return {f.name: plain_json(getattr(self, f.name)) for f in fields(self)}
