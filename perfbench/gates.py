"""Exactness gates: each takes one timed result and says what is wrong with it.

Every function returns ``None`` when the result is correct and a one-line
description of the first problem otherwise.  They run after the timed
region and compare rationals with ``==`` only.
"""

from __future__ import annotations

import csv
import io
import json
import re
from fractions import Fraction

# Points per check of `wallcross --command verify` on its default grid.
VERIFY_PINNED = {
    "structural-identities": 69240,
    "model-axioms": 8,
    "oracle-l0": 9870,
    "oracle-l1": 200,
    "odd-words": 6728,
    "segre-machinery": 105,
    "leading-congruence": 46,
    "hidden-data": 9,
    "scale-invariance": 12,
    "simple-type-failure": 1,
    "component-branch": 180,
}

# Only the prefix is read, so per-line timings appended later do not matter.
_VERIFY_LINE = re.compile(r"^(PASS|FAIL) (\S+) \((\d+) points")


def parse_rational(text) -> Fraction:
    """Parse the CLI's "num/den" form exactly; raises ValueError otherwise."""
    num, sep, den = str(text).partition("/")
    if not sep:
        raise ValueError(f"not a num/den rational: {text!r}")
    return Fraction(int(num), int(den))


def check_verify(rc, text):
    """`verify` on the default grid: exit 0 and every check passed with its
    pinned point count."""
    if rc != 0:
        return f"verify exited {rc}"
    seen = {}
    for line in text.splitlines():
        m = _VERIFY_LINE.match(line)
        if m is None:
            continue
        status, name, points = m.group(1), m.group(2), int(m.group(3))
        if status != "PASS":
            return f"check {name} failed: {line}"
        if name in seen:
            return f"check {name} reported twice"
        seen[name] = points
    for name, points in VERIFY_PINNED.items():
        if name not in seen:
            return f"check {name} missing from the verify output"
        if seen[name] != points:
            return f"check {name} ran {seen[name]} points, pinned {points}"
    return None


def check_routes(closed, oracle):
    """A library point: the closed form and the ring oracle agree exactly."""
    if not isinstance(closed, Fraction) or not isinstance(oracle, Fraction):
        return f"non-rational values {closed!r}, {oracle!r}"
    if closed != oracle:
        return f"closed {closed} != oracle {oracle}"
    return None


def _parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise ValueError("empty csv output")
    header, body = rows[0], rows[1:]
    return [dict(zip(header, row, strict=True)) for row in body]


def parse_delta(text, fmt):
    """(word, [values]) printed by `--command delta`."""
    if fmt == "json":
        doc = json.loads(text)
        return doc["word"], [parse_rational(v["value"]) for v in doc["values"]]
    rows = _parse_csv(text)
    words = {row["word"] for row in rows}
    if len(words) != 1:
        raise ValueError(f"csv rows name {len(words)} words")
    return words.pop(), [parse_rational(row["value"]) for row in rows]


def check_delta(rc, text, fmt, word, expected):
    """A `delta --path auto` request: exit 0, the asked word, and both
    printed values (closed form and ring oracle) equal to the independent
    library value."""
    if rc != 0:
        return f"delta exited {rc}"
    try:
        got_word, values = parse_delta(text, fmt)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparseable delta output: {exc}"
    if got_word != word:
        return f"printed word {got_word!r}, asked {word!r}"
    if len(values) != 2:
        return f"{len(values)} values printed, expected 2"
    for v in values:
        if v != expected:
            return f"printed {v}, library gives {expected}"
    return None


def parse_params(text, fmt):
    """{d, l_zeta, vol} printed by `--command params`."""
    if fmt == "json":
        doc = json.loads(text)
        w = doc["wall"]
        return {"d": int(w["d"]), "l_zeta": int(w["l_zeta"]), "vol": parse_rational(doc["vol"])}
    (row,) = _parse_csv(text)
    return {"d": int(row["d"]), "l_zeta": int(row["l_zeta"]), "vol": parse_rational(row["vol"])}


def check_params(rc, text, fmt, expected):
    if rc != 0:
        return f"params exited {rc}"
    try:
        got = parse_params(text, fmt)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparseable params output: {exc}"
    if got != expected:
        return f"params printed {got}, library gives {expected}"
    return None


def parse_walls(text, fmt):
    """[(a, b, l_zeta, d, delta or None)] printed by `--command walls`."""
    if fmt == "json":
        doc = json.loads(text)
        entries = doc["walls"]
        if doc["count"] != len(entries):
            raise ValueError(f"count {doc['count']} but {len(entries)} walls")
        raw = [(e["a"], e["b"], e["l_zeta"], e["d"], e.get("delta_alpha_d", "")) for e in entries]
    else:
        raw = [(r["a"], r["b"], r["l_zeta"], r["d"], r["delta_alpha_d"]) for r in _parse_csv(text)]
    return [(int(a), int(b), int(l), int(d), parse_rational(v) if v else None)
            for a, b, l, d, v in raw]


def check_walls(rc, text, fmt, rederive):
    """A `walls --alpha` request: every printed delta_alpha_d equals the ring
    oracle's value, ``rederive(a, b)``, and every l <= 1 wall carries one."""
    if rc != 0:
        return f"walls exited {rc}"
    try:
        rows = parse_walls(text, fmt)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparseable walls output: {exc}"
    if not any(delta is not None for *_, delta in rows):
        return "no wall with a delta value"
    for a, b, l_zeta, _d, delta in rows:
        if (delta is None) != (l_zeta > 1):
            return f"wall ({a},{b}) at l={l_zeta} has delta {delta}"
        if delta is not None:
            expected = rederive(a, b)
            if delta != expected:
                return f"wall ({a},{b}): printed {delta}, oracle gives {expected}"
    return None
