"""Per-triple reports: JSON-safe dictionaries round-tripping losslessly.

Every rational is serialized as an exact string like "5/3" (or "4" when
integral), never as a float, by ratio_str, which also writes the exact
vertices of rendered pictures. It writes str(Fraction(num, den)) at any
size, also past the interpreter's limit on int-to-text conversion (4,300
digits by default), which a custom chop schedule reaches at once.
parse(serialize(report)) == report holds by construction since reports
contain only JSON-native values.

serialize_report's output is byte-identical to
json.dumps(report, sort_keys=True, indent=2). It is written by dumps_indented
rather than by that call because CPython 3.10 and 3.11 encode in C only when
indent is None: with indent=2 the json module falls back to a pure-Python
encoder that yields one chunk per token. dumps_indented walks dicts and lists
in Python. Most of a high-rank report is its class vectors, flat lists of
exact ints that are mostly 0, and each is written from its nonzeros: a run of
zeros is one string repetition and a nonzero is written by int.__repr__.
Strings and lists of strings are written by the C string escaper, other
scalars by the C encoder, each being what json itself calls for them.

make_report puts each class vector into the report as a _Row, a list that
also holds the sorted slots of the sparse class it was made from, and such a
row is written from those slots without reading the others. Any list method
that changes a row drops its slots; the row is then written as any other int
list, whose nonzeros are found by scanning it. A copy or a pickle of a report
holds plain lists.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable
from fractions import Fraction
from itertools import compress
from json.encoder import encode_basestring_ascii
from operator import countOf

from .errors import MissingClasses
from .homlat import NEG_INF, Vec, dense_list
from .resolution import (
    ResolutionPair,
    check_divisor_predicates,
    check_sum_bound,
    check_two_minus2,
    connector_selfints,
)
from .rulings import RulingData, RulingResolution, ruling, ruling_resolution

__all__ = [
    "SCHEMA_VERSION",
    "dumps_indented",
    "fraction_str",
    "indented_parts",
    "make_report",
    "serialize_report",
    "parse_report",
    "ratio_str",
    "text_report",
]

SCHEMA_VERSION = 1


def fraction_str(x) -> str:
    """The text of str(Fraction(x)), at any size."""
    f = Fraction(x)
    return ratio_str(f.numerator, f.denominator)


def ratio_str(num: int, den: int) -> str:
    """num / den in lowest terms, "p" or "p/q": the text of str(Fraction(num, den)) for den > 0."""
    g = math.gcd(num, den)
    return _int_str(num // g) if g == den else f"{_int_str(num // g)}/{_int_str(den // g)}"


def _int_str(x: int) -> str:
    """str(x), byte for byte, at any size. Past the interpreter's digit limit
    str raises ValueError; then x is split at about half its digits, k, by
    one division by 10**k (no text conversion), and each part is written the
    same way, the low one padded to k digits. x has more than 640 digits
    there (the least limit allowed), so k > 0 and the high part is nonzero."""
    try:
        return str(x)
    except ValueError:
        pass
    if x < 0:
        return "-" + _int_str(-x)
    k = x.bit_length() * 3 // 20  # log10(2) > 3/10: about half the digits
    hi, lo = divmod(x, 10**k)
    return _int_str(hi) + _int_str(lo).zfill(k)


class _Row(list):
    """A class vector of a report: a list of exact ints that also keeps its
    nonzero slots, in increasing order, in slots, so that dumps_indented
    writes it without scanning it.

    Every list method that changes the row (also __init__) sets slots to None
    first, and the row is then written as any other list. A copy or a pickle
    of a row is a plain list.
    """

    __slots__ = ("slots",)

    def __init__(self, items=(), slots=None):
        self.slots = slots
        list.__init__(self, items)

    def __reduce_ex__(self, protocol):
        return list, (list(self),)


def _dropping_slots(name: str):
    method = getattr(list, name)

    def mutate(self, *args, **kwargs):
        self.slots = None
        return method(self, *args, **kwargs)

    mutate.__name__ = mutate.__qualname__ = name
    return mutate


for _name in ("__setitem__", "__delitem__", "__iadd__", "__imul__", "append", "extend",
              "insert", "pop", "remove", "clear", "sort", "reverse"):
    setattr(_Row, _name, _dropping_slots(_name))


def _class_row(x: Vec, rank: int) -> list[int]:
    """dense_list(x, rank) as a _Row that knows x's slots, or as the plain list
    when a coefficient is not an exact int (json writes a bool as true)."""
    if countOf(map(type, x.values()), int) != len(x):
        return dense_list(x, rank)
    return _Row(dense_list(x, rank), sorted(x))


def _kodaira_json(k):
    if k is None:
        return None
    if k == NEG_INF:
        return "-inf"
    return int(k)


def _ruling_json(rd: RulingData, rank: int) -> dict:
    return {
        "target": rd.target,
        "opposite": rd.opposite,
        "opposite_selfint": rd.opposite_selfint,
        "case": rd.case,
        "nu_a": rd.nu_a,
        "nu_b": rd.nu_b,
        "fiber": None if rd.fiber is None else _class_row(rd.fiber, rank),
        "pa": rd.pa,
        "qa": rd.qa,
        "pb": rd.pb,
        "qb": rd.qb,
        "selfint": rd.selfint,
        "canonical_pairing": rd.canonical_pairing,
        "cusp_location": None if rd.cusp_location is None else list(rd.cusp_location),
        "meet_component": rd.meet_component,
        "deltas_forward": list(rd.forward.deltas),
        "deltas_backward": list(rd.backward.deltas),
        "chain_forward": {
            "labels": list(rd.forward.combined.labels()),
            "selfints": list(rd.forward.combined.selfints),
        },
        "chain_backward": {
            "labels": list(rd.backward.combined.labels()),
            "selfints": list(rd.backward.combined.selfints),
        },
        "violations": list(rd.violations),
    }


def _chain_selfints(rr: RulingResolution) -> list[int]:
    """Self-intersections of the resolved forward chain, from the chain's
    stored ones and the blowup rule, without a pairing in the lattice.

    Each blowup adds a basis vector e_t, e_t.e_t = -1, orthogonal to every
    earlier class. A sphere it meets gains -e_t and loses 1 from its square,
    and the new sphere starts as e_t, at -1. So each component's square is
    its stored one (0 for a new sphere) less the number of new slots in its
    class; only the two node spheres and the new ones between them hold any.
    """
    fwd = rr.ruling.forward
    stored = fwd.combined.selfints
    rank0 = fwd.config.lattice.rank
    lo = fwd.fiber.upto - 1  # the left node sphere; the right one follows C1..CB
    b = len(rr.multiplicities)
    base = (stored[lo], *(0,) * b, stored[lo + 1])
    node = [
        s - sum(1 for t in c.cls if t >= rank0)
        for s, c in zip(base, rr.config.components[lo:lo + b + 2], strict=True)
    ]
    return [*stored[:lo], *node, *stored[lo + 2:]]


def _ruling_resolution_json(rr: RulingResolution) -> dict:
    return {
        "multiplicities": list(rr.multiplicities),
        "blowups": len(rr.multiplicities),
        "final_rank": rr.final_rank,
        "fiber": _class_row(rr.resolved.fclass, rr.final_rank),
        "chain_labels": [c.label for c in rr.config.components],
        "chain_selfints": _chain_selfints(rr),
        "last_meeting": rr.resolved.last_meeting,
    }


def make_report(rp: ResolutionPair) -> dict:
    """Full machine-readable description of one resolution with all checks."""
    pred = check_divisor_predicates(rp)
    sums = check_sum_bound(rp)
    rows = check_two_minus2(rp)
    conns = connector_selfints(rp)
    rd = ruling(rp, "c")
    rres = ruling_resolution(rd) if rd.case == "Unicuspidal" else None
    w = rp.weights
    lat, poly = rp.lattice, rp.polygon
    if lat.canonical is None:
        raise MissingClasses("resolution lattice has no canonical class")
    r = lat.rank
    # the ledger proved every edge class's area equal to its edge length, and
    # the certified conversion keeps areas, so the lengths are the areas
    edge_lengths = [ratio_str(poly.length_scaled(i), poly.den) for i in range(poly.n)]

    report: dict = {
        "schema_version": SCHEMA_VERSION,
        "triple": list(rp.weights_input),
        "weights": {"a": w.a, "b": w.b, "c": w.c},
        "residues": {k: getattr(w, k) for k in ("a_b", "a_c", "b_a", "b_c", "c_a", "c_b")},
        "presentation": rp.presentation,
        "n": rp.n,
        "k_squared": lat.sq(lat.canonical),
        "terminal_model": {"kind": rp.terminal, "k": rp.terminal_k},
        "polygon": {
            "vertices": [[ratio_str(x, poly.den), ratio_str(y, poly.den)] for x, y in poly.ipts],
            "edge_selfints": list(rp.edge_sels),
            "edge_lengths": edge_lengths,
        },
        "strings": {
            role: {
                "weight": sd.weight,
                "residue": sd.residue,
                "selfints": list(sd.selfints),
                "edge_ids": list(sd.edge_ids),
                "classes": [_class_row(rp.edge_classes[i], r) for i in sd.edge_ids],
                "areas": [edge_lengths[i] for i in sd.edge_ids],
            }
            for role, sd in sorted(rp.strings.items())
        },
        "connectors": {
            name: {
                "selfint": cd.selfint,
                "edge_id": cd.edge_id,
                "class": _class_row(rp.edge_classes[cd.edge_id], r),
                "area": edge_lengths[cd.edge_id],
            }
            for name, cd in sorted(rp.connectors.items())
        },
        "checks": {
            "predicates": {
                "full": pred.full,
                "abc_type": pred.abc_type,
                "gap_admissible": pred.gap_admissible,
                "sub_toric": pred.sub_toric,
                "gaps": {k: fraction_str(v) for k, v in sorted(pred.gaps.items())},
                "adjoint_area": fraction_str(pred.adjoint_area),
                "adjoint_square": pred.adjoint_square,
                "area_identity": pred.area_identity,
                "kodaira": _kodaira_json(pred.kodaira),
            },
            "connector_selfints": list(conns),
            "sum_bound": {
                "total": sums.total_b,
                "lower_bound": sums.lower_bound,
                "identity": sums.identity_ok,
                "holds": sums.bound_ok,
            },
            "two_minus2": [
                {
                    "x": r.x,
                    "y": r.y,
                    "z": r.z,
                    "both_minus2": r.both_minus2,
                    "k": r.k,
                    "predicted_third": None
                    if r.predicted_third is None
                    else list(r.predicted_third),
                }
                for r in rows
            ],
        },
        "ruling": _ruling_json(rd, r),
        "ruling_resolution": None if rres is None else _ruling_resolution_json(rres),
    }
    return report


_encode = json.JSONEncoder(sort_keys=True).encode  # the C encoder: indent is None
_INDENT = "  "


def dumps_indented(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2), byte for byte, for every
    acyclic obj that json accepts; what json rejects raises the same exception
    type here (TypeError for an unencodable object, ValueError for an int
    past the interpreter's digit limit)."""
    return "".join(indented_parts(obj))


def indented_parts(obj) -> list[str]:
    """The text of dumps_indented(obj) as the list of strings it joins, so
    that a caller can write it out without holding the joined copy."""
    parts: list[str] = []
    _write(obj, "\n", parts)
    return parts


def _write(obj, nl: str, out: list[str]) -> None:
    """Append the indented text of obj; nl is a newline plus obj's indent.

    A nonempty _Row that still has its slots is written from them. A list or
    tuple of exact ints goes to _write_ints, one of exact strs is joined in
    one call, any other list is written item by item.
    """
    # exact types only: bool, an int subclass, and any other subclass go to json
    t = type(obj)
    if t is _Row and obj.slots is not None and obj:
        _write_slots(obj, obj.slots, nl, out)
    elif t is str:
        out.append(encode_basestring_ascii(obj))
    elif t is int:
        out.append(int.__repr__(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = nl + _INDENT
        sep = "{" + inner
        for key in sorted(obj):
            out.append(sep + _key(key) + ": ")
            _write(obj[key], inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = nl + _INDENT
        first = type(obj[0])
        if (first is int or first is str) and countOf(map(type, obj), first) == len(obj):
            if first is int:
                _write_ints(obj, nl, out)
            else:
                items = map(encode_basestring_ascii, obj)
                out.append("[" + inner + ("," + inner).join(items) + nl + "]")
            return
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    else:
        out.append(_encode(obj))


def _write_ints(obj: list[int] | tuple[int, ...], nl: str, out: list[str]) -> None:
    """Append the indented text of a nonempty list of exact ints from its nonzeros."""
    _write_slots(obj, compress(range(len(obj)), obj), nl, out)


def _write_slots(obj: list[int] | tuple[int, ...], slots: Iterable[int], nl: str,
                 out: list[str]) -> None:
    """Append the indented text of a nonempty list of exact ints that are 0
    outside slots, given in increasing order: each run of zeros before a slot
    is one string repetition."""
    sep = "," + nl + _INDENT
    zero = "0" + sep
    out.append("[" + nl + _INDENT)
    nxt = 0  # the first slot not yet written
    for i in slots:
        out.append(zero * (i - nxt) + int.__repr__(obj[i]))
        out.append(sep)
        nxt = i + 1
    if nxt < len(obj):
        out.append(zero * (len(obj) - nxt - 1) + "0" + nl + "]")
    else:
        out[-1] = nl + "]"  # the last slot is a nonzero: its separator closes the list


def _key(key) -> str:
    """A dict key as json writes it: sorted as given, then a non-str key
    (int, float, bool or None) is quoted as its scalar text."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is None or isinstance(key, (int, float)):
        return '"' + _encode(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def serialize_report(report: dict) -> str:
    return dumps_indented(report)


def parse_report(text: str) -> dict:
    return json.loads(text)


def text_report(report: dict) -> str:
    """Terminal-friendly rendering of a report."""
    a, b, c = report["triple"]
    lines = [
        f"CP({a},{b},{c})  presentation {report['presentation']}",
        f"n = {report['n']}, K^2 = {report['k_squared']}, "
        f"terminal model {report['terminal_model']['kind']}",
        "strings:",
    ]
    for role, sd in report["strings"].items():
        sel = ", ".join(str(s) for s in sd["selfints"])
        lines.append(
            f"  S_{role}: {sd['weight']}/{sd['residue']}  selfints ({sel})"
        )
    conn = ", ".join(
        f"{name}^2 = {cd['selfint']} (area {cd['area']})"
        for name, cd in report["connectors"].items()
    )
    lines.append(f"connectors: {conn}")
    pred = report["checks"]["predicates"]
    lines.append(
        "predicates: full {full}, type {abc_type}, gap-admissible {gap_admissible}, "
        "sub-toric {sub_toric}".format(**pred)
    )
    lines.append(
        f"adjoint: area {pred['adjoint_area']}, square {pred['adjoint_square']}, "
        f"kodaira {pred['kodaira']}"
    )
    sb = report["checks"]["sum_bound"]
    lines.append(
        f"entry sum: {sb['total']} >= {sb['lower_bound']} "
        f"({'ok' if sb['holds'] else 'VIOLATED'})"
    )
    rd = report["ruling"]
    if rd["case"] == "Unicuspidal":
        lines.append(
            f"ruling: Unicuspidal, (p,q) = ({rd['pa']},{rd['qa']}), "
            f"cusp at node C_{rd['nu_a']} | C_{rd['nu_b']} of S_{rd['target']}"
        )
        rr = report["ruling_resolution"]
        if rr is not None:
            mults = ",".join(str(m) for m in rr["multiplicities"])
            lines.append(f"  resolved by {rr['blowups']} blowups, multiplicities ({mults})")
    else:
        lines.append(
            f"ruling: {rd['case']}, (p,q) = ({rd['pa']},{rd['qa']}), "
            f"meets component {rd['meet_component']} of S_{rd['target']}"
        )
    if "timing" in report:
        lines.append(f"time: {report['timing']['seconds']:.4f} s")
    return "\n".join(lines)
