"""Byte-identity gate: SHA-256 digests of fixed reports, scan JSON and renders.

Every output below is deterministic for fixed inputs. A change that is meant
to leave the output alone (a faster representation, a refactor) must keep
these digests; a change that alters output on purpose updates them and says
why.
"""

import hashlib
from fractions import Fraction

import pytest

from wpp.render import FORMAT_CHOICES, WHAT_CHOICES, render
from wpp.report import make_report, serialize_report
from wpp.resolution import build_resolution
from wpp.rulings import ruling
from wpp.scan import run_scan, serialize_scan

SCHEDULES = (None, (Fraction(1, 3), Fraction(1, 5)))

# triple -> digest over its 6 presentations x 2 schedules, in that order
REPORT_DIGESTS = {
    (2, 3, 5): "6c02c80333d815571e9d284fd072e04bce32fa391b141349090e4a5e93fcef84",
    (2, 3, 7): "d0ff48dc356184c5eb9461ebe48f8e7a286c43264fefb2bceb4118a1a5e0982a",
    (3, 4, 5): "4ab7bd98d40420cf276c8b12a2613037ca608282afea36d11dec915fac0c30d8",
    (2, 5, 7): "41587c171870331de0a01f0f0ec602e078fb498781946744589400ed641d4057",
    (3, 5, 7): "a3d326c396d75778449c80eab5adb5b267a2bfb1fe6a12da4314e9fd42f70d63",
    (5, 7, 9): "f6b4e3811f37b579d373fd297485f4846a7c6e44fefd81d2e4f44e32c4f5c491",
    (4, 9, 11): "bdf5296f95754a79e099c90a952a015f0b7e2fce9938f832674de717a0e2605a",
    (7, 8, 15): "485dba9ed680a17763966f78e406ce6b69a2c919cd7f0dc0f4335ef99881854e",
    (11, 13, 14): "6d06bd32ca49ec4591b899ec4622a8f9d6c588b521727c6a493863659f5303ef",
    (2, 9, 19): "4ca3d5f57e4f9e33275440da40eaf641a37c4350c9006c4b543937e89e36610e",
    (13, 17, 19): "e8da0e41f591338d4f56f1ef4c2e517b689c50f9c971b3a9af171cd4626a81f8",
    (2, 39, 41): "4e961dce8df9d10bc6d43bda179a1744a24ff052fb5b1a46ab7570c17af04957",
    (5, 33, 49): "9b805444d634144f5acad71fb58b149fafbca9aac975380b317c40a35f4db8e2",
}

SCAN_18_DIGEST = "6361c2621bf9355c94c1b61602e4997060684fd3642d3dffc419722804d7eecb"

# run_scan(8) under the overlapping schedule (99/100, 99/100): every one of
# its 66 violations is a rejected chop, so this pins their exception text
OVERLAP_SCHEDULE = (Fraction(99, 100), Fraction(99, 100))
SCAN_8_OVERLAP_DIGEST = "cf5aeae94addb21befd2fcfecadc89d3cfbaaeb42640c6be881d57ffd3e41a36"

# make_report of the default build at n = 2002, where the polygon's common
# denominator has about 1,817 digits: pins the big-integer chop and report
HIGH_RANK_TRIPLE = (2, 1999, 2001)
HIGH_RANK_DIGEST = "b449234e5a8b4ff349b5fe85d32da7872abb8e2d2ba36ef3c7268bb6400326af"

# the polygon of the build at n = 4002 under the default and one other
# schedule, by polygon_digest: its common denominator has about 3,600 and
# 5,100 digits, past the 4,300-digit limit of int-to-text in the second
HIGH_RANK_POLYGON_TRIPLE = (2, 3999, 4001)
HIGH_RANK_POLYGON_DIGESTS = {
    None: "c725c7d3f4f3efd8966702bd26100e09689b282b73cbe2bb1859228016451406",
    (Fraction(2, 5), Fraction(3, 7)):
        "f9d95f893b7907ace6ff7ddbe4d9c83ec76ea37bd3e49cc8652ee94361b74860",
}

RENDER_TRIPLE = (11, 13, 14)
RENDER_DIGESTS = {
    ("polygon", "svg"): "23f3218a179a2cc6f363f036bcbd942b5ae849171d7ca070adc91425bf50ebf4",
    ("polygon", "tikz"): "a34f27d0edf0fd7ea49b035e5c919a6543cd4127f6fdb30bda3fdddd006f7c8c",
    ("strings", "svg"): "332d0efa1fb3a240e7b4aadba150fd1b51b9f60fd380bebca0f22f32584c6159",
    ("strings", "tikz"): "49f6e8f32f0f3a9c37ac0349794aae3ad5a62395c2d1025dab68b8f0ed9a7786",
    ("ruling", "svg"): "99effd3d581a94fb11a2ec568fddcf75b85144632054bbc10aa268a83b6d4da2",
    ("ruling", "tikz"): "a3b68c947e6fddd23114da44caef1af064233fc3df5d824c18a7f3a3eb3e65df",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("triple", sorted(REPORT_DIGESTS))
def test_report_digest(triple):
    h = hashlib.sha256()
    for idx in range(1, 7):
        for sched in SCHEDULES:
            rep = make_report(build_resolution(*triple, presentation=idx, schedule=sched))
            assert "timing" not in rep
            h.update(serialize_report(rep).encode())
            h.update(b"\n")
    assert h.hexdigest() == REPORT_DIGESTS[triple]


def test_high_rank_report_digest():
    rep = make_report(build_resolution(*HIGH_RANK_TRIPLE))
    assert "timing" not in rep
    assert _sha(serialize_report(rep)) == HIGH_RANK_DIGEST


def polygon_digest(poly) -> str:
    """SHA-256 of (den, ipts): den and every vertex coordinate in order, each
    as its signed big-endian bytes after their 8-byte count."""
    h = hashlib.sha256()
    for x in (poly.den, *(c for v in poly.ipts for c in v)):
        data = x.to_bytes((x.bit_length() + 8) // 8, "big", signed=True)
        h.update(len(data).to_bytes(8, "big"))
        h.update(data)
    return h.hexdigest()


@pytest.mark.parametrize("schedule", list(HIGH_RANK_POLYGON_DIGESTS), ids=("default", "2/5,3/7"))
def test_high_rank_polygon_digest(schedule):
    rp = build_resolution(*HIGH_RANK_POLYGON_TRIPLE, schedule=schedule)
    assert polygon_digest(rp.polygon) == HIGH_RANK_POLYGON_DIGESTS[schedule]


def test_scan_digest():
    assert _sha(serialize_scan(run_scan(18, jobs=1))) == SCAN_18_DIGEST


def test_pooled_scan_digest():
    """Two workers merge their rows in input order: the serial bytes."""
    assert _sha(serialize_scan(run_scan(18, jobs=2))) == SCAN_18_DIGEST


def test_overlapping_schedule_scan_digest():
    out = serialize_scan(run_scan(8, jobs=1, schedule=OVERLAP_SCHEDULE))
    assert out.count('"ChopsOverlap: chop depths too large at vertex ') == 66
    assert _sha(out) == SCAN_8_OVERLAP_DIGEST


def test_render_digests():
    rp = build_resolution(*RENDER_TRIPLE)
    rd = ruling(rp, "c")
    got = {
        (what, fmt): _sha(render(rp, what, fmt, rd=rd if what == "ruling" else None))
        for what in WHAT_CHOICES
        for fmt in FORMAT_CHOICES
    }
    assert got == RENDER_DIGESTS
