"""Range scans: run every structural check on every admissible weight triple.

Output is deterministic: triples are enumerated in sorted order, workers
return pure data, and the merge preserves input order regardless of job
count. No timing or host information enters the result.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from multiprocessing import Pool

from .errors import LemmaViolated, MissingClasses, UserInputError, WppError
from .resolution import (
    build_resolution,
    check_divisor_predicates,
    check_sum_bound,
    check_two_minus2,
    connector_selfints,
    divisor_predicates_hold,
)
from .rulings import ruling, ruling_resolution

__all__ = ["CHECK_CHOICES", "coprime_triples", "check_triple", "run_scan", "serialize_scan"]

CHECK_CHOICES = ("all", "def13", "lemma32", "cor34", "prop51")

SCAN_SCHEMA_VERSION = 1


def coprime_triples(max_c: int) -> list[tuple[int, int, int]]:
    """All pairwise coprime 2 <= a < b < c <= max_c, sorted."""
    if max_c < 2:
        raise UserInputError("--max-c must be at least 2")
    out = []
    for c in range(4, max_c + 1):
        for b in range(3, c):
            if math.gcd(b, c) != 1:
                continue
            for a in range(2, b):
                if math.gcd(a, b) == 1 and math.gcd(a, c) == 1:
                    out.append((a, b, c))
    out.sort()
    return out


def _check_names(checks: tuple[str, ...]) -> None:
    for name in checks:
        if name not in CHECK_CHOICES:
            raise UserInputError(f"unknown check {name!r}")


def check_triple(
    triple: tuple[int, int, int],
    checks: tuple[str, ...] = ("all",),
    schedule: tuple[Fraction, Fraction] | None = None,
) -> dict:
    """Verify one triple across all six presentations.

    An unknown check name raises UserInputError before any check runs. After
    that nothing raises: a WppError is recorded as a violation under its class
    name; any other exception is a fault of the program and is recorded as
    "internal: ...", so one bad triple cannot abort a scan.
    """
    _check_names(checks)
    a, b, c = triple
    do = set(CHECK_CHOICES[1:]) if "all" in checks else set(checks)
    run_extra = "all" in checks
    row: dict = {"triple": [a, b, c]}
    violations: list[dict] = []
    for pres in range(1, 7):
        try:
            rp = build_resolution(a, b, c, presentation=pres, schedule=schedule)
            if "lemma32" in do:
                connector_selfints(rp)
            if "def13" in do:
                pred = check_divisor_predicates(rp)
                if not divisor_predicates_hold(pred):
                    raise LemmaViolated(
                        "divisor predicates failed: "
                        f"full={pred.full} type={pred.abc_type} "
                        f"gap={pred.gap_admissible} toric={pred.sub_toric} "
                        f"kodaira={pred.kodaira}"
                    )
            sums = check_sum_bound(rp)
            if "cor34" in do and not (sums.identity_ok and sums.bound_ok):
                raise LemmaViolated(
                    f"entry sum {sums.total_b} under bound {sums.lower_bound}"
                )
            if run_extra:
                check_two_minus2(rp)
            if "prop51" in do:
                rd = ruling(rp, "c")
                if rd.case == "Unicuspidal":
                    ruling_resolution(rp, rd)
                if pres == 1:
                    row.update(
                        case=rd.case,
                        p=rd.pa,
                        q=rd.qa,
                        nu_a=rd.nu_a,
                        nu_b=rd.nu_b,
                    )
            if pres == 1:
                lat = rp.lattice
                if lat.canonical is None:
                    raise MissingClasses("resolution lattice has no canonical class")
                row.update(
                    n=rp.n,
                    k2=lat.sq(lat.canonical),
                    connectors=[
                        rp.connectors[k].selfint for k in ("N_a", "N_b", "N_c")
                    ],
                    sum_b=sums.total_b,
                )
        except Exception as exc:
            prefix = "" if isinstance(exc, WppError) else "internal: "
            violations.append(
                {
                    "triple": [a, b, c],
                    "presentation": pres,
                    "error": f"{prefix}{type(exc).__name__}: {exc}",
                }
            )
    return {"row": row, "violations": violations}


def _worker(args: tuple) -> dict:
    return check_triple(*args)


def run_scan(
    max_c: int,
    jobs: int | None = None,
    checks: tuple[str, ...] = ("all",),
    schedule: tuple[Fraction, Fraction] | None = None,
) -> dict:
    _check_names(checks)
    triples = coprime_triples(max_c)
    tasks = [(t, tuple(checks), schedule) for t in triples]
    if jobs == 1 or len(tasks) < 4:
        results = [_worker(t) for t in tasks]
    else:
        chunk = max(1, len(tasks) // (64 if jobs is None else 8 * jobs))
        with Pool(processes=jobs) as pool:
            results = pool.map(_worker, tasks, chunksize=chunk)
    rows = [r["row"] for r in results]
    violations = [v for r in results for v in r["violations"]]
    case_table: dict[str, int] = {}
    for row in rows:
        case = row.get("case")
        if case is not None:
            case_table[case] = case_table.get(case, 0) + 1
    return {
        "schema_version": SCAN_SCHEMA_VERSION,
        "max_c": max_c,
        "checks": sorted(set(checks)),
        "triple_count": len(triples),
        "violation_count": len(violations),
        "violations": violations,
        "case_table": dict(sorted(case_table.items())),
        "rows": rows,
    }


def serialize_scan(result: dict) -> str:
    return json.dumps(result, sort_keys=True, indent=2)
