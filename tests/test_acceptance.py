"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything is exact arithmetic, so "tolerance" means equality; the stated
wall-clock budgets are asserted too.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from realgw.graphs import (
    congruence_identity_check,
    derive_genus_degree,
    generate_random_graph,
)
from realgw.multicover import (
    Convention,
    InvariantVector,
    forward_transform,
    integrality_check,
    invert_transform,
    multicover_coefficient,
)
from realgw.signs import (
    RelSpinVariant,
    relspin_determinant,
    virtual_dimension,
)
from realgw.verify import ALL_CHECKS
from series_oracle import oracle_cover_coefficient

H_GRID = range(0, 7)
C1B_GRID = (-4, -2, 0, 2, 4, 8)


def _report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {name} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_series_oracle_equivalence():
    start = time.monotonic()
    mismatches = 0
    checked = 0
    oracle_cache = {}
    for conv in (Convention.SINH, Convention.SIN):
        for h in H_GRID:
            for c1b in C1B_GRID:
                for g in range(0, 11):
                    key = (h, c1b, g, conv.value)
                    expected = oracle_cache.get(key)
                    if expected is None:
                        expected = oracle_cover_coefficient(h, c1b, g, conv.value)
                        oracle_cache[key] = expected
                    if multicover_coefficient(h, c1b, g, conv) != expected:
                        mismatches += 1
                    checked += 1
    elapsed = time.monotonic() - start
    _report(
        1,
        "series oracle equivalence",
        mismatches == 0 and elapsed < 5.0,
        f"{checked} coefficients, {mismatches} mismatches, {elapsed:.2f}s",
    )


def test_criterion_2_transform_round_trip():
    start = time.monotonic()
    rng = random.Random(20240)
    bad = 0
    for trial in range(200):
        max_genus = rng.randint(0, 12)
        entries = {
            g: Fraction(rng.randint(-10**6, 10**6))
            for g in range(max_genus + 1)
        }
        c1b = 2 * rng.randint(-3, 4)
        conv = Convention.SINH if trial % 2 == 0 else Convention.SIN
        vec = InvariantVector(entries, c1b, max_genus)
        recovered = invert_transform(forward_transform(vec, conv), conv)
        if recovered != vec or integrality_check(recovered):
            bad += 1
    elapsed = time.monotonic() - start
    _report(
        2,
        "transform round trip",
        bad == 0 and elapsed < 5.0,
        f"200 vectors, {bad} failures, {elapsed:.2f}s",
    )


def test_criterion_3_sin_sinh_relation():
    bad = 0
    for h in H_GRID:
        for c1b in C1B_GRID:
            for g in range(0, 11):
                sin_val = multicover_coefficient(h, c1b, g, Convention.SIN)
                sinh_val = multicover_coefficient(h, c1b, g, Convention.SINH)
                if sin_val != (-1) ** g * sinh_val:
                    bad += 1
    _report(3, "sin/sinh relation", bad == 0, f"{7 * 6 * 11} pairs, {bad} mismatches")


def test_criterion_4_derivation_identity_suite():
    start = time.monotonic()
    # Every integer identity; the sin/sinh relation is criterion 3.
    reports = [
        check() for identity_id, check in ALL_CHECKS.items()
        if identity_id != "sin_vs_sinh"
    ]
    elapsed = time.monotonic() - start
    total = sum(r.grid_size for r in reports)
    failures = sum(len(r.failures) for r in reports)
    _report(
        4,
        "derivation identity suite",
        failures == 0 and total >= 10_000 and elapsed < 10.0,
        f"{total} tuples, {failures} failures, {elapsed:.2f}s",
    )


def test_criterion_5_mod8_table():
    expected_e2 = {0: True, 2: False, 4: True, 6: False, 8: True}
    expected_e3 = {0: True, 2: False, 4: False, 6: True, 8: True}
    bad = []
    for deg_v in (0, 2, 4, 6, 8):
        e2 = relspin_determinant(
            deg_v, RelSpinVariant.RELSPIN_VS_PROJECTION
        ).preserves
        e3 = relspin_determinant(
            deg_v, RelSpinVariant.RELSPIN_VS_CANONICAL
        ).preserves
        if e2 is not expected_e2[deg_v] or e3 is not expected_e3[deg_v]:
            bad.append(deg_v)
    _report(5, "mod-8 hand table", not bad, f"degrees {{0,2,4,6,8}}, bad: {bad}")


def test_criterion_6_graph_congruence_fuzz():
    start = time.monotonic()
    bad = []
    for seed in range(1, 1001):
        graph = generate_random_graph(seed)
        result = congruence_identity_check(graph)  # raises on any
        # non-integral intermediate
        g, d = derive_genus_degree(graph)
        if not result.holds or (g * d) % 2 != 0:
            bad.append(seed)
    elapsed = time.monotonic() - start
    _report(
        6,
        "graph congruence fuzz",
        not bad and elapsed < 30.0,
        f"1000 graphs, bad seeds: {bad[:5]}, {elapsed:.2f}s",
    )


def test_criterion_7_dimension_evenness():
    rng = random.Random(777)
    bad = 0
    for _ in range(10_000):
        dim = virtual_dimension(
            g=rng.randint(-20, 20),
            ell=rng.randint(0, 20),
            n=2 * rng.randint(0, 10) + 1,
            c1b=2 * rng.randint(-25, 25),
        )
        if dim % 2 != 0:
            bad += 1
    _report(7, "dimension evenness", bad == 0, f"10000 descriptors, {bad} odd")


def _run(argv, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "realgw", *argv],
        input=stdin,
        capture_output=True,
        text=True,
    )


def test_criterion_8_cli_determinism_and_exit_codes():
    gw_doc = '{"c1B":0,"convention":"sinh","gw":{"0":"1","2":"-1/24"}}'
    documented = [
        (["coeff", "--h", "2", "--c1b", "0", "--g", "1", "--conv", "sinh"], None, 0),
        (["dim", "--g", "0", "--ell", "1", "--n", "3", "--c1b", "4"], None, 0),
        (["sign", "cvc-parity", "--params", "g=0,k=1,d=1"], None, 0),
        (["invert"], gw_doc, 0),
        (["graph-check", "--seeds", "1..25"], None, 0),
        (["verify", "binomial_parity"], None, 0),
        (["schema", "graph"], None, 0),
        (["schema", "invariants"], None, 0),
        (["schema", "report"], None, 0),
    ]
    problems = []
    for argv, stdin, want_code in documented:
        first = _run(argv, stdin)
        second = _run(argv, stdin)
        if first.stdout != second.stdout or first.stdout.encode() != second.stdout.encode():
            problems.append(("nondeterministic", argv))
        if first.returncode != want_code or second.returncode != want_code:
            problems.append(("exit", argv, first.returncode))

    # invert -> transform reproduces the normalized document byte-for-byte
    inverted = _run(["invert"], gw_doc)
    transformed_1 = _run(["transform"], inverted.stdout)
    transformed_2 = _run(["transform"], inverted.stdout)
    normalized = json.dumps(
        {"c1B": 0, "convention": "sinh", "gw": {"0": "1", "1": "0", "2": "-1/24"}},
        sort_keys=True,
        indent=2,
    ) + "\n"
    if transformed_1.stdout != normalized or transformed_1.stdout != transformed_2.stdout:
        problems.append(("round-trip bytes",))

    # exit-code contract: 1 for domain/input errors, 2 for usage errors
    if _run(["invert"], "{bad json").returncode != 1:
        problems.append(("malformed json code",))
    if _run(["coeff", "--h", "1", "--c1b", "3", "--g", "0"]).returncode != 1:
        problems.append(("domain error code",))
    if _run(["frobnicate"]).returncode != 2:
        problems.append(("usage error code",))

    _report(
        8,
        "CLI determinism and exit codes",
        not problems,
        f"{len(documented)} documented examples twice each, problems: {problems}",
    )
