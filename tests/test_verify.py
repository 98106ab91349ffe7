"""Derivation identity suite: the default grids are the regression contract
for the sign calculus, so every check must come back clean."""

import hashlib
import itertools
import json

import pytest

from realgw import multicover, verify
from realgw.signs import (
    Route,
    cr_index,
    e_node_determinant_exponent,
    union_determinant_exponent,
)
from realgw.verify import (
    ALL_CHECKS,
    check_binomial_parity,
    check_doublet_vs_cvc,
    check_e_node_induced_vs_determinant,
    check_relspin_mod8,
    check_sin_vs_sinh,
    check_union_canonical_vs_cvc,
    check_union_induced_vs_determinant,
    run_checks,
)


@pytest.mark.parametrize("identity_id", sorted(ALL_CHECKS))
def test_default_grid_holds(identity_id):
    report = ALL_CHECKS[identity_id]()
    assert report.identity == identity_id
    assert report.holds, report.failures[:5]
    assert report.grid_size > 0


def test_total_default_grid_size():
    total = sum(ALL_CHECKS[name]().grid_size for name in ALL_CHECKS)
    assert total >= 10_000


def test_reports_are_deterministic():
    first = check_union_induced_vs_determinant()
    second = check_union_induced_vs_determinant()
    assert first == second


def test_custom_grids():
    assert check_binomial_parity([(1, 1), (2, 3)]).grid_size == 2
    assert check_union_canonical_vs_cvc([(0, 0, 1, 0, 0)]).holds
    assert check_doublet_vs_cvc([(0, 0), (1, 0)]).holds
    assert check_relspin_mod8([(0,), (2,), (4,), (6,), (8,)]).holds
    assert check_e_node_induced_vs_determinant([(1, 0), (2, 0)]).holds


def test_hand_rows():
    # (0,0,1,0,0): both indices 1, product odd; parity chain agrees
    assert check_union_canonical_vs_cvc([(0, 0, 1, 0, 0)]).failures == ()
    # degV = 4: projection-route agrees, canonical-route differs,
    # cvc at index -1 flips; 0 = 1 xor 1
    assert check_relspin_mod8([(4,)]).failures == ()


def test_sin_vs_sinh_grid_size():
    report = check_sin_vs_sinh(
        itertools.product(range(0, 7), (-4, -2, 0, 2, 4, 8), range(0, 5))
    )
    assert report.holds
    assert report.grid_size == 7 * 6 * 5


def test_registry_order():
    # `verify --all` reports and `verify -h` lists the identities in this order.
    assert list(ALL_CHECKS) == [
        "binomial_parity",
        "union_canonical_vs_cvc",
        "doublet_vs_cvc",
        "relspin_mod8",
        "union_induced_vs_determinant",
        "e_node_induced_vs_determinant",
        "union_moduli_vs_epsilons",
        "sin_vs_sinh",
    ]
    assert all(ALL_CHECKS[i] is getattr(verify, f"check_{i}") for i in ALL_CHECKS)


def test_run_checks_all_and_selection():
    reports = run_checks()
    assert [r.identity for r in reports] == list(ALL_CHECKS)
    only = run_checks(["doublet_vs_cvc"])
    assert len(only) == 1 and only[0].identity == "doublet_vs_cvc"
    with pytest.raises(ValueError):
        run_checks(["no_such_identity"])


def test_report_json_shape():
    doc = json.loads(json.dumps(check_binomial_parity([(1, 1)])._asdict()))
    assert doc == {
        "identity": "binomial_parity",
        "grid_size": 1,
        "holds": True,
        "failures": [],
    }


def test_mutated_cvc_kernel_is_caught(monkeypatch):
    # ind in place of ind(ind-1)/2: the sweeps evaluate the kernels, so
    # every identity built on the canonical-vs-projection parity must fail.
    monkeypatch.setattr(
        verify, "cvc_parity_exponent", lambda g, k, d: cr_index(g, k, d) % 2
    )
    assert len(check_union_canonical_vs_cvc().failures) == 27_250
    assert check_union_canonical_vs_cvc().grid_size == 115_600
    assert check_doublet_vs_cvc().failures
    assert check_relspin_mod8().failures
    # The failure lists themselves, in order: what `verify` prints on exit 3.
    reports = run_checks()
    assert sum(len(r.failures) for r in reports) == 27_344
    doc = json.dumps([r._asdict() for r in reports])
    assert hashlib.sha256(doc.encode()).hexdigest()[:16] == "bc677ac5701d6172"


@pytest.mark.parametrize(
    "identity_id,kernel,mutant",
    [
        ("doublet_vs_cvc", "doublet_determinant_exponent",
         lambda g, k, d2, route: (1 - g) * k + d2 + 1),
        ("relspin_mod8", "relspin_determinant_exponent",
         lambda deg_v, variant: 0),
        ("union_induced_vs_determinant", "union_induced_exponent",
         lambda g1, g2, d1, d2, route: (g1 - 1) * (g2 - 1)),
        ("e_node_induced_vs_determinant", "e_node_induced_exponent",
         lambda g, d, route: d),
        ("union_moduli_vs_epsilons", "union_moduli_exponent",
         lambda n, g1, g2, c1b1, c1b2, route: (n - 1) * (g1 - 1) * (g2 - 1) // 2),
        ("union_moduli_vs_epsilons", "eps_factor", lambda g, n: 0),
        ("union_moduli_vs_epsilons", "eps_conv", lambda g, c1b: 0),
    ],
)
def test_mutated_kernel_is_caught(monkeypatch, identity_id, kernel, mutant):
    monkeypatch.setattr(verify, kernel, mutant)
    assert not ALL_CHECKS[identity_id]().holds


SIN_VS_SINH_GRID = list(itertools.product(range(0, 7), (-4, -2, 0, 2, 4, 8), range(0, 9)))


def test_sin_read_with_a_wrong_sign_is_caught(monkeypatch):
    # sin read with (-1)^(g+1): every point whose coefficient is nonzero
    # fails, that is all but exponent 0 (b^0 = 1) at g >= 1
    coefficient = multicover.multicover_coefficient

    def planted(h, c1b, g, convention=multicover.Convention.SINH):
        value = coefficient(h, c1b, g, convention)
        return -value if convention is multicover.Convention.SIN else value

    monkeypatch.setattr(multicover, "multicover_coefficient", planted)
    report = check_sin_vs_sinh()
    zero = {(h, c1b, g) for h, c1b, g in SIN_VS_SINH_GRID if h - 1 + c1b // 2 == 0 and g}
    assert set(report.failures) == set(SIN_VS_SINH_GRID) - zero
    assert len(report.failures) == 378 - 4 * 8


def test_wrong_shared_table_entry_is_caught(monkeypatch):
    # sin and sinh read one table, so one wrong entry moves both alike; the
    # check's sin side is the sin series' own power, so it still fails
    tables: dict = {}
    monkeypatch.setattr(multicover, "_TABLES", tables)
    monkeypatch.setattr(multicover, "_COLUMNS", {})
    multicover.multicover_coefficient(2, 0, 8)  # exponent 1 through u^8
    tables[1][3] += 1
    failures = check_sin_vs_sinh().failures
    assert failures == ((0, 4, 3), (1, 2, 3), (2, 0, 3), (3, -2, 3), (4, -4, 3))


def test_union_moduli_vs_epsilons_grid():
    report = verify.check_union_moduli_vs_epsilons()
    assert report.holds
    assert report.grid_size == 4 * 10 * 10 * 9 * 9
    # n = 3, g1 = g2 = 0: the projection exponent 1 and d eps_factor are odd.
    assert verify.check_union_moduli_vs_epsilons([(3, 0, 0, 0, 0)]).holds


def _plus_one_on(kernel, route):
    """``kernel`` + 1 on ``route`` only."""
    original = getattr(verify, kernel)
    return lambda *args: original(*args) + (args[-1] is route)


P, C = Route.PROJECTION, Route.CANONICAL


# Failures of each route-tagged identity under a mutated kernel, pinned
# before the dual-route identities were stated once over one route pair:
# (count, first failure, last failure, sha256 of the JSON failure list).
@pytest.mark.parametrize(
    "identity_id,kernel,mutant,pinned",
    [
        pytest.param(
            "union_induced_vs_determinant", "union_induced_exponent",
            lambda: _plus_one_on("union_induced_exponent", C),
            (28_900, (-3, -3, -8, -8, "canonical"), (6, 6, 8, 8, "canonical"), "6f0058baf4cc957c"),
            id="union-induced-canonical"),
        pytest.param(
            "union_induced_vs_determinant", "union_induced_exponent",
            lambda: _plus_one_on("union_induced_exponent", P),
            (28_900, (-3, -3, -8, -8, "projection"), (6, 6, 8, 8, "projection"), "d23b1350e354f7d5"),
            id="union-induced-projection"),
        pytest.param(
            "e_node_induced_vs_determinant", "e_node_induced_exponent",
            lambda: _plus_one_on("e_node_induced_exponent", P),
            (170, (-3, -8, "projection"), (6, 8, "projection"), "0531fec6f9ff4e63"),
            id="e-node-induced-projection"),
        pytest.param(
            "e_node_induced_vs_determinant", "e_node_induced_exponent",
            lambda: _plus_one_on("e_node_induced_exponent", C),
            (170, (-3, -8, "canonical"), (6, 8, "canonical"), "bfe58d4cf2873556"),
            id="e-node-induced-canonical"),
        # + d1 on both routes: at each odd d1 both routes fail, projection first
        pytest.param(
            "union_induced_vs_determinant", "union_determinant_exponent",
            lambda: lambda g1, g2, k, d1, d2, route: (
                union_determinant_exponent(g1, g2, k, d1, d2, route) + d1),
            (27_200, (-3, -3, -7, -8, "projection"), (6, 6, 7, 8, "canonical"), "e817b4ea7fa37933"),
            id="union-determinant-both"),
        pytest.param(
            "e_node_induced_vs_determinant", "e_node_determinant_exponent",
            lambda: lambda g, k, d, route: e_node_determinant_exponent(g, k, d, route) + g * d,
            (80, (-3, -7, "projection"), (5, 7, "canonical"), "86841ac91ef671a5"),
            id="e-node-determinant-both"),
        # the canonical relation is stated against the projection exponent,
        # so a projection-only mutation fails both
        pytest.param(
            "union_moduli_vs_epsilons", "union_moduli_exponent",
            lambda: _plus_one_on("union_moduli_exponent", P),
            (64_800, (1, -3, -3, -8, -8, "projection"), (7, 6, 6, 8, 8, "canonical"),
             "2a7a1cd33027ff05"),
            id="union-moduli-projection"),
        pytest.param(
            "union_moduli_vs_epsilons", "union_moduli_exponent",
            lambda: _plus_one_on("union_moduli_exponent", C),
            (32_400, (1, -3, -3, -8, -8, "canonical"), (7, 6, 6, 8, 8, "canonical"),
             "8d7a3e1c6e6415f6"),
            id="union-moduli-canonical"),
    ],
)
def test_mutated_route_failures_are_pinned(monkeypatch, identity_id, kernel, mutant, pinned):
    monkeypatch.setattr(verify, kernel, mutant())
    failures = ALL_CHECKS[identity_id]().failures
    digest = hashlib.sha256(json.dumps([list(f) for f in failures]).encode()).hexdigest()[:16]
    assert (len(failures), failures[0], failures[-1], digest) == pinned
