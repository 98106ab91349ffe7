"""Derivation identity suite: the default grids are the regression contract
for the sign calculus, so every check must come back clean."""

import hashlib
import itertools
import json

import pytest

from realgw import verify
from realgw.signs import OrientationEpsilons, cr_index, orientcomp_epsilons
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
    assert report.identity_id == identity_id
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


def test_run_checks_all_and_selection():
    reports = run_checks()
    assert [r.identity_id for r in reports] == list(ALL_CHECKS)
    only = run_checks(["doublet_vs_cvc"])
    assert len(only) == 1 and only[0].identity_id == "doublet_vs_cvc"
    with pytest.raises(ValueError):
        run_checks(["no_such_identity"])


def test_report_json_shape():
    doc = check_binomial_parity([(1, 1)]).to_json_dict()
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
    doc = json.dumps([r.to_json_dict() for r in reports])
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
        ("union_moduli_vs_epsilons", "orientcomp_epsilons",
         lambda g, c1b, n: OrientationEpsilons(orientcomp_epsilons(g, c1b, n).eps_conv, 0)),
    ],
)
def test_mutated_kernel_is_caught(monkeypatch, identity_id, kernel, mutant):
    monkeypatch.setattr(verify, kernel, mutant)
    assert not ALL_CHECKS[identity_id]().holds


def test_union_moduli_vs_epsilons_grid():
    report = verify.check_union_moduli_vs_epsilons()
    assert report.holds
    assert report.grid_size == 4 * 10 * 10 * 9 * 9
    # n = 3, g1 = g2 = 0: the projection exponent 1 and d eps_factor are odd.
    assert verify.check_union_moduli_vs_epsilons([(3, 0, 0, 0, 0)]).holds
