"""Acceptance gate: one test per criterion, each at its stated grid, all exact.

Run with `pytest -v` to get a pass/fail line per criterion; each test also
prints an ACCEPTANCE line (visible with -s or on failure).
"""

from bosonfermion import cli
from bosonfermion.boson import parse_boson, schur
from bosonfermion.fermion import parse_fermion
from bosonfermion.geometry import euler_class, parse_quiver
from bosonfermion.partitions import partitions_up_to
from bosonfermion.scalars import parse_tscalar
from bosonfermion.verify import (
    c2_toy_suite,
    clifford_suite,
    commuting_square_suite,
    correspondence_suite,
    euler_suite,
    heisenberg_boson_suite,
    heisenberg_fermion_suite,
    heisenberg_geometric_suite,
    orthonormality_suite,
    serre_suite,
)


def _gate(number: int, description: str, results) -> None:
    failures = [c for c in results if not c.passed]
    verdict = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number} {description}: {verdict}")
    assert not failures, [
        (c.name, c.counterexample) for c in failures
    ]


def test_criterion_01_clifford():
    # anticommutators, adjointness and vacuum annihilation: |i|,|j| <= 5,
    # charges |m| <= 2, energies <= 6
    _gate(1, "clifford relations", clifford_suite(6, 5, 2))


def test_criterion_02_fermionic_heisenberg():
    # [alpha_k, alpha_l] = k delta on charge 0, energy <= 8, |k|,|l| <= 4;
    # alpha_0 acts by the charge
    _gate(2, "fermionic heisenberg", heisenberg_fermion_suite(8, 4, 2))


def test_criterion_03_correspondence():
    # sigma matches both Jacobi-Trudi routes for n <= 8 and intertwines the
    # oscillator action on the criterion-2 grid
    _gate(3, "boson-fermion dictionary", correspondence_suite(8, 4, 2))


def test_criterion_03b_bosonic_heisenberg():
    # companion sweep on the polynomial side, same grid as criterion 2
    _gate(3, "bosonic heisenberg", heisenberg_boson_suite(8, 4))


def test_criterion_04_orthonormality():
    # <S,S> = delta, <p,p> = z delta, <[.],[.]> = delta, and the geometric
    # power-sum pairing, all for n <= 8
    _gate(4, "orthonormality and pairings", orthonormality_suite(8))


def test_criterion_05_euler_classes():
    # box-by-box Euler classes equal the closed hook form for n <= 10, and the
    # curve relation holds on X_1, the plane with its one fixed point
    _gate(5, "euler classes", euler_suite(10) + c2_toy_suite())


def test_criterion_06_sl_structure():
    # Chevalley/Serre relations for the box operators on n <= 8, |k| <= 4;
    # eigenvalues match the Cartan pairing and the corner count; the point
    # dimension formula vanishes for n <= 10
    _gate(6, "sl-infinity structure", serre_suite(8, 4))


def test_criterion_07_commuting_square():
    # tau intertwines, eta is an isometry and bijection, and
    # phi . eta . tau agrees with sigma on every basis vector with n <= 8
    _gate(7, "intertwining and commuting square", commuting_square_suite(8, 4))


def test_criterion_08_geometric_heisenberg():
    # [p_k, p_l] = k delta and adjointness under the localization pairing,
    # n <= 8, |k|,|l| <= 4
    _gate(8, "geometric heisenberg", heisenberg_geometric_suite(8, 4))


def test_criterion_09_cli_verify_all(capsys):
    code = cli.main(["verify", "all", "--max-size", "8"])
    out = capsys.readouterr().out
    print(f"ACCEPTANCE 9 cli verify-all: {'PASS' if code == 0 else 'FAIL'}")
    assert code == 0, out
    assert "FAIL" not in out


def test_criterion_09b_round_trips(capsys):
    samples = []
    for shape in partitions_up_to(6):
        samples.append((str(schur(shape)), parse_boson))
        samples.append((str(euler_class(shape)), parse_tscalar))
    for word, state in [
        ("alpha(-1) alpha(-1)", "vac(0)"),
        ("alpha(-2) alpha(-1)", "vac(0)"),
        ("psi(3) psi*(0)", "vac(0)"),
        ("f(1) f(0)", "vac(0)"),
    ]:
        assert cli.main(["apply", word, state]) == 0
        samples.append((capsys.readouterr().out.strip(), parse_fermion))
    for word in ["F(1) F(0)", "F(-1) F(0)", "F(0)"]:
        assert cli.main(["apply", word, "1@[]"]) == 0
        samples.append((capsys.readouterr().out.strip(), parse_quiver))
    bad = [text for text, parser in samples if str(parser(text)) != text]
    print(f"ACCEPTANCE 9 printed-value round-trips: {'PASS' if not bad else 'FAIL'}")
    assert not bad, bad
