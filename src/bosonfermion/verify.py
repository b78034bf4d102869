"""Exact verification sweeps behind the `verify` CLI subcommand and the
acceptance tests.  Every suite returns a list of CheckResult records; a failed
check carries a witness describing the first counterexample."""

import inspect
from dataclasses import dataclass

from . import fermion, geometry
from .boson import (
    MAX_SCHUR_DEGREE,
    BosonPolynomial,
    hall_form,
    oscillator,
    power_sum,
    schur,
    schur_dual_jacobi_trudi,
    schur_expand,
    schur_jacobi_trudi,
)
from .fermion import (
    FermionState,
    alpha,
    basis_state,
    chevalley_e,
    chevalley_f,
    psi,
    psi_star,
)
from .geometry import (
    DegreeUnderflow,
    LocalizedClass,
    QuiverClass,
    bilinear_form,
    c2_toy_check,
    c2_toy_model,
    euler_class,
    eta,
    eta_inverse,
    geometric_boson,
    hecke_e,
    hecke_f,
    normalized_class,
    phi,
    phi_inverse,
    point_variety_dimension,
    power_sum_class,
    quiver_form,
    tau,
    weight_of,
)
from .partitions import (
    Partition,
    addable_boxes,
    boxes,
    cartan_apply,
    dimension_vector,
    hook,
    partitions_of,
    partitions_up_to,
    removable_boxes,
    z_factor,
)
from .correspondence import sigma
from .scalars import Rational, TScalar


@dataclass
class CheckResult:
    name: str
    passed: bool
    checked: int
    counterexample: str | None = None

    def to_json(self) -> dict:
        data = {"name": self.name, "passed": self.passed, "checked": self.checked}
        if self.counterexample is not None:
            data["counterexample"] = self.counterexample
        return data


class _Check:
    """Accumulates pass/fail over a sweep, keeping the first counterexample."""

    def __init__(self, name: str):
        self.name = name
        self.checked = 0
        self.witness = None

    def record(self, ok: bool, template: str, *args) -> None:
        """Count one check; on the first failure, format the witness
        template.format(*args), so passing checks format nothing."""
        self.checked += 1
        if not ok and self.witness is None:
            self.witness = template.format(*args)

    def result(self) -> CheckResult:
        return CheckResult(self.name, self.witness is None, self.checked, self.witness)


def _charges(bound: int) -> range:
    return range(-bound, bound + 1)


def clifford_suite(max_size: int = 6, max_index: int = 5, charge_bound: int = 2) -> list[CheckResult]:
    """Anticommutation relations of the wedging/contracting operators."""
    anti = _Check("clifford-anticommutators")
    adjoint = _Check("psi-adjointness")
    vac_ann = _Check("vacuum-annihilation")
    shapes = partitions_up_to(max_size)
    monos = [basis_state(m, shape) for m in _charges(charge_bound) for shape in shapes]
    indices = range(-max_index, max_index + 1)
    # psi and psi* of every grid state, computed once; each check below reads
    # a psi image against a psi* image, or one operator order against the other
    up = [{j: psi(j, state) for j in indices} for state in monos]
    down = [{j: psi_star(j, state) for j in indices} for state in monos]
    for state, psi_of, psi_star_of in zip(monos, up, down):
        psi_psi = {(i, j): psi(i, psi_of[j]) for i in indices for j in indices}
        star_star = {(i, j): psi_star(i, psi_star_of[j]) for i in indices for j in indices}
        for i in indices:
            for j in indices:
                mixed = psi(i, psi_star_of[j]) + psi_star(j, psi_of[i])
                expected = state if i == j else FermionState.zero()
                ok = mixed == expected
                ok = ok and (psi_psi[i, j] + psi_psi[j, i]).is_zero()
                ok = ok and (star_star[i, j] + star_star[j, i]).is_zero()
                anti.record(ok, "i={}, j={}, state={}", i, j, state)
    # cross-charge pairs vanish on both sides (charge shift is checked below),
    # so the adjointness sweep pairs charge m with charge m + 1 only; the grid
    # holds the states of each charge in one block of len(shapes)
    block = len(shapes)
    for start in range(0, len(monos) - block, block):
        for a in range(start, start + block):
            (left_mono,), psi_of = monos[a].terms, up[a]
            for b in range(start + block, start + 2 * block):
                (right_mono,), psi_star_of = monos[b].terms, down[b]
                for j in indices:
                    lhs = psi_of[j].terms.get(right_mono, 0)
                    rhs = psi_star_of[j].terms.get(left_mono, 0)
                    adjoint.record(lhs == rhs, "j={}, pair=({}, {})", j, monos[a], monos[b])
    shift = _Check("charge-shift")
    for state, psi_of, psi_star_of in zip(monos, up, down):
        m = state.charge()
        for j in indices:
            image_up, image_down = psi_of[j], psi_star_of[j]
            ok = image_up.is_zero() or image_up.charge() == m + 1
            ok = ok and (image_down.is_zero() or image_down.charge() == m - 1)
            shift.record(ok, "j={}, state={}", j, state)
    for m in _charges(charge_bound):
        vac = fermion.vacuum(m)
        for j in indices:
            ok = psi(j, vac).is_zero() if j <= m else not psi(j, vac).is_zero()
            ok = ok and (psi_star(j, vac).is_zero() if j > m else not psi_star(j, vac).is_zero())
            vac_ann.record(ok, "j={}, charge={}", j, m)
    return [anti.result(), adjoint.result(), shift.result(), vac_ann.result()]


def _heisenberg(check: _Check, op, items, indices: range, template: str) -> list[dict]:
    """[A_k, A_l] = k * delta_{k,-l} with A_l = op(l, .) on each (label, value)
    of items.  Each A_l value and each product A_k A_l is built once; returns
    the tables {l: A_l value}, one per item, for the checks that read them."""
    tables = []
    for label, value in items:
        once = {l: op(l, value) for l in indices}
        twice = {(k, l): op(k, once[l]) for k in indices for l in indices}
        for k in indices:
            for l in indices:
                commutator = twice[k, l] - twice[l, k]
                ok = commutator == value.scale(k) if k == -l else commutator.is_zero()
                check.record(ok, template, k, l, label)
        tables.append(once)
    return tables


def heisenberg_fermion_suite(max_size: int = 8, max_index: int = 4, charge_bound: int = 2) -> list[CheckResult]:
    """Free-boson commutators on the wedge space and the charge action of alpha_0."""
    comm = _Check("alpha-commutators")
    charge_action = _Check("alpha0-charge")
    adjoint = _Check("alpha-adjointness")
    states = [basis_state(0, shape) for shape in partitions_up_to(max_size)]
    indices = range(-max_index, max_index + 1)
    images = _heisenberg(comm, alpha, [(state, state) for state in states], indices, "k={}, l={}, state={}")
    for m in _charges(charge_bound):
        for shape in partitions_up_to(min(max_size, 4)):
            state = basis_state(m, shape)
            charge_action.record(alpha(0, state) == state.scale(m), "state={}", state)
    for left, left_images in zip(states, images):
        (left_mono,) = left.terms
        for right, right_images in zip(states, images):
            (right_mono,) = right.terms
            for k in range(1, max_index + 1):
                lhs = left_images[-k].terms.get(right_mono, 0)
                rhs = right_images[k].terms.get(left_mono, 0)
                adjoint.record(lhs == rhs, "k={}, pair=({}, {})", k, left, right)
    return [comm.result(), charge_action.result(), adjoint.result()]


def heisenberg_boson_suite(max_size: int = 8, max_index: int = 4) -> list[CheckResult]:
    """Oscillator commutators on the polynomial side."""
    comm = _Check("oscillator-commutators")
    monomials = [power_sum(shape) for shape in partitions_up_to(max_size)]
    indices = range(-max_index, max_index + 1)
    _heisenberg(comm, oscillator, [(f, f) for f in monomials], indices, "k={}, l={}, monomial={}")
    return [comm.result()]


def _boson_term(k: int, beta: LocalizedClass) -> LocalizedClass:
    """p_k beta, or the zero class of degree n - k where p_k underflows."""
    try:
        return geometric_boson(k, beta)
    except DegreeUnderflow:
        return LocalizedClass.zero(beta.n - k)


def heisenberg_geometric_suite(max_size: int = 8, max_index: int = 4) -> list[CheckResult]:
    """Heisenberg relations and adjointness for the ribbon-rule operators, and
    their agreement with the oscillator transported through phi."""
    comm = _Check("geometric-boson-commutators")
    adjoint = _Check("geometric-boson-adjointness")
    transport = _Check("geometric-boson-transport")
    shapes = partitions_up_to(max_size)
    indices = range(-max_index, max_index + 1)
    items = [(shape, normalized_class(shape)) for shape in shapes]
    images = dict(zip(shapes, _heisenberg(comm, _boson_term, items, indices, "k={}, l={}, shape={}")))
    for i in range(1, max_index + 1):
        for n in range(0, max_size - i + 1):
            for small in partitions_of(n):
                for large in partitions_of(n + i):
                    lhs = bilinear_form(images[small][-i], normalized_class(large))
                    rhs = bilinear_form(normalized_class(small), images[large][i])
                    adjoint.record(lhs == rhs, "i={}, pair=({}, {})", i, small, large)
    for shape in partitions_up_to(min(max_size, 4)):
        beta = normalized_class(shape)
        image = phi(beta)
        for k in indices:
            moved = oscillator(k, image)
            if k > shape.size():  # the table holds a zero here; p_k itself must refuse
                try:
                    geometric_boson(k, beta)
                    ok = False
                except DegreeUnderflow:
                    ok = moved.is_zero()
            else:
                ok = images[shape][k] == phi_inverse(moved, shape.size() - k)
            transport.record(ok, "k={}, shape={}", k, shape)
    return [comm.result(), adjoint.result(), transport.result()]


def serre_suite(max_size: int = 8, max_index: int = 4) -> list[CheckResult]:
    """Chevalley-Serre presentation for the box-adding and box-removing operators."""
    ef_comm = _Check("ef-commutators")
    eigen = _Check("cartan-eigenvalues")
    serre = _Check("serre-relations")
    distant = _Check("distant-commutation")
    highest = _Check("highest-weight")
    dimension = _Check("point-dimension-formula")
    shapes = partitions_up_to(max_size)
    indices = range(-max_index, max_index + 1)
    reach = range(-max_index - 1, max_index + 2)  # and the Serre neighbours k - 1, k + 1

    def ad2(op, once, a, b):  # op_a op_a op_b - 2 op_a op_b op_a + op_b op_a op_a, op_c = once[c]
        return op(a, op(a, once[b])) - op(a, op(b, once[a])).scale(Rational(2)) + op(b, op(a, once[a]))

    for shape in shapes:
        basis = QuiverClass.graded_unit(shape)
        counts = dimension_vector(shape)
        e_once = {k: hecke_e(k, basis) for k in reach}
        f_once = {k: hecke_f(k, basis) for k in reach}
        for k in indices:
            ek_f = hecke_e(k, f_once[k])
            f_ek = hecke_f(k, e_once[k])
            eigenvalue = (1 if k == 0 else 0) - cartan_apply(counts, k)
            box_count = len(addable_boxes(shape, k)) - len(removable_boxes(shape, k))
            weight = weight_of(shape).get(k, 0)
            commutator = ek_f - f_ek
            ok = commutator == basis.scale(Rational(eigenvalue))
            ok = ok and eigenvalue == box_count == weight
            eigen.record(ok, "k={}, shape={}", k, shape)
            for l in indices:
                if l != k:
                    lhs = hecke_e(k, f_once[l]) - hecke_f(l, e_once[k])
                    ef_comm.record(lhs.is_zero(), "k={}, l={}, shape={}", k, l, shape)
                if abs(l - k) >= 2:
                    ee = hecke_e(k, e_once[l]) - hecke_e(l, e_once[k])
                    ff = hecke_f(k, f_once[l]) - hecke_f(l, f_once[k])
                    distant.record(ee.is_zero() and ff.is_zero(), "k={}, l={}, shape={}", k, l, shape)
            for j in (k - 1, k + 1):
                e_side = ad2(hecke_e, e_once, k, j)
                f_side = ad2(hecke_f, f_once, k, j)
                serre.record(e_side.is_zero() and f_side.is_zero(), "k={}, j={}, shape={}", k, j, shape)
    vacuum_class = QuiverClass.unit(Partition())
    for k in indices:
        highest.record(hecke_e(k, vacuum_class).is_zero(), "k={}", k)
    for shape in partitions_up_to(max(max_size, 10)):
        dimension.record(
            point_variety_dimension(dimension_vector(shape)) == 0, "shape={}", shape
        )
    return [
        ef_comm.result(),
        eigen.result(),
        serre.result(),
        distant.result(),
        highest.result(),
        dimension.result(),
    ]


def orthonormality_suite(max_size: int = 8, max_index: int = 4) -> list[CheckResult]:
    """All four pairings: Schur, power-sum, point-class, and geometric power-sum."""
    rows = [  # (check, basis vector of a shape, pairing, its value on the diagonal)
        (_Check("schur-orthonormality"), schur, hall_form, lambda shape: 1),
        (_Check("power-sum-pairing"), power_sum, hall_form, z_factor),
        (_Check("point-class-orthonormality"), normalized_class, bilinear_form, lambda shape: 1),
        (_Check("geometric-power-sum-pairing"), power_sum_class, bilinear_form, z_factor),
    ]
    for n in range(max_size + 1):
        shapes = partitions_of(n)
        for check, basis, pairing, diagonal in rows:
            vectors = {shape: basis(shape) for shape in shapes}
            for a in shapes:
                for b in shapes:
                    expected = diagonal(a) if a == b else 0
                    check.record(pairing(vectors[a], vectors[b]) == expected, "pair=({}, {})", a, b)
    return [check.result() for check, *_ in rows]


def correspondence_suite(max_size: int = 8, max_index: int = 4, charge_bound: int = 2) -> list[CheckResult]:
    """The dictionary: Schur values from the character table against the
    Jacobi-Trudi determinant and its dual, the Schur-expansion rebuild,
    intertwining of alpha_n with the oscillators, and form preservation."""
    shapes = partitions_up_to(max_size)
    two_route = _Check("schur-two-determinants")
    for shape in shapes:
        narrow, dual = schur_jacobi_trudi(shape), schur_dual_jacobi_trudi(shape)
        two_route.record(schur(shape) == narrow == dual, "shape={}", shape)
    rebuild = _Check("schur-expand-rebuild")
    for shape in shapes:
        f = power_sum(shape)
        rebuilt = BosonPolynomial.zero()
        for out_shape, coeff in schur_expand(f).items():
            rebuilt = rebuilt + schur(out_shape).scale(coeff)
        rebuild.record(rebuilt == f, "shape={}", shape)
    intertwine = _Check("oscillator-intertwining")
    for m in _charges(charge_bound):
        for shape in shapes:
            state = basis_state(m, shape)
            image = sigma(state)
            for n in range(-max_index, max_index + 1):
                intertwine.record(
                    sigma(alpha(n, state)) == oscillator(n, image),
                    "n={}, state=phi{}@{}", n, shape, m,
                )
    bijection = _Check("schur-basis-bijection")
    for shape in shapes:
        bijection.record(schur_expand(schur(shape)) == {shape: 1}, "shape={}", shape)
    forms = _Check("form-preservation")
    states = {shape: basis_state(0, shape) for shape in shapes}
    images = {shape: sigma(state) for shape, state in states.items()}
    for a in shapes:
        for b in shapes:
            forms.record(
                fermion.hermitian_form(states[a], states[b]) == hall_form(images[a], images[b]),
                "pair=({}, {})", a, b,
            )
    return [two_route.result(), rebuild.result(), intertwine.result(), bijection.result(), forms.result()]


def commuting_square_suite(max_size: int = 8, max_index: int = 4) -> list[CheckResult]:
    """tau/eta/phi: intertwining, isometry, bijectivity, and the square itself."""
    square = _Check("full-square")
    intertwine = _Check("tau-intertwining")
    isometry = _Check("eta-isometry")
    inverse = _Check("eta-inverse")
    grading = _Check("tau-energy-grading")
    for shape in partitions_up_to(max_size):
        state = basis_state(0, shape)
        square.record(
            phi(eta(tau(state))) == sigma(state), "shape={}", shape
        )
        grading.record(tau(state) == QuiverClass.graded_unit(shape), "shape={}", shape)
        for k in range(-max_index, max_index + 1):
            lhs_e = tau(chevalley_e(k, state))
            rhs_e = hecke_e(k, tau(state))
            lhs_f = tau(chevalley_f(k, state))
            rhs_f = hecke_f(k, tau(state))
            intertwine.record(lhs_e == rhs_e and lhs_f == rhs_f, "k={}, shape={}", k, shape)
    for n in range(max_size + 1):
        shapes = partitions_of(n)
        for a in shapes:
            ca = QuiverClass.graded_unit(a)
            inverse.record(
                eta_inverse(eta(ca)) == ca and eta(eta_inverse(normalized_class(a))) == normalized_class(a),
                "shape={}", a,
            )
            for b in shapes:
                cb = QuiverClass.graded_unit(b)
                lhs = bilinear_form(eta(ca), eta(cb))
                isometry.record(
                    lhs == TScalar.monomial(quiver_form(ca, cb)), "pair=({}, {})", a, b
                )
    return [square.result(), intertwine.result(), isometry.result(), inverse.result(), grading.result()]


def c2_toy_suite(max_size: int = 8, max_index: int = 4) -> list[CheckResult]:
    """The one-fixed-point model of the plane pins the weight convention."""
    check = _Check("c2-toy")
    check.record(c2_toy_check(), "standard convention")
    check.record(not c2_toy_check(curve_weight=1), "flipped convention should fail")
    model = c2_toy_model()
    check.record(model["tangent_euler"] == TScalar.monomial(-1, 2), "tangent Euler class")
    return [check.result()]


def euler_suite(max_size: int = 10, max_index: int = 4) -> list[CheckResult]:
    """The closed-form Euler classes and push/pull against the product over
    the boxes of the tangent weights (hook * t)(-hook * t)."""
    closed = _Check("euler-closed-form")
    pushpull = _Check("pullback-of-pushforward")
    for shape in partitions_up_to(max_size):
        by_boxes = TScalar.one()
        for box in boxes(shape):
            h = hook(shape, box)
            by_boxes = by_boxes * TScalar.monomial(h, 1) * TScalar.monomial(-h, 1)
        closed.record(euler_class(shape) == by_boxes, "shape={}", shape)
        if shape.size() <= 8:
            pushed = geometry.pushforward(shape, TScalar.one())
            ok = geometry.pullback(pushed, shape) == by_boxes
            ok = ok and geometry.integrate(pushed) == TScalar.one()
            pushpull.record(ok, "shape={}", shape)
    return [closed.result(), pushpull.result()]


SUITES = {
    "clifford": clifford_suite,
    "heisenberg-fermion": heisenberg_fermion_suite,
    "heisenberg-boson": heisenberg_boson_suite,
    "heisenberg-geometric": heisenberg_geometric_suite,
    "serre": serre_suite,
    "orthonormality": orthonormality_suite,
    "correspondence": correspondence_suite,
    "commuting-square": commuting_square_suite,
    "c2-toy": c2_toy_suite,
    "euler": euler_suite,
}


# The largest grid size, operator index and charge bound of run_suite: the
# degree up to which the dictionary suites have Schur data at all.
MAX_GRID = MAX_SCHUR_DEGREE


def run_suite(
    name: str,
    max_size: int | None = None,
    max_index: int | None = None,
    charge_bound: int | None = None,
) -> list[CheckResult]:
    """Run one suite, or every suite for "all".  An argument left out takes
    the suite's own default, and a suite gets only the arguments its signature
    names.  ValueError on a negative argument or one above MAX_GRID, and on a
    grid so small that some check ran nothing, naming every such check."""
    given = {"max_size": max_size, "max_index": max_index, "charge_bound": charge_bound}
    for key, value in given.items():
        if value is not None and value < 0:
            raise ValueError(f"{key} must be at least 0, got {value}")
        if value is not None and value > MAX_GRID:
            raise ValueError(f"{key} must be at most {MAX_GRID}, got {value}")
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join([*SUITES, 'all'])}")
    results = []
    for suite in SUITES if name == "all" else [name]:
        accepted = inspect.signature(SUITES[suite]).parameters
        results.extend(SUITES[suite](**{
            key: value for key, value in given.items() if value is not None and key in accepted
        }))
    empty = [r.name for r in results if r.checked == 0]
    if empty:  # a check that ran nothing would report a vacuous PASS
        raise ValueError(f"the grid is too small: {', '.join(empty)} checked nothing")
    return results


def report_json(results: list[CheckResult]) -> dict:
    return {
        "backend": Rational.__module__,
        "passed": all(r.passed for r in results),
        "checks": [r.to_json() for r in results],
    }
