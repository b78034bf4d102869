"""Exact verification sweeps behind the `verify` CLI subcommand and the
acceptance tests.  Every suite is a plain function of the grid arguments it
names, and returns one CheckResult per check: the record its sweep counted
into, which keeps the first counterexample as its witness."""

from . import fermion, geometry
from .boson import (
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
    euler_class,
    eta,
    eta_inverse,
    fundamental_class,
    geometric_boson,
    hecke_e,
    hecke_f,
    normalized_class,
    phi,
    phi_inverse,
    point_variety_dimension,
    power_sum_class,
    pullback,
    quiver_form,
    tau,
    weight_of,
)
from .partitions import (
    MAX_SCHUR_DEGREE,
    Partition,
    conjugate,
    dimension_vector,
    move_box,
    partitions_of,
    partitions_up_to,
    z_factor,
)
from .correspondence import sigma, sigma_inverse
from .scalars import Rational, TScalar


class CheckResult:
    """One check of a sweep: its name, how many instances it has checked, and
    the first counterexample, formatted only when it is found."""

    __slots__ = ("name", "checked", "counterexample")

    def __init__(self, name: str):
        self.name = name
        self.checked = 0
        self.counterexample = None

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    def record(self, ok: bool, template: str, *args) -> None:
        """Count one check; on the first failure, format the witness
        template.format(*args), so passing checks format nothing."""
        self.checked += 1
        if not ok and self.counterexample is None:
            self.counterexample = template.format(*args)

    def record_row(self, lhs: list, rhs: list, indices, template: str, *args) -> None:
        """Count one check per index of a row, lhs[i] == rhs[i] at indices[i].
        The two rows are compared once; only a row that differs is recorded
        index by index, with the witness template.format(index, *args)."""
        if lhs == rhs:
            self.checked += len(lhs)
        else:
            for index, left, right in zip(indices, lhs, rhs):
                self.record(left == right, template, index, *args)

    def to_json(self) -> dict:
        data = {"name": self.name, "passed": self.passed, "checked": self.checked}
        if self.counterexample is not None:
            data["counterexample"] = self.counterexample
        return data

    def __str__(self) -> str:
        line = f"{'PASS' if self.passed else 'FAIL'} {self.name} (checked={self.checked})"
        return line if self.passed else f"{line} counterexample: {self.counterexample}"


def _charges(bound: int) -> range:
    return range(-bound, bound + 1)


def _coefficient_rows(images: list) -> dict:
    """{monomial: [its coefficient in images[i] for each i]} over the monomials
    the images hold; a monomial none holds has the row of zeros."""
    rows = {}
    width = len(images)
    for i, image in enumerate(images):
        for mono, c in image.terms.items():
            row = rows.get(mono)
            if row is None:
                row = rows[mono] = [0] * width
            row[i] = c
    return rows


def _hit(image: FermionState):
    """The one term (monomial, coefficient) of psi or psi* of a basis
    monomial, or None where it vanishes."""
    for term in image.terms.items():
        return term
    return None


def _opposite(a, b) -> bool:
    """a == -b for two hits."""
    if a is None or b is None:
        return a is b
    return a[0] == b[0] and a[1] == -b[1]


def _row(column: list, target) -> list:
    """<target| op_j |mono> for each j, read off the column of mono."""
    return [0 if hit is None or hit[0] != target else hit[1] for hit in column]


def clifford_suite(max_size: int = 6, max_index: int = 5, charge_bound: int = 2) -> list[CheckResult]:
    """Anticommutation relations of the wedging/contracting operators.

    psi and psi* are read as matrices on the basis monomials: the column of
    a monomial w, op(j, w) for every index j, is built once, by the operators
    themselves, and every product is composed from columns by linearity.  An
    operator moves the charge by one, so the sweep over charge block m keeps
    the columns of charges m - 1 to m + 1 only."""
    anti = CheckResult("clifford-anticommutators")
    adjoint = CheckResult("psi-adjointness")
    shift = CheckResult("charge-shift")
    vac_ann = CheckResult("vacuum-annihilation")
    shapes = partitions_up_to(max_size)
    indices = range(-max_index, max_index + 1)
    width = len(indices)
    table = {}  # monomial -> (its psi column, its psi* column), for the charges in the window

    def columns(mono):
        pair = table.get(mono)
        if pair is None:
            state = FermionState._make({mono: 1})
            pair = table[mono] = (
                [_hit(psi(j, state)) for j in indices], [_hit(psi_star(j, state)) for j in indices]
            )
        return pair

    nowhere = [None] * width

    def then(hits: list, which: int) -> list:
        """For each hit (target, c), the hits of op_i on it for every index i,
        op's column being columns(target)[which]: by linearity, c op_i(target)."""
        return [
            nowhere if hit is None else [None if h is None else (h[0], hit[1] * h[1]) for h in columns(hit[0])[which]]
            for hit in hits
        ]

    blocks = [[basis_state(m, shape) for shape in shapes] for m in _charges(charge_bound)]
    for m, block, above in zip(_charges(charge_bound), blocks, [*blocks[1:], None]):
        for state in block:
            (mono,) = state.terms
            up, down = columns(mono)
            # psi_psi[j][i] = psi_i psi_j v, star_of_psi[i][j] = psi*_j psi_i v, and so on
            psi_psi, star_of_psi = then(up, 0), then(up, 1)
            star_star, psi_of_star = then(down, 1), then(down, 0)
            for i in range(width):
                for j in range(width):
                    # {psi_i, psi_j} = 0 and {psi*_i, psi*_j} = 0, read alike at (i, j) and (j, i)
                    symmetric = (_opposite(psi_psi[j][i], psi_psi[i][j])
                                 and _opposite(star_star[j][i], star_star[i][j]))
                    if i == j:
                        a, b = psi_of_star[i][i], star_of_psi[i][i]
                        if a is None or b is None:
                            ok = (a or b) == (mono, 1)
                        else:
                            ok = a[0] == b[0] == mono and a[1] + b[1] == 1
                    else:
                        ok = _opposite(psi_of_star[j][i], star_of_psi[i][j])
                    anti.record(ok and symmetric, "i={}, j={}, state={}", indices[i], indices[j], state)
            for j, hit_up, hit_down in zip(indices, up, down):
                ok = hit_up is None or hit_up[0].charge == m + 1
                ok = ok and (hit_down is None or hit_down[0].charge == m - 1)
                shift.record(ok, "j={}, state={}", j, state)
        # cross-charge pairs vanish on both sides (charge shift is checked above),
        # so adjointness pairs charge m with charge m + 1 only.  A pair whose
        # columns do not reach each other has two rows of zeros; only the pairs
        # the columns connect are read, in the order of the grid
        if above is not None:
            position = {}
            reached = {}  # monomial of charge m -> positions in above of the states whose psi* reaches it
            for k, state in enumerate(above):
                (mono,) = state.terms
                position[mono] = k
                for hit in columns(mono)[1]:
                    if hit is not None:
                        reached.setdefault(hit[0], set()).add(k)
            for state in block:
                (left,) = state.terms
                up = columns(left)[0]
                pairs = reached.get(left, set()) | {
                    position[hit[0]] for hit in up if hit is not None and hit[0] in position
                }
                for k in sorted(pairs):
                    (right,) = above[k].terms
                    adjoint.record_row(
                        _row(up, right), _row(columns(right)[1], left),
                        indices, "j={}, pair=({}, {})", state, above[k],
                    )
                adjoint.checked += width * (len(above) - len(pairs))
        (vac,) = fermion.vacuum(m).terms
        up, down = columns(vac)
        for j, hit_up, hit_down in zip(indices, up, down):
            ok = hit_up is None if j <= m else hit_up is not None
            ok = ok and (hit_down is None if j > m else hit_down is not None)
            vac_ann.record(ok, "j={}, charge={}", j, m)
        table = {mono: pair for mono, pair in table.items() if mono.charge >= m}
    return [anti, adjoint, shift, vac_ann]


def _heisenberg(check: CheckResult, op, items, indices: range, template: str) -> list[dict]:
    """[A_k, A_l] = k * delta_{k,-l} with A_l = op(l, .) on each (label, value)
    of items.  Each A_l value and each product A_k A_l is built once; returns
    the tables {l: A_l value}, one per item, for the checks that read them."""
    tables = []
    for label, value in items:
        once = {l: op(l, value) for l in indices}
        twice = {(k, l): op(k, once[l]) for k in indices for l in indices}
        for k in indices:
            for l in indices:
                if k == -l:
                    ok = twice[k, l] - twice[l, k] == value.scale(k)
                else:
                    ok = twice[k, l] == twice[l, k]
                check.record(ok, template, k, l, label)
        tables.append(once)
    return tables


def heisenberg_fermion_suite(max_size: int = 8, max_index: int = 4, charge_bound: int = 2) -> list[CheckResult]:
    """Free-boson commutators on the wedge space and the charge action of alpha_0."""
    comm = CheckResult("alpha-commutators")
    charge_action = CheckResult("alpha0-charge")
    adjoint = CheckResult("alpha-adjointness")
    states = [basis_state(0, shape) for shape in partitions_up_to(max_size)]
    indices = range(-max_index, max_index + 1)
    images = _heisenberg(comm, alpha, [(state, state) for state in states], indices, "k={}, l={}, state={}")
    for m in _charges(charge_bound):
        for shape in partitions_up_to(min(max_size, 4)):
            state = basis_state(m, shape)
            charge_action.record(alpha(0, state) == state.scale(m), "state={}", state)
    raising = range(1, max_index + 1)
    lowered = [_coefficient_rows([once[-k] for k in raising]) for once in images]
    raised = [_coefficient_rows([once[k] for k in raising]) for once in images]
    zeros = [0] * len(raising)
    for left, lowered_rows in zip(states, lowered):
        (left_mono,) = left.terms
        for right, raised_rows in zip(states, raised):
            (right_mono,) = right.terms
            adjoint.record_row(
                lowered_rows.get(right_mono, zeros), raised_rows.get(left_mono, zeros),
                raising, "k={}, pair=({}, {})", left, right,
            )
    return [comm, charge_action, adjoint]


def heisenberg_boson_suite(max_size: int = 8, max_index: int = 4) -> list[CheckResult]:
    """Oscillator commutators on the polynomial side."""
    comm = CheckResult("oscillator-commutators")
    monomials = [power_sum(shape) for shape in partitions_up_to(max_size)]
    indices = range(-max_index, max_index + 1)
    _heisenberg(comm, oscillator, [(f, f) for f in monomials], indices, "k={}, l={}, monomial={}")
    return [comm]


def _boson_term(k: int, beta: LocalizedClass) -> LocalizedClass:
    """p_k beta, or the zero class of degree n - k where p_k underflows."""
    try:
        return geometric_boson(k, beta)
    except DegreeUnderflow:
        return LocalizedClass.zero(beta.n - k)


TRANSPORT_SIZE = 4  # heisenberg-geometric checks the transport on the shapes up to this size


def heisenberg_geometric_suite(max_size: int = 8, max_index: int = 4) -> list[CheckResult]:
    """Heisenberg relations and adjointness for the ribbon-rule operators, and
    their agreement with the oscillator transported through phi."""
    comm = CheckResult("geometric-boson-commutators")
    adjoint = CheckResult("geometric-boson-adjointness")
    transport = CheckResult("geometric-boson-transport")
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
    for shape in partitions_up_to(min(max_size, TRANSPORT_SIZE)):
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
    return [comm, adjoint, transport]


def serre_suite(max_size: int = 8, max_index: int = 4) -> list[CheckResult]:
    """Chevalley-Serre presentation for the box-adding and box-removing operators."""
    ef_comm = CheckResult("ef-commutators")
    eigen = CheckResult("cartan-eigenvalues")
    serre = CheckResult("serre-relations")
    distant = CheckResult("distant-commutation")
    highest = CheckResult("highest-weight")
    dimension = CheckResult("point-dimension-formula")
    shapes = partitions_up_to(max_size)
    indices = range(-max_index, max_index + 1)
    reach = range(-max_index - 1, max_index + 2)  # and the Serre neighbours k - 1, k + 1

    def serre_holds(op, once, a, b):  # op_a op_a op_b + op_b op_a op_a == 2 op_a op_b op_a, op_c = once[c]
        return op(a, op(a, once[b])) + op(b, op(a, once[a])) == op(a, op(b, once[a])).scale(2)

    for shape in shapes:
        basis = QuiverClass.graded_unit(shape)
        weights = weight_of(shape)
        e_once = {k: hecke_e(k, basis) for k in reach}
        f_once = {k: hecke_f(k, basis) for k in reach}
        for k in indices:
            ek_f = hecke_e(k, f_once[k])
            f_ek = hecke_f(k, e_once[k])
            weight = weights.get(k, 0)
            box_count = (move_box(shape, k, 1) is not None) - (move_box(shape, k, -1) is not None)
            ok = ek_f == f_ek + basis.scale(weight) and weight == box_count
            eigen.record(ok, "k={}, shape={}", k, shape)
            for l in indices:
                if l != k:
                    ok = hecke_e(k, f_once[l]) == hecke_f(l, e_once[k])
                    ef_comm.record(ok, "k={}, l={}, shape={}", k, l, shape)
                if abs(l - k) >= 2:
                    ee = hecke_e(k, e_once[l]) == hecke_e(l, e_once[k])
                    ff = hecke_f(k, f_once[l]) == hecke_f(l, f_once[k])
                    distant.record(ee and ff, "k={}, l={}, shape={}", k, l, shape)
            for j in (k - 1, k + 1):
                e_holds = serre_holds(hecke_e, e_once, k, j)
                f_holds = serre_holds(hecke_f, f_once, k, j)
                serre.record(e_holds and f_holds, "k={}, j={}, shape={}", k, j, shape)
    vacuum_class = QuiverClass.unit(Partition())
    for k in indices:
        highest.record(hecke_e(k, vacuum_class).is_zero(), "k={}", k)
    for shape in partitions_up_to(max(max_size, 10)):
        dimension.record(
            point_variety_dimension(dimension_vector(shape)) == 0, "shape={}", shape
        )
    return [ef_comm, eigen, serre, distant, highest, dimension]


def orthonormality_suite(max_size: int = 8) -> list[CheckResult]:
    """All four pairings: Schur, power-sum, point-class, and geometric power-sum;
    and phi of each geometric power-sum class against the monomial p_mu."""
    rows = [  # (check, basis vector of a shape, pairing, its value on the diagonal)
        (CheckResult("schur-orthonormality"), schur, hall_form, lambda shape: 1),
        (CheckResult("power-sum-pairing"), power_sum, hall_form, z_factor),
        (CheckResult("point-class-orthonormality"), normalized_class, bilinear_form, lambda shape: 1),
        (CheckResult("geometric-power-sum-pairing"), power_sum_class, bilinear_form, z_factor),
    ]
    image = CheckResult("geometric-power-sum-image")
    for n in range(max_size + 1):
        shapes = partitions_of(n)
        built = {}
        for check, basis, pairing, diagonal in rows:
            vectors = built[basis] = {shape: basis(shape) for shape in shapes}
            for a in shapes:
                for b in shapes:
                    expected = diagonal(a) if a == b else 0
                    check.record(pairing(vectors[a], vectors[b]) == expected, "pair=({}, {})", a, b)
        # the pairing is bilinear in the class, so it cannot see a sign; phi can
        for shape, beta in built[power_sum_class].items():
            image.record(phi(beta) == power_sum(shape), "shape={}", shape)
    return [*(check for check, *_ in rows), image]


def correspondence_suite(max_size: int = 8, max_index: int = 4, charge_bound: int = 2) -> list[CheckResult]:
    """The dictionary: Schur values from the character table against the
    Jacobi-Trudi determinant and its dual, the Schur-expansion rebuild,
    intertwining of alpha_n with the oscillators, and form preservation."""
    shapes = partitions_up_to(max_size)
    two_route = CheckResult("schur-two-determinants")
    for shape in shapes:
        narrow, dual = schur_jacobi_trudi(shape), schur_dual_jacobi_trudi(shape)
        two_route.record(schur(shape) == narrow == dual, "shape={}", shape)
    rebuild = CheckResult("schur-expand-rebuild")
    for shape in shapes:
        f = power_sum(shape)
        # the sum of c * S_out through the values' own scale and +, off from_schur
        terms = [schur(out).scale(c) for out, c in schur_expand(f).items()]
        rebuilt = sum(terms[1:], terms[0])
        rebuild.record(rebuilt == f, "shape={}", shape)
    intertwine = CheckResult("oscillator-intertwining")
    for m in _charges(charge_bound):
        for shape in shapes:
            state = basis_state(m, shape)
            image = sigma(state)
            for n in range(-max_index, max_index + 1):
                intertwine.record(
                    sigma(alpha(n, state)) == oscillator(n, image),
                    "n={}, state=phi{}@{}", n, shape, m,
                )
    states = {shape: basis_state(0, shape) for shape in shapes}
    images = {shape: sigma(state) for shape, state in states.items()}
    bijection = CheckResult("schur-basis-bijection")
    for shape in shapes:
        ok = schur_expand(schur(shape)) == {shape: 1} and sigma_inverse(images[shape]) == states[shape]
        bijection.record(ok, "shape={}", shape)
    forms = CheckResult("form-preservation")
    for a in shapes:
        for b in shapes:
            forms.record(
                fermion.hermitian_form(states[a], states[b]) == hall_form(images[a], images[b]),
                "pair=({}, {})", a, b,
            )
    return [two_route, rebuild, intertwine, bijection, forms]


def commuting_square_suite(max_size: int = 8, max_index: int = 4) -> list[CheckResult]:
    """tau/eta/phi: intertwining, isometry, bijectivity, and the square itself."""
    square = CheckResult("full-square")
    intertwine = CheckResult("tau-intertwining")
    isometry = CheckResult("eta-isometry")
    inverse = CheckResult("eta-inverse")
    grading = CheckResult("tau-energy-grading")
    for shape in partitions_up_to(max_size):
        state = basis_state(0, shape)
        unit = tau(state)
        square.record(phi(eta(unit)) == sigma(state), "shape={}", shape)
        grading.record(unit == QuiverClass.graded_unit(shape), "shape={}", shape)
        for k in range(-max_index, max_index + 1):
            lhs_e, rhs_e = tau(chevalley_e(k, state)), hecke_e(k, unit)
            lhs_f, rhs_f = tau(chevalley_f(k, state)), hecke_f(k, unit)
            intertwine.record(lhs_e == rhs_e and lhs_f == rhs_f, "k={}, shape={}", k, shape)
    for n in range(max_size + 1):
        shapes = partitions_of(n)
        units = {shape: QuiverClass.graded_unit(shape) for shape in shapes}
        images = {shape: eta(unit) for shape, unit in units.items()}
        for a in shapes:
            ca, beta = units[a], normalized_class(a)
            # eta writes c * h directly; the normalized class goes through the Schur-coordinate writer
            ok = images[a] == beta and eta_inverse(images[a]) == ca and eta(eta_inverse(beta)) == beta
            inverse.record(ok, "shape={}", a)
            for b in shapes:
                lhs = bilinear_form(images[a], images[b])
                isometry.record(
                    lhs == TScalar.monomial(quiver_form(ca, units[b])), "pair=({}, {})", a, b
                )
    return [square, intertwine, isometry, inverse, grading]


def c2_toy_suite() -> list[CheckResult]:
    """X_1 is the plane with its one fixed point [1]: tangent weight -1 along
    the distinguished curve and 1 normal to it.  The curve class is the
    normalized class of [1]; it restricts to its normal Euler class t, which
    is -t^-1 times the point class.  Under the flipped weights it would
    restrict to -t."""
    check = CheckResult("c2-toy")
    point = Partition((1,))
    curve = normalized_class(point)
    check.record(curve == fundamental_class(point).scale(TScalar.monomial(-1, -1)), "standard convention")
    check.record(pullback(curve, point) != TScalar.monomial(-1, 1), "flipped convention should fail")
    check.record(euler_class(point) == TScalar.monomial(-1, 2), "tangent Euler class")
    return [check]


def euler_suite(max_size: int = 10) -> list[CheckResult]:
    """The closed-form Euler classes and push/pull against the product over
    the boxes of the tangent weights (hook * t)(-hook * t).  Each hook is read
    off the diagram and its conjugate, not from the arm and leg product of
    hook_product, which the closed form reads."""
    closed = CheckResult("euler-closed-form")
    pushpull = CheckResult("pullback-of-pushforward")
    for shape in partitions_up_to(max_size):
        columns = conjugate(shape)
        by_boxes = TScalar.one()
        for row, length in enumerate(shape):
            for col in range(length):
                h = (length - col) + (columns.part(col) - row) - 1
                by_boxes = by_boxes * TScalar.monomial(h, 1) * TScalar.monomial(-h, 1)
        closed.record(euler_class(shape) == by_boxes, "shape={}", shape)
        if shape.size() <= 8:
            pushed = geometry.pushforward(shape, TScalar.one())
            ok = geometry.pullback(pushed, shape) == by_boxes
            ok = ok and geometry.integrate(pushed) == TScalar.one()
            pushpull.record(ok, "shape={}", shape)
    return [closed, pushpull]


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


# The largest value of each grid argument of run_suite.  Two suites read
# Schur data above max_size; SCHUR_REACH bounds the degree they reach.
MAX_GRID = MAX_SCHUR_DEGREE

# (formula, value on the grid arguments) of the highest Schur degree a suite
# reads, where it is above max_size: sigma of the alpha_{-n} images in
# correspondence, phi_inverse of the transport images in heisenberg-geometric.
SCHUR_REACH = {
    "heisenberg-geometric": (f"min(max_size, {TRANSPORT_SIZE}) + max_index",
                             lambda grid: min(grid["max_size"], TRANSPORT_SIZE) + grid["max_index"]),
    "correspondence": ("max_size + max_index", lambda grid: grid["max_size"] + grid["max_index"]),
}


def _arguments(suite, given: dict) -> dict:
    """The grid arguments a suite runs with: each parameter, read off the
    suite's code object, takes its given value or else its default."""
    names = suite.__code__.co_varnames[:suite.__code__.co_argcount]
    defaults = dict(zip(reversed(names), reversed(suite.__defaults__ or ())))
    return {key: defaults[key] if given[key] is None else given[key] for key in names}


def run_suite(
    name: str,
    max_size: int | None = None,
    max_index: int | None = None,
    charge_bound: int | None = None,
) -> list[CheckResult]:
    """Run one suite, or every suite for "all".  An argument left out takes
    the suite's own default, and a suite gets only the arguments its
    parameters name.  ValueError, before any suite runs, on a negative
    argument or one above MAX_GRID and on a grid whose Schur data would
    reach past MAX_SCHUR_DEGREE; after the suites, on a grid so small that
    some check ran nothing, naming every such check.  A suite that raises
    an Exception other than MemoryError gives one FAIL row, named after the
    suite, in place of its checks, and the run goes on; a run with such a
    row is returned even when some check ran nothing."""
    given = {"max_size": max_size, "max_index": max_index, "charge_bound": charge_bound}
    for key, value in given.items():
        if value is not None and value < 0:
            raise ValueError(f"{key} must be at least 0, got {value}")
        if value is not None and value > MAX_GRID:
            raise ValueError(f"{key} must be at most {MAX_GRID}, got {value}")
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join([*SUITES, 'all'])}")
    runs = [(suite, _arguments(SUITES[suite], given)) for suite in (SUITES if name == "all" else [name])]
    for suite, arguments in runs:
        formula, reach = SCHUR_REACH.get(suite, ("", lambda grid: 0))
        if reach(arguments) > MAX_SCHUR_DEGREE:
            raise ValueError(f"{formula} must be at most {MAX_SCHUR_DEGREE} for {suite}, got {reach(arguments)}")
    results = []
    faulted = False
    for suite, arguments in runs:
        try:
            results += SUITES[suite](**arguments)
        except MemoryError:
            raise
        except Exception as exc:  # a kernel fault: the suite's one FAIL row, and on to the next suite
            results.append(_fault(suite, exc))
            faulted = True
    empty = [r.name for r in results if r.checked == 0]
    if empty and not faulted:  # a check that ran nothing would report a vacuous PASS
        raise ValueError(f"the grid is too small: {', '.join(empty)} checked nothing")
    return results


def _fault(suite: str, exc: Exception) -> CheckResult:
    """The FAIL row of a suite that raised exc: the exception's type and
    message, and the innermost function of the package it passed through
    (a comprehension or generator expression counts as the function that
    holds it)."""
    tb = exc.__traceback__  # from run_suite's own frame inward
    while tb is not None:
        frame, tb = tb.tb_frame, tb.tb_next
        if frame.f_globals.get("__name__", "").startswith(f"{__package__}.") and frame.f_code.co_name[0] != "<":
            where = frame
    module = where.f_globals["__name__"].removeprefix(f"{__package__}.")
    row = CheckResult(suite)
    row.counterexample = f"{type(exc).__name__}: {exc} (raised in {module}.{where.f_code.co_name})"
    return row


def report_json(results: list[CheckResult]) -> dict:
    return {
        "backend": Rational.__module__,
        "passed": all(r.passed for r in results),
        "checks": [r.to_json() for r in results],
    }
