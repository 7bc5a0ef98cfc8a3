"""Number fields presented as Q[T]/(f): the CM field of an admissible Weil
polynomial, trace forms twisted by a totally real scalar, signature-targeted
scalar search, Eisenstein extension towers over imaginary quadratic fields,
completion-degree certification and the CM-to-K3-lattice complement step.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from ._linalg import symmetric_pivots
from .exactpoly import (
    DomainError,
    Poly,
    SquareClass,
    SturmChain,
    _zz_add,
    _zz_mul,
    _zz_sub,
    discriminant,
    rat_to_str,
    square_class,
    sturm_count,
    trace_power_sums,
)
from .padicpoly import SlopeOutcome, negative_part_verdict, newton_polygon
from .qform import (
    GramMatrix,
    QFormInvariants,
    QSpace,
    admissible,
    complement_invariants,
    construct_with_invariants,
    invariants,
    k3_invariants,
    pivot_invariants,
)
from .weilcheck import PropertyVerdict, Status


# ---------------------------------------------------------------------------
# number fields and modular arithmetic in Q[T]/(f)


@dataclass(frozen=True)
class NumberField:
    """Q[T]/(defining), of the degree of `defining`."""

    defining: Poly  # monic irreducible
    real_embeddings: int

    @property
    def degree(self) -> int:
        return self.defining.degree()

    @functools.cached_property
    def chain(self) -> SturmChain:
        """The Sturm chain of `defining`, for `find_lambda`; `weil_field` sets it."""
        return SturmChain(self.defining)

    def to_json(self) -> dict:
        return {
            "defining": self.defining.to_strs(),
            "degree": self.degree,
            "real_embeddings": self.real_embeddings,
        }


# ---------------------------------------------------------------------------
# the CM field of an admissible Q


@dataclass(frozen=True)
class CMData:
    field: NumberField
    real_subfield: NumberField
    conj: Poly  # complex conjugation as a polynomial residue (gamma -> 1/gamma)

    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "real_subfield": self.real_subfield.to_json(),
            "beta_minpoly": self.real_subfield.defining.to_strs(),
            "conj": self.conj.to_strs(),
        }


def weil_field(Q: Poly, chain: SturmChain) -> CMData:
    """The CM field E = Q[T]/(f), f = Q.monic(), generated by a reciprocal
    root gamma of Q, with its totally real subfield Q(beta), beta =
    gamma + 1/gamma, and complex conjugation gamma -> 1/gamma.

    Q is the `Q` of a report whose five verdicts pass, and `chain` is the
    `WeilCandidate.chain` of its L = Q^e: `pipeline.run` and
    `revalidate_certificate` derive the certificate through one function,
    which calls this only on an admissible report.  So nothing is checked
    here; each fact the construction uses holds for that Q:

    - `power_structure` makes Q irreducible, so f has n distinct roots.
    - `unit_circle` and `no_root_of_unity` put every root on the unit circle
      and none at +-1 (the roots of Phi_1 and Phi_2).  So Q has no real
      root and n is even; the roots pair off as gamma, conj(gamma) =
      1/gamma, so f has constant term 1 and is palindromic.
    - beta = 2 Re(gamma) then takes n/2 distinct real values in (-2, 2),
      as the pair {gamma, 1/gamma} is the root set of T^2 - beta*T + 1.
      Its minimal polynomial is the H with f(T) = T^(n/2) * H(T + 1/T) (a
      factor of H would give one of f); the transform of L is a multiple of
      H^e, so H is `chain.squarefree` made monic, and Q(beta), totally real
      of degree n/2, keeps `chain`, which counted its n/2 real roots.
    - gamma -> 1/gamma is complex conjugation in every embedding, an
      involution; as c_0 = 1, 1/gamma = -(c_1 + c_2 gamma + ... +
      gamma^(n-1)).
    """
    f = Q.monic()
    real = NumberField(chain.squarefree.monic(), f.degree() // 2)
    object.__setattr__(real, "chain", chain)  # the value `chain` would cache
    return CMData(field=NumberField(f, 0), real_subfield=real, conj=Poly.from_ints(f.prim[1:], -f.content))


# ---------------------------------------------------------------------------
# extensions of the CM field


@dataclass(frozen=True)
class ExtensionData:
    """A CM extension E of the base field with [E : base] = e, of degree 2d
    over Q for d the degree of its real subfield E+.

    kind "trivial": E equals the base field.
    kind "eisenstein_compositum": the base is imaginary quadratic and E is
    the compositum with E+, cut out by an Eisenstein polynomial with all
    roots real, which the certificate also records as "relative".
    kind "unsupported": the construction regime is out of scope; only the
    reason is recorded.

    `delta` (not in the certificate), in the real subfield E+ as a
    polynomial in its generator x, is totally negative with E =
    E+(sqrt(delta)): x^2 - 4 = beta^2 - 4 for kind "trivial", beta in
    (-2, 2); disc(f) < 0 for the compositum, f the base field's quadratic,
    which has no real root.  Either way sqrt(delta) = gamma - 1/gamma,
    which conj (gamma -> 1/gamma) negates, so it is not in E+.
    """

    kind: str
    e: int
    real_subfield: NumberField | None
    absolute: Poly | None
    trace: dict
    delta: Poly | None = None

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "e": self.e,
            "real_subfield": self.real_subfield.to_json() if self.real_subfield else None,
            "relative": self.real_subfield.defining.to_strs() if self.kind == "eisenstein_compositum" else None,
            "absolute": self.absolute.to_strs() if self.absolute else None,
            "trace": self.trace,
        }


def _absolute_defining(P: Poly, f: Poly) -> Poly:
    """Minimal polynomial over Q of x + gamma, where P(x) = 0 and gamma is a
    root of the quadratic f, on integer lists.

    With n0 + n1*T + n2*T^2 the primitive part of f, delta = n2*gamma is a
    root of delta^2 + n1*delta + n0*n2.  Horner with that relation gives
    P~(W - delta) = A + B*delta over Z[delta], for the integral P~(Y) =
    n2^e * prim(P)(Y / n2), e = deg P, and its norm N(W) = A^2 - n1*A*B +
    n0*n2*B^2.  As P~(n2*Z - delta) = n2^e * P(Z - gamma) / content(P),
    N(n2*Z) * content(P)^2 / n2^(2e) is the norm of P(Z - gamma) over
    Q(gamma): lead(P)^2 times the characteristic polynomial of x + gamma.
    That is minimal: P has e real roots x_s and gamma is not real, so the 2e
    conjugates x_s + gamma_t are pairwise distinct (equal imaginary parts
    force the same gamma_t, then the same x_s) and x + gamma generates E."""
    n0, n1, n2 = f.prim
    e, k = P.degree(), n0 * n2
    a, b = [], []
    for c in reversed([c * n2 ** (e - i) for i, c in enumerate(P.prim)]):
        # (a + b*delta) * (W - delta) + c, with delta^2 = -n1*delta - k
        a, b = _zz_add(_zz_add([0] + a, [k * y for y in b]), [c]), _zz_sub(_zz_add([0] + b, [n1 * y for y in b]), a)
    norm = _zz_add(_zz_sub(_zz_mul(a, a), [n1 * x for x in _zz_mul(a, b)]), [k * x for x in _zz_mul(b, b)])
    return Poly.from_ints([x * n2**i for i, x in enumerate(norm)], P.content**2 / n2 ** (2 * e))


def eisenstein_real_subfield(p: int, e: int) -> tuple[NumberField, int, int]:
    """(Q[X]/(P), M, u) for the first P = prod (X - p*M*i) + p*u, M = 1..256
    and u = 1, -1, with e distinct real roots (Sturm)."""
    for m in range(1, 257):
        product = functools.reduce(_zz_mul, ([-p * m * i, 1] for i in range(1, e + 1)))
        for u in (1, -1):
            P = Poly.from_ints([product[0] + p * u, *product[1:]], 1)
            if sturm_count(P) == e:
                return NumberField(P, e), m, u
    raise ArithmeticError("no Eisenstein polynomial with all-real roots found")


_BETA_SQUARED_MINUS_4 = Poly([-4, 0, 1])


def build_extension(base: CMData, p: int, target_degree: int) -> ExtensionData:
    """Extend the CM field to absolute degree target_degree, keeping a unique
    place of negative valuation; the caller checks that target_degree is a
    multiple of the field's degree (`pipeline.run` raises otherwise).

    Supported regimes: e = 1 (trivial) and imaginary quadratic base (an
    Eisenstein polynomial P = prod (X - p*M*i) + p*u, u in {1,-1}, with M
    grown until Sturm certifies e distinct real roots).  Anything else is
    reported as unsupported rather than risking an unsound construction.

    P is Eisenstein at p for every M >= 1, u and e >= 2, with nothing to
    check: its lower coefficients are elementary symmetric functions of the
    p*M*i, all divisible by p, and its constant term (-p*M)^e * e! + p*u has
    valuation exactly 1.  So P is irreducible, and its real subfield is
    taken from the Sturm count alone.  The absolute polynomial is that of
    x + gamma (`_absolute_defining`), so the certificate's primitive shift
    is always 1.
    """
    e = target_degree // base.field.degree
    if e == 1:
        return ExtensionData(
            kind="trivial",
            e=1,
            real_subfield=base.real_subfield,
            absolute=base.field.defining,
            trace={"note": "extension of degree 1"},
            delta=_BETA_SQUARED_MINUS_4,
        )
    if base.real_subfield.degree == 1:
        real, m, u = eisenstein_real_subfield(p, e)
        f0, f1, _ = base.field.defining.coeffs
        return ExtensionData(
            kind="eisenstein_compositum",
            e=e,
            real_subfield=real,
            absolute=_absolute_defining(real.defining, base.field.defining),
            trace={"M": m, "u": u, "primitive_shift": 1, "real_roots": e, "eisenstein_prime": p},
            delta=Poly([f1 * f1 - 4 * f0]),
        )
    return ExtensionData(
        kind="unsupported",
        e=e,
        real_subfield=None,
        absolute=None,
        trace={"reason": "general totally real base fields are not supported"},
    )


def completion_degree_check(ext: ExtensionData, p: int, expected_h: int) -> PropertyVerdict:
    """Certify that the completion at the distinguished place has degree
    expected_h over Q_p, through the negative part of the Newton polygon of
    the absolute defining polynomial (`pipeline.run` stops before this at
    kind `unsupported`, the only kind without one).

    It always passes for the expected_h = (h / e_L) * ext.e of `pipeline.run`
    (L = Q^e_L admissible, negative part of run h).  Kind "trivial": the
    absolute polynomial is a rational multiple of Q, with Q's residual and
    polygon moved vertically, so its verdict is the `irreducible` that
    `check_all` passed, of negative degree h / e_L.  Kind
    "eisenstein_compositum": the base is Q[T]/(T^2 + c*T + 1), v_p(c) = -a_Q
    < 0, so h / e_L = 1 and its roots rho have valuations +-a_Q.  P is
    Eisenstein of degree e = ext.e >= 2, so its roots x have valuation 1/e <
    a_Q, and x + rho has 1/e where v(rho) = a_Q, -a_Q elsewhere: e reciprocal
    roots of valuation -1/e, one negative segment of run e and slope -1/e,
    with no interior lattice point.
    """
    verdict, negative_degree = negative_part_verdict(ext.absolute, newton_polygon(ext.absolute, p))
    witness = {
        "expected": expected_h,
        "negative_degree": negative_degree,
        "slope_verdict": verdict.to_json(),
    }
    if verdict.value is SlopeOutcome.UNKNOWN:
        return PropertyVerdict(Status.UNKNOWN, witness)
    if negative_degree != expected_h or verdict.value is not SlopeOutcome.IRREDUCIBLE:
        return PropertyVerdict(Status.FAIL, witness)
    return PropertyVerdict(Status.PASS, witness)


# ---------------------------------------------------------------------------
# trace forms


@dataclass(frozen=True)
class TraceForm:
    gram: GramMatrix
    lam: Poly  # element of the real subfield, as a polynomial in its generator

    def to_json(self) -> dict:
        return {"gram": self.gram.to_json(), "lambda": self.lam.to_strs()}

    @functools.cached_property
    def pivots(self) -> tuple[list[int], list[int]]:
        """The pivots (`symmetric_pivots`) of the integer blocks T(2 lambda)
        and T(-2 lambda delta) of the Gram matrix, over `gram.den`, each
        eliminated on its own.  det T(mu) = N(mu) * disc(g), as T(mu) =
        V^t diag(mu(a)) V, V the Vandermonde matrix of the roots a of g: a
        block is degenerate only where lambda or delta vanishes."""
        rows, d = self.gram.rows, len(self.gram.rows) // 2
        try:
            return symmetric_pivots([list(row[:d]) for row in rows[:d]]), symmetric_pivots([list(row[d:]) for row in rows[d:]])
        except DomainError:
            raise DomainError("lambda vanishes at a real embedding") from None


def _hankel_traces(r: Poly, g: Poly, count: int) -> tuple[list[int], int]:
    """t_m = Tr(lambda * x^m) in Q[x]/(g) for m = 0..count-1, as integers
    over one denominator, for lambda = r = c * sum_j l_j x^j with c its
    content and l_j its integer primitive part: t_m = c * sum_j l_j p_(j+m),
    p_k the power sums of the roots of monic g over their one denominator."""
    p, den = trace_power_sums(g, count + r.degree() - 1)
    c = r.content
    return [c.numerator * sum(l * p[j + m] for j, l in enumerate(r.prim)) for m in range(count)], c.denominator * den


def trace_form(ext: ExtensionData, lam: Poly) -> TraceForm:
    """Gram matrix of q_lambda(u, v) = Tr_{E/Q}(lambda * u * conj(v)) on the
    basis x^i, x^i * sqrt(delta), i < d, of E = E+(sqrt(delta)): E+ =
    Q[x]/(g) the real subfield of degree d and delta = `ext.delta`.

    conj fixes E+ and negates sqrt(delta).  So for u = u1 + u2 sqrt(delta)
    and v = v1 + v2 sqrt(delta), lambda * u * conj(v) = lambda (u1 v1 -
    delta u2 v2) + lambda (u2 v1 - u1 v2) sqrt(delta), and the cross terms
    vanish under Tr_{E/E+}, as Tr_{E/E+}(sqrt(delta)) = 0: q_lambda =
    T(2 lambda) + T(-2 lambda delta), orthogonal, where T(mu)(a, b) =
    Tr_{E+/Q}(mu * a * b) is the Hankel form with entries Tr(mu x^(i+k)).
    From t_m = Tr(lambda x^m), one `_hankel_traces` call, the first block
    is 2 t_(i+k) and the second -2 s_(i+k), s_m = sum_j delta_j t_(m+j)
    over delta's coefficients delta_j (delta = c * sum_j delta_j x^j, c its
    content): integers over the traces' denominator times c's."""
    g, delta = ext.real_subfield.defining, ext.delta
    r = lam % g
    if r.is_zero:
        raise DomainError("lambda vanishes")
    d, c = g.degree(), delta.content
    t, den = _hankel_traces(r, g, 2 * d - 1 + delta.degree())
    first = [2 * c.denominator * x for x in t]
    second = [-2 * c.numerator * sum(x * t[m + j] for j, x in enumerate(delta.prim)) for m in range(2 * d - 1)]
    zeros = [0] * d
    rows = [first[i : i + d] + zeros for i in range(d)] + [zeros + second[i : i + d] for i in range(d)]
    return TraceForm(GramMatrix(rows, den * c.denominator), lam)


def disc_identity_check(ext: ExtensionData, det_class: SquareClass) -> PropertyVerdict:
    """det(q_lambda) = (-1)^d * disc(E) in square classes, d the degree of
    E+, for the determinant class of the trace form q_lambda.
    `TraceForm.pivots` eliminates each block by congruences of determinant
    +-1, so the class is that of the blocks' last pivots over den, which
    `pivot_invariants` already holds as `det`; no determinant of the Gram
    matrix is computed here.  `ext.absolute` and `ext.real_subfield` are
    set: `pipeline.run` stops before this at kind `unsupported`.

    Any defining polynomial of E differs from an integral basis by a rational
    change of basis, so its discriminant lies in the same square class as the
    field discriminant; the comparison is therefore unconditional.

    The identity holds exactly when (-1)^d * disc * s is a positive rational
    square, s the signed squarefree value of det_class: in lowest terms its
    numerator and denominator are perfect squares, which `math.isqrt` tells
    without factoring anything.  Then the expected class is det_class; only
    a failure factors (-1)^d * disc for its class, the witness.
    """
    disc = discriminant(ext.absolute)
    signed_disc = (-1) ** ext.real_subfield.degree * disc
    ratio = signed_disc * det_class.sign * det_class.squarefree
    holds = ratio > 0 and all(math.isqrt(n) ** 2 == n for n in (ratio.numerator, ratio.denominator))
    expected = det_class if holds else square_class(signed_disc)
    witness = {
        "trace_form_det_class": str(det_class),
        "expected_class": str(expected),
        "defining_disc": rat_to_str(disc),
    }
    return PropertyVerdict(Status.PASS if holds else Status.FAIL, witness)


# ---------------------------------------------------------------------------
# signatures of totally real elements


def signature_of(form: TraceForm) -> tuple[int, int]:
    """Exact counts of the real embeddings of the real subfield E+ where
    lambda is positive / negative, for the trace form of lambda over a CM
    field whose E+, of degree d, `build_extension` derived: a Sturm chain
    proved it totally real (`weil_field`, `eisenstein_real_subfield`).

    By Hermite's theorem, T(2 lambda) = sum over the roots a of 2 lambda(a)
    * x(a) * y(a) has the signature of lambda; its pivot diagonal has entries
    D_k / (D_(k-1) den), D_k its d pivots (`TraceForm.pivots`), so lambda is
    positive at as many embeddings as there are k with D_k D_(k-1) > 0."""
    positives = sum(1 for prev, x in zip((1, *form.pivots[0]), form.pivots[0]) if prev * x > 0)
    return positives, len(form.pivots[0]) - positives


def _last_true(holds: Callable[[int], bool]) -> int:
    """The largest j >= 1 with holds(j), for a predicate that holds at 1 and
    fails from some j on: doubling, then bisection."""
    lo, hi = 1, 2
    while holds(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if holds(mid) else (lo, mid)
    return lo


def find_lambda(field: NumberField, target: tuple[int, int]) -> Poly:
    """A totally real element of signature (r, s): negative at the s smallest
    real embeddings and positive at the other r.

    That pattern flips sign at most once, so lambda is the constant 1 (s = 0)
    or -1 (r = 0), or else x - m with m the simplest rational strictly
    between the s-th and (s+1)-th real roots a < b of the defining
    polynomial g: the one of least denominator, and among integers the one
    of least absolute value.  So m, and with it the certificate, depends on
    the field alone.

    Soundness.  `field.chain` counts d distinct real roots of g, or else
    the field is refused; irreducible of degree d >= 2 (the real subfield,
    or an Eisenstein polynomial), g has no rational root.  So the number of
    roots in (-inf, x], one count on the chain, is s exactly when x lies in
    the gap (a, b), less than s below it and more than s above it.  So x -
    m is negative at the s smaller roots and positive at the rest.

    The search is the Stern-Brocot descent (Graham-Knuth-Patashnik,
    Concrete Mathematics, 4.5).  If 0 is in the gap, m = 0.  Otherwise
    start from the neighbours p/q = 0/1 and p'/q' = 1/0 when the gap lies
    above 0, and from -1/0 and 0/1 when it lies below.  The mediant (p +
    p')/(q + q') is m when it lies in the gap, and otherwise replaces the
    neighbour on its side; a run of such steps in one direction is taken as
    one batch.
    Neighbours keep p'q - pq' = 1 and the gap between them:
    - while one of them is +-1/0, the mediants are the integers, met in
      order of absolute value, so the first integer in the gap is m;
    - once q, q' >= 1, any u/v in the gap has uq - pv >= 1 and p'v - uq' >=
      1, so v = q'(uq - pv) + q(p'v - uq') >= q + q', with equality only for
      the mediant: the first mediant in the gap is its unique rational of
      least denominator, and the gap holds no integer.
    Every step raises q + q' (the integer, in the first phase), which the
    gap bounds, so the descent ends.
    """
    r, s = target
    if r < 0 or s < 0 or r + s != field.degree:
        raise DomainError("target signature incompatible with the field degree")
    if (real_roots := field.chain.count()) != field.degree:
        raise DomainError(f"the field is not totally real of degree {field.degree}: {real_roots} real roots")
    if r == 0 or s == 0:
        return Poly([1 if r else -1])

    def side(p: int, q: int) -> int:
        """-1, 0 or 1 as p/q lies below, in or above the gap."""
        below = field.chain.count(None, Fraction(p, q))
        return (below > s) - (below < s)

    if (start := side(0, 1)) == 0:
        return Poly([0, 1])
    p0, q0, p1, q1 = (0, 1, 1, 0) if start < 0 else (-1, 0, 0, 1)
    while (step := side(p0 + p1, q0 + q1)) != 0:
        if step < 0:
            j = _last_true(lambda j: side(p0 + j * p1, q0 + j * q1) < 0)
            p0, q0 = p0 + j * p1, q0 + j * q1
        else:
            j = _last_true(lambda j: side(p1 + j * p0, q1 + j * q0) > 0)
            p1, q1 = p1 + j * p0, q1 + j * q0
    return Poly([Fraction(-(p0 + p1), q0 + q1), 1])


# ---------------------------------------------------------------------------
# the CM-to-K3 complement step


@dataclass(frozen=True)
class CMToK3Result:
    trace: TraceForm
    trace_invariants: QFormInvariants
    complement: QSpace
    complement_invariants: QFormInvariants


def cm_to_k3(ext: ExtensionData, lam: Poly | None = None, complement: QSpace | None = None) -> CMToK3Result:
    """Realize the trace form inside the rational K3 lattice: a scalar of
    signature (1, d-1), its trace form and an explicit orthogonal complement,
    d the degree of the real subfield of `ext` (of a kind not `unsupported`).

    Only what is not given is searched for.  A given lambda is checked with
    `signature_of` (DomainError unless its signature is (1, d-1)); a given
    complement is taken with its own invariants, and the K3 sum identity of
    the certificate checks it.  The trace form's invariants come from the
    pivots of its two blocks, each eliminated on its own (`pivot_invariants`).

    d = 10 is refused: the paper gives no scalar there, and Bayer-Fluckiger's
    local conditions matter only at 2 and the primes dividing disc(g) or
    N(delta), g the real subfield's polynomial and delta = `ext.delta`, with
    E = E+(sqrt(delta)).  At any other odd prime where every place of the
    real subfield splits in E, N(delta) is a local square, and so is disc(E):
    by the blocks of `trace_form` at lambda = 1, det q_1 = 2^d disc(g) *
    (-2)^d N(delta) disc(g), so (-1)^d det q_1, which is disc(E) up to
    squares (`disc_identity_check`), is N(delta) up to squares.  There
    <-1, disc(E)>^perp is hyperbolic, so a table of those primes could only
    read `pass`; `pipeline.run` records `unknown` instead.
    """
    if (d := ext.real_subfield.degree) >= 10:
        raise DomainError(f"no scalar is constructed at d = {d}; cm_to_k3 needs d < 10")
    target = (1, d - 1)
    form = trace_form(ext, find_lambda(ext.real_subfield, target) if lam is None else lam)
    if lam is not None and (sig := signature_of(form)) != target:
        raise DomainError(f"lambda has signature {sig}, not {target}")
    q_inv = pivot_invariants(form.pivots, form.gram.den)
    if complement is not None:
        return CMToK3Result(form, q_inv, complement, invariants(complement))
    comp_inv = complement_invariants(q_inv, k3_invariants())
    if not admissible(comp_inv):
        raise ArithmeticError("complement invariants are inadmissible")
    return CMToK3Result(form, q_inv, construct_with_invariants(comp_inv), comp_inv)
