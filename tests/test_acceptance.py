"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL
line with its headline numbers."""

import math
import random
import time

import numpy as np
from mpmath import mp, mpf

from helpers import filtered_gradient_sample
from reference_numbertheory import reference_provider, reference_root

from epsnet.cli import run as cli_run
from epsnet.colombeau import CompactBox, EpsilonGrid, Net
from epsnet.decompose import givens_decompose, lorentz_decompose, quadratic_form
from epsnet.expr import eval_points, evaluate, to_text
from epsnet.groups import planar_flow
from epsnet.numbertheory import catalog, corollary_pair, dirichlet, liouville_constant, resolve_alpha
from epsnet.sampling import random_proper_lorentz, random_special_orthogonal
from epsnet.verify import (
    chain_bound,
    check_periodicity,
    one_param_theorem_harness,
    rotation_invariance_pipeline,
    translation_constancy,
    two_period_constancy,
)

GRID = EpsilonGrid.dyadic()
NEGLIGIBLE = "exp(ln(eps)/eps)"
PI_LIT = "3.141592653589793"


def report(n, ok, detail):
    print(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_givens_reconstruction():
    rng = random.Random(1001)
    t0 = time.perf_counter()
    worst = 0.0
    schedules = {}
    for d in (2, 3, 4, 5, 6):
        for _ in range(200):
            M = random_special_orthogonal(rng, d)
            sched = givens_decompose(M)
            assert len(sched.factors) == math.comb(d, 2)
            assert schedules.setdefault(d, sched.pairs) == sched.pairs
            worst = max(worst, float(np.max(np.abs(sched.matrix() - M))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed <= 10.0
    report(1, ok, f"1000 matrices d=2..6, worst reconstruction {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_lorentz_factorization():
    rng = random.Random(2002)
    t0 = time.perf_counter()
    worst_recon = worst_theta = worst_time = worst_form = 0.0
    for n, count, per_axis in ((3, 250, 10), (4, 250, 6)):
        lattice = CompactBox.cube(-2.0, 2.0, n, samples_per_axis=per_axis).lattice()
        assert lattice.shape[0] >= 1000
        for _ in range(count):
            L = random_proper_lorentz(rng, n, theta_max=3.0)
            fact = lorentz_decompose(L)
            worst_recon = max(worst_recon, float(np.max(np.abs(fact.matrix() - L))))
            worst_theta = max(worst_theta, abs(fact.theta - math.acosh(max(L[0, 0], 1.0))))
            for sched in (fact.r1, fact.r2):
                R = sched.matrix()
                worst_time = max(
                    worst_time,
                    abs(R[0, 0] - 1.0),
                    float(np.max(np.abs(R[0, 1:]))),
                    float(np.max(np.abs(R[1:, 0]))),
                )
            q_defect = np.max(np.abs(quadratic_form(lattice @ L.T) - quadratic_form(lattice)))
            worst_form = max(worst_form, float(q_defect))
    elapsed = time.perf_counter() - t0
    ok = (
        worst_recon <= 1e-9
        and worst_theta <= 1e-10
        and worst_time <= 1e-10
        and worst_form <= 1e-9
        and elapsed <= 10.0
    )
    report(
        2,
        ok,
        f"500 matrices, recon {worst_recon:.2e}, theta {worst_theta:.2e}, "
        f"time-axis {worst_time:.2e}, form {worst_form:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_diophantine_suite():
    t0 = time.perf_counter()
    cat = catalog()

    rng = random.Random(3003)
    draws = [cat["sqrt2"], cat["sqrt3"], cat["phi"], cat["cbrt2"], "pi", "e"]
    dirichlet_ok = True
    for _ in range(200):
        alpha = rng.choice(draws)
        N = rng.randint(1, 10_000)
        pair = dirichlet(alpha, N)
        provider = reference_provider(resolve_alpha(alpha))
        with mp.workprec(140):
            bound_ok = 0 < pair.l <= N and abs(pair.k - pair.l * provider(140)) <= mpf(1) / N
        dirichlet_ok = dirichlet_ok and bound_ok

    liouville_ok = True
    for name, a in cat.items():
        data = liouville_constant(a)
        alpha_ld = np.longdouble(mp.nstr(reference_root(a.coeffs, a.seed, 140), 32))
        ls = np.arange(1, 10_001, dtype=np.longdouble)
        ks = np.rint(ls * alpha_ld)
        lhs = np.abs(alpha_ld - ks / ls)
        rhs = np.longdouble(data.c) / ls ** a.degree
        liouville_ok = liouville_ok and bool(np.all(lhs >= rhs))

    m_values = {name: liouville_constant(cat[name]).M for name in ("sqrt2", "phi", "cbrt2")}
    m_ok = m_values == {"sqrt2": 4, "phi": 4, "cbrt2": 7}

    corollary_ok = True
    for a in cat.values():
        for R in (3.0, 10.0, 1e2, 1e3, 1e4):
            res = corollary_pair(a, R)
            with mp.workprec(200):
                defect = abs(res.k - res.l * reference_root(a.coeffs, a.seed, 200))
                corollary_ok = corollary_ok and res.l <= R and res.defect == float(defect)
                corollary_ok = corollary_ok and defect <= mpf(2) / mpf(R)
                corollary_ok = corollary_ok and mp.log(defect) >= -res.M * mp.log(mpf(R))

    elapsed = time.perf_counter() - t0
    ok = dirichlet_ok and liouville_ok and m_ok and corollary_ok and elapsed <= 30.0
    report(
        3,
        ok,
        f"dirichlet(200)={dirichlet_ok} liouville(l<=1e4 x6)={liouville_ok} "
        f"M={m_values} corollary={corollary_ok}, {elapsed:.2f}s",
    )


def test_criterion_4_chain_lemma():
    a, b = 0.0, 20.0
    h1, h2 = 1.0, math.sqrt(2.0)
    pairs = [(1, 1), (2, 1), (3, 2), (5, 3), (4, 4)]
    eps_fixed = 2.0**-6

    def measured_tolerance(f):
        def values(x):
            return eval_points(f.body, eps_fixed, x[:, None])

        xs = np.linspace(a, b - h2, 40001)
        t1 = np.max(np.abs(values(xs[xs + h1 <= b] + h1) - values(xs[xs + h1 <= b])))
        t2 = np.max(np.abs(values(xs + h2) - values(xs)))
        return float(max(t1, t2))

    corpus = {
        "constant": Net.parse("5", 1),
        "sin+drift": Net.parse(f"sin(2*{PI_LIT}*x1)+0.001*x1", 1),
        "constant+negligible": Net.parse(f"7+{NEGLIGIBLE}*sin(x1)", 1),
    }
    violations = 0
    tested = 0
    for name, f in corpus.items():
        tol = measured_tolerance(f)
        rep = chain_bound(f, eps_fixed, a, b, h1, h2, tol, pairs, num_x=201)
        for pr in rep.pairs:
            if pr.measured is not None:
                tested += pr.tested_points
                if pr.measured > pr.certified + 1e-15:
                    violations += 1
    ok = violations == 0 and tested > 0
    report(4, ok, f"{tested} lattice points over {len(corpus)} nets x {len(pairs)} pairs, {violations} violations")


def test_criterion_5_positive_controls():
    t0 = time.perf_counter()
    box2 = CompactBox.cube(-1.0, 1.0, 2)
    results = {}

    radial = Net.parse("exp(-(x1^2+x2^2))", 2)
    rep = one_param_theorem_harness(
        radial,
        planar_flow("rotation", 2, 1, 2),
        gen_thetas=(Net.parse("2+sin(1/eps)", 0), Net.parse("sin(1/eps)", 0)),
        box=box2,
        grid=GRID,
        p=6,
    )
    results["radial generalized rotation"] = rep.verdict and not rep.hypothesis_failed

    c = Net.parse("cos(sin(1/eps))", 0)
    s = Net.parse("sin(sin(1/eps))", 0)
    ms = Net.parse("-sin(sin(1/eps))", 0)
    pipe = rotation_invariance_pipeline(radial, [[c, ms], [s, c]], box2, GRID, p=6)
    results["radial net-valued rotation pipeline"] = pipe.verdict and pipe.consistent

    form = Net.parse("x1^2-x2^2", 2)
    rep = one_param_theorem_harness(
        form,
        planar_flow("boost", 2, 1, 2),
        gen_thetas=(Net.parse("1+eps", 0), Net.parse("0.5*sin(1/eps)", 0)),
        box=box2,
        grid=GRID,
        p=6,
    )
    results["form generalized boost"] = rep.verdict and not rep.hypothesis_failed

    cpn = Net.parse(f"7 + {NEGLIGIBLE}*sin(x1)", 1)
    tp = two_period_constancy(cpn, catalog()["sqrt2"], 6.0, 6, GRID)
    certified_everywhere = bool(tp.evidence) and all(
        row.certified_ok and row.bounds_ok for row in tp.evidence
    )
    results["constant+negligible two periods"] = (
        tp.verdict == "constant" and tp.eps0 is not None and certified_everywhere
    )

    tr = translation_constancy(
        cpn, CompactBox.cube(-2.0, 2.0, 1), GRID, p=6, h_samples=((0.5,), (1.0,), (math.sqrt(2),))
    )
    results["constant+negligible translations"] = tr.verdict and not tr.hypothesis_failed

    elapsed = time.perf_counter() - t0
    ok = all(results.values()) and elapsed <= 60.0
    report(5, ok, f"{results}, {elapsed:.2f}s")


def test_criterion_6_negative_controls():
    box2 = CompactBox.cube(-1.0, 1.0, 2)
    results = {}

    coord = Net.parse("x1", 2)
    M = random_special_orthogonal(random.Random(66), 2)
    pipe = rotation_invariance_pipeline(coord, M, box2, GRID, p=1)
    results["x1 under rotation"] = not pipe.verdict

    sine = Net.parse(f"sin(2*{PI_LIT}*x1)", 1)
    per = check_periodicity(sine, math.sqrt(2.0), CompactBox.cube(-3.0, 3.0, 1), GRID, p=1)
    results["sin(2 pi x) under period sqrt2"] = not per.invariant
    tp = two_period_constancy(sine, catalog()["sqrt2"], 6.0, 2, GRID)
    results["sin(2 pi x) two-period"] = tp.verdict == "not-applicable"

    mixed = Net.parse("x1*x2", 2)
    hyp = one_param_theorem_harness(
        mixed, planar_flow("rotation", 2, 1, 2), box=box2, grid=GRID, p=2
    )
    results["x1*x2 rotation flow"] = hyp.hypothesis_failed and not hyp.verdict

    ok = all(results.values())
    report(6, ok, f"{results}")


def test_criterion_7_gradient_oracle():
    rng = random.Random(7007)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        d = rng.choice((1, 2))
        e, eps, x, derivs = filtered_gradient_sample(rng, d)
        for i in range(1, d + 1):
            xp, xm = list(x), list(x)
            xp[i - 1] += h
            xm[i - 1] -= h
            fd = (evaluate(e, eps, xp) - evaluate(e, eps, xm)) / (2 * h)
            rel = abs(derivs[i - 1] - fd) / (1 + abs(derivs[i - 1]))
            worst = max(worst, rel)
            assert rel <= 1e-4, to_text(e)
    report(7, worst <= 1e-4, f"100 expressions, worst relative disagreement {worst:.2e}")


def test_criterion_8_byte_identical_reports(tmp_path):
    jobs = [
        ["rotation", "--seed", "42", "--f", "exp(-(x1^2+x2^2))", "--dim", "2",
         "--random", "--box=-1:1,-1:1", "--p", "4", "--k-min", "4", "--k-max", "24"],
        ["lorentz", "--seed", "42", "--f", "exp(-(x1^2-x2^2-x3^2)^2)", "--dim", "3",
         "--random", "--box=-1:1,-1:1,-1:1", "--samples", "9", "--p", "4",
         "--k-min", "4", "--k-max", "24"],
        ["classify", "--f", "eps*sin(x1)", "--dim", "1", "--box=-1:1"],
        ["dirichlet", "--alpha", "cbrt2", "--N", "10000"],
        ["two-period", "--f", f"7 + {NEGLIGIBLE}*sin(x1)", "--alpha", "sqrt2",
         "--R", "6", "--p", "4"],
        ["translation", "--f", "3+eps*0", "--dim", "1", "--box=-2:2", "--p", "4"],
    ]
    identical = True
    for idx, argv in enumerate(jobs):
        first = tmp_path / f"a{idx}.json"
        second = tmp_path / f"b{idx}.json"
        code1 = cli_run([*argv, "--out", str(first)])
        code2 = cli_run([*argv, "--out", str(second)])
        identical = identical and code1 == code2 and first.read_bytes() == second.read_bytes()
    report(8, identical, f"{len(jobs)} report pairs byte-compared")
