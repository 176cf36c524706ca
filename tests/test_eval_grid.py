"""The compiled grid evaluator against the reference tree walk: values bit for
bit at every grid eps, and the same EvalError as evaluating one eps at a time
and stopping at the first failure; for a derivative family, the same sups and
the same EvalError as evaluating one derivative at a time."""

import gc
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import random_expr
from reference_eval import reference_eval_points, reference_program

from epsnet import expr as ex
from epsnet.colombeau import CompactBox, EpsilonGrid, _spatial_multi_indices, grid_sups
from epsnet.expr import EvalError, MultiIndex, Table, parse, partial_multi, to_text

GRID = (0.5, 0.25, 0.125, 0.03125, 1e-3)
#: small enough that a 125-row lattice takes many chunks, ragged at the end
TINY_SLAB = 11


def _lattice(d: int, samples: int = 5, lo: float = -1.0, hi: float = 1.0) -> np.ndarray:
    return CompactBox.cube(lo, hi, d, samples).lattice()


def _reference(e, eps_values, X):
    """Rows of the reference walk up to the first failing eps, and its error."""
    rows = []
    for eps in eps_values:
        try:
            rows.append(reference_eval_points(e, eps, X))
        except EvalError as err:
            return rows, err
    return rows, None


def _assert_same_error(got: EvalError, want: EvalError):
    assert str(got) == str(want)
    assert (got.reason, got.subexpr, got.eps, got.alpha) == (want.reason, want.subexpr, want.eps, want.alpha)
    if want.point is None:
        assert got.point is None
    else:
        assert tuple(map(float, got.point)) == tuple(map(float, want.point))


def assert_matches_reference(e, eps_values, X):
    rows, err = _reference(e, eps_values, X)
    if err is not None:
        for sup in (False, True):
            with pytest.raises(EvalError) as info:
                ex.eval_points(e, eps_values, X, sup=sup)
            _assert_same_error(info.value, err)
        return err
    got = ex.eval_points(e, eps_values, X)
    assert got.shape == (len(eps_values), len(X))
    for k, eps in enumerate(eps_values):
        assert np.array_equal(got[k], rows[k], equal_nan=True), (to_text(e), eps)
        assert np.array_equal(ex.eval_points(e, eps, X), rows[k], equal_nan=True)
    sups = ex.eval_points(e, eps_values, X, sup=True)
    assert np.array_equal(sups, [np.max(np.abs(r)) for r in rows], equal_nan=True)
    return None


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=3))
def test_grid_rows_match_reference_bit_for_bit(seed, d):
    e = random_expr(random.Random(seed), d, max_depth=4)
    X = _lattice(d)
    assert_matches_reference(e, GRID, X)
    with mock.patch.object(ex, "SLAB_ELEMENTS", TINY_SLAB):
        assert_matches_reference(e, GRID, X)


DOMAIN_VIOLATIONS = [
    ("ln(x1)", 1),
    ("sqrt(x1-eps)", 1),
    ("1/(x1-eps)+x1", 1),
    ("x2+ln(x1+eps-0.1)", 2),
    ("(x1*x2-eps)^(-2)", 2),
    ("ln(eps-0.2)*x1", 1),
    ("1/(eps-0.25)+x1", 1),
    ("sqrt(sin(4*x1))+ln(x2)", 2),
    ("cos(x3)*ln(x1+eps-0.3)+sqrt(x1-eps+0.2)", 3),
    ("x1*x1/(x1*x1)", 1),
    ("exp(x1)/(x2*x3)+1/x1", 3),
    ("eps/(eps^2-0.0625)", 0),
    ("sqrt(x1-eps)+ln(x2)", 2),
]


@pytest.mark.parametrize("text,d", DOMAIN_VIOLATIONS)
def test_domain_violations_raise_the_reference_error(text, d):
    e = parse(text, d)
    X = _lattice(d, lo=0.0)
    assert assert_matches_reference(e, GRID, X) is not None
    with mock.patch.object(ex, "SLAB_ELEMENTS", TINY_SLAB):
        assert_matches_reference(e, GRID, X)


def test_earlier_node_failing_in_the_last_chunk_wins():
    # at eps=0.5, ln(1-x1) fails only at the last row (third chunk) and the
    # later node eps/x1 already at the first row (first chunk)
    X = np.linspace(0.0, 1.0, 5001)[:, None]
    e = parse("ln(1-x1)+eps/x1", 1)
    with pytest.raises(EvalError) as info:
        ex.eval_points(e, (0.5, 0.25), X)
    err = info.value
    assert err.reason == "ln of non-positive value" and to_text(err.subexpr) == "ln(1-x1)"
    assert err.eps == 0.5 and tuple(err.point) == (1.0,)
    assert_matches_reference(e, (0.5, 0.25), X)


def test_first_failing_eps_wins_over_node_order():
    X = np.linspace(0.0, 1.0, 11)[:, None]
    # ln(...) fails from eps=0.25 on, the later sqrt(...) already at eps=0.5
    e = parse("ln(x1+eps-0.3)+sqrt(x1-eps+0.2)", 1)
    with pytest.raises(EvalError) as info:
        ex.eval_points(e, (0.5, 0.25, 0.125), X)
    assert info.value.reason == "sqrt of negative value"
    assert info.value.eps == 0.5 and tuple(info.value.point) == (0.0,)
    # one node failing at two eps reports the first
    with pytest.raises(EvalError) as info:
        ex.eval_points(parse("ln(x1+eps-0.3)", 1), (0.5, 0.25, 0.125), X)
    assert info.value.eps == 0.25 and tuple(info.value.point) == (0.0,)


def test_shared_child_read_twice():
    X = np.linspace(-1.0, 1.0, 41)[:, None]
    e = parse("(x1*x1)*(x1*x1)-sin(x1*x1)+x1*x1", 1)
    assert len(ex._Program((e,)).code) == 6  # x1, x1*x1, its square, sin, -, +
    for slab in (ex.SLAB_ELEMENTS, 3):
        with mock.patch.object(ex, "SLAB_ELEMENTS", slab):
            assert_matches_reference(e, GRID, X)
            err = assert_matches_reference(parse("eps/(x1*x1)", 1), GRID, X)
            assert err.reason == "division by zero" and tuple(err.point) == (0.0,)


def test_table_outside_its_grid_fails_at_the_first_missing_eps():
    table = Table(((0.5, 1.0), (0.25, 2.0)))
    e = ex.BinOp("+", ex.BinOp("*", table, ex.Var("x1")), ex.Var("x1"))
    X = np.linspace(-1.0, 1.0, 9)[:, None]
    assert np.array_equal(ex.eval_points(e, (0.5, 0.25), X), [2 * X[:, 0], 3 * X[:, 0]])
    err = assert_matches_reference(e, (0.5, 0.25, 0.125, 0.0625), X)
    assert err.reason == "eps is not a grid point of the table"
    assert err.eps == 0.125 and err.point is None


def test_result_shapes():
    X = _lattice(2)
    e = parse("eps*x1+x2", 2)
    assert ex.eval_points(e, 0.5, X).shape == (len(X),)
    assert ex.eval_points(e, [0.5, 0.25, 0.125], X).shape == (3, len(X))
    assert ex.eval_points(parse("3+0*eps", 2), [0.5, 0.25], X).shape == (2, len(X))
    assert isinstance(ex.eval_points(e, 0.5, X, sup=True), float)
    assert ex.eval_points(e, (0.5, 0.25), X, sup=True).shape == (2,)
    with pytest.raises(ValueError, match="eps must be positive"):
        ex.eval_points(e, (0.5, 0.0), X)


@pytest.mark.parametrize("text", ["x1", "eps", "3", "eps*x1", "ln(eps-1)+x1"])
def test_the_sup_over_no_points_is_zero(text):
    # a root that reads x and one that does not alike; with no points no
    # domain rule is tested, so ln(eps-1) raises nothing, as in values mode
    e, X = parse(text, 1), np.empty((0, 1))
    assert ex.eval_points(e, (0.5, 0.25), X).shape == (2, 0)
    assert ex.eval_points(e, (0.5, 0.25), X, sup=True).tolist() == [0.0, 0.0]
    assert ex.eval_points(e, 0.5, X, sup=True) == 0.0
    sups = ex.eval_many([e, parse("x1+eps", 1)], (0.5, 0.25), X, sup=True)
    assert [s.tolist() for s in sups] == [[0.0, 0.0], [0.0, 0.0]]


def assert_many_match_a_loop(es, eps_values, X):
    """eval_many against eval_points on one expression at a time, stopping
    at the first that raises: the same arrays bit for bit, or the same error
    with ``root`` the index of the failing expression."""
    for sup in (False, True):
        want, err = [], None
        for e in es:
            try:
                want.append(ex.eval_points(e, eps_values, X, sup=sup))
            except EvalError as caught:
                err = caught
                break
        if err is None:
            got = ex.eval_many(es, eps_values, X, sup=sup)
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        else:
            with pytest.raises(EvalError) as info:
                ex.eval_many(es, eps_values, X, sup=sup)
            _assert_same_error(info.value, err)
            assert info.value.root == len(want)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["random", "violation", "shared"]),
                          st.integers(min_value=0, max_value=10**9)), min_size=1, max_size=5),
       st.integers(min_value=0, max_value=3))
def test_many_expressions_fail_as_a_loop_over_them(draws, d):
    # "shared" adds a random tree to the expression before it, so a later
    # root reaches some of its slots after an earlier root has
    es = []
    for kind, seed in draws:
        text, dim = DOMAIN_VIOLATIONS[seed % len(DOMAIN_VIOLATIONS)]
        if kind == "violation" and dim <= d:
            es.append(parse(text, d))
            continue
        e = random_expr(random.Random(seed), d, max_depth=4)
        es.append(ex.BinOp("+", e, es[-1]) if kind == "shared" and es else e)
    X = _lattice(d)
    assert_many_match_a_loop(es, GRID, X)
    with mock.patch.object(ex, "SLAB_ELEMENTS", TINY_SLAB):
        assert_many_match_a_loop(es, GRID, X)


def test_grid_sups_memory_stays_below_one_full_slab():
    lattice = CompactBox.cube(-1.0, 1.0, 3, 33).lattice()
    grid = EpsilonGrid.dyadic(4, 40)
    body = parse("exp(-(x1^2+x2^2+x3^2))*cos(eps*x1*x2)+sin(eps*x3)", 3)
    full_slab = len(grid) * len(lattice) * 8  # one (37, 35937) float array, 10.6 MB
    tracemalloc.start()
    try:
        sups = grid_sups(body, grid, lattice)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(sups) == len(grid)
    assert peak < full_slab / 10


# ---------------------------------------------------------------------------
# derivative families: eval_points(e, grid, X, sup=True, partials=alphas)


def _alphas(d: int, order: int) -> list:
    return [a.orders for a in _spatial_multi_indices(d, order)]


def _per_alpha_loop(e, alphas, eps_values, X):
    """The sups of one body at a time, stopping at the first failing alpha."""
    rows = []
    for alpha in alphas:
        body_rows, err = _reference(partial_multi(e, alpha), eps_values, X)
        if err is not None:
            return rows, err.with_context(alpha=alpha)
        rows.append([np.max(np.abs(r)) for r in body_rows])
    return rows, None


def assert_family_matches_reference(e, alphas, eps_values, X):
    rows, err = _per_alpha_loop(e, alphas, eps_values, X)
    if err is not None:
        with pytest.raises(EvalError) as info:
            ex.eval_points(e, eps_values, X, sup=True, partials=alphas)
        _assert_same_error(info.value, err)
        return err
    got = ex.eval_points(e, eps_values, X, sup=True, partials=alphas)
    assert got.shape == (len(alphas), len(eps_values))
    for alpha, got_row, want in zip(alphas, got, rows):
        assert np.array_equal(got_row, want, equal_nan=True), (to_text(e), alpha)
    return None


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=3))
def test_family_rows_match_reference_bit_for_bit(seed, d, order):
    e = random_expr(random.Random(seed), d, max_depth=5)
    alphas = _alphas(d, order)
    # each body built from its parent is the tree partial_multi builds from
    # e; the family's per-axis memos change which node objects are shared,
    # never the trees or the compiled program
    family = ex._derivative_family(e, alphas)
    alone = tuple(partial_multi(e, a) for a in alphas)
    assert family == alone
    assert ex._Program(family).code == ex._Program(alone).code
    X = _lattice(d, samples=4)
    assert_family_matches_reference(e, alphas, GRID, X)
    with mock.patch.object(ex, "SLAB_ELEMENTS", TINY_SLAB):
        assert_family_matches_reference(e, alphas, GRID, X)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=3))
def test_program_slots_match_the_hash_consing_walk(seed, d, order):
    rng = random.Random(seed)
    e = random_expr(rng, d, max_depth=5)
    family = ex._derivative_family(e, _alphas(d, order))
    # an eval_many root list: other draws, repeats and a deviation sharing e
    others = [random_expr(rng, d, max_depth=3) for _ in range(3)]
    many = (others[0], e, *others, ex.BinOp("-", others[1], e), e)
    for roots in ((e,), family, many):
        prog = ex._Program(roots)
        assert (prog.code, prog.roots, prog.ends) == reference_program(roots)


def test_family_raises_the_first_failing_alpha_not_the_first_failing_eps():
    X = np.linspace(0.0, 1.0, 11)[:, None]
    # alpha=(0,) fails from eps=0.25 on (the ln); alpha=(1,) already at eps=0.5,
    # dividing by 2*sqrt(x1) at x1=0
    e = parse("ln(x1+eps-0.3)+sqrt(x1)", 1)
    err = assert_family_matches_reference(e, [(0,), (1,)], (0.5, 0.25, 0.125), X)
    assert (err.reason, err.eps, err.alpha) == ("ln of non-positive value", 0.25, (0,))
    # in the other order the derivative is the first to fail
    err = assert_family_matches_reference(e, [(1,), (0,)], (0.5, 0.25, 0.125), X)
    assert (err.reason, err.eps, err.alpha) == ("division by zero", 0.5, (1,))


def test_family_error_names_a_later_alpha():
    X = _lattice(2, lo=0.0)
    # the value is defined on the whole lattice; d/dx2, the second alpha,
    # divides by 2*sqrt(x2)
    e = parse("x1^3*eps+sqrt(x2)", 2)
    err = assert_family_matches_reference(e, _alphas(2, 2), GRID, X)
    assert (err.reason, err.alpha, tuple(err.point)) == ("division by zero", (0, 1), (0.0, 0.0))
    assert "alpha=(0, 1)" in str(err)


def test_family_result_shapes():
    X = _lattice(2)
    e = parse("eps*x1^2*x2", 2)
    alphas = [(0, 0), (2, 0), (1, 1)]
    assert ex.eval_points(e, (0.5, 0.25), X, sup=True, partials=alphas).shape == (3, 2)
    assert ex.eval_points(e, 0.5, X, sup=True, partials=alphas).tolist() == [0.5, 1.0, 1.0]
    values = ex.eval_points(e, (0.5, 0.25), X, partials=alphas)
    assert values.shape == (3, 2, len(X))
    assert np.array_equal(values[2, 1], 0.25 * 2 * X[:, 0])
    assert ex.eval_points(e, 0.5, X, partials=[MultiIndex((0, 1))]).shape == (1, len(X))


def test_family_memory_stays_below_four_mib():
    # a classify-deriv family: order 4 in d=3 (35 bodies) on a 17^3 lattice
    # over 13 eps; its whole value array (35, 13, 4913) would be 17.9 MB
    lattice = CompactBox.cube(-1.0, 1.0, 3, 17).lattice()
    grid = EpsilonGrid.dyadic(4, 16)
    body = parse("exp(-(0.8*x1^2+1.2*x2^2+0.9*x3^2))*cos(eps*1.3*x1*x2)", 3)
    alphas = _alphas(3, 4)
    tracemalloc.start()
    try:
        sups = ex.eval_points(body, grid.values, lattice, sup=True, partials=alphas)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sups.shape == (35, 13)
    assert peak < 4 * 2**20


def test_family_leaves_no_cyclic_garbage():
    # the classify-deriv family of order 4 in d=3 is freed by reference
    # counting alone, so a process with collection off does not keep it
    X = _lattice(3)
    body = parse("exp(-(0.8*x1^2+1.2*x2^2+0.9*x3^2))*cos(eps*1.3*x1*x2)", 3)
    alphas = _alphas(3, 4)
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        ex.eval_points(body, GRID, X, sup=True, partials=alphas)
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def test_shared_memos_outlive_the_trees_they_differentiated():
    # a memo entry holds its node, so the id of a dropped tree is never
    # taken for a new node's while the memos live
    memos = {}
    for k in range(40):
        e = parse(f"sin({k}*x1*x2)+x2^{k % 5 + 2}*exp(x1-{k})", 2)
        want = partial_multi(e, (1, 1))
        assert partial_multi(e, (1, 1), memos) == want
        del e, want


def _peak_live_slabs(prog) -> list:
    """The most slabs of each kind (free of eps or not) live at once, read
    off the free schedule: a slab is taken before its operands are freed."""
    live, peak = [0, 0], [0, 0]
    for i, slot in enumerate(prog.chunked):
        live[prog.on_eps[slot]] += 1
        peak[prog.on_eps[slot]] = max(peak[prog.on_eps[slot]], live[prog.on_eps[slot]])
        for k in prog.frees[i]:
            live[prog.on_eps[k]] -= 1
    return peak


class _Schedule:
    """Spies on the arenas and chunks of the evaluations that follow: the
    buffers of every arena and the width of every chunk pass."""

    def __init__(self, monkeypatch):
        self.arenas, self.widths = [], []
        arena, slabs, execute = ex._arena, ex._slabs, ex._Run.execute

        def spy_arena(sizes):
            self.arenas.append(arena(sizes))
            return self.arenas[-1]

        def spy_execute(run, order, values, start, stop, slabs, emit=None):
            if slabs is not None:
                self.widths.append(stop - start)
            return execute(run, order, values, start, stop, slabs, emit)

        monkeypatch.setattr(ex, "_arena", spy_arena)
        monkeypatch.setattr(ex._Run, "execute", spy_execute)

    def kib(self) -> float:
        return max(sum(b.nbytes for b in buffers) for buffers in self.arenas) / 1024


def test_arena_holds_the_peak_live_slabs_on_cache_lines(monkeypatch):
    e = parse("sin(eps*x1)*cos(x2)+exp(-x1*x2)*eps+x1^2*tanh(eps*x2)", 2)
    peak = _peak_live_slabs(ex._Program((e,)))
    assert peak[0] > 0 and peak[1] > 1
    X = _lattice(2, samples=9)  # 81 rows
    monkeypatch.setattr(ex, "SLAB_ELEMENTS", 100)
    assert_matches_reference(e, GRID, X)
    schedule = _Schedule(monkeypatch)
    ex.eval_points(e, GRID, X)
    ex.eval_points(e, GRID, X, sup=True)
    assert len(schedule.arenas) == 2
    for buffers in schedule.arenas:
        assert len(buffers) == sum(peak)
        assert sorted(len(b) for b in buffers) == [40] * peak[0] + [len(GRID) * 40] * peak[1]
        assert all(b.__array_interface__["data"][0] % 64 == 0 for b in buffers)
    # an eps-dependent slab holds 2 * 100 elements: 200 // 5 eps = 40 rows
    # per chunk, a multiple of 8; the ragged last chunk of 81 % 40 = 1 row
    # uses the prefix of the same buffers
    assert schedule.widths == [40, 40, 1] * 2


def test_classify_family_schedule(monkeypatch):
    # the classify-deriv family: order 4 in d=3 (35 bodies, 447 unique
    # nodes) on a 17^3 lattice over 13 eps; keeping every root's slab for
    # the whole chunk held 48 eps-dependent slabs and a 1,582 KiB arena
    # over 16 chunks
    lattice = CompactBox.cube(-1.0, 1.0, 3, 17).lattice()
    grid = EpsilonGrid.dyadic(4, 16)
    body = parse("exp(-(0.8*x1^2+1.2*x2^2+0.9*x3^2))*cos(eps*1.3*x1*x2)", 3)
    alphas = _alphas(3, 4)
    prog = ex._Program(ex._derivative_family(body, alphas))
    assert len(prog.roots) == 35 and len(prog.code) == 447
    assert _peak_live_slabs(prog)[1] <= 21 and sum(prog.tall) <= 21
    schedule = _Schedule(monkeypatch)
    ex.eval_points(body, grid.values, lattice, sup=True, partials=alphas)
    assert len(schedule.widths) <= 8
    assert schedule.kib() <= 1453


def test_eps_free_program_keeps_full_chunks(monkeypatch):
    lattice = CompactBox.cube(-1.0, 1.0, 3, 33).lattice()  # 35,937 rows
    body = parse("exp(-(x1^2+x2^2+x3^2))*cos(x1*x2)+sin(x3)", 3)
    assert not any(ex._Program((body,)).tall)
    schedule = _Schedule(monkeypatch)
    ex.eval_points(body, GRID, lattice, sup=True)
    step = ex.SLAB_ELEMENTS
    assert step == 4096
    assert schedule.widths == [step] * (len(lattice) // step) + [len(lattice) % step]


def test_short_call_buffers_hold_only_its_rows(monkeypatch):
    X = np.linspace(-1.0, 1.0, 33)[:, None]
    grid = EpsilonGrid.dyadic(4, 40).values  # 37 eps
    e = parse("sin(eps*x1)+x1^2*cos(x1)", 1)
    prog = ex._Program((e,))
    schedule = _Schedule(monkeypatch)
    ex.eval_points(e, grid, X, sup=True)
    assert schedule.widths == [33]
    (buffers,) = schedule.arenas
    assert sorted(len(b) for b in buffers) == sorted(
        -(-(len(grid) if tall else 1) * 33 // 8) * 8 for tall in prog.tall)


@pytest.mark.parametrize("slab", [ex.SLAB_ELEMENTS, TINY_SLAB])
def test_a_root_read_by_a_later_root(monkeypatch, slab):
    # root 0 is an operand of roots 1 and 2, and root 2 reads root 1, so
    # their slabs are emitted at their last reader; the sup mode's in-place
    # |v| must come after it
    monkeypatch.setattr(ex, "SLAB_ELEMENTS", slab)
    inner = parse("x1*x2-eps", 2)
    outer = ex.Call("sin", inner)
    es = [inner, outer, ex.BinOp("*", outer, inner), parse("x2", 2)]
    prog = ex._Program(es)
    assert prog.emits[prog.chunked.index(prog.roots[2])] == [0, 1, 2]
    X = _lattice(2, samples=7)
    for sup in (False, True):
        got = ex.eval_many(es, GRID, X, sup=sup)
        for e, values in zip(es, got):
            rows = [reference_eval_points(e, eps, X) for eps in GRID]
            want = [np.max(np.abs(r)) for r in rows] if sup else np.array(rows)
            assert np.array_equal(values, want), (to_text(e), sup)
    assert_many_match_a_loop(es, GRID, X)
