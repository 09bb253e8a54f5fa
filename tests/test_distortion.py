import math

import numpy as np
import pytest

from flowcutter import (CookieMap, DomainError, FlowEngine, SizeBoundReport, ScaledPoint, bd_sweep,
                        distortion, audit_interval_sizes, sbd_profile, sbd_witness,
                        theoretical_bound)
from flowcutter.distortion import (_PointGrid, _compose_extras, _grid_extrema,
                                   _refine_extrema)
from flowcutter import flow as flow_module
from flowcutter.optimize import golden_max, golden_min
from flowcutter.symbolic import word_levels


def test_affine_words_have_unit_distortion(cmap):
    for k in (1, 3, 6):
        assert distortion(cmap, "1" * k) == 1.0


def test_window_word_matches_direct_flow_ratio(cmap):
    # over 0^n 1 the slope is 3^(n+1) phi'_{s_n}(A_n x); the power cancels
    for n in (1, 2, 4):
        got = distortion(cmap, "0" * n + "1", grid=257)
        s_n = cmap.schedule.cumulative_time(n)
        f = lambda u: cmap.engine.flow_derivative(s_n, u)
        axis = np.linspace(0.0, 1.0, 513)
        # the scan only brackets the extrema for the scalar golden searches
        _, vals = cmap.engine.evolve(s_n, axis, order=1)
        _, hi = golden_max(f, axis[vals.argmax()] - 1 / 512,
                           min(1.0, axis[vals.argmax()] + 1 / 512), tol=1e-13)
        _, lo = golden_min(f, max(0.0, axis[vals.argmin()] - 1 / 512),
                           min(1.0, axis[vals.argmin()] + 1 / 512), tol=1e-13)
        assert got == pytest.approx(hi / lo, rel=1e-9)


def test_grid_refinement_stabilizes(cmap):
    for bits in ("00001", "0101"):
        a = distortion(cmap, bits, grid=257)
        b = distortion(cmap, bits, grid=513)
        assert a == pytest.approx(b, rel=1e-4)


def test_grid_precondition(cmap):
    with pytest.raises(DomainError):
        distortion(cmap, "01", grid=8)


def test_theoretical_bound_is_finite_product():
    m = 0.5
    direct = 1.0
    for i in range(200):
        direct *= 1.0 + 27.0 * m * 2.0 ** (-i - 2)
    assert theoretical_bound(m) == pytest.approx(direct, rel=1e-12)
    assert theoretical_bound(1.0) > theoretical_bound(0.5) > 1.0


def test_sweep_small_depth(cmap):
    reports = bd_sweep(cmap, 5, grid=129, refine_iters=12)
    cs = [r.c_k for r in reports]
    assert all(b >= a - 1e-12 for a, b in zip(cs, cs[1:]))   # nondecreasing
    assert all(r.c_k <= r.c_theory for r in reports)
    assert all(r.per_word.size == 2 ** r.depth for r in reports)
    assert reports[0].c_k == pytest.approx(
        distortion(cmap, "0", grid=129, refine_iters=12), rel=1e-12)
    # the pure right branch is affine, so depth 1 is decided by word 0
    assert str(reports[0].argmax_word) == "0"


def test_sweep_matches_single_word_evaluations(cmap):
    reports = bd_sweep(cmap, 3, grid=65, refine_iters=10)
    for rep in reports:
        for i in range(2 ** rep.depth):
            bits = format(i, f"0{rep.depth}b")
            solo = distortion(cmap, bits, grid=65, refine_iters=10)
            assert rep.per_word[i] == solo


def test_sweep_thread_count_does_not_change_bits(cmap):
    a = bd_sweep(cmap, 6, grid=65, refine_iters=8, threads=1, shard_depth=2)
    b = bd_sweep(cmap, 6, grid=65, refine_iters=8, threads=3, shard_depth=2)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.per_word, rb.per_word)
        assert ra.c_k == rb.c_k


@pytest.mark.parametrize("threads", [0, -3])
def test_sweep_rejects_nonpositive_threads(cmap, threads):
    with pytest.raises(DomainError):
        bd_sweep(cmap, 2, grid=33, threads=threads)


def test_sweep_sharding_covers_all_depths(cmap):
    for refine_iters in (0, 8):
        plain = bd_sweep(cmap, 5, grid=65, refine_iters=refine_iters,
                         shard_depth=0)
        sharded = bd_sweep(cmap, 5, grid=65, refine_iters=refine_iters,
                           shard_depth=2)
        for ra, rb in zip(plain, sharded):
            assert np.array_equal(ra.per_word, rb.per_word)


@pytest.mark.parametrize("shard_depth", [0, 2, 3])
def test_single_word_distortion_is_its_sweep_entry(cmap, shard_depth):
    # every result is a pure per-point function, so neither the batch nor
    # the shard a word is swept in moves a bit
    reports = bd_sweep(cmap, 5, shard_depth=shard_depth)
    for rep in reports:
        for i in range(2 ** rep.depth):
            bits = format(i, f"0{rep.depth}b")
            assert rep.per_word[i] == distortion(cmap, bits), bits


def test_mixed_depth_refine_matches_per_depth_refine(cmap):
    # one lockstep refine over every depth against one refine per depth
    grid, iters = 65, 12
    reports = bd_sweep(cmap, 7, grid=grid, refine_iters=iters)
    levels = word_levels(_PointGrid.root(grid), cmap, 7)
    for rep, state in zip(reports, levels):
        words = np.arange(2 ** rep.depth, dtype=np.int64)
        depths = np.full(words.size, rep.depth, dtype=np.int64)
        cells, values = _grid_extrema(state.extra)
        hi, lo = _refine_extrema(cmap, words, depths, cells, values, grid,
                                 iters)
        assert np.array_equal(rep.per_word, np.exp(hi - lo))
        assert np.all(rep.per_word >= np.exp(values[0] - values[1]))


def test_padding_symbols_leave_a_word_untouched(cmap):
    s = np.linspace(0.0, 1.0, 33)
    word = np.array([0, 1, 1, 0, 1], dtype=np.int8)
    alone = _compose_extras(cmap, np.tile(word, (s.size, 1)), s)
    padded = np.concatenate([np.full(3, -1, dtype=np.int8), word])
    mixed = _compose_extras(cmap, np.tile(padded, (s.size, 1)), s)
    assert np.array_equal(alone, mixed)
    assert np.any(alone != 0.0)


# ----------------------------------------------------------------------
# the witness family
# ----------------------------------------------------------------------

def test_witness_order_two(cmap):
    w = sbd_witness(cmap, 2)
    assert w.domain[0].n == 7 and w.image[0].n == 3
    assert w.image_log_size == -4 * math.log(3.0)
    assert w.measured_ratio == pytest.approx(w.limit_ratio, rel=1e-9)
    assert w.limit_ratio > 1.1            # derived, must be clearly above 1
    assert w.margin > 0.05


def test_witness_scale_invariance(cmap):
    w2 = sbd_witness(cmap, 2)
    w4 = sbd_witness(cmap, 4)
    assert w4.measured_ratio == pytest.approx(w2.measured_ratio, rel=1e-8)
    assert w4.image_log_size == -16 * math.log(3.0)


def test_witness_extremizers(cmap):
    w = sbd_witness(cmap, 2)
    da = cmap.engine.flow_derivative(cmap.constants.T, w.alpha)
    db = cmap.engine.flow_derivative(cmap.constants.T, w.beta)
    assert w.limit_ratio == pytest.approx(da / db, rel=1e-12)
    # extremizers beat a fine grid scan
    axis = np.linspace(0.0, 1.0, 2049)
    _, v = cmap.engine.evolve(cmap.constants.T, axis, order=1)
    assert da >= v.max() - 1e-12
    assert db <= v.min() + 1e-12


def test_iterate_and_witness_are_pure(cmap, monkeypatch):
    # a fresh map has an engine with no tables built; its orbits and
    # witnesses must repeat the shared, warmed map's bits in either order
    p = ScaledPoint.in_window(20, 0.37)

    def run(m):
        return sbd_witness(m, 2), sbd_witness(m, 4), m.iterate(p, 20)

    fresh_first = run(CookieMap(cmap.constants))
    warm = run(cmap)
    fresh_last = run(CookieMap(cmap.constants))
    assert fresh_first == warm == fresh_last
    for w in warm[:2]:
        assert type(w.alpha) is float and type(w.beta) is float
    # once their tables exist, neither starts an ODE solve
    def no_solve(*args, **kwargs):
        raise AssertionError("ODE solve on the table path")

    monkeypatch.setattr(flow_module, "integrate_unit_interval", no_solve)
    assert run(cmap) == warm


def test_witness_validation(cmap):
    with pytest.raises(DomainError):
        sbd_witness(cmap, 3)
    with pytest.raises(DomainError):
        sbd_witness(cmap, 8)


def test_scale_cancellation_identity(cmap):
    # the distortion of F^4 over J_7 is the distortion of phi_T on [0,1]
    w = sbd_witness(cmap, 2)
    ratio = distortion(cmap, "0" * 7 + "1", grid=513)
    # 0^7 1 addresses J_7 but under F^8; restricting to F^4 the comparison
    # is against the raw flow ratio instead
    rx = cmap.iterate(ScaledPoint.in_window(7, w.alpha), 4)
    ry = cmap.iterate(ScaledPoint.in_window(7, w.beta), 4)
    assert math.exp(rx.log_extra - ry.log_extra) == pytest.approx(
        w.limit_ratio, rel=1e-8)
    assert ratio > 1.0


# ----------------------------------------------------------------------
# profile search
# ----------------------------------------------------------------------

def test_profile_unit_scale_equals_sweep_max(cmap):
    k_max = 5
    prof = sbd_profile(cmap, k_max, scales=(1.0,), grid=129,
                       include_witness=False)
    sweep = bd_sweep(cmap, k_max, grid=129, refine_iters=0)
    assert prof[0].beta_hat == pytest.approx(sweep[-1].c_k, rel=1e-12)


def test_profile_does_not_decay(cmap):
    prof = sbd_profile(cmap, 6, scales=(1.0, 3.0, 9.0, 81.0), grid=129)
    w = sbd_witness(cmap, 2)
    floor = 1.0 + w.margin / 2.0
    for entry in prof:
        assert entry.beta_hat >= floor
    by_r = {p.r: p.beta_hat for p in prof}
    assert by_r[81.0] >= w.measured_ratio * (1.0 - 1e-4)


def test_profile_monotone_in_scale(cmap):
    prof = sbd_profile(cmap, 5, scales=(1.0, 3.0, 27.0), grid=129)
    vals = [p.beta_hat for p in prof]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_profile_validation(cmap):
    with pytest.raises(DomainError):
        sbd_profile(cmap, 3, scales=(0.5,))


def test_profile_thread_count_does_not_change_bits(consts):
    # each run on a fresh engine, so that the threads race to build the
    # flow tables on first use
    runs = [sbd_profile(CookieMap(consts, FlowEngine(tol=consts.tol)), 6,
                        scales=(1.0, 3.0, 27.0), grid=65, threads=threads,
                        shard_depth=2)
            for threads in (1, 3)]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("threads", [0, -3])
def test_profile_rejects_nonpositive_threads(cmap, threads):
    with pytest.raises(DomainError):
        sbd_profile(cmap, 2, grid=33, threads=threads)


# ----------------------------------------------------------------------
# interval size audit
# ----------------------------------------------------------------------

def test_size_bound_small(cmap):
    audit = audit_interval_sizes(cmap, 5, 6)
    assert isinstance(audit, SizeBoundReport)
    assert audit.ok
    assert audit.min_slack_factor >= 1.5
    # families: all (n, k) with n <= 5, k <= 6
    assert audit.checked == sum(2 ** k for n in range(6) for k in range(7))


def test_size_bound_shallow_examples(cmap):
    # |I_1| = 1/3 against 3/4; |J_1| = 1/9 against 1/4
    audit = audit_interval_sizes(cmap, 1, 0)
    assert audit.ok
    assert audit.min_slack_factor == pytest.approx(2.25, rel=1e-9)


def test_size_bound_combined_cap(cmap):
    audit = audit_interval_sizes(cmap, 10, 10, combined_cap=8)
    assert audit.ok
    assert audit.checked == sum(2 ** k for n in range(11) for k in range(11)
                                if n + 1 + k <= 8)


def test_size_bound_cap_guard(cmap):
    with pytest.raises(Exception):
        audit_interval_sizes(cmap, 30, 30)
