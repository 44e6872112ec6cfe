import pathlib
import random
import sys

import pytest

import mreg.groebner
import mreg.resolution
from mreg import (
    GradingError,
    InputError,
    Limits,
    ModuleCtx,
    ModulePresentation,
    MregError,
    MultigradedRing,
    PointSet,
    ResourceLimitError,
    betti_table,
    cached_minimal_resolution,
    coarsen_resolution,
    degree_bound_sets,
    ext_modules,
    graded_piece_dimension,
    load_problem,
    minimal_free_resolution,
    minimalize_complex,
    minimalize_presentation,
    multiproj_ring,
    quotient_presentation,
    regnum_lower_bound,
    relations,
    resolution_regularity_vector,
)
from mreg.grading import find_positive_coarsening_vector
from mreg.errors import NO_LIMITS
from mreg.groebner import _isub_term_mul, buchberger, leading_term
from mreg.poly import DEFAULT_FIELD, QQ
from mreg.resolution import FreeResolution, _assert_resolution_sane, first_syzygy_presentation
from tests.conftest import clear_memos


def test_koszul_resolution(koszul_module):
    F = minimal_free_resolution(koszul_module)
    assert F.shifts[0] == ((0, 0),)
    assert sorted(F.shifts[1]) == [(0, 2), (2, 0)]
    assert F.shifts[2] == ((2, 2),)
    assert F.length == 2


def test_free_module_resolution(p1p1):
    P = ModulePresentation.free_module(p1p1, [(1, 0), (0, 1)])
    F = minimal_free_resolution(P)
    assert F.length == 0
    assert F.shifts == [((1, 0), (0, 1))]


def test_eight_point_resolution(eight_point_module):
    F = minimal_free_resolution(eight_point_module)
    Bz = betti_table(coarsen_resolution(F, (1, 1)))
    assert sorted(j for (i, j), _ in Bz.entries if i == 1) == [2, 4, 5]
    assert sorted(j for (i, j), _ in Bz.entries if i == 2) == [5, 6]
    assert Bz.totals() == {0: 1, 1: 3, 2: 2}


def test_betti_examples(koszul_module, p1p1):
    B = betti_table(minimal_free_resolution(koszul_module))
    assert B.beta(0, (0, 0)) == 1
    assert B.beta(1, (2, 0)) == 1
    assert B.beta(1, (0, 2)) == 1
    assert B.beta(2, (2, 2)) == 1
    free = ModulePresentation.free_module(p1p1, [(3, 1)])
    Bf = betti_table(minimal_free_resolution(free))
    assert Bf.positions() == [(0, (3, 1), 1)]


def test_coarsen_sum_identity(full_corpus):
    # column sums of the fine table equal the coarse table, degree by degree
    for P in full_corpus:
        from mreg import positive_coarsening_candidates

        F = minimal_free_resolution(P)
        B = betti_table(F)
        for v in positive_coarsening_candidates(P.ring.degrees, box=2):
            Bz = betti_table(coarsen_resolution(F, v))
            coarse = {}
            for (i, a), b in B.entries:
                m = sum(x * y for x, y in zip(a, v))
                coarse[(i, m)] = coarse.get((i, m), 0) + b
            assert coarse == Bz.as_dict()


def test_differentials_compose_to_zero_and_minimal(full_corpus):
    for P in full_corpus:
        F = minimal_free_resolution(P)  # sanity asserts run inside
        assert F.length <= P.ring.n
        for diff in F.differentials:
            for col in diff:
                assert all(any(m) for _, m in col), "constant entry"


def test_euler_characteristic_matches_graded_pieces(koszul_module, hirzebruch_module):
    from mreg.poly import monomials_of_weight

    for P, v in ((koszul_module, (1, 1)), (hirzebruch_module, (1, 3))):
        ring = P.ring
        F = minimal_free_resolution(P)
        weights = ring.vdegs(v)
        for m in range(0, 7):
            chi = 0
            for i, level in enumerate(F.shifts):
                for shift in level:
                    swd = sum(a * b for a, b in zip(shift, v))
                    chi += (-1) ** i * len(monomials_of_weight(weights, m - swd))
            assert chi == graded_piece_dimension(P, v, m)


def test_resolution_regularity_vector(eight_point_module, koszul_module, p1p1):
    B8 = betti_table(minimal_free_resolution(eight_point_module))
    assert resolution_regularity_vector(B8, p1p1) == (4, 3)
    Bk = betti_table(minimal_free_resolution(koszul_module))
    assert resolution_regularity_vector(Bk, p1p1) == (1, 1)
    free = ModulePresentation.free_module(p1p1, [(0, 0)])
    Bf = betti_table(minimal_free_resolution(free))
    assert resolution_regularity_vector(Bf, p1p1) == (0, 0)


def test_resolution_regularity_vector_requires_standard(hirzebruch_module):
    B = betti_table(minimal_free_resolution(hirzebruch_module))
    with pytest.raises(InputError):
        resolution_regularity_vector(B, hirzebruch_module.ring)


def test_regnum_lower_bound_examples(eight_point_module, koszul_module, bigraded_xy):
    B8 = betti_table(coarsen_resolution(minimal_free_resolution(eight_point_module), (1, 1)))
    assert regnum_lower_bound(B8, 1, 1) == 4
    Bk = betti_table(coarsen_resolution(minimal_free_resolution(koszul_module), (1, 1)))
    assert regnum_lower_bound(Bk, 1, 1) == 2
    # free module with shifts (1,0), (0,1) under v = (5,3): c = 15, s = 22
    P = ModulePresentation.free_module(bigraded_xy, [(1, 0), (0, 1)])
    Bf = betti_table(coarsen_resolution(minimal_free_resolution(P), (5, 3)))
    assert regnum_lower_bound(Bf, 15, 22) == -9


@pytest.mark.parametrize("v, error", [((1,), InputError), ((1, 1, 5), InputError),
                                      ((1, -1), GradingError)])
def test_coarsen_resolution_checks_the_vector(koszul_module, v, error):
    with pytest.raises(error):
        coarsen_resolution(minimal_free_resolution(koszul_module), v)


def test_lower_bound_needs_coarse_table(koszul_module):
    B = betti_table(minimal_free_resolution(koszul_module))
    with pytest.raises(InputError):
        regnum_lower_bound(B, 1, 1)


def test_minimalize_presentation_pivots(p1p1):
    # the constant relation e0 = 0 pivots away the first generator
    P = ModulePresentation(
        p1p1,
        ((0, 0), (1, 0)),
        ({(0, (0, 0, 0, 0)): 1},),
    )
    Q = minimalize_presentation(P)
    assert Q.shifts == ((1, 0),)
    assert Q.relations == ()


def test_minimalize_complex_cancels(p1p1):
    # non-minimal complex: S(-a) --1--> S(-a) appended to a Koszul tail
    K = p1p1.field
    one = {(0, (0, 0, 0, 0)): K.one}
    F = FreeResolution(
        p1p1,
        [((0, 0),), ((0, 0),)],
        [[one]],
    )
    M = minimalize_complex(F)
    assert M.length == 0
    assert M.shifts == [()] or M.shifts == [tuple()]


def _disguised(F, rng):
    """F plus S(-a) --1--> S(-a) at every level, in random constant bases per fine degree.

    Two trivial summands per level, of one degree a drawn from that level's
    shifts, are added as h_1 -> g_1 + g_2, h_2 -> g_1: when h_1 pivots on
    g_1, the Schur update of h_2 creates a constant in row g_2.  Then every
    level's basis is shuffled and mixed by elementary changes
    e_w -> e_w + lam e_u within a fine degree, and d_k becomes
    A_{k-1} d_k A_k^{-1}.
    """
    K = F.ring.field
    zero = (0,) * F.ring.n
    shifts = [list(level) for level in F.shifts] + [[]]
    diffs = [[dict(col) for col in diff] for diff in F.differentials] + [[]]
    for i in range(len(F.shifts)):
        a = rng.choice(shifts[i])
        g = len(shifts[i])
        shifts[i] += [a, a]
        shifts[i + 1] += [a, a]
        if i > 0:
            diffs[i - 1] += [{}, {}]
        diffs[i] += [{(g, zero): K.one, (g + 1, zero): K.one}, {(g, zero): K.one}]
    for k, level in enumerate(shifts):
        perm = list(range(len(level)))
        rng.shuffle(perm)
        at = {old: new for new, old in enumerate(perm)}
        level[:] = [level[p] for p in perm]
        cols = diffs[k - 1] if k > 0 else None  # d_k, whose columns F_k indexes
        if cols is not None:
            cols[:] = [cols[p] for p in perm]
        rows = diffs[k] if k < len(diffs) else []  # d_{k+1}, whose rows F_k indexes
        rows[:] = [{(at[r], m): c for (r, m), c in col.items()} for col in rows]
        for _ in range(len(level)):
            u, w = rng.randrange(len(level)), rng.randrange(len(level))
            if u == w or level[u] != level[w]:
                continue
            # e_w -> e_w + lam e_u: column w of d_k gains lam * column u,
            # row u of d_{k+1} loses lam * row w
            lam = K.of(rng.randint(1, 9))
            if cols is not None:
                _isub_term_mul(cols[w], cols[u], zero, K.neg(lam), K)
            for col in rows:
                row_w = {(u, m): c for (r, m), c in col.items() if r == w}
                _isub_term_mul(col, row_w, zero, lam, K)
    return FreeResolution(F.ring, [tuple(level) for level in shifts], diffs)


def test_minimalize_complex_cancels_disguised_trivial_summands(full_corpus):
    """Pivots in several levels, some on constants that earlier Schur updates created."""
    rng = random.Random(1101)
    for P in full_corpus:
        F = minimal_free_resolution(P)
        for _ in range(3):
            raw = _disguised(F, rng)
            levels = {k for k, diff in enumerate(raw.differentials)
                      if any(not any(m) for col in diff for _, m in col)}
            assert len(levels) > 1
            slim = minimalize_complex(raw)
            _assert_resolution_sane(slim)
            assert betti_table(slim).as_dict() == betti_table(F).as_dict()


def test_differentials_that_do_not_compose_to_zero_raise(p1p1):
    """d_1 d_2 = x0 x1 with no constant entry: only the d o d = 0 check can fire."""
    one = p1p1.field.one
    F = FreeResolution(p1p1, [((0, 0),), ((1, 0),), ((2, 0),)],
                       [[{(0, (1, 0, 0, 0)): one}], [{(0, (0, 1, 0, 0)): one}]])
    with pytest.raises(MregError, match="^differentials do not compose to zero$"):
        _assert_resolution_sane(F)


def test_two_construction_paths_agree(full_corpus):
    """Pruned-kernel resolutions match non-minimal + pivot minimalization.

    The second path never prunes: kernels keep every Schreyer generator, the
    resulting complex is non-minimal, and the pivoting pass has to do the
    work.  Minimal resolutions are unique up to isomorphism, so the Betti
    tables must agree exactly.
    """
    from mreg import ModuleCtx, kernel_of_map
    from mreg.grading import find_positive_coarsening_vector
    from mreg.groebner import buchberger
    from mreg.resolution import _assert_resolution_sane

    for P in full_corpus:
        ring = P.ring
        v = find_positive_coarsening_vector(ring.degrees)
        P0 = minimalize_presentation(P)
        shifts = [P0.shifts]
        diffs = []
        ctx = ModuleCtx.for_vector(ring, P0.shifts, v)
        cols = list(P0.relations)
        guard = 0
        while cols and guard <= ring.n + 2:
            guard += 1
            # expand to the full Groebner basis: deliberately non-minimal
            G, _ = buchberger(ctx, cols)
            level = tuple(ctx.vec_degree(g) for g in G)
            diffs.append(G)
            shifts.append(level)
            nxt = ModuleCtx.for_vector(ring, level, v)
            cols = kernel_of_map(ctx, G)
            # kernel_of_map wants the TARGET ctx; elements live over ctx
            cols = [c for c in cols if c]
            ctx = nxt
        raw = FreeResolution(ring, shifts, diffs)
        slim = minimalize_complex(raw)
        assert betti_table(slim).as_dict() == betti_table(minimal_free_resolution(P)).as_dict()
        _assert_resolution_sane(slim)


def test_first_syzygy_presentation(koszul_module, p1p1):
    M1, cover_shifts, F = first_syzygy_presentation(koszul_module)
    assert cover_shifts == ((0, 0),)
    assert sorted(M1.shifts) == [(0, 2), (2, 0)]
    free = ModulePresentation.free_module(p1p1, [(1, 0)])
    M1f, shifts_f, _ = first_syzygy_presentation(free)
    assert M1f is None and shifts_f == ((1, 0),)


def test_first_syzygy_presentation_reads_the_memoized_resolution(koszul_module):
    assert first_syzygy_presentation(koszul_module)[2] is cached_minimal_resolution(koszul_module)


def _nine_generic_points():
    rng = random.Random(7)
    pts = tuple(((1, rng.randint(1, 32002)), (1, rng.randint(1, 32002))) for _ in range(9))
    return quotient_presentation(PointSet((1, 1), pts), multiproj_ring((1, 1)))


def _rebind_everywhere(monkeypatch, owner, name, replacement):
    """Put replacement in place of owner.name under every mreg name bound to it."""
    orig = getattr(owner, name)
    for module in [owner] + [m for n, m in sys.modules.items() if n.split(".")[0] == "mreg"]:
        if getattr(module, name, None) is orig:
            monkeypatch.setattr(module, name, replacement)


def _count_everywhere(monkeypatch, calls, owner, name):
    """Count calls of owner.name into calls[name], under every mreg name bound to it."""
    calls[name] = 0
    orig = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return orig(*args, **kwargs)

    _rebind_everywhere(monkeypatch, owner, name, counted)


def _record_everywhere(monkeypatch, owner, name):
    """Record (args, result) of every call of owner.name, under every mreg name bound to it."""
    records = []
    orig = getattr(owner, name)

    def recorded(*args, **kwargs):
        out = orig(*args, **kwargs)
        records.append((args, out))
        return out

    _rebind_everywhere(monkeypatch, owner, name, recorded)
    return records


def _monic_corpus():
    for path in sorted((pathlib.Path(__file__).resolve().parents[1] / "problems").glob("*.json")):
        yield load_problem(str(path)).presentation()
        yield load_problem(str(path), QQ).presentation()
    for seed, n, K in ((1, 5, DEFAULT_FIELD), (2, 6, DEFAULT_FIELD), (3, 5, QQ)):
        rng = random.Random(seed)
        pts = tuple(((1, rng.randint(1, 12)), (1, rng.randint(1, 12))) for _ in range(n))
        yield quotient_presentation(PointSet((1, 1), tuple(set(pts))), multiproj_ring((1, 1), K))


def test_every_reducer_is_monic(monkeypatch):
    """reduce_vec subtracts without dividing, so every basis it divides by must be monic:
    Buchberger's bases, the relations kernels hand on, and the frame's syzygies."""
    bases = _record_everywhere(monkeypatch, mreg.groebner, "buchberger")
    rels = _record_everywhere(monkeypatch, mreg.groebner, "relations")
    syzygies = _record_everywhere(monkeypatch, mreg.resolution, "_frame_syzygies")
    for P in _monic_corpus():
        clear_memos()
        ext_modules(P)
    assert bases and rels and syzygies
    for (ctx, *_), (basis, lts) in bases:
        one = ctx.ring.field.one
        assert all(t == leading_term(ctx, g) and g[t] == one for g, t in zip(basis, lts))
    for (ctx, cols, *_), out in rels:
        # term codes read no shifts, so a context with one component per
        # column orders the relation module as relations does
        src = ModuleCtx(ctx.ring, ((0,) * ctx.ring.r,) * len(cols), ctx.order, (0,) * len(cols))
        assert all(a[leading_term(src, a)] == ctx.ring.field.one for a in out)
    for (ctx, *_), (out, leads) in syzygies:
        assert all(s[lead] == ctx.ring.field.one for s, lead in zip(out, leads))


def test_schreyer_frame_runs_one_groebner_basis(monkeypatch):
    """Work guard: one Buchberger run per resolution, no kernel or pruning runs."""
    P = _nine_generic_points()
    clear_memos()
    calls = {}
    for name in ("_degree_ordered_basis", "relations", "prune_to_minimal_generators"):
        _count_everywhere(monkeypatch, calls, mreg.groebner, name)
    F = minimal_free_resolution(P)
    assert [F.rank(i) for i in range(F.length + 1)] == [1, 12, 17, 6]
    assert calls == {"_degree_ordered_basis": 1, "relations": 0, "prune_to_minimal_generators": 0}


def test_resolution_and_graded_pieces_share_one_basis(monkeypatch):
    """Work guard: a resolution and three graded pieces of one point ideal make one Buchberger run."""
    P = _nine_generic_points()
    clear_memos()
    calls = {}
    _count_everywhere(monkeypatch, calls, mreg.groebner, "_degree_ordered_basis")
    minimal_free_resolution(P)
    # nine generic points: H_X(a, b) = min(9, (a + 1)(b + 1)), summed over a + b = m
    assert [graded_piece_dimension(P, (1, 1), m) for m in (1, 2, 3)] == [4, 10, 20]
    assert calls["_degree_ordered_basis"] == 1
    # every caller only reads the shared basis: it still equals a fresh run's
    basis, lts = mreg.groebner._memo_basis(P, (1, 1), NO_LIMITS)
    fresh = buchberger(ModuleCtx.for_vector(P.ring, P.shifts, (1, 1)), P.relations)
    assert (list(basis), list(lts)) == fresh
    # the limits are part of the key
    assert graded_piece_dimension(P, (1, 1), 3, Limits(max_degree=50)) == 20
    assert calls["_degree_ordered_basis"] == 3


def test_presentation_hash_is_its_cache_key_hash(p1p1, count_calls):
    ring = multiproj_ring((1, 1), QQ)
    for R in (p1p1, ring):
        gens = [R.parse("x0*y1 - 3/7*x1*y0"), R.parse("2*y0^2 - y0*y1 + 5*y1^2")]
        P = ModulePresentation.quotient_by_ideal(R, gens)
        # the same relations, their terms inserted in the opposite order
        Q = ModulePresentation.quotient_by_ideal(R, [dict(reversed(g.items())) for g in gens])
        assert P == Q and hash(P) == hash(Q) == hash(P.cache_key())
    calls = count_calls(ModulePresentation, "cache_key")
    hash(P)
    assert calls == []  # hashed once, at construction


def test_ext_modules_run_one_groebner_basis_per_index(monkeypatch):
    """Work guard: each E^j with codim <= j < length costs one kernel_of_map, the rest is reduction."""
    P = _nine_generic_points()
    clear_memos()
    cached_minimal_resolution(P)
    calls = {}
    for name in ("_degree_ordered_basis", "relations"):
        _count_everywhere(monkeypatch, calls, mreg.groebner, name)
    _count_everywhere(monkeypatch, calls, ModuleCtx, "vec_degree")
    ext_modules(P)
    # nine points have codim 2 and length 3, so E^0 and E^1 are never built
    # and E^3 needs no kernel: one Buchberger run, for the kernel_of_map of
    # E^2, its relations' basis (the exactness check of an empty modulo needs
    # none); the vec_degree calls are kernel_of_map checking the 17 columns
    # of d_3^T
    assert calls == {"_degree_ordered_basis": 1, "relations": 1, "vec_degree": 17}


def test_element_degrees_are_checked_once(monkeypatch):
    """Work guard: degrees are checked where input enters and carried inward."""
    P = _nine_generic_points()
    calls = {}
    _count_everywhere(monkeypatch, calls, ModuleCtx, "vec_degree")
    _count_everywhere(monkeypatch, calls, mreg.resolution, "minimalize_presentation")
    F = minimal_free_resolution(P)
    assert calls["vec_degree"] == 0
    ctx = ModuleCtx.for_vector(P.ring, P.shifts, (1, 1))
    cols = list(P.relations[:4])
    relations(ctx, cols[:2], cols[2:] + [{}])
    assert calls["vec_degree"] == 4
    # the bases come from the memoized resolution, not from a new minimalization
    degree_bound_sets(P, (1, 1), (0, 1))
    calls["minimalize_presentation"] = 0
    sets = degree_bound_sets(P, (1, 2), (0, 1))
    assert calls["minimalize_presentation"] == 0
    assert sets[0].bases == F.shifts[0]


def test_frame_s_pairs_obey_the_degree_cap(p1p1):
    # the presentation's S-pairs have coarse degree 2; the frame's first
    # S-pair between two syzygies has coarse degree 3
    P = ModulePresentation.quotient_by_ideal(p1p1, [p1p1.parse(g) for g in ("x0", "x1", "y0")])
    with pytest.raises(ResourceLimitError, match="^S-pair of coarse degree 3 exceeds the degree cap 2$") as info:
        minimal_free_resolution(P, limits=Limits(max_degree=2))
    assert "_frame_syzygies" in {entry.name for entry in info.traceback}
    assert minimal_free_resolution(P, limits=Limits(max_degree=3)).length == 3


def test_degree_cap_judges_the_s_pairs_the_criteria_keep():
    # the Buchberger run reduces S-pairs up to coarse degree 10, the frame up
    # to 11; only the queued pairs are judged, those of minimal colon
    # generators that the product criterion does not cover
    P = _nine_generic_points()
    with pytest.raises(ResourceLimitError, match="^S-pair of coarse degree 11 exceeds the degree cap 10$"):
        minimal_free_resolution(P, limits=Limits(max_degree=10))
    F, capped = minimal_free_resolution(P), minimal_free_resolution(P, limits=Limits(max_degree=11))
    assert (capped.shifts, capped.differentials) == (F.shifts, F.differentials)


def test_length_cap_applies_to_the_minimal_resolution(p1p1):
    # the frame of this module has length 3, its minimal resolution length 2
    P = ModulePresentation.quotient_by_ideal(
        p1p1, [p1p1.parse("y0^2 + y1^2"), p1p1.parse("x0*y0*y1 - x0*y1^2")]
    )
    assert minimal_free_resolution(P, limits=Limits(max_length=2)).length == 2
    with pytest.raises(ResourceLimitError, match="^resolution length exceeds the cap 1$"):
        minimal_free_resolution(P, limits=Limits(max_length=1))
    nine = _nine_generic_points()
    for cap in (0, 1, 2):
        with pytest.raises(ResourceLimitError, match=f"^resolution length exceeds the cap {cap}$"):
            minimal_free_resolution(nine, limits=Limits(max_length=cap))
    assert minimal_free_resolution(nine, limits=Limits(max_length=3)).length == 3


def test_levels_are_sorted_by_coarse_then_fine_degree(full_corpus):
    for P in full_corpus:
        v = find_positive_coarsening_vector(P.ring.degrees)
        F = minimal_free_resolution(P, v)
        for level in F.shifts[1:]:
            keys = [(sum(a * b for a, b in zip(s, v)), s) for s in level]
            assert keys == sorted(keys)


def full_scan_minimalize_complex(F: FreeResolution, scans: list):
    """minimalize_complex as it was before its row index: each pivot scans every live
    column of its level.  Appends (columns scanned, columns with a term in the pivot
    row) per pivot to scans."""
    K = F.ring.field
    zero = (0,) * F.ring.n
    diffs = [[dict(col) for col in diff] for diff in F.differentials]
    dead = [set() for _ in F.shifts]
    for i, diff in enumerate(diffs):
        rows_dead, cols_dead = dead[i], dead[i + 1]
        for p, pivot in enumerate(diff):
            q = min((r for r, m in pivot if not any(m) and r not in rows_dead), default=None)
            if q is None:
                continue
            inv = K.inv(pivot[(q, zero)])
            rows_dead.add(q)
            cols_dead.add(p)
            scanned = holding = 0
            for s, col in enumerate(diff):
                if s in cols_dead:
                    continue
                scanned += 1
                terms = [(m, a) for (r, m), a in col.items() if r == q]
                holding += bool(terms)
                for m, a in terms:
                    _isub_term_mul(col, pivot, m, K.mul(a, inv), K)
            scans.append((scanned, holding))
    keep = [[j for j in range(len(level)) if j not in gone] for level, gone in zip(F.shifts, dead)]
    shifts = [tuple(level[j] for j in idx) for level, idx in zip(F.shifts, keep)]
    out_diffs = []
    for i, diff in enumerate(diffs):
        row = {j: k for k, j in enumerate(keep[i])}
        out_diffs.append([{(row[r], m): c for (r, m), c in diff[p].items() if r in row}
                          for p in keep[i + 1]])
    while out_diffs and not shifts[-1]:
        shifts.pop()
        out_diffs.pop()
    return FreeResolution(F.ring, shifts, out_diffs)


def test_minimalize_complex_visits_only_the_pivot_rows_columns(monkeypatch):
    """The row index gives the full scan's complexes, term order included, on seeded
    Ext presentations and frames, and visits far fewer columns."""
    frames = _record_everywhere(monkeypatch, mreg.resolution, "_schreyer_frame")
    ext = _record_everywhere(monkeypatch, mreg.resolution, "_cohomology_presentation")
    for seed, n in ((7, 12), (8, 10), (9, 6)):
        rng = random.Random(seed)
        pts = tuple(((1, rng.randint(1, 32002)), (1, rng.randint(1, 32002))) for _ in range(n))
        P = quotient_presentation(PointSet((1, 1), pts), multiproj_ring((1, 1)))
        clear_memos()
        ext_modules(P)
    complexes = [F for _, F in frames]
    for _, pres in ext:
        nonzero = [j for j, d in enumerate(pres.relation_degrees) if d is not None]
        complexes.append(FreeResolution(pres.ring, [pres.shifts, tuple(
            pres.relation_degrees[j] for j in nonzero)], [[pres.relations[j] for j in nonzero]]))
    assert len(ext) >= 3
    # minimalize_complex's one sorted() call lists the columns a pivot visits
    visits = []
    monkeypatch.setattr(mreg.resolution, "sorted",
                        lambda cols: visits.append(len(cols)) or sorted(cols), raising=False)
    scans = []
    for F in complexes:
        got, want = minimalize_complex(F), full_scan_minimalize_complex(F, scans)
        assert got.shifts == want.shifts
        assert [[list(col.items()) for col in d] for d in got.differentials] == \
            [[list(col.items()) for col in d] for d in want.differentials]
    assert len(visits) == len(scans)
    scanned, holding = sum(s for s, _ in scans), sum(h for _, h in scans)
    # a pivot visits every column holding a term in its row, and a few whose
    # terms there cancelled (on this corpus 2,438 visits, 2,140 holding, 9,231 scanned)
    assert all(h <= v <= s for v, (s, h) in zip(visits, scans))
    assert holding <= sum(visits) < scanned / 3
