"""The principal-angle block formulas against dense SVDs of the n x n matrices.

The library computes every subspace norm on blocks of eigenvector bases
(``U_P* U_Q`` and friends), from ``eigh``.  These tests check each block
formula against the SVD of the full matrix it stands for, so the
eigensolver and the SVD stay independent witnesses of each other.  The
checks on one problem share its blocks through the problem's memo; the
last tests pin that sharing and that it changes no report.  Every block
is gathered from rows and columns of a matrix in a basis where A's
eigenvectors are unit vectors: the given basis when A is diagonal, else A's
eigenbasis.  With a diagonal A the gathered norms must keep every bit of the
products', which the tests form themselves.
"""

import contextlib
import dataclasses
import io
import math
import zlib

import numpy as np
import pytest

from offdiag import (
    THEOREM_IDS,
    PerturbationProblem,
    SpectralSet,
    analysis,
    bound_pair_inequality,
    builtin_example,
    harness,
    projection_difference_norm,
    random_problem,
    random_problem_spec,
    run_theorem,
    subspaces,
    verify_pair_inequality,
)
from offdiag.cli import main
from offdiag.config import DEFAULT_TOL
from offdiag.io import save_problem
from offdiag.operators import (
    EigenDecomposition,
    _basis,
    _blocks,
    _eigh,
    _mask_groups,
    projection_from_eigenvectors,
    spectral_norm,
)

from conftest import (
    complement,
    dense,
    eigendecompose,
    mapped_problem,
    random_close_projection,
    random_hermitian,
    random_unitary,
    rotated,
)

TOL = 1e-12


def dense_norm(m):
    return float(np.linalg.svd(m, compute_uv=False)[0]) if m.size else 0.0


def eigen_projection(rng, dim, rank):
    """Projection onto ``rank`` eigenvectors of a random Hermitian, keeping its bases."""
    dec = eigendecompose(random_hermitian(rng, dim))
    mask = np.zeros(dim, dtype=bool)
    mask[rng.permutation(dim)[:rank]] = True
    return projection_from_eigenvectors(dec, mask)


def unitary_projection(rng, dim, rank):
    """The same kind of projection with both bases rotated by a random unitary."""
    return random_close_projection(rng, eigen_projection(rng, dim, rank), spread=1.0)


def assert_difference_matches(p, q):
    eye, dense_p, dense_q = np.eye(p.dim), dense(p), dense(q)
    got = projection_difference_norm(p, q)
    assert abs(got.norm - dense_norm(dense_p - dense_q)) <= TOL
    assert abs(got.norm_pq_perp - dense_norm(dense_p @ (eye - dense_q))) <= TOL
    assert abs(got.norm_pperp_q - dense_norm((eye - dense_p) @ dense_q)) <= TOL


class TestProjectionDifference:
    @pytest.mark.parametrize("dim", [2, 5, 12])
    def test_random_pairs_with_unequal_ranks(self, rng, dim):
        for _ in range(10):
            rp, rq = rng.integers(0, dim + 1, size=2)
            p, q = eigen_projection(rng, dim, rp), eigen_projection(rng, dim, rq)
            assert_difference_matches(p, q)

    @pytest.mark.parametrize("rank_p, rank_q", [(0, 0), (0, 3), (6, 6), (6, 0), (6, 2), (0, 6)])
    def test_rank_zero_and_full_rank(self, rng, rank_p, rank_q):
        p, q = eigen_projection(rng, 6, rank_p), eigen_projection(rng, 6, rank_q)
        assert_difference_matches(p, q)
        assert_difference_matches(complement(p), q)

    def test_complement(self, rng):
        for _ in range(10):
            p, q = eigen_projection(rng, 8, 3), eigen_projection(rng, 8, 5)
            pc = complement(p)
            np.testing.assert_allclose(dense(pc), np.eye(8) - dense(p), atol=TOL)
            assert_difference_matches(pc, q)
            assert_difference_matches(pc, complement(q))

    def test_rotated_projections(self, rng):
        for _ in range(10):
            p, q = unitary_projection(rng, 7, 3), unitary_projection(rng, 7, 4)
            assert_difference_matches(p, q)
            assert_difference_matches(complement(p), q)
            assert_difference_matches(p, eigen_projection(rng, 7, 2))


def block_bases(rng, dim):
    """Decompositions of each kind ``_basis`` reads: a shuffled diagonal matrix's, gathered
    through its order, and turned by its permutation without it, and a random Hermitian
    matrix's."""
    diagonal = _eigh(np.diag(rng.permutation(dim) - dim / 2.0).astype(complex)[None])
    return {"gathered": diagonal, "unordered": withheld(diagonal),
            "rotated": _eigh(random_hermitian(rng, dim)[None])}


def random_mask(rng, dim, rank):
    mask = np.zeros(dim, dtype=bool)
    mask[rng.permutation(dim)[:rank]] = True
    return mask


def projector(eigen, mask):
    """The dense projection onto the eigenvector columns that ``mask`` picks."""
    u = eigen.eigenvectors[0][:, mask]
    return u @ u.conj().T


def block_norm(eigen, left, right, middle=None, other=None):
    """``||U[:, left]* M U[:, right]||``, or ``||U[:, left]* W[:, right]||`` for ``other``'s
    eigenvectors W, of one ``_blocks`` row, gathered in ``_basis``'s basis as the checks do."""
    order, turn = _basis(eigen)
    source = middle[None] if other is None else other.eigenvectors
    if turn is not None:
        source = turn @ source @ eigen.eigenvectors if other is None else turn @ source
    picks = (np.flatnonzero(mask)[None] for mask in (left, right))
    return dense_norm(_blocks(order, np.array([0]), *picks, source, other is not None)[0])


@pytest.mark.parametrize("kind", ["gathered", "unordered", "rotated"])
class TestCompressedNorms:
    """The blocks ``_blocks`` gathers, in each kind of basis, against the dense n x n products."""

    def test_product_of_projections(self, rng, kind):
        for _ in range(10):
            ea, eb = block_bases(rng, 9)[kind], _eigh(random_hermitian(rng, 9)[None])
            assert (ea.order is not None) is (kind == "gathered")
            mask_a, mask_b = random_mask(rng, 9, 4), random_mask(rng, 9, rng.integers(0, 10))
            got = block_norm(ea, mask_a, mask_b, other=eb)
            assert abs(got - dense_norm(projector(ea, mask_a) @ projector(eb, mask_b))) <= TOL

    def test_diagonal_blocks_of_a_perturbation(self, rng, kind):
        for _ in range(10):
            dec, v = block_bases(rng, 10)[kind], random_hermitian(rng, 10)
            mask = random_mask(rng, 10, rng.integers(0, 11))
            for part in (mask, ~mask):
                p = projector(dec, part)
                assert abs(block_norm(dec, part, part, v) - dense_norm(p @ v @ p)) <= TOL

    def test_commutator(self, rng, kind):
        for _ in range(10):
            dec, a = block_bases(rng, 10)[kind], random_hermitian(rng, 10)
            mask = random_mask(rng, 10, rng.integers(0, 11))
            blocks = max(block_norm(dec, ~mask, mask, a), block_norm(dec, mask, ~mask, a))
            p = projector(dec, mask)
            assert abs(blocks - dense_norm(a @ p - p @ a)) <= TOL


# MCE's numbers that read ||A - B||: the problem's ||V||, or the pair check's SVD of A - B
NORM_READERS = ("norm_a_minus_b", "pi_half_bound")


def assert_matches_the_pair_check(problem):
    """MCE on ``problem`` is the pair check on (A, B), except that it reads ||V|| as ||A - B||.

    The SVD of the computed A - B may differ from ||V|| in the last bits, so the
    numbers that read it agree within 8 eps of the problem's scale; every other
    field is equal.
    """
    got = bound_pair_inequality(problem)
    want = verify_pair_inequality(problem.a, problem.b, problem.sigma, problem.Sigma, problem.tol)
    assert got.witnesses["norm_a_minus_b"] == problem.norm_v
    slack = 8 * np.finfo(float).eps * problem.scale
    for name in NORM_READERS:
        assert abs(got.witnesses[name] - want.witnesses[name]) <= slack
    assert abs(got.claimed_bound - want.claimed_bound) <= slack
    same = {k: v for k, v in want.witnesses.items() if k not in NORM_READERS}
    assert got == dataclasses.replace(want, claimed_bound=got.claimed_bound,
                                      witnesses={**got.witnesses, **same})


class TestPairInequalityEntryPoints:
    def test_problem_level_check_equals_the_pair_check(self):
        for seed in range(4):
            problem = random_problem(random_problem_spec("CASE_II", 4, 5, 0.6, seed=seed))
            # the same seed gives the same unitary, so A and V turn together
            a = rotated(np.random.default_rng(seed), problem.a)
            v = rotated(np.random.default_rng(seed), problem.v)
            problem = PerturbationProblem.build(a, v, problem.sigma, problem.Sigma)
            assert_matches_the_pair_check(problem)

    def test_arbitrary_pair_reads_the_svd_of_a_minus_b(self, rng):
        # B - A is a full Hermitian matrix, not an off-diagonal perturbation of A
        a = random_hermitian(rng, 8)
        b = a + 0.3 * random_hermitian(rng, 8)
        report = verify_pair_inequality(
            a, b, SpectralSet([(-100.0, 0.0)]), SpectralSet([(0.5, 100.0)])
        )
        diff_norm = float(np.linalg.svd(a - b, compute_uv=False)[0])
        assert report.witnesses["norm_a_minus_b"] == diff_norm
        assert report.witnesses["pi_half_bound"] == (math.pi / 2.0) * diff_norm

    def test_measured_value_against_dense_product(self, rng):
        a = random_hermitian(rng, 8)
        b = a + 0.3 * random_hermitian(rng, 8)
        sigma = SpectralSet([(-100.0, 0.0)])
        delta = SpectralSet([(0.5, 100.0)])
        report = verify_pair_inequality(a, b, sigma, delta)
        dec_a, dec_b = eigendecompose(a), eigendecompose(b)
        ea = projection_from_eigenvectors(dec_a, dec_a.eigenvalues <= 0.0)
        eb = projection_from_eigenvectors(dec_b, dec_b.eigenvalues >= 0.5)
        assert abs(report.measured_value - 0.5 * dense_norm(dense(ea) @ dense(eb))) <= TOL


def example(name, scale):
    return lambda: builtin_example(name, scale=scale)


def generated(family, seed, ratio):
    return lambda: random_problem(random_problem_spec(family, 5, 6, ratio, seed=seed))


def swapped(name, scale):
    """The example with sigma and Sigma exchanged, so the hull-separated checks swap roles."""

    def make():
        p = builtin_example(name, scale=scale)
        return PerturbationProblem.build(p.a, p.v, p.Sigma, p.sigma, p.tol)

    return make


# factories, so every use gets a fresh problem with an empty memo
PROBLEMS = {
    **{
        f"{name} x {scale}": example(name, scale)
        for name in ("CASE1", "CASE2")
        for scale in (1.0, 0.99)
    },
    "CASE2 x 0.9 swapped": swapped("CASE2", 0.9),
    **{
        f"{family} seed {seed}": generated(family, seed, ratio)
        for family, ratio in (("CASE_I", 0.45), ("CASE_II", 1.2), ("SUBORDINATED", 4.0))
        for seed in range(3)
    },
}


def analyze_problem(rotate: bool) -> PerturbationProblem:
    """A 16+16 CASE_II problem with diagonal A, or the same problem turned by a random unitary."""
    problem = random_problem(random_problem_spec("CASE_II", 16, 16, 1.2, seed=5))
    if not rotate:
        return problem
    u = random_unitary(np.random.default_rng(5), problem.dim)
    a, v = (u @ m @ u.conj().T for m in (problem.a, problem.v))
    return PerturbationProblem.build(a, v, problem.sigma, problem.Sigma)


class TestSharedWork:
    @pytest.mark.parametrize("rotate", [False, True], ids=["gathered", "turned"])
    def test_analyze_computes_each_block_once(self, rotate, tmp_path, monkeypatch):
        path = tmp_path / "case2.json"
        save_problem(analyze_problem(rotate), path)
        shapes, blocks = [], []
        svd, form = np.linalg.svd, subspaces._blocks
        monkeypatch.setattr(
            np.linalg, "svd", lambda m, *a, **k: shapes.append(np.shape(m)) or svd(m, *a, **k)
        )

        def counted(order, group, left, right, *args, **kwargs):
            # a block is its bases' row and the indices it picks, gathered in the problem's basis:
            # A's eigenbasis, whose order is the identity, exactly when A is turned
            rows = group % len(order)
            turned = (order == np.arange(order.shape[-1])).all()
            blocks.extend((turned, i, x.tobytes(), y.tobytes())
                          for i, x, y in zip(rows.tolist(), left, right))
            return form(order, group, left, right, *args, **kwargs)

        monkeypatch.setattr(subspaces, "_blocks", counted)
        argv = ["analyze", str(path)]
        argv += ["--theorem", "CASE2", "--theorem", "TAN_THETA", "--theorem", "MCE"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        # ||V|| in build, on a stack of one problem; MCE reads it as ||A - B||.  The gathered
        # diagonal blocks of V are exactly zero, so ||V|| is its coupling block's: no n x n SVD
        assert shapes.count((1, 32, 32)) == (1 if rotate else 0)
        assert len(set(blocks)) == len(blocks) > 0
        assert {turned for turned, *_ in blocks} == {rotate}

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_reports_do_not_depend_on_check_order(self, name):
        make = PROBLEMS[name]

        def applicable(problem, theorem):
            return not any(f.startswith("wrong case:") for f in run_theorem(problem, theorem).flags)

        theorems = [t for t in THEOREM_IDS if applicable(make(), t)]
        forward = make()
        reports = [run_theorem(forward, t) for t in theorems]
        backward = make()
        assert reports == [run_theorem(backward, t) for t in reversed(theorems)][::-1]
        assert reports == [run_theorem(make(), t) for t in theorems]

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_problem_level_check_equals_the_pair_check_unrotated(self, name):
        assert_matches_the_pair_check(PROBLEMS[name]())


def withheld(dec: EigenDecomposition) -> EigenDecomposition:
    """``dec`` without its order, so that ``_basis`` turns its stack into its eigenbasis."""
    return EigenDecomposition(dec.eigenvalues, dec.eigenvectors)


def products(u, group, left, right, middle):
    """``U[:, left[g]]* M U[:, right[g]]`` by matrix products, of the stack row i = v mod T of
    each mask row v = group[g]: the blocks of M (T, n, n) that ``_blocks`` gathers."""
    return np.stack([u[k][:, x].conj().T @ middle[k] @ u[k][:, y]
                     for k, x, y in zip((group % len(u)).tolist(), left, right)])


def generated_stack(family, dims, ratio):
    specs = [random_problem_spec(family, *dims, ratio, seed=seed) for seed in range(3)]
    return lambda: harness._random_problems(specs, DEFAULT_TOL)[0]._stack


# stacks whose A is diagonal: three problems of each family, and the built-in examples
DIAGONAL_STACKS = {
    **{
        f"{family} {dims} x {ratio}": generated_stack(family, dims, ratio)
        for family in ("CASE_I", "CASE_II", "SUBORDINATED")
        for dims in ((2, 2), (3, 4), (8, 8))
        for ratio in (0.0, 0.45, 1.2, 4.0)
    },
    **{
        f"{name} x {scale}": lambda name=name, scale=scale: builtin_example(name, scale)._stack
        for name in ("CASE1", "CASE2")
        for scale in (0.0, 0.5, 1.0)
    },
}


class TestGatheredBlocks:
    @pytest.mark.parametrize("name", sorted(DIAGONAL_STACKS))
    def test_block_norms_keep_the_bits_of_the_products(self, name):
        stack = DIAGONAL_STACKS[name]()
        a, b = stack.a_eigen, stack.b_eigen
        assert a.order is not None
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        count, dim = 16 * len(stack.d), a.eigenvalues.shape[-1]
        # each mask row at its own density, empty and full picks among them
        mask_a, mask_b = rng.random((2, count, dim)) < rng.random((2, count, 1))
        mask_a[0], mask_b[1] = False, True
        gathered = subspaces._block_norms({}, stack.order, stack.b_vectors, mask_a, mask_b)
        u_a, u_b, rows = a.eigenvectors, b.eigenvectors, len(stack.d)
        multiplied = [spectral_norm(u_a[v % rows][:, x].conj().T @ u_b[v % rows][:, y])
                      for v, (x, y) in enumerate(zip(mask_a, mask_b))]
        assert np.array(gathered).tobytes() == np.array(multiplied).tobytes()

    @pytest.mark.parametrize("name", sorted(DIAGONAL_STACKS))
    def test_structural_blocks_equal_the_products(self, name):
        stack = DIAGONAL_STACKS[name]()
        u = stack.a_eigen.eigenvectors
        for rows, inside, outside in _mask_groups(stack.sigma_mask, ~stack.sigma_mask):
            for x, y, m in ((inside, inside, stack.v), (outside, outside, stack.v),
                            (outside, inside, stack.a), (inside, outside, stack.a)):
                got = _blocks(stack.order, rows, x, y, m)
                # equal as numbers: the products' exact zeros may carry the other sign
                assert np.array_equal(got, products(u, rows, x, y, m))

    def test_only_a_non_diagonal_problem_turns_its_stack(self, monkeypatch):
        # every block is gathered from the given V, A and U_B exactly when A is diagonal
        sources = []

        def recorded(order, group, left, right, source, **kwargs):
            sources.append(source)
            return _blocks(order, group, left, right, source, **kwargs)

        for module in (analysis, subspaces):
            monkeypatch.setattr(module, "_blocks", recorded)
        for rotate in (False, True):
            given = analyze_problem(rotate)
            sources.clear()
            problem = PerturbationProblem.build(given.a, given.v, given.sigma, given.Sigma)
            for theorem in THEOREM_IDS:
                run_theorem(problem, theorem)
            stack = problem._stack
            turned = [all(s is not m for m in (stack.a, stack.v, stack.b_eigen.eigenvectors))
                      for s in sources]
            assert turned and set(turned) == {rotate}


EPS = np.finfo(float).eps
FAMILY_RATIOS = {"CASE_I": 0.45, "CASE_II": 1.2, "SUBORDINATED": 4.0}
SETS_2_2 = (SpectralSet.from_points([0.0, 0.5]), SpectralSet.from_points([2.0, 3.0]))


def coupled_2_2(residue: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal A of ``SETS_2_2`` and a V coupling them, with ``residue`` at (0, 1) and (1, 0)."""
    a = np.diag([0.0, 0.5, 2.0, 3.0]).astype(complex)
    v = np.zeros((4, 4), dtype=complex)
    v[:2, 2:] = [[0.3, 0.1j], [-0.2, 0.4 - 0.1j]]
    v[2:, :2] = v[:2, 2:].conj().T
    v[0, 1] = v[1, 0] = residue
    return a, v


class TestCouplingNorm:
    """``||V||`` is its coupling block's norm when V's diagonal blocks are exactly zero."""

    @pytest.mark.parametrize("family", sorted(FAMILY_RATIOS))
    @pytest.mark.parametrize("dims, seeds", [((2, 2), range(8)), ((8, 8), range(8)),
                                             ((32, 32), range(4)), ((128, 128), range(2))])
    def test_norm_v_is_the_svd_of_v_to_round_off(self, family, dims, seeds):
        specs = [random_problem_spec(family, *dims, FAMILY_RATIOS[family], seed) for seed in seeds]
        for problem in harness._random_problems(specs, DEFAULT_TOL):
            assert abs(problem.norm_v - spectral_norm(problem.v)) <= 16 * EPS * problem.norm_v

    def test_a_diagonal_residue_keeps_the_svd_of_v(self):
        (a, exact), (_, residue) = coupled_2_2(0.0), coupled_2_2(1e-13)
        assert PerturbationProblem.build(a, residue, *SETS_2_2).norm_v == spectral_norm(residue)
        # both kinds of row in one stack, each with the norm it gets alone
        ends = [(np.stack([s.lo] * 2), np.stack([s.hi] * 2)) for s in SETS_2_2]
        rows = PerturbationProblem._build(
            np.stack([a, a]), np.stack([exact, residue]), *ends, False, DEFAULT_TOL
        )
        assert [p.norm_v for p in rows] == [spectral_norm(exact[:2, 2:]), spectral_norm(residue)]

    def test_a_rotated_a_keeps_the_svd_of_v(self):
        problem = analyze_problem(True)
        assert problem.norm_v == spectral_norm(problem.v)

    @pytest.mark.parametrize("rotate", [False, True], ids=["gathered", "turned"])
    def test_v_zero_has_norm_zero(self, rotate):
        problem = builtin_example("CASE1", 0.0)
        if rotate:
            unitary = random_unitary(np.random.default_rng(3), problem.dim)
            problem = mapped_problem(problem, 1.0, unitary=unitary)
        assert (problem.a_eigen.order is None) is rotate
        assert problem.norm_v == 0.0


def rank_masks(rng, count, dim, equal):
    """Mask pairs (count, dim) at random positions, whose ranks are equal where ``equal``."""
    ranks_p = rng.integers(0, dim + 1, count)
    ranks_q = np.where(equal, ranks_p, (ranks_p + rng.integers(1, dim + 1, count)) % (dim + 1))
    masks = np.zeros((2, count, dim), dtype=bool)
    for side, ranks in enumerate((ranks_p, ranks_q)):
        for row, rank in enumerate(ranks.tolist()):
            masks[side, row, rng.permutation(dim)[:rank]] = True
    return masks


class TestEqualRankRule:
    """Where P and Q have equal rank, ``||P Q_perp|| = ||P_perp Q||``: one block is formed.

    Both are the sine of the largest principal angle, so ``_difference`` takes
    the (mask_p, ~mask_q) block alone and both witnesses read it; a row of
    unequal ranks forms both blocks.
    """

    @pytest.mark.parametrize("rotate", [False, True], ids=["gathered", "turned"])
    @pytest.mark.parametrize("dims", [(4, 4), (20, 20), (128, 128)], ids=["n8", "n40", "n256"])
    def test_equal_rank_rows_form_one_block(self, dims, rotate, monkeypatch):
        stack = generated_stack("CASE_II", dims, 1.2)()
        a, b, rows = stack.a_eigen, stack.b_eigen, len(stack.d)
        if rotate:
            # the stack turned into A's eigenbasis by A's permutation, as a stack with a
            # non-diagonal row turns its diagonal rows
            stack.order, turn = _basis(withheld(a))
            stack.b_vectors = turn @ b.eigenvectors
        count, dim = 4 * rows, a.eigenvalues.shape[-1]
        equal = np.arange(count) % 2 == 0
        mask_p, mask_q = rank_masks(np.random.default_rng(dim + rotate), count, dim, equal)
        formed, form = [], subspaces._blocks

        def counted(order, group, left, right, *args, **kwargs):
            rows = group % len(order)
            formed.extend((i, x.tobytes(), y.tobytes())
                          for i, x, y in zip(rows.tolist(), left, right))
            return form(order, group, left, right, *args, **kwargs)

        monkeypatch.setattr(subspaces, "_blocks", counted)
        got = subspaces._difference(stack, mask_p, mask_q)

        def picks(v, x, y):
            return v % rows, np.nonzero(x)[0].tobytes(), np.nonzero(y)[0].tobytes()

        want = {picks(v, p, ~q) for v, (p, q) in enumerate(zip(mask_p, mask_q))}
        want |= {picks(v, ~mask_p[v], mask_q[v]) for v in np.nonzero(~equal)[0]}
        assert len(formed) == len(set(formed)) and set(formed) == want
        # the memo holds the formed blocks alone: a skipped block is never entered
        assert len(stack.memo) == len(want)

        def fresh(x, y):
            return subspaces._block_norms({}, stack.order, stack.b_vectors, x, y)

        pq_perp, pperp_q = fresh(mask_p, ~mask_q), fresh(~mask_p, mask_q)
        # one ProjectionDifference of columns, a row per mask pair
        assert all(x.shape == (count,) for x in got)
        for v, diff in enumerate(zip(*(x.tolist() for x in got))):
            i = v % rows
            p, q = (projection_from_eigenvectors(EigenDecomposition(e.eigenvalues[i],
                                                                    e.eigenvectors[i]), m[v])
                    for e, m in ((a, mask_p), (b, mask_q)))
            reference = projection_difference_norm(p, q)
            if equal[v]:
                assert diff == (pq_perp[v],) * 3
            else:
                assert diff == (max(pq_perp[v], pperp_q[v]), pq_perp[v], pperp_q[v])
            for x, y in zip(diff, reference):
                assert abs(x - y) <= 8 * EPS
