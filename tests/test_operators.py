import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import saddle_raar.operators as operators
from saddle_raar import (
    AliasingError,
    CodedDiffractionEnsemble,
    DimensionError,
    GaussianEnsemble,
    InvalidMaskError,
    build_cdp_ensemble,
    build_gaussian_ensemble,
    build_rpp,
    ensemble_from_descriptor,
    project_torus,
    shepp_logan,
    unit_phase,
)
from saddle_raar.operators import complex_to_interleaved, interleaved_to_complex, random_unit_masks, split_lift
from conftest import placed, random_complex


class TestGaussianEnsemble:
    def test_non_integer_size_is_rejected(self):
        for n, N in ((2.5, 8), (2, 8.0)):
            with pytest.raises(TypeError, match="must be an integer"):
                build_gaussian_ensemble(n, N, 1)
        assert build_gaussian_ensemble(np.int64(2), 8, 1).n == 2

    def test_identity_case(self):
        E = build_gaussian_ensemble(1, 1, seed=0)
        a = E.materialize_adjoint()
        assert a.shape == (1, 1)
        assert abs(abs(a[0, 0]) - 1.0) < 1e-14
        x = np.array([2.0 + 1.0j])
        assert abs(np.linalg.norm(E.apply_adjoint(x)) - np.linalg.norm(x)) < 1e-14

    def test_isometry_probes(self):
        E = build_gaussian_ensemble(100, 400, seed=2)
        assert E.isometry_defect(probes=100, seed=0) <= 1e-10

    def test_projection_idempotent(self):
        E = build_gaussian_ensemble(16, 48, seed=5)
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = random_complex(rng, 48)
            pw = E.project_range(w)
            assert np.linalg.norm(E.project_range(pw) - pw) <= 1e-12 * np.linalg.norm(w)

    def test_pythagoras(self, dense_small):
        E, _, _ = dense_small
        assert E.projection_defect(probes=100, seed=1) <= 1e-10

    def test_adjoint_identity(self, dense_small):
        E, _, _ = dense_small
        rng = np.random.default_rng(8)
        for _ in range(20):
            x = random_complex(rng, E.n)
            w = random_complex(rng, E.N)
            lhs = np.real(np.vdot(E.apply_adjoint(x), w))
            rhs = np.real(np.vdot(x, E.apply(w)))
            scale = np.linalg.norm(x) * np.linalg.norm(w)
            assert abs(lhs - rhs) <= 1e-12 * scale

    def test_lift_then_project_back(self, dense_small):
        E, _, _ = dense_small
        rng = np.random.default_rng(9)
        x = random_complex(rng, E.n)
        assert np.allclose(E.apply(E.apply_adjoint(x)), x, rtol=0, atol=1e-12 * np.linalg.norm(x))

    def test_dense_matches_materialized(self):
        E = build_gaussian_ensemble(2, 6, seed=4)
        a = E.materialize_adjoint()
        rng = np.random.default_rng(1)
        x = random_complex(rng, 2)
        assert np.allclose(E.apply_adjoint(x), a @ x, atol=1e-14)

    def test_zero_maps_to_zero(self, dense_small):
        E, _, _ = dense_small
        assert np.all(E.apply_adjoint(np.zeros(E.n)) == 0)
        assert np.all(E.apply(np.zeros(E.N)) == 0)

    def test_dimension_errors(self, dense_small):
        E, _, _ = dense_small
        with pytest.raises(DimensionError):
            build_gaussian_ensemble(10, 5, seed=0)
        with pytest.raises(DimensionError):
            E.apply_adjoint(np.zeros(E.n + 1))
        with pytest.raises(DimensionError):
            E.apply(np.zeros(E.N + 1))

    def test_deterministic(self):
        a = build_gaussian_ensemble(4, 8, seed=3).materialize_adjoint()
        b = build_gaussian_ensemble(4, 8, seed=3).materialize_adjoint()
        assert np.array_equal(a, b)

    def test_adjoint_sits_on_a_cache_line_and_is_the_qr_output(self):
        for seed in range(6):
            for n, N in ((100, 400), (16, 48), (3, 7)):
                E = build_gaussian_ensemble(n, N, seed)
                rng = np.random.default_rng(seed)
                q, _ = np.linalg.qr(rng.standard_normal((N, n)) + 1j * rng.standard_normal((N, n)))
                assert E._adjoint.ctypes.data % 64 == 0
                assert E._adjoint.shape == q.shape and E._adjoint.flags.c_contiguous
                assert E._adjoint.tobytes() == q.tobytes()

    def test_non_integer_seed_is_rejected(self):
        # int() would truncate 3.7 to seed 3 and build that ensemble
        for seed in (3.7, 3.0):
            with pytest.raises(TypeError, match="seed must be an integer"):
                GaussianEnsemble(3, 7, seed)
            with pytest.raises(TypeError, match="seed must be an integer"):
                ensemble_from_descriptor({"kind": "dense-gaussian", "n": 3, "N": 7, "seed": seed})
        assert build_gaussian_ensemble(3, 7, np.int64(3)).seed == 3

    @pytest.mark.parametrize("n, N", [(1, 1), (1, 9), (2, 2), (5, 5), (33, 34), (37, 101), (16, 64),
                                      (100, 500), (257, 257)])
    def test_adjoint_is_the_qr_output_across_lapack_block_sizes(self, n, N):
        # square and tall shapes on both sides of LAPACK's QR block size, each to the bit
        for seed in range(3):
            rng = np.random.default_rng(seed)
            q, _ = np.linalg.qr(rng.standard_normal((N, n)) + 1j * rng.standard_normal((N, n)))
            assert build_gaussian_ensemble(n, N, seed)._adjoint.tobytes() == q.tobytes()

    def test_a_lapack_failure_raises(self, monkeypatch):
        def failing(*args):
            return {"info": -7}

        failing.__name__ = "zgeqrf"
        monkeypatch.setattr(operators, "lapack_lite", SimpleNamespace(zgeqrf=failing, zungqr=failing))
        with pytest.raises(np.linalg.LinAlgError, match="zgeqrf returned info=-7"):
            GaussianEnsemble(2, 4, 0)


class TestCodedDiffractionEnsemble:
    def test_single_pixel(self):
        # 1x1 object, two masks, minimal padding: N=2, both magnitudes |x|/sqrt(2)
        E = CodedDiffractionEnsemble((1, 1), random_unit_masks((1, 1), 2, 0), padded=(1, 1))
        assert E.N == 2
        x = np.array([3.0 - 4.0j])
        w = E.apply_adjoint(x)
        assert np.allclose(np.abs(w), abs(x[0]) / np.sqrt(2.0), atol=1e-12)

    @pytest.mark.parametrize("grid", [(0, 0), (0, 4), (4, 0), (-1, 4)])
    def test_empty_or_negative_grid_rejected(self, grid):
        rows, cols = grid
        with pytest.raises(DimensionError, match=f"grid {rows}x{cols}"):
            build_cdp_ensemble(grid)
        with pytest.raises(DimensionError, match=f"grid {rows}x{cols}"):
            CodedDiffractionEnsemble(grid, np.ones((2, 0, 0)))

    def test_isometry_8x8(self):
        E = build_cdp_ensemble((8, 8), seed=1)
        assert E.N == 2 * 16 * 16
        assert E.isometry_defect(probes=100, seed=0) <= 1e-10
        assert E.projection_defect(probes=20, seed=0) <= 1e-10

    def test_matches_dense_dft_matrix(self):
        # independent oracle: explicitly built padded-DFT matrix per mask
        grid, padded = (4, 3), (8, 6)
        E = CodedDiffractionEnsemble(grid, random_unit_masks(grid, 2, 9), padded=padded)
        r, c = grid
        pr, pc = padded
        rows = []
        for mask in E.masks:
            f1 = np.exp(-2j * np.pi * np.outer(np.arange(pr), np.arange(r)) / pr)
            f2 = np.exp(-2j * np.pi * np.outer(np.arange(pc), np.arange(c)) / pc)
            block = np.einsum("ka,lb,ab->klab", f1, f2, mask).reshape(pr * pc, r * c)
            rows.append(block)
        dense = E.c0 * np.concatenate(rows, axis=0)
        materialized = E.materialize_adjoint()
        assert np.max(np.abs(dense - materialized)) <= 1e-10 * np.max(np.abs(dense))

    def test_scale_probe_disagreement_raises(self, monkeypatch):
        # the analytic scale is exact, so a disagreeing probe is a defect
        # to report, never a calibration to absorb into c0
        monkeypatch.setattr(CodedDiffractionEnsemble, "isometry_defect", lambda self, probes, seed: 1e-6)
        with pytest.raises(RuntimeError, match="isometry scale"):
            build_cdp_ensemble((4, 4), seed=0)

    def test_mask_validation(self):
        bad = np.ones((2, 4, 4), dtype=complex)
        bad[1, 0, 0] = 2.0
        with pytest.raises(InvalidMaskError):
            CodedDiffractionEnsemble((4, 4), bad)
        with pytest.raises(InvalidMaskError):
            build_cdp_ensemble((4, 4), n_masks=1, seed=0)
        # a single 2-D mask is not a stack of masks
        with pytest.raises(DimensionError, match=r"masks must have shape \(l, 4, 4\)"):
            CodedDiffractionEnsemble((4, 4), np.ones((4, 4)))

    def test_aliasing_guard(self):
        masks = random_unit_masks((4, 4), 2, 0)
        with pytest.raises(AliasingError):
            CodedDiffractionEnsemble((4, 4), masks, padded=(6, 6))
        # minimal oversampling (2r-1, 2c-1) is allowed
        E = CodedDiffractionEnsemble((4, 4), masks, padded=(7, 7))
        assert E.isometry_defect(probes=10, seed=0) <= 1e-10

    def test_descriptor_roundtrip(self):
        E = build_cdp_ensemble((4, 4), seed=2)
        E2 = ensemble_from_descriptor(E.descriptor())
        rng = np.random.default_rng(0)
        x = random_complex(rng, E.n)
        assert np.allclose(E.apply_adjoint(x), E2.apply_adjoint(x), atol=1e-14)

    def test_gaussian_descriptor_roundtrip(self):
        E = build_gaussian_ensemble(5, 12, seed=6)
        E2 = ensemble_from_descriptor(E.descriptor())
        rng = np.random.default_rng(0)
        x = random_complex(rng, 5)
        assert np.array_equal(E.apply_adjoint(x), E2.apply_adjoint(x))


def _slice_interleaved(vec):
    """Reference encoder by strided slices: real parts at the even slots, imaginary parts at the odd ones."""
    vec = np.asarray(vec, dtype=np.complex128).ravel()
    out = np.empty(2 * vec.size, dtype=np.float64)
    out[0::2] = vec.real
    out[1::2] = vec.imag
    return out.tolist()


class TestInterleavedCodec:
    SPECIAL = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 1.5]

    def _vectors(self):
        parts = np.array(self.SPECIAL)
        grid = np.array([complex(re, im) for re in parts for im in parts])
        return [grid, grid[::3], grid.reshape(8, 8).T, grid.reshape(8, 8)[::2, 1::3], parts, parts[::-1]]

    def test_matches_the_slice_form_on_signed_zeros_nan_and_inf(self):
        for vec in self._vectors():
            got, ref = complex_to_interleaved(vec), _slice_interleaved(vec)
            assert all(type(v) is float for v in got)
            assert np.array(got).tobytes() == np.array(ref).tobytes()  # NaN and -0.0 bits included
            assert interleaved_to_complex(got).tobytes() == np.asarray(vec, dtype=complex).ravel().tobytes()


def _out_cases(E, rng):
    """``(name, call, inputs, count)`` of each public function that takes ``out``, a vector or ``count`` of them."""
    b = np.abs(random_complex(rng, E.N))
    b[::5] = 0.0
    w = random_complex(rng, E.N)
    w[1::7] = 0.0  # unit_phase's masked branch
    x = random_complex(rng, E.n)
    return [
        ("apply_adjoint", lambda x, out=None: E.apply_adjoint(x, out=out), (x,), 1),
        ("project_range", lambda w, out=None: E.project_range(w, out=out), (w,), 1),
        ("unit_phase", unit_phase, (w,), 1),
        ("project_torus", project_torus, (w, b), 1),
        ("split_lift", split_lift, (w, b), 2),
    ]


def _ensemble_arrays(E):
    return {name: v.tobytes() for name, v in vars(E).items() if isinstance(v, np.ndarray)}


@pytest.mark.parametrize("make", [lambda: build_gaussian_ensemble(100, 400, seed=3),
                                  lambda: build_cdp_ensemble((16, 16), seed=2)], ids=["gaussian", "cdp"])
def test_out_gives_the_same_bytes_and_writes_only_out(make):
    # inputs and NaN-filled outs at each offset in a cache line: the bits of the call without out, in out's memory
    E = make()
    held = _ensemble_arrays(E)
    for name, call, inputs, count in _out_cases(E, np.random.default_rng(12)):
        ref = call(*inputs)
        ref = [ref] if count == 1 else list(ref)
        for offset in (0, 16, 32, 48):
            args = [placed(v, offset) for v in inputs]
            outs = [placed(np.full(E.N, np.nan, dtype=complex), offset) for _ in range(count)]
            got = call(*args, out=outs[0] if count == 1 else tuple(outs))
            got = [got] if count == 1 else list(got)
            assert [v.tobytes() for v in got] == [v.tobytes() for v in ref], (name, offset)
            assert all(g is o for g, o in zip(got, outs)), (name, offset)
            assert all(a.tobytes() == v.tobytes() for a, v in zip(args, inputs)), (name, offset)  # inputs kept
    assert _ensemble_arrays(E) == held


def test_gaussian_projection_takes_its_conjugate_in_out():
    # conj(w) goes into out, which A* overwrites once A w is formed: only n-vectors are allocated
    E = build_gaussian_ensemble(100, 400, seed=3)
    w, out = random_complex(np.random.default_rng(5), E.N), np.empty(E.N, dtype=complex)
    E.project_range(w, out=out)
    tracemalloc.start()
    try:
        E.project_range(w, out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < E.N * 16
    assert E.project_range(w, out=w) is w and w.tobytes() == out.tobytes()  # out may be w


def _per_mask_adjoint(E, x):
    """``A*`` as one zero-padded ``fft2`` per mask (the reference loop)."""
    (r, c), (pr, pc) = E.grid, E.padded
    out = np.empty((E.l, pr, pc), dtype=np.complex128)
    buf = np.zeros((pr, pc), dtype=np.complex128)
    for j in range(E.l):
        buf[:r, :c] = E.masks[j] * x.reshape(E.grid)
        out[j] = np.fft.fft2(buf)
    return E.c0 * out.reshape(E.N)


def _per_mask_apply(E, w):
    """``A`` as one full ``ifft2`` per mask, cropped to the object grid."""
    (r, c), (pr, pc) = E.grid, E.padded
    blocks = w.reshape(E.l, pr, pc)
    acc = np.zeros(E.grid, dtype=np.complex128)
    for j in range(E.l):
        full = np.fft.ifft2(blocks[j]) * (pr * pc)
        acc += E.masks[j].conj() * full[:r, :c]
    return (E.c0 * acc).reshape(E.n)


def _column_adjoint(E):
    """Dense ``A*`` built one lifted basis vector at a time."""
    cols = np.empty((E.N, E.n), dtype=np.complex128)
    for j in range(E.n):
        e = np.zeros(E.n, dtype=np.complex128)
        e[j] = 1.0
        cols[:, j] = E.apply_adjoint(e)
    return cols


class TestBatchedCdpOperator:
    """The batched, pruned transforms reproduce the per-mask 2-D DFTs exactly.

    Equality is bitwise, not to roundoff: the acceptance criteria gate
    quantities (criterion 08's final dual gradient) that a 1-ulp change in
    the operator moves past their tolerance.
    """

    @pytest.mark.parametrize(
        "grid, n_masks, padded",
        [((8, 8), 2, None), ((8, 8), 3, None), ((8, 8), 4, None), ((5, 7), 2, None),
         ((6, 4), 3, (11, 7)), ((16, 16), 2, (31, 31))],
    )
    def test_matches_per_mask_loop_bitwise(self, grid, n_masks, padded):
        E = CodedDiffractionEnsemble(grid, random_unit_masks(grid, n_masks, 4), padded=padded)
        rng = np.random.default_rng(30)
        for _ in range(3):
            x = random_complex(rng, E.n)
            w = random_complex(rng, E.N)
            assert np.array_equal(E.apply_adjoint(x), _per_mask_adjoint(E, x))
            a = _per_mask_apply(E, w)
            pw, w_in = E.apply_adjoint(a).tobytes(), w.copy()
            assert np.array_equal(E.apply(w), a)
            assert E.project_range(w).tobytes() == pw
            # A's transforms run in a given block, and P w = A*(A w) in its out, at each cache-line
            # offset; neither writes w
            for offset in (0, 16, 32, 48):
                assert np.array_equal(E.apply(w, placed(np.full(E.N, np.nan, dtype=complex), offset)), a)
                o = placed(np.full(E.N, np.nan, dtype=complex), offset)
                assert E.project_range(w, out=o) is o and o.tobytes() == pw
                assert np.array_equal(w, w_in)
            # the block, and the out, may be w itself
            assert np.array_equal(E.apply(w_in, w_in), a)
            assert E.project_range(w, out=w) is w and w.tobytes() == pw
        dense = E.materialize_adjoint()
        assert dense.flags.c_contiguous
        assert np.array_equal(dense, _column_adjoint(E))

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(r=st.integers(1, 9), c=st.integers(1, 9), n_masks=st.integers(2, 4),
           extra=st.tuples(st.integers(0, 4), st.integers(0, 4)), seed=st.integers(0, 2**32 - 1))
    def test_lift_is_the_per_mask_loop_and_holds_no_buffer(self, r, c, n_masks, extra, seed):
        # paddings from the smallest unaliased (2r - 1, 2c - 1) up, odd and even
        padded = (2 * r - 1 + extra[0], 2 * c - 1 + extra[1])
        E = CodedDiffractionEnsemble((r, c), random_unit_masks((r, c), n_masks, seed), padded=padded)
        x = random_complex(np.random.default_rng(seed), E.n)
        x_in = x.copy()
        # back-to-back calls give the same bits in their own memory: no block is kept between calls
        first, second = E.apply_adjoint(x_in), E.apply_adjoint(x_in)
        assert np.array_equal(x_in, x)  # the input is only read
        assert first.tobytes() == second.tobytes() == _per_mask_adjoint(E, x).tobytes()
        assert not np.shares_memory(first, second)
        first[:] = np.nan
        assert np.array_equal(second, _per_mask_adjoint(E, x))
        dense, again = E.materialize_adjoint(), E.materialize_adjoint()
        columns = np.stack([_per_mask_adjoint(E, e) for e in np.eye(E.n, dtype=np.complex128)], axis=1)
        assert dense.tobytes() == again.tobytes() == columns.tobytes()
        assert not np.shares_memory(dense, again)

    def test_unit_phase_matches_masked_division(self):
        rng = np.random.default_rng(31)
        w = random_complex(rng, 64)
        w[::7] = 0.0
        w[3] = -0.0 - 0.0j
        mag = np.abs(w)
        expected = np.ones_like(w)
        expected[mag > 0] = w[mag > 0] / mag[mag > 0]
        assert unit_phase(w).tobytes() == expected.tobytes()


# zeros, subnormals and normals near the smallest normal double, 2.2e-308
_TINY_PARTS = [0.0, -0.0, 5e-324, -1e-320, 1e-310, -2e-308, 2.3e-308]
_SMALLEST_NORMAL = float(np.finfo(np.float64).tiny)


def _masked_phase(w):
    """``unit_phase``'s masked form: ``w / |w|`` where ``|w|`` is normal, 1 elsewhere."""
    mag = np.abs(w)
    return np.divide(w, mag, out=np.ones_like(w), where=mag >= _SMALLEST_NORMAL)


class TestTorusProjection:
    def test_real_positive(self):
        b = np.array([1.0, 2.0, 0.5])
        w = np.array([3.0, 0.1, 7.0], dtype=complex)
        assert np.allclose(project_torus(w, b), b)

    def test_phase_preserved(self):
        b = np.array([1.0, 2.0])
        w = 1j * b
        assert np.allclose(project_torus(w, b), 1j * b)

    def test_zero_entry_convention(self):
        out = project_torus(np.array([0.0 + 0.0j, 1.0j]), np.array([2.0, 3.0]))
        assert out[0] == 2.0 + 0.0j
        assert np.isclose(out[1], 3.0j)

    def test_idempotent_and_exact_magnitudes(self):
        rng = np.random.default_rng(4)
        b = np.abs(rng.standard_normal(50))
        b[7] = 0.0
        w = random_complex(rng, 50)
        z = project_torus(w, b)
        pos = b > 0
        assert np.max(np.abs(np.abs(z)[pos] - b[pos]) / b[pos]) <= 1e-12
        assert z[7] == 0.0
        assert np.allclose(project_torus(z, b), z, atol=1e-15)

    def test_unit_phase_zero(self):
        assert unit_phase(np.array([0.0 + 0.0j]))[0] == 1.0 + 0.0j

    def test_subnormal_entry_takes_phase_one(self):
        # w / |w| overflows here: 1e-310 / |1e-310 (1 + i)| rounds |w| to a subnormal
        w = np.array([1e-310 + 1e-310j, -5e-324j])
        assert unit_phase(w).tobytes() == np.ones(2, dtype=complex).tobytes()
        assert project_torus(w, np.array([2.0, 3.0])).tobytes() == np.array([2.0, 3.0], dtype=complex).tobytes()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(*[st.one_of(st.floats(-1e300, 1e300), st.sampled_from(_TINY_PARTS))] * 2),
                    min_size=1, max_size=16))
    def test_unit_phase_is_finite_and_exact_above_the_smallest_normal(self, parts):
        w = np.array([complex(re, im) for re, im in parts])
        phase = unit_phase(w)
        assert np.isfinite(phase).all()
        assert np.max(np.abs(np.abs(phase) - 1.0)) <= 1e-15
        normal = np.abs(w) >= np.finfo(np.float64).tiny
        assert phase[normal].tobytes() == (w[normal] / np.abs(w[normal])).tobytes()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(st.one_of(st.floats(_SMALLEST_NORMAL, 1e300), st.floats(-1e300, -_SMALLEST_NORMAL)),
                              st.one_of(st.floats(-1e300, 1e300), st.sampled_from(_TINY_PARTS)), st.booleans()),
                    min_size=1, max_size=16))
    def test_unit_phase_of_normal_magnitudes_is_the_plain_quotient(self, parts):
        # one part of each entry is normal, so every |w| is and the unmasked divide runs
        w = np.array([complex(a, c) if real_first else complex(c, a) for a, c, real_first in parts])
        assert np.abs(w).min() >= _SMALLEST_NORMAL
        phase = unit_phase(w)
        assert phase.tobytes() == (w / np.abs(w)).tobytes() == _masked_phase(w).tobytes()

    @pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(np.nan, 1.0), complex(np.inf, 0.0),
                                     complex(1.0, -np.inf), complex(np.inf, np.inf), complex(-np.inf, np.nan)])
    def test_a_nonfinite_entry_keeps_the_masked_form(self, bad):
        w = random_complex(np.random.default_rng(2), 9)
        w[4] = bad
        with np.errstate(invalid="ignore"):
            phase, masked = unit_phase(w), _masked_phase(w)
        assert phase.tobytes() == masked.tobytes()
        if np.isnan(np.abs(bad)):
            assert phase[4] == 1.0


class TestPhantom:
    def test_shepp_logan_range(self):
        img = shepp_logan((64, 64))
        assert img.shape == (64, 64)
        assert img.min() >= 0.0
        assert img.max() > 0.5

    def test_rpp_deterministic(self):
        a = build_rpp((32, 32), seed=5)
        b = build_rpp((32, 32), seed=5)
        assert np.array_equal(a.values, b.values)
        c = build_rpp((32, 32), seed=6)
        assert not np.array_equal(a.values, c.values)

    def test_rpp_magnitude_is_phantom(self):
        ph = build_rpp((32, 32), seed=1)
        margin = 4  # ceil(32/8)
        p = np.zeros((32, 32))
        p[margin:-margin, margin:-margin] = shepp_logan((24, 24))
        assert np.allclose(ph.magnitude, p, atol=1e-15)

    def test_rpp_rank(self):
        ph = build_rpp((32, 32), seed=2)
        assert np.linalg.matrix_rank(ph.values.reshape(ph.grid)) >= 2

    def test_grid_too_small(self):
        with pytest.raises(DimensionError):
            build_rpp((8, 8), seed=0)


class TestRangeProjection:
    def test_range_vectors_are_fixed(self, dense_small):
        E, _, _ = dense_small
        rng = np.random.default_rng(20)
        w = E.apply_adjoint(random_complex(rng, E.n))
        assert np.linalg.norm(E.project_range(w) - w) <= 1e-12 * np.linalg.norm(w)

    def test_complement_vectors_map_to_zero(self, dense_small):
        E, _, _ = dense_small
        rng = np.random.default_rng(21)
        w = random_complex(rng, E.N)
        perp = w - E.project_range(w)
        assert np.linalg.norm(E.project_range(perp)) <= 1e-12 * np.linalg.norm(w)
