"""The batched (SpMM) path: numerics, k=1 byte-identity, amortisation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.acsr import ACSRFormat
from repro.formats import PAPER_COMPARISON_SET, build_format
from repro.formats.base import FormatCapacityError
from repro.formats.bccoo import BCCOOConfig
from repro.formats.convert import available_formats
from repro.gpu.device import GTX_580, GTX_TITAN, TESLA_K10, Precision
from repro.gpu.kernel import KernelWork

from ..conftest import make_powerlaw_csr

DEVICES = (GTX_580, TESLA_K10, GTX_TITAN)

#: Cheap construction kwargs so the tuners don't dominate the test.
FAST_KWARGS = {
    "bccoo": {
        "configs": [
            BCCOOConfig(1, 1, 128, 2, True),
            BCCOOConfig(2, 2, 128, 4, True),
        ]
    },
    "tcoo": {"candidates": (1, 4, 16)},
}


@pytest.fixture(scope="module")
def formats():
    csr = make_powerlaw_csr(n_rows=1200, seed=23, max_degree=300)
    return {
        name: build_format(name, csr, **FAST_KWARGS.get(name, {}))
        for name in PAPER_COMPARISON_SET
    }


class TestK1Identity:
    """``k=1`` SpMM must be byte-identical to the SpMV path everywhere."""

    @settings(max_examples=10, deadline=None)
    @given(
        name=st.sampled_from(PAPER_COMPARISON_SET),
        dev=st.sampled_from(range(len(DEVICES))),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_run_spmm_single_column_equals_run_spmv(
        self, formats, name, dev, seed
    ):
        fmt = formats[name]
        device = DEVICES[dev]
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(fmt.n_cols).astype(
            fmt.precision.numpy_dtype
        )
        mv = fmt.run_spmv(x, device)
        mm = fmt.run_spmm(x[:, None], device)
        assert mm.time_s == mv.time_s
        assert mm.k == 1
        assert np.array_equal(mm.Y[:, 0], mv.y)

    def test_spmm_time_k1_identical_to_spmv_time(self, formats):
        for name, fmt in formats.items():
            for device in DEVICES:
                assert fmt.spmm_time_s(device, k=1) == fmt.spmv_time_s(
                    device
                ), (name, device.name)

    def test_kernel_works_k1_byte_identical(self, formats):
        for name, fmt in formats.items():
            for w1, w2 in zip(
                fmt.kernel_works(GTX_TITAN),
                fmt.kernel_works(GTX_TITAN, k=1),
            ):
                assert np.array_equal(w1.compute_insts, w2.compute_insts)
                assert np.array_equal(w1.dram_bytes, w2.dram_bytes)
                assert np.array_equal(w1.mem_ops, w2.mem_ops)
                assert w1.flops == w2.flops


class TestNumerics:
    def test_multiply_many_matches_scipy(self, formats):
        csr = formats["acsr"].csr
        ref = csr.to_scipy()
        rng = np.random.default_rng(5)
        X = rng.standard_normal((csr.n_cols, 5)).astype(np.float32)
        for name, fmt in formats.items():
            Y = fmt.multiply_many(X)
            assert Y.shape == (csr.n_rows, 5)
            np.testing.assert_allclose(
                Y, ref @ X, rtol=1e-4, atol=1e-4
            )

    def test_columns_match_single_multiply(self, formats):
        rng = np.random.default_rng(9)
        for name, fmt in formats.items():
            X = rng.standard_normal((fmt.n_cols, 3)).astype(
                fmt.precision.numpy_dtype
            )
            Y = fmt.multiply_many(X)
            for j in range(3):
                assert np.array_equal(Y[:, j], fmt.multiply(X[:, j])), (
                    name,
                    j,
                )

    def test_csr_matmat_bitwise_per_column(self):
        csr = make_powerlaw_csr(n_rows=500, seed=3)
        rng = np.random.default_rng(1)
        X = rng.standard_normal((csr.n_cols, 4)).astype(np.float32)
        Y = csr.matmat(X)
        for j in range(4):
            assert np.array_equal(Y[:, j], csr.matvec(X[:, j]))


class TestAmortisation:
    def test_k8_strictly_faster_than_8_spmvs(self, formats):
        for name, fmt in formats.items():
            for device in DEVICES:
                t1 = fmt.spmv_time_s(device)
                t8 = fmt.spmm_time_s(device, k=8)
                assert t8 < 8 * t1, (name, device.name)
                assert t8 > t1, (name, device.name)

    def test_speedup_monotone_in_k(self, formats):
        fmt = formats["hyb"]
        t1 = fmt.spmv_time_s(GTX_TITAN)
        speedups = [
            k * t1 / fmt.spmm_time_s(GTX_TITAN, k=k) for k in (1, 2, 4, 8)
        ]
        assert speedups[0] == pytest.approx(1.0)
        assert all(a <= b * 1.0001 for a, b in zip(speedups, speedups[1:]))


class TestValidation:
    def test_bad_shapes_rejected(self, formats):
        fmt = formats["hyb"]
        with pytest.raises(ValueError):
            fmt.run_spmm(np.ones(fmt.n_cols, dtype=np.float32), GTX_TITAN)
        with pytest.raises(ValueError):
            fmt.run_spmm(
                np.ones((fmt.n_cols + 1, 2), dtype=np.float32), GTX_TITAN
            )
        with pytest.raises(ValueError):
            fmt.multiply_many(np.ones((fmt.n_cols, 0), dtype=np.float32))

    @pytest.mark.parametrize("name", ("hyb", "acsr"))
    def test_complex_input_rejected(self, formats, name):
        """run_spmv / run_spmm validate through multiply_many instead of
        casting complex input to the format's precision."""
        fmt = formats[name]
        with pytest.raises(ValueError, match="real numeric"):
            fmt.run_spmv(np.full(fmt.n_cols, 1 + 1j), GTX_TITAN)
        with pytest.raises(ValueError, match="real numeric"):
            fmt.run_spmm(np.full((fmt.n_cols, 2), 1 + 1j), GTX_TITAN)

    def test_kernel_work_k_validated(self):
        w = KernelWork.empty("x", Precision.SINGLE)
        with pytest.raises(ValueError):
            KernelWork(
                name="bad",
                compute_insts=w.compute_insts,
                dram_bytes=w.dram_bytes,
                mem_ops=w.mem_ops,
                flops=0.0,
                precision=Precision.SINGLE,
                launch=w.launch,
                k=0,
            )

    def test_spmm_time_k_validated(self, formats):
        with pytest.raises(ValueError):
            formats["acsr"].spmm_time_s(GTX_TITAN, k=0)


class TestWidthValidated:
    """``modelled_run`` takes ``k`` as an integer >= 1 on every format."""

    @pytest.mark.parametrize("name", available_formats())
    def test_non_integer_or_sub_one_k_rejected(self, name):
        csr = make_powerlaw_csr(n_rows=300, seed=7, max_degree=60)
        try:
            fmt = build_format(name, csr, **FAST_KWARGS.get(name, {}))
        except FormatCapacityError as exc:
            pytest.skip(f"{name}: {exc}")
        for bad in (0, -3, np.int64(0), 2.5, 2.0, "2", None, True):
            with pytest.raises(ValueError, match="vector-block width k"):
                fmt.modelled_run(GTX_TITAN, k=bad)
            with pytest.raises(ValueError, match="vector-block width k"):
                fmt.spmm_time_s(GTX_TITAN, bad)
        assert fmt.spmm_time_s(GTX_TITAN, np.int64(3)) == fmt.spmm_time_s(
            GTX_TITAN, 3
        )


class TestFromCsrKwargs:
    """Uniform ``from_csr`` surface: unknown kwargs raise ``TypeError``."""

    def test_unknown_kwargs_rejected(self):
        csr = make_powerlaw_csr(n_rows=200, seed=2)
        for name in ("hyb", "brc", "acsr", "csr", "ell", "coo"):
            with pytest.raises(TypeError):
                build_format(name, csr, bogus_option=1)

    def test_positional_params_rejected(self):
        from repro.core.parameters import ACSRParams

        csr = make_powerlaw_csr(n_rows=200, seed=2)
        with pytest.raises(TypeError):
            ACSRFormat.from_csr(csr, ACSRParams())
