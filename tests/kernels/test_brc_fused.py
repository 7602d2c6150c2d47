"""BRC/SIC block costing: the one-pass array cost equals the per-block
ELL loop it replaced, float for float.

The oracle below is that loop: every block priced by the scalar ELL cost
model (``scalar_ell_work``, the pre-vectorisation body of
``common.ell_work``) and the one-entry works merged with
``merge_concurrent``.  It lives only here.
"""

import numpy as np
import pytest

from repro.formats.brc import BRCFormat
from repro.formats.sic import SICFormat
from repro.gpu.device import DEVICES, WARP_SIZE, Precision
from repro.gpu.kernel import CounterHints, KernelWork, merge_concurrent
from repro.gpu.memory import (
    SECTOR_BYTES,
    block_gather_dram_bytes,
    coalesced_bytes,
    scattered_bytes,
)
from repro.gpu.simulator import simulate_kernel
from repro.kernels.brc_kernel import fused_work
from repro.kernels.common import (
    INST_PER_EXTRA_VEC,
    INST_PER_ITER,
    ROW_SETUP_INSTS,
    _spmv_useful_bytes,
    ell_work,
    launch_for_threads,
    x_hit_rate,
)

from ..conftest import make_csr_with_empty_rows, make_powerlaw_csr

KS = (1, 2, 3, 8, 32)
PRECISIONS = (Precision.SINGLE, Precision.DOUBLE)


def scalar_ell_work(
    name,
    n_rows,
    width,
    real_nnz,
    *,
    device,
    n_cols,
    precision,
    profile,
    scattered_y=False,
    k=1,
):
    """One ELL launch, costed with Python scalars and 1-entry arrays."""
    vb = precision.value_bytes
    n_warps = -(-n_rows // WARP_SIZE)
    compute = np.full(
        1, width * INST_PER_ITER + ROW_SETUP_INSTS, dtype=np.float64
    )
    if k > 1:
        compute = compute + (k - 1) * (width * INST_PER_EXTRA_VEC + 1.0)
    per_iter_bytes = coalesced_bytes(WARP_SIZE * vb) + coalesced_bytes(
        WARP_SIZE * 4
    )
    matrix = np.full(1, width * per_iter_bytes, dtype=np.float64)
    hit = x_hit_rate(device, n_cols, precision, profile, k=k)
    gather = block_gather_dram_bytes(
        np.full(1, real_nnz / n_warps), vb, hit, k=k
    )
    if scattered_y:
        y_bytes = scattered_bytes(np.full(1, float(WARP_SIZE))) * 0.5
        if k > 1:
            y_bytes = y_bytes * float(np.ceil(k * vb / SECTOR_BYTES))
    elif k == 1:
        y_bytes = coalesced_bytes(np.full(1, WARP_SIZE * vb))
    else:
        y_bytes = coalesced_bytes(np.full(1, WARP_SIZE * vb * k))
    dram = matrix + gather + y_bytes
    return KernelWork(
        name=name,
        compute_insts=compute,
        dram_bytes=np.asarray(dram, dtype=np.float64),
        mem_ops=np.full(1, float(width) * 2.0, dtype=np.float64),
        flops=2.0 * float(real_nnz) * k,
        precision=precision,
        launch=launch_for_threads(n_rows),
        warp_weights=np.full(1, float(n_warps)),
        k=k,
        hints=CounterHints(
            tex_hit_rate=hit,
            useful_bytes=_spmv_useful_bytes(
                float(real_nnz),
                float(n_rows),
                value_bytes=vb,
                index_bytes_per_elem=4.0,
                profile=profile,
                k=k,
            ),
            tex_miss_bytes=float(
                np.sum(np.asarray(gather, dtype=np.float64)) * float(n_warps)
            ),
        ),
    )


def per_block_oracle(blocks, *, name, device, n_cols, precision, profile, k):
    works = [
        scalar_ell_work(
            f"brc-block{i}",
            int(n_rows),
            int(width),
            int(real_nnz),
            device=device,
            n_cols=n_cols,
            precision=precision,
            profile=profile,
            scattered_y=True,
            k=k,
        )
        for i, (n_rows, width, real_nnz) in enumerate(blocks)
        if n_rows != 0 and width != 0
    ]
    if not works:
        return KernelWork.empty(name, precision)
    return merge_concurrent(works, name=name)


def assert_identical(got: KernelWork, want: KernelWork, device) -> None:
    assert got.name == want.name
    for field in ("compute_insts", "dram_bytes", "mem_ops"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype == np.float64, field
        assert a.tobytes() == b.tobytes(), field
    if want.warp_weights is None:
        assert got.warp_weights is None
    else:
        assert got.warp_weights.tobytes() == want.warp_weights.tobytes()
    assert repr(got.flops) == repr(want.flops)
    assert got.k == want.k
    assert got.launch == want.launch
    assert got.precision is want.precision
    assert repr(got.fp_fraction) == repr(want.fp_fraction)
    assert got.resources is want.resources
    assert repr(got.hints) == repr(want.hints)
    assert repr(simulate_kernel(device, got).time_s) == repr(
        simulate_kernel(device, want).time_s
    )


def ragged_table(seed: int) -> np.ndarray:
    """Blocks of every size, zero-row and zero-width ones included."""
    rng = np.random.default_rng(seed)
    n = 300
    table = np.column_stack(
        (
            rng.integers(0, 40, n),
            rng.integers(0, 300, n),
            rng.integers(0, 9000, n),
        )
    )
    table[::7, 0] = 0
    table[3::11, 1] = 0
    return table


@pytest.fixture(scope="module", params=PRECISIONS, ids=lambda p: p.name)
def matrices(request):
    return [
        make_powerlaw_csr(
            n_rows=3000, seed=5, max_degree=900, precision=request.param
        ),
        make_csr_with_empty_rows(precision=request.param),
    ]


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("device", sorted(DEVICES), ids=str)
@pytest.mark.parametrize("fmt", [BRCFormat, SICFormat], ids=["brc", "sic"])
def test_format_blocks_match_per_block_loop(matrices, fmt, device, k):
    dev = DEVICES[device]
    for csr in matrices:
        f = fmt.from_csr(csr)
        want = per_block_oracle(
            f.blocks,
            name=fmt.name,
            device=dev,
            n_cols=csr.n_cols,
            precision=csr.precision,
            profile=csr.gather_profile,
            k=k,
        )
        (got,) = f.kernel_works(dev, k=k)
        assert_identical(got, want, dev)


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("device", sorted(DEVICES), ids=str)
@pytest.mark.parametrize("precision", PRECISIONS, ids=lambda p: p.name)
def test_ragged_table_matches_per_block_loop(precision, device, k):
    dev = DEVICES[device]
    csr = make_powerlaw_csr(n_rows=2000, seed=9, precision=precision)
    for seed in (1, 2):
        table = ragged_table(seed)
        kwargs = dict(
            name="brc",
            device=dev,
            n_cols=csr.n_cols,
            precision=precision,
            profile=csr.gather_profile,
            k=k,
        )
        assert_identical(
            fused_work(table, **kwargs), per_block_oracle(table, **kwargs), dev
        )


def test_all_empty_blocks_give_an_empty_work():
    csr = make_powerlaw_csr(n_rows=200, seed=3)
    work = fused_work(
        np.array([[0, 4, 0], [5, 0, 0]]),
        name="sic",
        device=DEVICES["GTXTitan"],
        n_cols=csr.n_cols,
        precision=csr.precision,
        profile=csr.gather_profile,
    )
    assert work.name == "sic" and work.n_entries == 0 and work.flops == 0.0


def test_rejects_negative_sizes_and_bad_k():
    csr = make_powerlaw_csr(n_rows=200, seed=3)
    kwargs = dict(
        name="brc",
        device=DEVICES["GTXTitan"],
        n_cols=csr.n_cols,
        precision=csr.precision,
        profile=csr.gather_profile,
    )
    with pytest.raises(ValueError, match="non-negative"):
        fused_work(np.array([[32, -1, 4]]), **kwargs)
    with pytest.raises(ValueError, match="k must be"):
        fused_work(np.array([[32, 1, 4]]), k=0, **kwargs)


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("device", sorted(DEVICES), ids=str)
@pytest.mark.parametrize("precision", PRECISIONS, ids=lambda p: p.name)
@pytest.mark.parametrize("scattered_y", [False, True], ids=["ell", "brc"])
def test_single_ell_launch_matches_scalar_model(scattered_y, precision, device, k):
    dev = DEVICES[device]
    csr = make_powerlaw_csr(n_rows=2000, seed=9, precision=precision)
    for n_rows, width, real_nnz in [(1, 1, 1), (33, 7, 100), (2000, 400, 9001)]:
        kwargs = dict(
            device=dev,
            n_cols=csr.n_cols,
            precision=precision,
            profile=csr.gather_profile,
            scattered_y=scattered_y,
            k=k,
        )
        assert_identical(
            ell_work("ell", n_rows, width, real_nnz, **kwargs),
            scalar_ell_work("ell", n_rows, width, real_nnz, **kwargs),
            dev,
        )
