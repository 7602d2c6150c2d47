"""BCCOO's auto-tuner and TCOO's tile search."""

import sys
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.corpus import SCALE_ENV_VAR, corpus_matrix
from repro.formats.bccoo import (
    BLOCK_HEIGHTS,
    BLOCK_WIDTHS,
    BCCOOConfig,
    BCCOOFormat,
    _key_spans,
    all_configs,
    stored_elements_by_geometry,
)
from repro.formats.base import transfer_report_s
from repro.formats.csr import CSRMatrix
from repro.formats.tcoo import TILE_CANDIDATES, TCOOFormat
from repro.gpu.device import (
    DEFAULT_HOST,
    DEVICES,
    GTX_TITAN,
    INDEX_BYTES,
    Precision,
)
from repro.gpu.simulator import KernelTiming, simulate_kernel, simulate_many
from repro.kernels import tcoo_kernel

from ..conftest import make_powerlaw_csr

FAST_CONFIGS = [
    BCCOOConfig(1, 1, 128, 2, True),
    BCCOOConfig(2, 2, 128, 2, True),
    BCCOOConfig(4, 4, 64, 1, False),
]


@pytest.fixture(scope="module")
def csr():
    return make_powerlaw_csr(n_rows=800, seed=81, max_degree=200)


class TestBccooSearchSpace:
    def test_paper_size(self):
        """'this configuration space has more than 300 different settings'"""
        assert len(all_configs()) > 300

    def test_stored_elements_cover_nnz(self, csr):
        geometries = [(1, 1), (2, 2), (4, 8)]
        counts = stored_elements_by_geometry(csr, geometries)
        assert list(counts) == geometries
        for (bh, bw), stored in counts.items():
            assert stored >= csr.nnz
            # blocks are dense bh*bw slabs
            assert stored % (bh * bw) == 0

    def test_one_by_one_blocks_store_exactly_nnz(self, csr):
        assert stored_elements_by_geometry(csr, [(1, 1)]) == {(1, 1): csr.nnz}

    def test_empty_matrix(self):
        m = CSRMatrix.from_arrays(
            np.zeros(0),
            np.zeros(0, dtype=np.int32),
            np.zeros(3, dtype=np.int64),
            2,
        )
        assert stored_elements_by_geometry(m, [(2, 2), (1, 3)]) == {
            (2, 2): 0,
            (1, 3): 0,
        }

    def test_every_tuner_geometry_matches_the_oracle(self, csr):
        geometries = [cfg.key for cfg in all_configs()]
        counts = stored_elements_by_geometry(csr, geometries)
        assert set(counts) == set(geometries)
        for (bh, bw), stored in counts.items():
            assert stored == block_oracle(csr, bh, bw)

    def test_rejects_non_positive_geometry(self, csr):
        for geometry in [(0, 2), (2, 0), (-1, 1)]:
            with pytest.raises(ValueError, match="1x1"):
                stored_elements_by_geometry(csr, [geometry])


def block_oracle(csr: CSRMatrix, bh: int, bw: int) -> int:
    """Pure-Python slot count: distinct (row-block, col-block) pairs."""
    blocks = {
        (r // bh, int(c) // bw)
        for r in range(csr.n_rows)
        for c in csr.col_idx[csr.row_off[r] : csr.row_off[r + 1]]
    }
    return len(blocks) * bh * bw


@st.composite
def raw_csrs(draw):
    """CSRs as ``from_arrays`` admits them: columns unsorted and repeated
    within rows, empty rows, ``nnz == 0`` and any ``n_cols``."""
    n_rows = draw(st.integers(min_value=0, max_value=12))
    n_cols = draw(st.integers(min_value=1, max_value=23))
    lengths = draw(
        st.lists(
            st.integers(min_value=0, max_value=9),
            min_size=n_rows,
            max_size=n_rows,
        )
    )
    cols = draw(
        st.lists(
            st.integers(min_value=0, max_value=n_cols - 1),
            min_size=sum(lengths),
            max_size=sum(lengths),
        )
    )
    return CSRMatrix.from_arrays(
        np.ones(len(cols), dtype=np.float32),
        np.array(cols, dtype=np.int32),
        np.concatenate(([0], np.cumsum(lengths, dtype=np.int64))),
        n_cols,
    )


class TestStoredElementsOracle:
    @given(
        csr=raw_csrs(),
        geometries=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=9),
                st.integers(min_value=1, max_value=9),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_pure_python_blocks(self, csr, geometries):
        counts = stored_elements_by_geometry(csr, geometries)
        assert set(counts) == set(geometries)
        for (bh, bw), stored in counts.items():
            assert stored == block_oracle(csr, bh, bw), (bh, bw)

    def test_odd_geometry_on_unsorted_duplicate_columns(self):
        # rows: [4, 0, 4, 9], [], [3, 3], [10, 5]; n_cols = 11 (not a
        # multiple of 5)
        csr = CSRMatrix.from_arrays(
            np.ones(8),
            np.array([4, 0, 4, 9, 3, 3, 10, 5], dtype=np.int32),
            np.array([0, 4, 4, 6, 8]),
            11,
        )
        counts = stored_elements_by_geometry(csr, [(3, 5), (1, 1), (2, 4)])
        # (3, 5): block-row 0 holds cols {0, 3, 4, 9} -> col-blocks {0, 1};
        # block-row 1 holds cols {5, 10} -> col-blocks {1, 2}.
        assert counts[(3, 5)] == 4 * 15
        # (1, 1): distinct (row, col) pairs, duplicates stored once.
        assert counts[(1, 1)] == 6
        assert counts[(2, 4)] == block_oracle(csr, 2, 4)


class TestWideKeys:
    """Sort keys past int32.  A height's key is ``block_row * span +
    col``, with ``span`` the column count padded to a multiple of every
    width of that height: ``uint32`` keys while ``n_block_rows * span <
    2**32``, else ``uint64``, and the padding alone can cross that line."""

    @staticmethod
    def check(n_rows, n_cols, widths, crosses):
        rng = np.random.default_rng(n_rows)
        lengths = rng.integers(0, 8, size=n_rows)
        lengths[[0, -1]] = 6
        # Columns across the range, unsorted and repeated.
        pool = np.array(
            [n_cols - 1, 0, n_cols - 2, 7, n_cols // 2, 3, n_cols // 3]
        )
        cols = rng.choice(pool, size=int(lengths.sum()))
        csr = CSRMatrix.from_arrays(
            np.ones(cols.shape[0], dtype=np.float32),
            cols,
            np.concatenate(([0], np.cumsum(lengths))),
            n_cols,
        )
        geometries = [(bh, bw) for bh in BLOCK_HEIGHTS for bw in widths]
        # Height 1 has n_rows + 1 block-row starts.
        _, span, _ = next(_key_spans(n_rows, n_cols, geometries))
        assert ((n_rows + 1) * span >= 2**32) == crosses
        counts = stored_elements_by_geometry(csr, geometries)
        for (bh, bw), stored in counts.items():
            assert stored == block_oracle(csr, bh, bw), (bh, bw)

    @pytest.mark.parametrize(
        "n_rows, n_cols",
        [
            # 4 * (2**30 - 1) < 2**32, but the span padded to a multiple
            # of 8 is 2**30: uint64 keys at height 1.
            (3, 2**30 - 1),
            # At least 3 block-rows at every height, each 2**31 columns
            # wide: uint64 keys everywhere.
            (20, 2**31 - 1),
        ],
    )
    def test_every_tuner_geometry_matches_the_oracle(self, n_rows, n_cols):
        self.check(n_rows, n_cols, BLOCK_WIDTHS, crosses=True)

    @pytest.mark.parametrize(
        "widths, crosses",
        [
            # 4 * (2**30 - 8) < 2**32: uint32 keys at height 1, the last
            # block-row's above 2**31.
            pytest.param(BLOCK_WIDTHS, False, id="tuner-widths"),
            # Widths 7, 8, 9 pad the span to a multiple of 504, past
            # 2**30: uint64 keys at height 1.
            pytest.param((7, 8, 9), True, id="widths-7-8-9"),
        ],
    )
    def test_width_lcm_can_cross_to_uint64(self, widths, crosses):
        self.check(3, 2**30 - 8, widths, crosses)

    def test_widths_past_uint64_sort_apart(self):
        # The first 16 primes' lcm exceeds 2**64, so each width sorts
        # its own key; every count still matches the oracle.
        primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
        geometries = [(bh, bw) for bh in (1, 3) for bw in primes]
        rng = np.random.default_rng(4)
        lengths = rng.integers(0, 9, size=40)
        cols = rng.integers(0, 300, size=int(lengths.sum()))
        csr = CSRMatrix.from_arrays(
            np.ones(cols.shape[0], dtype=np.float32),
            cols,
            np.concatenate(([0], np.cumsum(lengths))),
            300,
        )
        spans = list(_key_spans(csr.n_rows, csr.n_cols, geometries))
        assert [(bh, w) for bh, _, [w] in spans] == geometries
        counts = stored_elements_by_geometry(csr, geometries)
        for (bh, bw), stored in counts.items():
            assert stored == block_oracle(csr, bh, bw), (bh, bw)


class TestBccooConfig:
    @pytest.mark.parametrize(
        "field", ["block_h", "block_w", "workgroup", "elems_per_thread"]
    )
    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_non_positive_field(self, field, bad):
        kwargs = dict(
            block_h=2,
            block_w=2,
            workgroup=128,
            elems_per_thread=2,
            use_texture=True,
        )
        kwargs[field] = bad
        with pytest.raises(ValueError, match=field):
            BCCOOConfig(**kwargs)


class TestBccooTuner:
    def test_tuning_bill_reported(self, csr):
        f = BCCOOFormat.from_csr(csr, configs=FAST_CONFIGS)
        assert f.n_trials == 3
        assert f.preprocess.tuning_fixed_s > 0  # compiles
        assert f.preprocess.tuning_s > 0  # transforms + trials
        assert f.preprocess.total_s > f.preprocess.tuning_fixed_s

    def test_chosen_config_comes_from_space(self, csr):
        f = BCCOOFormat.from_csr(csr, configs=FAST_CONFIGS)
        assert f.config in FAST_CONFIGS

    def test_more_configs_cost_more_tuning(self, csr):
        small = BCCOOFormat.from_csr(csr, configs=FAST_CONFIGS[:1])
        big = BCCOOFormat.from_csr(csr, configs=FAST_CONFIGS)
        assert (
            big.preprocess.tuning_fixed_s
            > small.preprocess.tuning_fixed_s
        )

    def test_empty_space_rejected(self, csr):
        with pytest.raises(ValueError):
            BCCOOFormat.from_csr(csr, configs=[])

    def test_compact_index_traffic(self, csr):
        """BCCOO's point: far less index traffic than plain COO."""
        from repro.formats.coo import COOFormat

        f = BCCOOFormat.from_csr(csr, configs=FAST_CONFIGS)
        coo = COOFormat.from_csr(csr)
        if f.stored <= 1.1 * csr.nnz:  # comparable element counts
            assert (
                f.kernel_works(GTX_TITAN)[0].total_dram_bytes
                < coo.kernel_works(GTX_TITAN)[0].total_dram_bytes
            )


class TestTcoo:
    def test_tile_search_picks_candidate(self, csr):
        f = TCOOFormat.from_csr(csr, candidates=(1, 2, 8))
        assert f.n_tiles in (1, 2, 8)

    def test_tuning_scales_with_candidates(self, csr):
        one = TCOOFormat.from_csr(csr, candidates=(1,))
        many = TCOOFormat.from_csr(csr, candidates=tuple(range(1, 9)))
        assert many.preprocess.tuning_s > 3 * one.preprocess.tuning_s

    def test_empty_candidates_rejected(self, csr):
        with pytest.raises(ValueError):
            TCOOFormat.from_csr(csr, candidates=())

    def test_permutation_preserves_product(self, csr, rng):
        f = TCOOFormat.from_csr(csr, candidates=(8,))
        x = rng.standard_normal(csr.n_cols).astype(np.float32)
        np.testing.assert_allclose(
            f.multiply(x), csr.matvec(x), rtol=1e-4, atol=1e-4
        )


def tile_trials(csr: CSRMatrix, device) -> list[float]:
    """Every candidate's trial time, one simulated launch per candidate."""
    return [
        simulate_kernel(
            device,
            tcoo_kernel.work(
                csr.nnz,
                csr.n_rows,
                t,
                device=device,
                n_cols=csr.n_cols,
                precision=csr.precision,
                profile=csr.gather_profile,
            ),
        ).time_s
        for t in TILE_CANDIDATES
    ]


def brute_force_search(csr: CSRMatrix, device) -> tuple[int, float, str]:
    """The tile search as one trial per candidate, summed in order."""
    data_bytes = csr.nnz * (csr.precision.value_bytes + 2 * INDEX_BYTES)
    best_tiles, best_time, tuning_s = None, float("inf"), 0.0
    for t, trial in zip(TILE_CANDIDATES, tile_trials(csr, device)):
        tuning_s += (
            DEFAULT_HOST.stream_time(2 * csr.nnz)
            + transfer_report_s(data_bytes)
            + trial
        )
        if trial < best_time:
            best_time, best_tiles = trial, t
    notes = f"searched {len(TILE_CANDIDATES)} tile counts -> {best_tiles}"
    return best_tiles, tuning_s, notes


class TestTcooLaunchKey:
    """Tile counts sharing ``tcoo_kernel.launch_key`` run the same trial,
    so the search over distinct launches equals the
    one-launch-per-candidate loop."""

    def check(self, csr, device):
        by_key: dict = {}
        for t, trial in zip(TILE_CANDIDATES, tile_trials(csr, device)):
            key = tcoo_kernel.launch_key(csr.nnz, csr.n_rows, t)
            assert by_key.setdefault(key, trial).hex() == trial.hex(), t
        f = TCOOFormat.from_csr(csr, tuning_device=device)
        tiles, tuning_s, notes = brute_force_search(csr, device)
        assert f.n_tiles == tiles
        assert repr(f.preprocess.tuning_s) == repr(tuning_s)
        assert f.preprocess.notes == notes

    @pytest.mark.parametrize(
        "device", DEVICES.values(), ids=lambda d: d.name
    )
    def test_powerlaw_matches_brute_force(self, csr, device):
        self.check(csr, device)

    @pytest.mark.parametrize(
        "device", DEVICES.values(), ids=lambda d: d.name
    )
    def test_saturated_boundaries_keep_the_untiled_trial(self, device):
        # 60k entries over 100k rows: every tile count, one included, caps
        # the per-warp boundaries at 32, so only the hit-rate override
        # tells one tile from several; 4M columns keep x out of the
        # texture cache, so the override moves the memory-bound trial.
        rng = np.random.default_rng(5)
        n_rows, nnz = 100_000, 60_000
        rows = np.sort(rng.choice(n_rows, nnz, replace=False))
        lengths = np.bincount(rows, minlength=n_rows)
        csr = CSRMatrix.from_arrays(
            np.ones(nnz, dtype=np.float32),
            rng.integers(0, 4_000_000, nnz),
            np.concatenate(([0], np.cumsum(lengths))),
            4_000_000,
        )
        keys = {
            tcoo_kernel.launch_key(csr.nnz, csr.n_rows, t)[0]
            for t in TILE_CANDIDATES
        }
        assert keys == {32.0}
        self.check(csr, device)

    @given(csr=raw_csrs(), device=st.sampled_from(list(DEVICES.values())))
    @settings(max_examples=40, deadline=None)
    def test_raw_csrs_match_brute_force(self, csr, device):
        self.check(csr, device)


@pytest.fixture(scope="module")
def table3_matrices():
    """Table III's six corpus graphs at a tenth of their default scale."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(SCALE_ENV_VAR, "0.1")
        return [
            corpus_matrix(key)
            for key in ("WIK", "LIV", "HOL", "DBL", "ENR", "YOT")
        ]


@pytest.mark.parametrize("fmt", [BCCOOFormat, TCOOFormat])
def test_batched_trials_equal_per_work_simulation(
    table3_matrices, fmt, monkeypatch
):
    """Each tuner prices its distinct trials in one ``simulate_many``
    call; every ``KernelTiming`` field equals ``simulate_kernel`` on a
    fresh copy of the same work."""
    batches = []

    def recording(device, works):
        timings = simulate_many(device, works)
        batches.append((device, works, timings))
        return timings

    monkeypatch.setattr(sys.modules[fmt.__module__], "simulate_many", recording)
    for csr in table3_matrices:
        fmt.from_csr(csr)
    assert len(batches) == len(table3_matrices)
    for device, works, timings in batches:
        assert len(timings) == len(works) > 1
        for work, timing in zip(works, timings):
            alone = simulate_kernel(device, replace(work))
            for field in fields(KernelTiming):
                assert repr(getattr(timing, field.name)) == repr(
                    getattr(alone, field.name)
                ), (work.name, field.name)
