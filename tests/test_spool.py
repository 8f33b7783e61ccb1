"""The snapshot spool: kept states as fixed records in an unlinked file."""

import math
import os

import numpy as np
import pytest

from sktlab import cli
from sktlab._spool import SnapshotSpool
from sktlab.cli import _write_snapshots_csv
from sktlab.grid import Grid, ScalarField, principal_eigenpair
from sktlab.iteration import SolverConfig, SystemState, simulate
from sktlab.model import ModelParams

PARAMS = ModelParams(
    d1=1.0, d2=1.0, alpha1=0.5, alpha2=0.0,
    a1=1.0, a2=1.0, b1=2.0, b2=0.5, c1=0.5, c2=2.0,
)
GRIDS = pytest.mark.parametrize(
    "grid",
    [Grid.interval(math.pi, 33), Grid.rectangle(math.pi, 2.0, 7, 5)],
    ids=["1d", "2d"],
)
# the smallest subnormal, an exact integer past 2**53 and the largest
# decades of float64
TIMES = (0.0, 5e-324, 0.1, 2.0**60 + 2.0**8, 1e308, 1.7976931348623157e308)
pytestmark = pytest.mark.skipif(
    not hasattr(os, "pwrite"), reason="no os.pread or os.pwrite on this platform"
)


def states(grid, count):
    """`count` finite states; species 2 (alpha 0, so h2 = u2) holds -0.0,
    a subnormal and 1e308."""
    rng = np.random.default_rng(3)
    out = []
    for k in range(count):
        u1 = rng.random(grid.shape) * 10.0 ** rng.integers(-12, 9, grid.shape)
        u2 = rng.random(grid.shape)
        u2.flat[:4] = (0.0, -0.0, 5e-324, 1e308)
        out.append(SystemState.from_u_arrays(PARAMS, grid, TIMES[k % len(TIMES)], u1, u2))
    return out


def same_state(a, b) -> bool:
    """Bit for bit: -0.0 differs from 0.0, as it does in the CSV."""
    return (
        np.float64(a.t).tobytes() == np.float64(b.t).tobytes()
        and a.u.tobytes() == b.u.tobytes()
        and a.h.tobytes() == b.h.tobytes()
        and a.u.shape == b.u.shape == b.h.shape
    )


@GRIDS
def test_round_trip_is_bit_exact(grid, tmp_path):
    kept = states(grid, len(TIMES))
    with SnapshotSpool(grid, tmp_path) as spool:
        for s in kept:
            spool.append(s)
        assert len(spool) == len(kept)
        for a, b in zip(kept, spool):
            assert same_state(a, b) and b.grid is grid
        assert np.signbit(spool[0].u[1].flat[1]) and spool[0].h[1].flat[2] == 5e-324
    # the file is unlinked from the start
    assert list(tmp_path.iterdir()) == []


def test_indexing_matches_a_list(tmp_path):
    grid = Grid.interval(math.pi, 9)
    kept = states(grid, 7)
    with SnapshotSpool(grid, tmp_path) as spool:
        for s in kept:
            spool.append(s)
        for i in range(-7, 7):
            assert same_state(kept[i], spool[i])
        for i in (7, -8, 100):
            with pytest.raises(IndexError):
                spool[i]
        for cut in (slice(None), slice(2, 5), slice(-3, None), slice(None, None, -2),
                    slice(1, 6, 2), slice(5, 2), slice(10, 20)):
            view, want = spool[cut], kept[cut]
            assert len(view) == len(want)
            assert all(same_state(a, b) for a, b in zip(want, view))
            if want:
                assert same_state(want[0], view[0]) and same_state(want[-1], view[-1])
            with pytest.raises(IndexError):
                view[len(want)]
        # a slice of a slice, as the writer cuts blocks
        assert [s.t for s in spool[1:6][1::2]] == [s.t for s in kept[1:6][1::2]]


def test_reads_after_close_raise(tmp_path):
    grid = Grid.interval(math.pi, 9)
    with SnapshotSpool(grid, tmp_path) as spool:
        for s in states(grid, 3):
            spool.append(s)
        view = spool[1:]
    # a file opened now may take the spool's old descriptor; no read reaches it
    with open(tmp_path / "other", "wb") as other:
        other.write(bytes(1024))
        for records in (spool, view):
            assert len(records) > 0
            with pytest.raises(ValueError, match="closed file"):
                records[0]
        with pytest.raises(ValueError, match="closed file"):
            spool.append(states(grid, 1)[0])


def test_refuses_foreign_states(tmp_path):
    grid = Grid.interval(math.pi, 9)
    (state,) = states(grid, 1)
    (other,) = states(Grid.interval(math.pi, 11), 1)
    with SnapshotSpool(grid, tmp_path) as spool:
        spool.append(state)
        with pytest.raises(ValueError, match="grid"):
            spool.append(other)
        assert len(spool) == 1 and same_state(state, spool[0])


def test_simulate_keeps_the_same_states_in_a_spool(tmp_path):
    # a semilinear run to the overflow cap, a snapshot every other step: the
    # spool gets what a list gets, and never the state past the cap
    params = PARAMS.replace(alpha1=0.0)
    grid = Grid.interval(math.pi, 17)
    eig = principal_eigenpair(grid, "principal")
    u0 = (ScalarField.constant(grid, 1.2), ScalarField.constant(grid, 0.8))
    cfg = SolverConfig(dt=0.005, overflow_cap=50.0, snapshot_every=2)
    listed = simulate(params, grid, eig, u0, cfg, 2.0)
    with SnapshotSpool(grid, tmp_path) as spool:
        spooled = simulate(params, grid, eig, u0, cfg, 2.0, snapshots=spool)
        assert spooled.snapshots is spool
        assert spooled.termination == listed.termination == "overflowed"
        # the first state, every other accepted one and, when odd, the last
        assert len(spool) == len(listed.snapshots) == 1 + (len(listed.summaries) + 1) // 2
        assert all(same_state(a, b) for a, b in zip(listed.snapshots, spool))
        assert spool[-1].t < spooled.overflow_time == spooled.final_state.t


@GRIDS
@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
def test_csv_from_a_spool_matches_a_list(grid, cpus, tmp_path, monkeypatch):
    if cpus > 1 and not hasattr(os, "fork"):
        pytest.skip("no os.fork on this platform")
    monkeypatch.setattr(cli, "_BLOCK_CELLS", 1)
    monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)
    kept = states(grid, 5)
    _write_snapshots_csv(tmp_path / "listed.csv", grid, kept)
    with SnapshotSpool(grid, tmp_path) as spool:
        for s in kept:
            spool.append(s)
        _write_snapshots_csv(tmp_path / "spooled.csv", grid, spool)
    assert (tmp_path / "spooled.csv").read_bytes() == (tmp_path / "listed.csv").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["listed.csv", "spooled.csv"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
