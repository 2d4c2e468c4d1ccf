"""Comparison helpers for TPC-H query equivalence tests."""

import numpy as np

from repro.dataframe import DataFrame


def assert_frames_close(
    got: DataFrame,
    expected: DataFrame,
    rtol: float = 1e-6,
    atol: float = 1e-8,
) -> None:
    """Assert two sorted query outputs are equal: same columns (by name),
    same row count, numerics compared with tolerance, strings exactly."""
    assert tuple(got.column_names) == tuple(expected.column_names), (
        f"column mismatch: {got.column_names} vs "
        f"{expected.column_names}"
    )
    assert got.n_rows == expected.n_rows, (
        f"row count mismatch: {got.n_rows} vs {expected.n_rows}"
    )
    for name in expected.column_names:
        a, b = got.column(name), expected.column(name)
        if a.dtype.kind in "if" or b.dtype.kind in "if":
            np.testing.assert_allclose(
                a.astype(np.float64), b.astype(np.float64),
                rtol=rtol, atol=atol, equal_nan=True,
                err_msg=f"column {name!r} differs",
            )
        else:
            assert a.tolist() == b.tolist(), f"column {name!r} differs"


def assert_sequences_byte_identical(got, expected, label):
    """Assert two snapshot sequences (edfs, or lists of snapshots) match
    snapshot-for-snapshot, byte-for-byte (sequence numbers, t, progress,
    and column bytes)."""
    assert len(got) == len(expected), (
        f"{label}: {len(got)} snapshots vs {len(expected)}"
    )
    for a, b in zip(got, expected):
        assert a.sequence == b.sequence, label
        assert a.t == b.t, label
        assert dict(a.progress.done) == dict(b.progress.done), label
        assert dict(a.progress.total) == dict(b.progress.total), label
        assert tuple(a.frame.column_names) == \
            tuple(b.frame.column_names), label
        for name in a.frame.column_names:
            assert (a.frame.column(name).tobytes()
                    == b.frame.column(name).tobytes()), (
                f"{label}: column {name!r} drifted"
            )
