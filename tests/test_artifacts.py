import hashlib
import json

import numpy as np
import pytest

from critwin import artifacts

# -0, the smallest subnormal, the largest double, and values whose shortest
# text has 1, 16 and 17 significant digits
REALS = np.array([-0.0, 5e-324, 1.7976931348623157e308, 0.1, 1 / 3, 0.1 + 0.2, 2.0])
INTS = np.array([0, -1, np.iinfo(np.int64).max, np.iinfo(np.int64).min, 7, 12345, 2])


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _lines(path):
    with open(path, "rb") as fh:
        return fh.read().decode("utf-8").split("\n")


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("dt", [0.1, 1 / 3, 1e-4])
def test_path_csv_rows_are_the_formatted_floats(tmp_path, dt):
    path = tmp_path / "p.csv"
    digest = artifacts.write_path_csv(path, dt, REALS, REALS[::-1])
    expected = [f"{_fmt(i * dt)},{_fmt(z)},{_fmt(c)}"
                for i, (z, c) in enumerate(zip(REALS, REALS[::-1]))]
    assert _lines(path) == ["t,Z,C", *expected, ""]
    assert digest == _sha256(path)


def test_integer_csv_rows_are_the_formatted_ints(tmp_path):
    digest = artifacts.write_trace_csv(tmp_path / "t.csv", INTS, INTS[::-1])
    assert _lines(tmp_path / "t.csv") == [
        "h,Z,C", *(f"{h},{int(z)},{int(c)}" for h, (z, c) in enumerate(zip(INTS, INTS[::-1]))), ""
    ]
    assert digest == _sha256(tmp_path / "t.csv")
    K = np.concatenate([[0], INTS[::-1]])  # K carries one entry more than csn
    digest = artifacts.write_cousin_csv(tmp_path / "c.csv", INTS, K)
    assert _lines(tmp_path / "c.csv") == [
        "j,csn,K", *(f"{j},{int(c)},{int(K[j])}" for j, c in enumerate(INTS)), ""
    ]
    assert digest == _sha256(tmp_path / "c.csv")
    digest = artifacts.write_walk_csv(tmp_path / "w.csv", INTS)
    assert _lines(tmp_path / "w.csv") == ["i,X", *(f"{i},{int(x)}" for i, x in enumerate(INTS)), ""]
    assert digest == _sha256(tmp_path / "w.csv")


def test_hitting_csv_rows_are_the_formatted_values(tmp_path):
    truncated = np.arange(REALS.size) % 2 == 0
    digest = artifacts.write_hitting_csv(tmp_path / "h.csv", REALS, truncated)
    assert _lines(tmp_path / "h.csv") == [
        "replicate,T,truncated",
        *(f"{r},{_fmt(t)},{int(tr)}" for r, (t, tr) in enumerate(zip(REALS, truncated))),
        "",
    ]
    assert digest == _sha256(tmp_path / "h.csv")


def test_deterministic_csv_rows_are_the_formatted_floats(tmp_path):
    # the CLI hands each curve over as a list of Python floats
    t, f, c, z, K = (np.roll(REALS, shift) for shift in range(5))
    digest = artifacts.write_deterministic_csv(tmp_path / "d.csv", t, f.tolist(), c, z, K)
    assert _lines(tmp_path / "d.csv") == [
        "t,f,c,z,K", *(",".join(map(_fmt, row)) for row in zip(t, f, c, z, K)), ""
    ]
    assert digest == _sha256(tmp_path / "d.csv")


def test_empty_csv_is_the_header_alone(tmp_path):
    digest = artifacts.write_walk_csv(tmp_path / "w.csv", np.array([], dtype=np.int64))
    assert _lines(tmp_path / "w.csv") == ["i,X", ""]
    assert digest == _sha256(tmp_path / "w.csv")


def test_manifest_lists_the_digests_it_is_given(tmp_path):
    outputs = {"w.csv": artifacts.write_walk_csv(tmp_path / "w.csv", INTS)}
    path = artifacts.write_manifest(tmp_path, "cmd", {"seed": 1, "n": 2}, outputs, 0.5)
    assert path == tmp_path / "manifest.json"
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    assert json.loads(text)["outputs"] == {"w.csv": _sha256(tmp_path / "w.csv")}
