"""Property-based checks over randomized inputs."""

import csv
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meanherd import data
from meanherd import embedding as emb
from meanherd.cli import main
from meanherd.data import (
    DiscreteDistribution,
    LabeledSample,
    _lines,
    _merge,
    _parse_float,
    _remap_labels,
    flip_symmetric,
    load_csv,
    load_sparse,
)
from meanherd.errors import MeanHerdError, ParseError
from meanherd.kernels import KernelSpec, cross_gram
from meanherd.losses import correct_sln, hinge_loss, linear_loss

finite = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)


def distributions():
    def build(points, labels, weights):
        atoms = list(dict.fromkeys(zip(points, labels)))  # distinct, in first-occurrence order
        w = np.asarray(weights[: len(atoms)], dtype=float) + 1e-3
        w = w / w.sum()
        return DiscreteDistribution(instances=np.array([x for x, _ in atoms], dtype=float),
                                    labels=np.array([y for _, y in atoms]), probabilities=w)

    return st.builds(
        build,
        st.lists(st.tuples(finite, finite), min_size=1, max_size=5),
        st.lists(st.sampled_from((-1, 1)), min_size=5, max_size=5),
        st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5),
    )


@settings(max_examples=60, deadline=None)
@given(distributions(), st.floats(0.0, 0.49))
def test_flip_symmetric_conserves_mass(P, sigma):
    P_s = flip_symmetric(P, sigma)
    assert abs(P_s.probabilities.sum() - 1.0) <= 1e-12
    assert np.all(P_s.probabilities >= 0)


@st.composite
def keyed_weights(draw):
    """Rows in 1-3 dimensions, drawn from few values so that many repeat, with weights."""
    d = draw(st.integers(1, 3))
    value = st.sampled_from((0.0, -0.0, 1.0, -2.5)) | finite
    rows = draw(st.lists(st.tuples(*[value] * d), min_size=1, max_size=12))
    weights = draw(st.lists(st.floats(-1.0, 1.0), min_size=len(rows), max_size=len(rows)))
    return np.array(rows, dtype=float), np.array(weights)


@settings(max_examples=200, deadline=None)
@given(keyed_weights())
def test_merge_is_dict_accumulation_in_first_occurrence_order(keyed):
    keys, weights = keyed
    acc: dict[tuple, float] = {}
    for row, w in zip(map(tuple, keys.tolist()), weights.tolist()):
        acc[row] = acc.get(row, 0.0) + w
    rows, group, sums = _merge(keys, weights)
    # bitwise: the first row of each group (so -0.0 stays -0.0) and each sum
    assert keys[rows].tobytes() == np.array(list(acc), dtype=float).tobytes()
    assert sums.tobytes() == np.array(list(acc.values())).tobytes()
    # each group starts where its first row occurs, and holds equal rows only
    assert rows.tolist() == [int(np.argmax(group == g)) for g in range(rows.size)]
    assert np.array_equal(keys[rows][group], keys)


@settings(max_examples=60, deadline=None)
@given(distributions())
def test_flip_symmetric_zero_returns_the_same_arrays(P):
    P0 = flip_symmetric(P, 0.0)
    for name in ("instances", "labels", "probabilities"):
        assert getattr(P0, name).tobytes() == getattr(P, name).tobytes()


@settings(max_examples=60, deadline=None)
@given(distributions(), st.floats(0.01, 0.49))
def test_noise_scaling_property(P, sigma):
    spec = KernelSpec("gaussian", bandwidth=1.0)
    assert emb.distance(spec, flip_symmetric(P, sigma), P, 1.0 - 2.0 * sigma) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(finite, finite), min_size=1, max_size=6),
    st.floats(0.1, 3.0),
)
def test_gaussian_gram_bounded_and_unit_diagonal(points, bandwidth):
    spec = KernelSpec("gaussian", bandwidth=bandwidth)
    X = np.asarray(points, dtype=float)
    K = cross_gram(spec, X, X)
    assert np.all(K <= 1.0 + 1e-12)
    assert np.all(K >= 0.0)
    assert np.allclose(np.diag(K), 1.0)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from((-1, 1)), finite, st.floats(0.0, 0.45))
def test_corrected_loss_pointwise_unbiased(y, v, sigma):
    for loss in (linear_loss, hinge_loss):
        corrected = correct_sln(loss, sigma)
        noisy = (1 - sigma) * float(corrected(y, v)) + sigma * float(corrected(-y, v))
        assert abs(noisy - float(loss(y, v))) <= 1e-10


TOKENS = st.one_of(
    st.sampled_from(("1", "-1", "0", "nan", "inf", "-inf", "1e400", "", "1_0", " 1 ", "\t-1")),
    # sparse tokens that a bulk split at the colons could misread, or an int64 could not hold
    st.sampled_from(("1:2:3", "45", "1:", ":5", "+2:1", "1_0:2", "-99999999999999999999:1")),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.builds("{}:{}".format, st.integers(-1, 4), st.sampled_from(("0.5", "nan", "x", ""))),
    st.text(alphabet="ab:#-+.e, \t\"", max_size=4),
)


def reference_load_csv(path, label_column: int) -> LabeledSample:
    """``load_csv`` as a per-token loop that checks each row as it reads it."""
    rows = []
    raw_labels = []
    for line_no, row in enumerate(csv.reader(_lines(path, newline="")), start=1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if line_no == 1:
            try:
                [float(tok) for tok in row]
            except ValueError:
                continue  # header row
        if label_column >= len(row) or label_column < -len(row):
            raise ParseError(
                f"label column {label_column} out of range for {len(row)} columns",
                path=path, line=line_no,
            )
        values = [_parse_float(tok, path, line_no) for tok in row]
        label = values[label_column]
        features = [v for i, v in enumerate(values) if i != label_column % len(row)]
        rows.append(features)
        raw_labels.append(label)
    if not rows:
        raise ParseError("no data rows", path=path)
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ParseError(f"inconsistent row widths {sorted(widths)}", path=path)
    labels = _remap_labels(raw_labels, path)
    return LabeledSample(np.array(rows, dtype=float), labels)


def reference_load_sparse(path) -> LabeledSample:
    """``load_sparse`` as a per-token loop that checks each token as it reads it."""
    parsed = []
    raw_labels = []
    max_index = 0
    for line_no, line in enumerate(_lines(path), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        raw_labels.append(_parse_float(tokens[0], path, line_no))
        entries = []
        prev = 0
        for tok in tokens[1:]:
            if ":" not in tok:
                raise ParseError(f"expected idx:val, got {tok!r}", path=path, line=line_no)
            idx_s, val_s = tok.split(":", 1)
            try:
                idx = int(idx_s)
            except ValueError:
                raise ParseError(f"bad feature index {idx_s!r}", path=path, line=line_no) from None
            if idx < 1:
                raise ParseError(f"feature index {idx} out of range: indices start at 1",
                                 path=path, line=line_no)
            if idx <= prev:
                raise ParseError(
                    f"feature indices must be strictly increasing, got {idx} after {prev}",
                    path=path, line=line_no,
                )
            val = _parse_float(val_s, path, line_no)
            entries.append((idx, val))
            prev = idx
            max_index = max(max_index, idx)
        parsed.append(entries)
    if not parsed:
        raise ParseError("no data rows", path=path)
    X = np.zeros((len(parsed), max_index))
    for i, entries in enumerate(parsed):
        for idx, val in entries:
            X[i, idx - 1] = val
    return LabeledSample(X, _remap_labels(raw_labels, path))


def outcome(load, path):
    """What ``load`` returns, or the class and line of the package error it
    raises, with the message of a ``ParseError`` (the label error lists a
    set of floats, whose order varies when it holds NaNs)."""
    try:
        S = load(path)
    except ParseError as exc:
        return ParseError, str(exc), exc.line
    except MeanHerdError as exc:
        return type(exc)
    assert isinstance(S, LabeledSample)
    assert np.all(np.isfinite(S.instances)) and set(S.labels.tolist()) <= {-1, 1}
    return S.instances.shape, S.instances.tobytes(), S.labels.tobytes()


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(TOKENS, max_size=5), max_size=5), st.sampled_from((-1, 0, 1, 3, -4)))
def test_loaders_return_a_sample_or_raise_meanherd_errors(tmp_path_factory, rows, label_column):
    """Malformed rows end in a package error, never in another exception, and
    each loader ends as its per-token reference loop does."""
    path = tmp_path_factory.getbasetemp() / "loader-fuzz.txt"
    path.write_text("\n".join(",".join(row) for row in rows) + "\n")
    expected = outcome(lambda p: reference_load_csv(p, label_column), path)
    assert outcome(lambda p: load_csv(p, label_column), path) == expected
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "CSV_CHUNK_ROWS", 2)  # failures at and across chunk boundaries
        assert outcome(lambda p: load_csv(p, label_column), path) == expected
    path.write_text("\n".join(" ".join(row) for row in rows) + "\n")
    expected = outcome(reference_load_sparse, path)
    assert outcome(load_sparse, path) == expected
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "CSV_CHUNK_ROWS", 2)
        assert outcome(load_sparse, path) == expected


# One JSON value of any type: an entry of a model document that may not be well formed.
VALUES = st.one_of(
    st.sampled_from((0.5, 1, -1, 0, 2.5, "3", float("nan"), float("inf"), 10**400)),
    st.floats(-3.0, 3.0), st.integers(), st.booleans(), st.none(), st.text(max_size=3),
    st.lists(st.floats(-3.0, 3.0), max_size=3), st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
VALID_KERNELS = ({"kind": "linear"}, {"kind": "gaussian", "bandwidth": 1.0},
                 {"kind": "polynomial", "degree": 2, "offset": 1.0})


@st.composite
def model_documents(draw):
    """A valid model document of one to three support points, with up to three
    entries (of the kernel or of a support point) set to values of any type."""
    n = draw(st.integers(1, 3))
    kernel = dict(draw(st.sampled_from(VALID_KERNELS)))
    support = [{"x": draw(st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2)),
                "alpha": 1.0 / n, "y": draw(st.sampled_from((1, -1)))} for _ in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        entry = draw(st.sampled_from([kernel, *support]))
        keys = ("x", "alpha", "y") if "alpha" in entry else (
            "kind", "bandwidth", "degree", "offset", "normalized", "extra")
        entry[draw(st.sampled_from(keys))] = draw(st.one_of(VALUES, st.lists(VALUES, max_size=3)))
    return {"kernel": kernel, "support": support, "meta": {}}


def _tiny_bandwidth(h):
    return {"kernel": {"kind": "gaussian", "bandwidth": h},
            "support": [{"x": [1.0, 0.0], "alpha": 1.0, "y": 1}], "meta": {}}


@settings(max_examples=300, deadline=None)
@given(model_documents())
@example(_tiny_bandwidth(1e-200))  # |x / h|^2 overflows
@example(_tiny_bandwidth(5e-324))  # the smallest positive float
@example({"kernel": {"kind": "polynomial", "degree": 647, "offset": 1.0},  # K beyond the float range
          "support": [{"x": [2.0, 2.0], "alpha": 1.0, "y": 1}], "meta": {}})
def test_model_documents_exit_0_2_or_3(tmp_path_factory, doc):
    """``eval`` on any model document succeeds or fails with the usage or the
    I/O code, never with another exception, and it fails when a point or a
    weight is a string or a boolean, or a point holds one."""
    model = tmp_path_factory.getbasetemp() / "model-fuzz.json"
    data = tmp_path_factory.getbasetemp() / "model-fuzz.csv"
    model.write_text(json.dumps(doc))
    data.write_text("1.0,0.0,1\n-1.0,2.0,-1\n")
    code = main(["eval", "--model", str(model), "--data", str(data)])
    assert code in (0, 2, 3)

    def wrong(v):
        return isinstance(v, (str, bool))

    if any(wrong(s["alpha"]) or wrong(s["x"]) or isinstance(s["x"], list) and any(map(wrong, s["x"]))
           for s in doc["support"]):
        assert code != 0
