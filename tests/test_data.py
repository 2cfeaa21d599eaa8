import json

import numpy as np
import pytest

from meanherd import data
from meanherd.classifier import MeanClassifier
from meanherd.data import (
    DiscreteDistribution,
    LabeledSample,
    NoiseFunctionTable,
    contaminate,
    flip_class_conditional,
    flip_instance_dependent,
    flip_symmetric,
    load_csv,
    load_sparse,
    long_servedio,
    mutually_contaminate,
    sample_from,
    synth_blobs,
)
from meanherd.errors import DataError, InputError, ParseError
from meanherd.kernels import KernelSpec


def dist(instances, labels, probabilities) -> DiscreteDistribution:
    return DiscreteDistribution(np.array(instances, dtype=float), np.array(labels),
                                np.array(probabilities, dtype=float))


def masses(P) -> dict:
    """P's probabilities keyed by atom: (instance tuple, label)."""
    atoms = zip(map(tuple, P.instances.tolist()), P.labels.tolist())
    return dict(zip(atoms, P.probabilities))


def two_point() -> DiscreteDistribution:
    return dist([[0.0, 0.0], [1.0, 1.0]], [1, -1], [0.6, 0.4])


def test_sample_validation():
    with pytest.raises(InputError):
        LabeledSample(np.zeros((2, 2)), np.array([1, 2]))
    with pytest.raises(InputError):
        LabeledSample(np.zeros((2, 2)), np.array([1]))
    with pytest.raises(InputError):
        LabeledSample(np.zeros(3), np.array([1, 1, -1]))
    for bad in (np.nan, np.inf):
        with pytest.raises(DataError):
            LabeledSample(np.array([[bad, 0.5], [0.0, 0.0]]), np.array([1, -1]))


def test_distribution_validation():
    with pytest.raises(InputError, match=r"^probabilities sum to 0\.5, not 1$"):
        dist([[0.0]], [1], [0.5])
    with pytest.raises(InputError):
        dist([[0.0], [0.0]], [1, 1], [0.5, 0.5])
    with pytest.raises(InputError):
        dist([[0.0]], [2], [1.0])
    # nan slips past both the sign and the sum check
    with pytest.raises(DataError):
        dist([[0.0]], [1], [np.nan])


POINTS, LABELS, WEIGHTS = [[0.0, 1.0], [2.0, 3.0]], [1, -1], [0.5, 0.5]

# name: (points, labels, weights, the exception every constructor raises)
MALFORMED = {
    "1-D points": ([0.0, 2.0], LABELS, WEIGHTS, InputError),
    "zero rows": (np.zeros((0, 2)), [], [], InputError),
    "zero columns": (np.zeros((2, 0)), LABELS, WEIGHTS, InputError),
    "label count": (POINTS, [1], WEIGHTS, InputError),
    "weight count": (POINTS, LABELS, [1.0], InputError),
    "nan point": ([[np.nan, 1.0], [2.0, 3.0]], LABELS, WEIGHTS, DataError),
    "inf point": ([[0.0, 1.0], [np.inf, 3.0]], LABELS, WEIGHTS, DataError),
    "nan weight": (POINTS, LABELS, [np.nan, 0.5], DataError),
    "negative weight": (POINTS, LABELS, [1.5, -0.5], InputError),
    "weights sum to 0.5": (POINTS, LABELS, [0.25, 0.25], InputError),
}


def build(kind, points, labels, weights):
    """``kind`` made from one weighted support; a sample takes no weights."""
    X, y, w = np.array(points, dtype=float), np.array(labels), np.array(weights, dtype=float)
    if kind == "sample":
        return LabeledSample(X, y)
    if kind == "distribution":
        return DiscreteDistribution(X, y, w)
    return MeanClassifier(KernelSpec("linear"), w, y, X)


@pytest.mark.parametrize("case, kind", [
    (case, kind) for case in MALFORMED for kind in ("sample", "distribution", "classifier")
    if not (kind == "sample" and "weight" in case)  # a sample has no weights
])
def test_one_validator_for_every_weighted_support(case, kind):
    points, labels, weights, error = MALFORMED[case]
    build(kind, POINTS, LABELS, WEIGHTS)  # the well-formed support is accepted
    with pytest.raises(error):
        build(kind, points, labels, weights)


def test_a_support_without_feature_columns_is_rejected_naming_its_shapes():
    with pytest.raises(InputError, match=r"d > 0 features.*got shapes \(3, 0\) and \(3,\)"):
        LabeledSample(np.zeros((3, 0)), [1, -1, 1])


def test_mixtures_merge_the_duplicate_atoms_the_constructor_rejects():
    with pytest.raises(InputError, match="pairwise distinct"):
        dist([[0.0], [1.0], [0.0]], [1, -1, 1], [0.2, 0.3, 0.5])
    P = flip_symmetric(dist([[0.0], [0.0]], [1, -1], [0.5, 0.5]), 0.25)
    assert len(P) == 2 and np.array_equal(P.probabilities, [0.5, 0.5])


def test_to_distribution_merges_duplicates():
    S = LabeledSample(np.array([[0.0], [0.0], [1.0]]), np.array([1, 1, -1]))
    P = S.to_distribution()
    assert len(P) == 2
    probs = masses(P)
    assert probs[((0.0,), 1)] == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_eta_posterior():
    P = dist([[0.0], [0.0], [1.0]], [1, -1, -1], [0.3, 0.1, 0.6])
    eta = P.eta()
    assert eta[0] == eta[1] == pytest.approx(0.75, abs=1e-15)
    assert eta[2] == 0.0


def test_flip_symmetric_exact_mixture():
    P = two_point()
    P_s = flip_symmetric(P, 0.25)
    probs = masses(P_s)
    assert probs[((0.0, 0.0), 1)] == pytest.approx(0.45, abs=1e-15)
    assert probs[((0.0, 0.0), -1)] == pytest.approx(0.15, abs=1e-15)
    assert probs[((1.0, 1.0), -1)] == pytest.approx(0.30, abs=1e-15)
    assert probs[((1.0, 1.0), 1)] == pytest.approx(0.10, abs=1e-15)
    P_cc = flip_class_conditional(P, 0.25, 0.25)
    for field in ("instances", "labels", "probabilities"):
        assert np.array_equal(getattr(P_s, field), getattr(P_cc, field))


def test_flip_symmetric_zero_is_identity():
    P = two_point()
    P0 = flip_symmetric(P, 0.0)
    assert np.array_equal(P0.instances, P.instances)
    assert np.array_equal(P0.labels, P.labels)
    assert np.array_equal(P0.probabilities, P.probabilities)


def test_flip_symmetric_merges_colliding_atoms():
    P = dist([[0.0], [0.0]], [1, -1], [0.5, 0.5])
    P_s = flip_symmetric(P, 0.3)
    # flipping maps the support onto itself
    assert len(P_s) == 2
    assert P_s.probabilities.sum() == pytest.approx(1.0, abs=1e-15)


def test_flip_class_conditional():
    P = two_point()
    P_cc = flip_class_conditional(P, sigma_neg=0.0, sigma_pos=0.2)
    probs = masses(P_cc)
    assert probs[((0.0, 0.0), -1)] == pytest.approx(0.12, abs=1e-15)
    assert probs[((1.0, 1.0), -1)] == pytest.approx(0.4, abs=1e-15)
    with pytest.raises(InputError):
        flip_class_conditional(P, 0.5, 0.5)


def test_flip_instance_dependent_and_table():
    P = two_point()
    table = NoiseFunctionTable([0.1, 0.4])
    assert table.min_signal() == pytest.approx(0.2, abs=1e-15)
    P_t = flip_instance_dependent(P, table)
    probs = masses(P_t)
    assert probs[((0.0, 0.0), -1)] == pytest.approx(0.06, abs=1e-15)
    assert probs[((1.0, 1.0), 1)] == pytest.approx(0.16, abs=1e-15)
    with pytest.raises(InputError):
        flip_instance_dependent(P, NoiseFunctionTable([0.1]))
    with pytest.raises(InputError):
        NoiseFunctionTable([0.5])


def test_contaminate():
    P = two_point()
    Q = dist([[5.0, 5.0]], [-1], [1.0])
    mix = contaminate(P, Q, 0.1)
    probs = masses(mix)
    assert probs[((5.0, 5.0), -1)] == pytest.approx(0.1, abs=1e-15)
    P0 = contaminate(P, Q, 0.0)
    assert np.array_equal(P0.instances, P.instances) and np.array_equal(P0.labels, P.labels)


def of_class(y, instances, probabilities) -> DiscreteDistribution:
    """The class-conditional distribution of class ``y``: every atom labelled ``y``."""
    return dist(instances, [y] * len(probabilities), probabilities)


def test_mutually_contaminate():
    P_pos = of_class(1, [[0.0], [1.0]], [0.5, 0.5])
    P_neg = of_class(-1, [[2.0]], [1.0])
    t_pos, t_neg = mutually_contaminate(P_pos, P_neg, alpha=0.2, beta=0.1)
    assert t_pos.labels.tolist() == [1, 1, 1] and t_neg.labels.tolist() == [-1, -1, -1]
    pos = dict(zip(t_pos.instances[:, 0].tolist(), t_pos.probabilities))
    assert pos[2.0] == pytest.approx(0.2, abs=1e-15)
    assert pos[0.0] == pytest.approx(0.4, abs=1e-15)
    neg = dict(zip(t_neg.instances[:, 0].tolist(), t_neg.probabilities))
    assert neg[2.0] == pytest.approx(0.9, abs=1e-15)
    with pytest.raises(InputError):
        mutually_contaminate(P_pos, P_neg, 0.6, 0.4)
    for alpha, beta in ((float("nan"), 0.1), (0.1, float("nan")), (float("inf"), 0.0)):
        with pytest.raises(InputError, match="rates must be >= 0 with sum < 1"):
            mutually_contaminate(P_pos, P_neg, alpha, beta)
    with pytest.raises(InputError):
        mutually_contaminate(P_pos, of_class(-1, np.zeros((1, 2)), [1.0]), 0.1, 0.1)
    # at alpha = beta = 0 each class comes back exactly, less its zero-mass atoms
    P_pos = of_class(1, [[0.0], [3.0], [1.0]], [0.5, 0.0, 0.5])
    P_neg = of_class(-1, [[1.0], [5.0]], [0.4, 0.6])
    t_pos, t_neg = mutually_contaminate(P_pos, P_neg, 0.0, 0.0)
    assert t_pos.instances.tolist() == [[0.0], [1.0]] and t_pos.probabilities.tolist() == [0.5, 0.5]
    assert t_neg.instances.tolist() == [[1.0], [5.0]] and t_neg.probabilities.tolist() == [0.4, 0.6]
    # an instance of both classes is one atom, in first-occurrence order, its mass summed in order
    t_pos, t_neg = mutually_contaminate(P_pos, P_neg, 0.2, 0.1)
    assert t_pos.instances.tolist() == t_neg.instances.tolist() == [[0.0], [1.0], [5.0]]
    assert t_pos.probabilities.tolist() == [0.8 * 0.5, 0.8 * 0.5 + 0.2 * 0.4, 0.2 * 0.6]
    assert t_neg.probabilities.tolist() == [0.1 * 0.5, 0.1 * 0.5 + 0.9 * 0.4, 0.9 * 0.6]


def test_mutually_contaminate_rejects_a_class_whose_atoms_carry_the_other_label():
    P_pos, P_neg = of_class(1, [[0.0]], [1.0]), of_class(-1, [[1.0]], [1.0])
    joint = dist([[0.0], [1.0]], [1, -1], [0.5, 0.5])
    for args, y in (((P_neg, P_neg), 1), ((P_pos, P_pos), -1), ((joint, P_neg), 1),
                    ((P_pos, joint), -1)):
        with pytest.raises(InputError) as exc:
            mutually_contaminate(*args, 0.1, 0.1)
        assert str(exc.value) == f"the class {y:+d} distribution has atoms labelled {-y:+d}"


def test_instance_marginal_merges_in_first_occurrence_order_under_one_label():
    P = dist([[2.0], [0.0], [2.0], [1.0], [0.0]], [1, 1, -1, -1, -1], [0.1, 0.2, 0.3, 0.15, 0.25])
    for y in (1, -1):
        M = P.instance_marginal(y)
        assert isinstance(M, DiscreteDistribution)
        assert M.instances.tolist() == [[2.0], [0.0], [1.0]]
        assert M.labels.tolist() == [y, y, y]
        assert M.probabilities.tolist() == [0.1 + 0.3, 0.2 + 0.25, 0.15]
    with pytest.raises(InputError, match="labels must be -1 or"):
        P.instance_marginal(0)


def test_sample_from_deterministic():
    P = two_point()
    S1 = sample_from(P, 50, seed=7)
    S2 = sample_from(P, 50, seed=7)
    assert np.array_equal(S1.instances, S2.instances)
    assert np.array_equal(S1.labels, S2.labels)
    support_atoms = {(tuple(x), int(y)) for x, y in zip(S1.instances, S1.labels)}
    assert support_atoms <= masses(P).keys()


def test_synth_blobs_shape_and_determinism():
    S = synth_blobs(100, 3, 4.0, seed=0)
    assert len(S) == 100 and S.dim == 3
    assert np.sum(S.labels == 1) == 50
    S2 = synth_blobs(100, 3, 4.0, seed=0)
    assert np.array_equal(S.instances, S2.instances)
    # class means straddle the separation axis
    assert S.instances[S.labels == 1, 0].mean() > 0 > S.instances[S.labels == -1, 0].mean()
    with pytest.raises(InputError):
        synth_blobs(101, 2, 4.0, seed=0)


def test_long_servedio_geometry():
    gamma = 1.0 / 24.0
    P = long_servedio(gamma)
    assert P.instances.tolist() == [[gamma, -gamma], [1.0, 0.0], [gamma, 5.0 * gamma]]
    assert P.labels.tolist() == [1, 1, 1]
    assert np.array_equal(P.probabilities, np.array([0.5, 0.25, 0.25]))
    with pytest.raises(InputError):
        long_servedio(0.2)


def test_distribution_json_roundtrip():
    P = two_point()
    Q = DiscreteDistribution.from_dict(json.loads(json.dumps(P.to_dict())))
    assert np.array_equal(Q.instances, P.instances)
    assert np.array_equal(Q.labels, P.labels)
    assert np.array_equal(Q.probabilities, P.probabilities)


# ---------------------------------------------------------------------------
# Loaders


def test_load_csv(tmp_path):
    f = tmp_path / "toy.csv"
    f.write_text("a,b,label\n1.0,2.0,1\n3.0,4.0,-1\n")
    S = load_csv(f, label_column=-1)
    assert np.array_equal(S.instances, np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert np.array_equal(S.labels, np.array([1, -1]))


def test_load_csv_remaps_01_labels(tmp_path):
    f = tmp_path / "toy.csv"
    f.write_text("1.0,0\n2.0,1\n")
    S = load_csv(f, label_column=1)
    assert np.array_equal(S.labels, np.array([-1, 1]))


@pytest.mark.parametrize("load, text, values", [
    (lambda f: load_csv(f, label_column=-1), "0.5,0\n1.5,-1\n2.5,1\n", "[-1.0, 0.0, 1.0]"),
    (load_sparse, "0 1:0.5\n-1 1:1.5\n", "[-1.0, 0.0]"),
], ids=["csv", "sparse"])
def test_labels_that_mix_the_two_conventions_are_named(tmp_path, load, text, values):
    # every value is -1, 0 or 1, but neither {-1, 1} nor {0, 1} holds them all
    f = tmp_path / "mixed"
    f.write_text(text)
    with pytest.raises(InputError) as exc:
        load(f)
    assert str(exc.value) == f"label values {values} mix the {{-1, 1}} and {{0, 1}} conventions in {f}"


def test_load_csv_parse_error_carries_line(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("1.0,1\noops,1\n")
    with pytest.raises(ParseError) as exc:
        load_csv(f, label_column=-1)
    assert exc.value.line == 2


@pytest.mark.parametrize("chunk_rows", [1, data.CSV_CHUNK_ROWS])
def test_load_csv_reads_quotes_headers_blank_rows_and_python_float_tokens(
    monkeypatch, tmp_path, chunk_rows
):
    monkeypatch.setattr(data, "CSV_CHUNK_ROWS", chunk_rows)
    f = tmp_path / "toy.csv"
    f.write_text('x,"y, quoted",label\n\n"1.5", 1_0 ,1\n   \n\t-2e0\t,"+.5",-1\n')
    S = load_csv(f, label_column=-1)
    assert np.array_equal(S.instances, np.array([[1.5, 10.0], [-2.0, 0.5]]))
    assert np.array_equal(S.labels, np.array([1, -1]))


@pytest.mark.parametrize("chunk_rows", [1, 2, data.CSV_CHUNK_ROWS])
@pytest.mark.parametrize("text, label_column, line, message", [
    # a bad token on line 2 comes before the ragged row on line 3
    ("1,2,1\n1,x,1\n1,1\n", -1, 2, "non-numeric value 'x'"),
    # ... and a ragged row on line 3 does not hide a bad token on line 4
    ("1,2,1\n1,2,1\n1,1\n1,x,1\n", -1, 4, "non-numeric value 'x'"),
    # a quoted comma stays inside its token
    ('1,2,1\n1,"2,5",1\n', -1, 2, "non-numeric value '2,5'"),
    ("1,1\n2,-1\n", 2, 1, "label column 2 out of range for 2 columns"),
    ("a,b,c\n1,2,1\n3,1\n", 2, 3, "label column 2 out of range for 2 columns"),
    ("1,2,1\n3,1\n", -1, None, "inconsistent row widths [1, 2]"),
    ("1,2,1\n1,2,1\n3,1\n3,1\n3,1\n", -1, None, "inconsistent row widths [1, 2]"),
    ("\n  \n", -1, None, "no data rows"),
])
def test_load_csv_reports_the_first_failure_in_file_order(
    monkeypatch, tmp_path, text, label_column, line, message, chunk_rows
):
    # chunks of 1 and 2 rows put the failures at and across chunk boundaries
    monkeypatch.setattr(data, "CSV_CHUNK_ROWS", chunk_rows)
    f = tmp_path / "bad.csv"
    f.write_text(text)
    with pytest.raises(ParseError) as exc:
        load_csv(f, label_column=label_column)
    assert exc.value.line == line
    assert str(exc.value).endswith(message)


def test_load_sparse(tmp_path):
    f = tmp_path / "toy.txt"
    f.write_text("# comment\n+1 1:0.5 3:2.0\n-1 2:1.0\n")
    S = load_sparse(f)
    assert np.array_equal(S.instances, np.array([[0.5, 0.0, 2.0], [0.0, 1.0, 0.0]]))
    assert np.array_equal(S.labels, np.array([1, -1]))


@pytest.mark.parametrize("loader, name, text", [
    (lambda f: load_csv(f, -1), "bom.csv", "1.0,2.0,1\n3.0,4.0,-1\n5.0,6.0,1\n"),
    (load_sparse, "bom.txt", "1 1:1.0 2:2.0\n-1 1:3.0 2:4.0\n1 1:5.0 2:6.0\n"),
])
def test_a_leading_byte_order_mark_is_not_data(loader, name, text, tmp_path):
    # the mark decoded into the first token would make line 1 a CSV header
    # and a sparse file's bad label
    f = tmp_path / name
    f.write_text("\ufeff" + text, encoding="utf-8")
    S = loader(f)
    assert np.array_equal(S.instances, np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
    assert np.array_equal(S.labels, np.array([1, -1, 1]))


def test_load_sparse_reads_a_file_of_several_chunks(tmp_path):
    # rows with no features, indices that restart in each row, and -0.0 among the values
    rng = np.random.default_rng(0)
    n = 2 * data.CSV_CHUNK_ROWS + 123
    X = np.where(rng.random((n, 6)) < 0.5, rng.standard_normal((n, 6)), 0.0)
    X[7] = 0.0
    X[8, 2] = -0.0
    y = np.where(rng.random(n) < 0.5, 1, -1)
    lines = [f"{label} " + " ".join(f"{j + 1}:{v!r}" for j, v in enumerate(row) if v or j == 2)
             for row, label in zip(X.tolist(), y.tolist())]
    f = tmp_path / "chunks.txt"
    f.write_text("# a comment\n\n" + "\n".join(lines) + "\n")
    S = load_sparse(f)
    assert S.instances.tobytes() == X.tobytes() and S.labels.tobytes() == y.tobytes()


@pytest.mark.parametrize("loader, bad_row", [(lambda f: load_csv(f, -1), "1.0,x,1"),
                                             (load_sparse, "1 1:x")])
def test_a_bad_row_is_reported_before_later_bytes_that_are_not_utf8(loader, bad_row, tmp_path):
    # the bytes lie past the reader's first buffer but in the bad row's chunk
    good = "1.0,2.0,1" if bad_row.startswith("1.0") else "1 1:1.0 2:2.0"
    f = tmp_path / "bad.txt"
    f.write_bytes(f"{good}\n{bad_row}\n".encode() + f"{good}\n".encode() * 2000 + b"\xff\n")
    with pytest.raises(ParseError) as exc:
        loader(f)
    assert exc.value.line == 2


def test_load_sparse_rejects_nonincreasing_indices(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("1 2:1.0 1:1.0\n")
    with pytest.raises(ParseError) as exc:
        load_sparse(f)
    assert exc.value.line == 1


@pytest.mark.parametrize("row, index", [("1 0:1.5 2:3", 0), ("-1 -3:2", -3)])
def test_load_sparse_rejects_indices_below_one(tmp_path, row, index):
    f = tmp_path / "bad.txt"
    f.write_text(f"1 1:1.0\n{row}\n")
    message = f"feature index {index} out of range: indices start at 1"
    with pytest.raises(ParseError, match=message) as exc:
        load_sparse(f)
    assert exc.value.line == 2


@pytest.mark.parametrize("rates", [(float("nan"), 0.1), (0.1, float("nan")), (float("inf"), 0.1)])
def test_flip_class_conditional_rejects_non_finite_rates(rates):
    with pytest.raises(InputError, match="rates must be >= 0 with sum < 1"):
        flip_class_conditional(two_point(), *rates)


@pytest.mark.parametrize("corrupt, message", [
    (lambda P: flip_symmetric(P, 0.5), r"rates must be >= 0 with sum < 1, got \(0.5, 0.5\)"),
    (lambda P: flip_symmetric(P, float("nan")), r"rates must be >= 0 with sum < 1, got \(nan, nan\)"),
    (lambda P: flip_symmetric(P, -0.1), r"rates must be >= 0 with sum < 1, got \(-0.1, -0.1\)"),
    (lambda P: contaminate(P, P, -0.1), r"sigma must lie in \[0, 1\], got -0.1"),
    (lambda P: contaminate(P, dist([[5.0]], [-1], [1.0]), 0.1), "dimension mismatch: 2 vs 1"),
])
def test_corruptions_reject_bad_parameters(corrupt, message):
    with pytest.raises(InputError, match=message):
        corrupt(two_point())


def test_load_sparse_rejects_an_index_beyond_int64(tmp_path):
    f = tmp_path / "big.txt"
    f.write_text("-1 99999999999999999999:1\n")
    with pytest.raises(ParseError, match="feature index 99999999999999999999 out of range") as exc:
        load_sparse(f)
    assert exc.value.line == 1


def test_load_sparse_rejects_a_dense_shape_beyond_memory(tmp_path):
    # 2 x 10^12 float64 entries are 14.6 TiB: np.zeros raises MemoryError, not a traceback
    f = tmp_path / "wide.txt"
    f.write_text("-1 1000000000000:1\n1 1:2\n")
    with pytest.raises(ParseError, match="dense 2 x 1000000000000 matrix") as exc:
        load_sparse(f)
    assert exc.value.path == f
