"""Dataset tests: synthetic generators and CSV ingestion."""

import csv
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gep.data import (
    CsvParseError,
    Dataset,
    SynthParams,
    ingest_csv,
    split_pool,
    standardize_stats,
    synth_dataset,
)
from gep.data import _apply_standardize
from gep.models import init_model, per_sample_gradients
from oracle import stable_rank


def test_lowrank_task_gradient_rank():
    rng = np.random.default_rng(0)
    data = synth_dataset(
        "lowrank-gradient-task",
        SynthParams(n=200, input_dim=99, rank=5),
        rng,
    )
    model = init_model("linear", 99, 1)
    grads = per_sample_gradients(model, data)
    assert grads.shape == (200, 100)
    assert stable_rank(grads) <= 5 + 1e-6
    # exact rank five: the sixth singular value vanishes
    s = np.linalg.svd(grads, compute_uv=False)
    assert s[5] <= 1e-10 * s[0]


def test_lowrank_task_with_tail_is_approximately_lowrank():
    rng = np.random.default_rng(1)
    data = synth_dataset(
        "lowrank-gradient-task",
        SynthParams(n=200, input_dim=99, rank=5, tail=0.1),
        rng,
    )
    model = init_model("linear", 99, 1)
    grads = per_sample_gradients(model, data)
    s = np.linalg.svd(grads, compute_uv=False)
    assert s[5] > 1e-6 * s[0]  # tail present
    assert (s[:5] ** 2).sum() >= 0.8 * (s**2).sum()  # but still dominated


def test_gaussian_mixture_class_balance():
    rng = np.random.default_rng(2)
    n, c = 10_000, 10
    data = synth_dataset(
        "gaussian-mixture", SynthParams(n=n, input_dim=8, classes=c), rng
    )
    counts = np.bincount(data.labels, minlength=c)
    sigma = np.sqrt(n * (1 / c) * (1 - 1 / c))
    assert np.all(np.abs(counts - n / c) <= 3 * sigma)


def test_separable_margin_and_perceptron_oracle():
    rng = np.random.default_rng(3)
    data = synth_dataset(
        "separable", SynthParams(n=500, input_dim=10, margin=1.0), rng
    )
    # all points respect the margin around some hyperplane; the perceptron
    # mistake bound guarantees convergence to zero training error
    x = np.hstack([data.features, np.ones((data.n, 1))])
    y = 2 * data.labels.astype(np.float64) - 1
    w = np.zeros(x.shape[1])
    radius = float(np.max(np.linalg.norm(x, axis=1)))
    max_updates = int(radius**2 / 1.0**2) + 1
    updates = 0
    for _ in range(50):
        mistakes = 0
        for i in range(data.n):
            if y[i] * float(x[i] @ w) <= 0:
                w += y[i] * x[i]
                mistakes += 1
                updates += 1
        if mistakes == 0:
            break
    assert mistakes == 0
    assert updates <= max_updates
    assert np.all(y * (x @ w) > 0)


@pytest.mark.parametrize("margin", [0.0, -1.0, float("nan"), float("inf"), 3.9, 8.0, 40.0])
def test_separable_rejects_margins_it_cannot_draw(margin):
    # NaN and inf never pass the margin test, and 8 standard deviations
    # almost never: each would resample forever.  The cap on the expected
    # draw count sits at a margin of about 3.9 for 1000 rows.
    with pytest.raises(ValueError, match="margin"):
        synth_dataset("separable", SynthParams(n=1000, margin=margin), np.random.default_rng(0))


def test_synth_dataset_deterministic():
    params = SynthParams(n=50, input_dim=6, classes=3)
    a = synth_dataset("gaussian-mixture", params, np.random.default_rng(9))
    b = synth_dataset("gaussian-mixture", params, np.random.default_rng(9))
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)
    with pytest.raises(ValueError):
        synth_dataset("nope", SynthParams(), np.random.default_rng(0))


def test_a_misspelled_generator_parameter_is_an_error():
    with pytest.raises(TypeError, match="margn"):
        synth_dataset("separable", SynthParams(n=10, margn=3.0), np.random.default_rng(0))


def test_ingest_csv_toy(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("x1,x2,label\n1.0,2.0,0\n3.0,4.0,1\n5.0,6.0,1\n")
    data = ingest_csv(str(path), "label")
    assert data.n == 3 and data.d == 2
    np.testing.assert_array_equal(data.labels, np.array([0, 1, 1]))
    # file order preserved
    np.testing.assert_array_equal(data.features[0], np.array([1.0, 2.0]))


def test_ingest_csv_errors(tmp_path):
    missing = tmp_path / "missing.csv"
    missing.write_text("a,b\n1,2\n")
    with pytest.raises(CsvParseError, match="label"):
        ingest_csv(str(missing), "label")

    bad_cell = tmp_path / "bad.csv"
    bad_cell.write_text("a,label\n1,0\nx,1\n")
    with pytest.raises(CsvParseError, match="row 3"):
        ingest_csv(str(bad_cell), "label")

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(CsvParseError, match="empty"):
        ingest_csv(str(empty), "label")

    header_only = tmp_path / "header.csv"
    header_only.write_text("a,label\n")
    with pytest.raises(CsvParseError, match="no data rows"):
        ingest_csv(str(header_only), "label")


def test_ingest_csv_reads_a_byte_order_mark(tmp_path):
    text = "label,a,b\n" + "".join(f"{i % 3},{i / 7!r},{-i}\n" for i in range(40))
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text.encode())
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    a, b = ingest_csv(str(plain), "label"), ingest_csv(str(marked), "label")
    assert a.features.tobytes() == b.features.tobytes()
    assert a.labels.dtype == b.labels.dtype == np.int64
    assert a.labels.tolist() == b.labels.tolist()


# a byte in the header line, one in the first 8 KiB the text layer decodes,
# and one far past it, in a chunk numpy decodes
@pytest.mark.parametrize("row", [1, 4, 1500])
def test_ingest_csv_names_the_row_of_a_byte_that_is_not_utf8(tmp_path, row):
    lines = ["a,b,label\n"] + [f"{i}.5,{i}.25,{i % 2}\n" for i in range(2000)]
    raw = "".join(lines[: row - 1]).encode() + b"1\xff" + "".join(lines[row - 1 :]).encode()
    path = tmp_path / "latin.csv"
    path.write_bytes(raw)
    with pytest.raises(CsvParseError, match=f"latin.csv: row {row}: byte 0xff is not UTF-8"):
        ingest_csv(str(path), "label")


def test_ingest_csv_odd_cells_parse_as_float_does(tmp_path):
    cells = [[" 1.5 ", "1e-3", '"1000.25"', "0"], ["-2.5E+2", "\t+.5", "-0", "1"]]
    path = tmp_path / "odd.csv"
    path.write_text("a,b,c,label\n" + "\n".join(",".join(row) for row in cells) + "\n")
    data = ingest_csv(str(path), "label")
    expected = np.array([[float(cell.strip('"')) for cell in row[:3]] for row in cells])
    assert data.features.tobytes() == expected.tobytes()
    assert data.labels.tolist() == [0, 1]

    # a bad cell is reported by row and column
    path.write_text("a,b,label\n1,2,0\n3,4 5,1\n")
    with pytest.raises(CsvParseError, match="row 3, column 'b'"):
        ingest_csv(str(path), "label")


def test_ingest_csv_standardize(tmp_path):
    path = tmp_path / "std.csv"
    path.write_text("a,b,label\n1.0,7.0,0\n3.0,7.0,1\n5.0,7.0,0\n")
    raw = ingest_csv(str(path), "label")
    np.testing.assert_array_equal(raw.features, [[1.0, 7.0], [3.0, 7.0], [5.0, 7.0]])
    features = _apply_standardize(raw.features, standardize_stats(raw.features))
    np.testing.assert_allclose(features[:, 0].mean(), 0.0, atol=1e-12)
    np.testing.assert_allclose(features[:, 0].std(), 1.0, rtol=1e-12)
    # constant column maps to zeros rather than dividing by zero
    np.testing.assert_array_equal(features[:, 1], np.zeros(3))

    # statistics of a training split applied to held-out rows
    stats = standardize_stats(raw.features[:2])
    again = _apply_standardize(raw.features, stats)
    np.testing.assert_allclose(again[:, 0], [-1.0, 1.0, 3.0], rtol=1e-12)
    np.testing.assert_array_equal(again[:, 1], np.zeros(3))


def test_ingest_csv_float_labels(tmp_path):
    path = tmp_path / "reg.csv"
    path.write_text("a,label\n1.0,0.25\n2.0,-1.5\n")
    data = ingest_csv(str(path), "label")
    assert data.labels.dtype == np.float64
    # within a relative 1e-5 of an integer, but not integers
    path.write_text("a,label\n1.0,100000.5\n2.0,250000.25\n")
    data = ingest_csv(str(path), "label")
    assert data.labels.dtype == np.float64
    assert data.labels.tolist() == [100000.5, 250000.25]
    path.write_text("a,label\n1.0,0\n2.0,1\n3.0,7.0\n")
    data = ingest_csv(str(path), "label")
    assert data.labels.dtype == np.int64
    assert data.labels.tolist() == [0, 1, 7]


def _ingest_table(path, label_idx):
    """``ingest_csv``'s table, the label column put back as floats."""
    data = ingest_csv(str(path), "label")
    return np.insert(data.features, label_idx, data.labels.astype(np.float64), axis=1)


def _float_table(text):
    """A CSV body as ``float()`` reads each cell ``csv`` splits, empty lines
    skipped: the table ``ingest_csv`` gives for a file it accepts."""
    rows = [row for row in csv.reader(io.StringIO(text, newline="")) if row]
    return np.array([[float(cell) for cell in row] for row in rows[1:]])


# (name, file text, and either TABLE, where the file reads as _float_table
# does, or the error ingest_csv raises and a pattern its text matches)
TABLE = None
ODD_CSVS = [
    ("plain", "a,b,label\n1.5,2,0\n3,4.25,1\n", TABLE),
    ("cr-only", "a,b,label\r1.5,2,0\r3,4.25,1\r", TABLE),
    ("blank-lines", "a,b,label\n\n1.5,2,0\n\n3,4.25,1\n\n", TABLE),
    ("label-middle", "a,label,b\n1.5,0,2\n3,1,4.25\n", TABLE),
    ("quoted-header", '"a","b,c",label\n1.5,2,0\n3,4.25,1\n', TABLE),
    ("padding", "a,b,label\n 1.5 ,\t2\xa0,0\n3,4.25,1\n", TABLE),
    ("no-final-newline", "a,b,label\n1,2,0\n3,4.25,1", TABLE),
    ("single-column", "label\n1\n2\n", TABLE),
    ("bom", "\ufeffa,b,label\n1,2,0\n3,4,1\n", TABLE),
    ("quoted-cell", 'a,b,label\n"1.5",2,0\n3,"4.25",1\n', TABLE),
    ("quoted-line-break", 'a,b,label\n1,"2\n",0\n3,4,1\n', TABLE),
    ("nan-label", "a,label\n1,nan\n2,1\n", (ValueError, "labels contain non-finite")),
    ("overflow", "a,label\n1e400,0\n2,1\n", (ValueError, "features contain non-finite")),
    ("whitespace-line", "a,b,label\n1,2,0\n \t\n3,4,1\n",
     (CsvParseError, "row 3, column 'b': 1 cells, the header has 3")),
    ("empty-cells-row", "a,b,label\n1,2,0\n,,\n3,4,1\n",
     (CsvParseError, "row 3, column 'a': could not convert string ''")),
    ("underscore", "a,label\n1_000.25,0\n2,1\n",
     (CsvParseError, "row 2, column 'a': could not convert string '1_000.25'")),
    ("hash", "a,label\n#1,0\n2,1\n", (CsvParseError, "row 2, column 'a'")),
    ("short-row", "a,b,label\n1,2,0\n3,4\n",
     (CsvParseError, "row 3, column 'label': 2 cells, the header has 3")),
    ("short-first-row", "a,b,label\n1,2\n3,4,5\n",
     (CsvParseError, "row 2, column 'label': 2 cells, the header has 3")),
    ("long-rows", "a,b,label\n1,2,0,9\n3,4,1,9\n",
     (CsvParseError, r"row 2, column 4 \(past 'label'\): 4 cells, the header has 3")),
    ("empty-cell", "a,b,label\n1,,0\n3,4,1\n", (CsvParseError, "row 2, column 'b'")),
    ("bad-cell", "a,b,label\n1,2,0\n3,4 5,1\n",
     (CsvParseError, "row 3, column 'b': could not convert string '4 5'")),
    # numpy skips empty lines, and counts a bad cell's row from 0 but a
    # short row's from 1; the error still names the file row
    ("blank-lines-bad-cell", "a,b,label\n\n1,2,0\n\n\n3,x,1\n", (CsvParseError, "row 6, column 'b'")),
    ("blank-lines-short-row", "a,b,label\n\n1,2,0\n\n\n3,4\n",
     (CsvParseError, "row 6, column 'label'")),
    ("crlf-blank-lines-bad-cell", "a,b,label\r\n\r\n1,2,0\r\n\r\n3,x,1\r\n",
     (CsvParseError, "row 5, column 'b'")),
    ("cr-blank-lines-short-row", "a,b,label\r\r1,2,0\r\r3,4\r",
     (CsvParseError, "row 5, column 'label'")),
    ("quoted-line-break-bad-cell", 'a,b,label\n1,"2\n\n",0\n\n3,x,1\n',
     (CsvParseError, "row 6, column 'b'")),
    ("header-quote-bad-cell", 'a"b,c,label\n1,2,0\n3,x,1\n', (CsvParseError, "row 3, column 'c'")),
    ("header-only", "a,b,label\n", (CsvParseError, "no data rows")),
    ("label-header-only", "label\n\n", (CsvParseError, "no data rows")),  # numpy warns
]


@pytest.mark.parametrize(
    "text, outcome", [case[1:] for case in ODD_CSVS], ids=[case[0] for case in ODD_CSVS]
)
def test_ingest_csv_fast_path_agrees_with_the_row_loop(tmp_path, text, outcome):
    """numpy's reader, the only one, gives the table a ``csv`` and
    ``float()`` row loop gives, or the stated error."""
    path = tmp_path / "odd.csv"
    path.write_bytes(text.encode("utf-8"))
    if outcome is TABLE:
        expected = _float_table(text)
        label_idx = next(csv.reader(io.StringIO(text, newline=""))).index("label")
        assert _ingest_table(path, label_idx).tobytes() == expected.tobytes()
        return
    error, pattern = outcome
    with pytest.raises(ValueError, match=pattern) as raised:
        ingest_csv(str(path), "label")
    assert type(raised.value) is error
    if error is CsvParseError:
        assert str(raised.value).startswith(f"{path}: ")


# bounded so that no format rounds a cell up to infinity
_CELL = st.floats(-1e300, 1e300, allow_nan=False, width=64)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    table=st.integers(1, 4).flatmap(
        lambda cols: st.lists(st.lists(_CELL, min_size=cols, max_size=cols), min_size=1, max_size=5)
    ),
    label_at=st.integers(0, 4),
    integer_labels=st.booleans(),
    cell_format=st.sampled_from(["{!r}", "{:.6f}", "{:.3e}", "{:+.17g}"]),
    newline=st.sampled_from(["\n", "\r\n"]),
    blank_after=st.sets(st.integers(0, 5)),
    quote=st.booleans(),
)
def test_ingest_csv_parse_paths_agree(
    tmp_path_factory, table, label_at, integer_labels, cell_format, newline, blank_after, quote
):
    labels = [float(i % 3) if integer_labels else 0.25 * i for i in range(len(table))]
    label_at = min(label_at, len(table[0]))
    names = [f"f{j}" for j in range(len(table[0]))]
    names.insert(label_at, "label")
    lines = [",".join(names)]
    expected = []
    for i, row in enumerate(table):
        cells = [cell_format.format(value) for value in row]
        cells.insert(label_at, cell_format.format(labels[i]))
        expected.append([float(cell) for cell in cells])
        if quote:
            cells[0] = f'"{cells[0]}"'
        lines.append(",".join(cells))
        if i in blank_after:
            lines.append("")
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    path.write_bytes((newline.join(lines) + newline).encode("utf-8"))
    assert _ingest_table(path, label_at).tobytes() == np.array(expected).tobytes()


def test_ingest_csv_peak_memory(tmp_path):
    # a body read into one string before parsing would add its own size
    rows, features = 2000, 100
    rng = np.random.default_rng(0)
    path = tmp_path / "big.csv"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join([f"f{j}" for j in range(features)] + ["label"]) + "\n")
        for row in rng.standard_normal((rows, features)):
            handle.write(",".join(f"{v:.6f}" for v in row) + f",{rows % 2}\n")
    table_bytes = rows * (features + 1) * 8
    tracemalloc.start()
    try:
        data = ingest_csv(str(path), "label")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert data.n == rows and data.d == features
    # the table, the features and the dataset's design: not all three at once
    assert peak <= 2.5 * table_bytes, peak / table_bytes


def test_split_pool_disjoint_and_sized():
    rng = np.random.default_rng(5)
    data = Dataset(rng.standard_normal((40, 3)), np.arange(40))
    pool, holdout, private = split_pool(data, 6, 10)
    assert (pool.n, holdout.n, private.n) == (6, 10, 24)
    # pool, then eval, then private, in row order
    assert pool.labels.tolist() == list(range(6))
    assert holdout.labels.tolist() == list(range(6, 16))
    assert private.labels.tolist() == list(range(16, 40))
    assert private.features.tobytes() == data.features[16:].tobytes()
    # no pool at all leaves eval first
    pool, holdout, private = split_pool(data, 0, 10)
    assert (pool.n, holdout.n, private.n) == (0, 10, 30)
    # the private split may not be empty
    with pytest.raises(ValueError, match="cannot split 40 rows"):
        split_pool(data, 30, 10)
    with pytest.raises(ValueError, match="-1 pool"):
        split_pool(data, -1, 10)


def test_features_are_a_view_of_the_design():
    rng = np.random.default_rng(13)
    data = Dataset(rng.standard_normal((20, 3)), rng.integers(0, 2, size=20))
    parts = (
        data,
        data.subset(np.array([4, 1, 1, 17])),
        data.subset(np.arange(20) % 3 == 0),
        data.subset(slice(5, 12)),
        data.with_labels(np.zeros(20, dtype=np.int64)),
    )
    for d in parts:
        assert np.shares_memory(d.features, d.design)
        assert d.features.tobytes() == d.design[:, :-1].tobytes()
        assert np.all(d.design[:, -1] == 1.0)
        with pytest.raises(ValueError, match="read-only"):
            d.features[0, 0] = 0.0
    # a slice is a view of its parent's rows; a gather is a copy
    assert np.shares_memory(data.subset(slice(5, 12)).design, data.design)
    assert not np.shares_memory(data.subset(np.array([4, 1])).design, data.design)


def test_split_pool_splits_are_views_of_one_table():
    rng = np.random.default_rng(14)
    data = Dataset(rng.standard_normal((30, 4)), rng.integers(0, 2, size=30))
    for part in split_pool(data, 5, 8):
        for mine, full in (
            (part.design, data.design),
            (part.design_sq_norms, data.design_sq_norms),
            (part.labels, data.labels),
        ):
            assert np.shares_memory(mine, full)


def test_dataset_design_is_built_once_and_shared():
    rng = np.random.default_rng(6)
    data = Dataset(rng.standard_normal((30, 4)), rng.integers(0, 3, size=30))

    def augmented(d):
        return np.hstack([d.features, np.ones((d.n, 1))])

    idx = np.array([7, 2, 2, 19, 0])
    fresh = data.subset(idx)  # gathered from the parent's design
    assert fresh.design.tobytes() == augmented(fresh).tobytes()
    assert data.design.tobytes() == augmented(data).tobytes()
    assert data.design is data.design
    sliced = data.subset(idx)  # a second gather gives the same rows
    assert sliced.design.tobytes() == augmented(sliced).tobytes()
    assert data.subset(np.arange(30) % 2 == 0).design.tobytes() == augmented(
        data.subset(np.arange(0, 30, 2))
    ).tobytes()

    relabeled = data.with_labels(rng.integers(0, 3, size=30))
    assert relabeled.features is data.features
    assert relabeled.design is data.design
    # a relabeled copy of a fresh dataset shares its design too
    lazy = Dataset(data.features, data.labels)
    assert lazy.with_labels(np.zeros(30, dtype=int)).design is lazy.design
    with pytest.raises(ValueError, match="labels"):
        data.with_labels(np.zeros(29))


def test_design_norms_are_computed_once_and_shared():
    rng = np.random.default_rng(12)
    data = Dataset(rng.standard_normal((40, 6)), rng.integers(0, 2, size=40))

    def norms(d):
        return np.einsum("ij,ij->i", d.design, d.design)

    idx = np.array([5, 0, 5, 39, 12])
    fresh = data.subset(idx)  # gathered with the subset's rows
    assert fresh.design_sq_norms.tobytes() == norms(fresh).tobytes()
    assert data.design_sq_norms.tobytes() == norms(data).tobytes()
    assert data.design_sq_norms is data.design_sq_norms
    # sliced from the parent's norms: an index array, a mask, no rows
    for pick in (idx, np.arange(40) % 3 == 1, np.array([], dtype=np.int64)):
        part = data.subset(pick)
        assert part.design_sq_norms.tobytes() == norms(part).tobytes()
    assert data.subset(np.array([], dtype=np.int64)).design_sq_norms.shape == (0,)
    relabeled = data.with_labels(rng.integers(0, 2, size=40))
    assert relabeled.design_sq_norms is data.design_sq_norms
    for d in (data, data.subset(idx), relabeled):
        with pytest.raises(ValueError, match="read-only"):
            d.design_sq_norms[0] = 0.0


def test_dataset_owns_copies_of_the_arrays_it_was_given():
    rng = np.random.default_rng(8)
    for labels in (rng.integers(0, 3, size=12), rng.standard_normal(12)):
        features = rng.standard_normal((12, 3))
        data = Dataset(features, labels)
        kept = [data.features.copy(), data.labels.copy(), data.design.copy()]
        features[0, 0] = np.nan  # past the finite check, were it shared
        features[1:] = 7.0
        labels[:] = 1
        for array, before in zip((data.features, data.labels, data.design), kept):
            assert array.tobytes() == before.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_labels(bad):
    features = np.zeros((3, 2))
    labels = np.array([0.5, bad, 1.0])
    with pytest.raises(ValueError, match="labels contain non-finite entries"):
        Dataset(features, labels)
    data = Dataset(features, np.zeros(3))
    with pytest.raises(ValueError, match="labels contain non-finite entries"):
        data.with_labels(labels)


def test_with_labels_owns_a_copy_of_the_labels():
    data = Dataset(np.random.default_rng(9).standard_normal((6, 2)), np.zeros(6, dtype=np.int64))
    for labels in (np.arange(6), np.linspace(0.0, 1.0, 6)):
        relabeled = data.with_labels(labels)
        kept = relabeled.labels.copy()
        labels[:] = 0
        assert relabeled.labels.tobytes() == kept.tobytes()
        assert relabeled.features is data.features


def test_dataset_arrays_are_read_only():
    rng = np.random.default_rng(7)
    data = Dataset(rng.standard_normal((10, 3)), rng.standard_normal(10))
    for d in (data, data.subset(np.arange(5)), data.with_labels(np.zeros(10))):
        for array in (d.features, d.labels, d.design):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
    # the design sliced from a built one is read-only too
    with pytest.raises(ValueError, match="read-only"):
        data.subset(np.arange(5)).design[0, 0] = 0.0
