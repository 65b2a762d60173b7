"""Model containers: the bytes each method writes, and damaged files refused."""

import io
import json
import sys

import numpy as np
import pytest

from edgesign import cli
from edgesign.batch import METHODS, load_model, save_model
from edgesign.errors import DataError
from edgesign.genmodel import TwoPointPrior, UniformPrior, make_synthetic
from edgesign.graph import EdgeSplit, load_edge_list, sample_split

from conftest import random_graph, run_python
from oracles import blc_container_reference, logreg_container_reference, pq_container_reference

#: The array fields and the number fields of each method's container.
ARRAYS = {"blc": ("tr", "un"), "logreg": ("tr", "un"), "lprop": ("p", "q"), "unreg": ("p", "q")}
NUMBERS = {"blc": ("tau",), "logreg": ("w0", "w1", "w2", "threshold"),
           "lprop": ("threshold",), "unreg": ("threshold",)}


def reference(method, model, g, split):
    if method == "blc":
        d = blc_container_reference(model, g, split.training_mask)
        del d["tr_defined"], d["un_defined"]
        return d
    if method == "logreg":
        return logreg_container_reference(model)
    return pq_container_reference(f"edgesign-{method}", model)


def encoded(d):
    return json.dumps(d, separators=(",", ":")).encode()


def seeded_graphs():
    yield make_synthetic(80, TwoPointPrior(0.1, 0.9), 6, seed=3)[0], 0.3, 1
    yield make_synthetic(300, UniformPrior(), 8, seed=5)[0], 0.15, 2
    yield random_graph(30, 200, seed=9), 0.5, 10


@pytest.mark.parametrize("method", list(METHODS))
def test_containers_equal_the_field_by_field_writers(tmp_path, method):
    for g, fraction, seed in seeded_graphs():
        split = sample_split(g, fraction, seed)
        model = METHODS[method].fit(g, split)
        path = tmp_path / "model.json"
        save_model(model, path)
        assert path.read_bytes() == encoded(reference(method, model, g, split))


def prediction_csv(model, g, split):
    text = io.StringIO()
    model.predict_split(g, split).to_csv(text, node_ids=g.node_ids)
    return text.getvalue()


def test_blc_files_with_the_node_flags_still_load_and_predict_the_same(tmp_path):
    for g, fraction, seed in seeded_graphs():
        split = sample_split(g, fraction, seed)
        model = METHODS["blc"].fit(g, split)
        path = tmp_path / "old.json"
        path.write_bytes(encoded(blc_container_reference(model, g, split.training_mask)))
        again = load_model(path)
        assert np.array_equal(again.tr, model.tr) and np.array_equal(again.un, model.un)
        assert again.tau == model.tau
        assert prediction_csv(again, g, split) == prediction_csv(model, g, split)


@pytest.mark.parametrize("method", ["lprop", "unreg"])
def test_files_with_an_infinite_threshold_still_load_and_predict_the_same(tmp_path, method):
    g = load_edge_list("a b 1\nb c 1\nc a 1\na c 1\nc b -1\n")
    split = EdgeSplit(np.array([True, True, True, True, False]), 0.8, 0)
    model = METHODS[method].fit(g, split)
    assert model.threshold == -sys.float_info.max
    path = tmp_path / "old.json"
    path.write_text(json.dumps({**model.to_json_dict(), "threshold": float("-inf")}))
    assert '"threshold": -Infinity' in path.read_text()
    again = load_model(path)
    assert again.threshold == float("-inf")
    assert prediction_csv(again, g, split) == prediction_csv(model, g, split)


DELETE = object()
NUMBER_DAMAGE = {"missing": DELETE, "text": "x", "null": None, "true": True, "list": [1],
                 "huge-integer": 10 ** 400, "nan": float("nan")}
ARRAY_DAMAGE = {"missing": DELETE, "text": "x", "null": None, "true": True,
                "nested": lambda v: [[x] for x in v],
                "strings": lambda v: [str(x) for x in v],
                "booleans": lambda v: [x > 0.5 for x in v],
                "leading-true": lambda v: [True] + v[1:],
                "ragged": lambda v: [[v[0]]] + v[1:],
                "nan": lambda v: [float("nan")] + v[1:],
                "shorter": lambda v: v[:-1]}
DAMAGE_CASES = [(method, name, kind) for method in METHODS
                for names, damage in ((ARRAYS[method], ARRAY_DAMAGE),
                                      (NUMBERS[method], NUMBER_DAMAGE))
                for name in names for kind in damage]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A graph, a split file and one fitted model container per method."""
    base = tmp_path_factory.mktemp("trained")
    graph, split = base / "graph.json", base / "split.json"
    make_synthetic(80, TwoPointPrior(0.1, 0.9), 6, seed=3)[0].save(graph)
    assert cli.main(["split", str(graph), "--fraction", "0.3", "--seed", "1",
                     "-o", str(split)]) == 0
    models = {}
    for method in METHODS:
        path = base / f"{method}.json"
        assert cli.main(["train", str(graph), "--method", method, "--split", str(split),
                         "-o", str(path)]) == 0
        models[method] = json.loads(path.read_text())
    return graph, split, models


@pytest.mark.parametrize("method, name, kind", DAMAGE_CASES,
                         ids=[f"{m}-{n}-{k}" for m, n, k in DAMAGE_CASES])
def test_a_damaged_field_is_a_data_error(trained, tmp_path, capsys, method, name, kind):
    graph, split, models = trained
    d = dict(models[method])
    damage = {**ARRAY_DAMAGE, **NUMBER_DAMAGE}[kind]
    if damage is DELETE:
        del d[name]
    else:
        d[name] = damage(d[name]) if callable(damage) else damage
    path = tmp_path / "damaged.json"
    path.write_text(json.dumps(d))
    with pytest.raises(DataError, match=rf"\b{name}\b"):
        load_model(path)
    capsys.readouterr()
    out = tmp_path / "pred.csv"
    assert cli.main(["predict", str(graph), str(path), "--split", str(split),
                     "-o", str(out)]) == cli.EXIT_DATA
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("fmt", [[], {}, None, 1, "edgesign-tree"])
def test_a_model_file_of_no_known_format_is_a_data_error(tmp_path, fmt):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"format": fmt, "version": 1}))
    with pytest.raises(DataError, match="unrecognized model container format"):
        load_model(path)


@pytest.mark.parametrize("method, name, value", [("lprop", "threshold", None),
                                                 ("logreg", "w0", [1]), ("blc", "tau", "x")])
def test_predict_on_a_damaged_file_exits_3_without_a_traceback(trained, tmp_path, method, name,
                                                                value):
    graph, split, models = trained
    path = tmp_path / "damaged.json"
    path.write_text(json.dumps({**models[method], name: value}))
    proc = run_python(["-m", "edgesign.cli", "predict", str(graph), str(path), "--split",
                       str(split), "-o", str(tmp_path / "pred.csv")], capture_output=True,
                      text=True)
    assert proc.returncode == cli.EXIT_DATA
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
