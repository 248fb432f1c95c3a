import dataclasses
import json

import numpy as np
import pytest

from xlog import container, encode
from xlog.cli import main
from xlog.encode import (
    FlatDataset, SequenceDataset, build_vocab, encode_flat,
    encode_sequences, stratified_split,
)
from xlog.eventlog import DYNAMIC_CATEGORICAL, STATIC_CATEGORICAL

from conftest import make_log

CATS = list(DYNAMIC_CATEGORICAL) + list(STATIC_CATEGORICAL)


def small_log():
    return make_log([
        ("c1", ["A", "A", "B"], "L1"),
        ("c2", ["A", "C"], "L1"),
        ("c3", ["A", "B"], "L2"),
        ("c4", ["C"], "L2"),
    ])


def test_vocab_frequency_then_lex_order():
    log = make_log([("c1", ["A"] * 5 + ["B"] * 2, "L")])
    vocab = build_vocab(log, ["activity"])
    assert vocab.maps["activity"] == {"A": 1, "B": 2}


def test_vocab_tie_breaks_lexicographic():
    log = make_log([("c1", ["B", "A", "A", "B", "C", "C"], "L")])
    vocab = build_vocab(log, ["activity"])
    assert vocab.maps["activity"] == {"A": 1, "B": 2, "C": 3}


def test_vocab_empty_feature_list():
    vocab = build_vocab(small_log(), [])
    assert vocab.maps == {}


def test_vocab_never_assigns_zero():
    vocab = build_vocab(small_log(), CATS)
    for feat, mapping in vocab.maps.items():
        assert 0 not in mapping.values()


def test_vocab_json_roundtrip(tmp_path, monkeypatch):
    """``xlog ingest`` writes the vocabulary it encoded with, maps sorted by
    feature and by token."""
    built = []

    def capture(*args):
        built.append(real(*args))
        return built[-1]

    real = encode.build_vocab
    monkeypatch.setattr(encode, "build_vocab", capture)
    spec = {"classes": [{"label": "a", "motif": ["m_a"], "cases": 6},
                        {"label": "b", "motif": ["m_b"], "cases": 6}],
            "noise_vocab": 4, "min_length": 3, "max_length": 5}
    (tmp_path / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    synth_dir, data = tmp_path / "synth", tmp_path / "data"
    assert main(["synth", "--spec", str(tmp_path / "spec.json"), "--out", str(synth_dir)]) == 0
    assert main(["ingest", "--csv", str(synth_dir / "events.csv"),
                 "--schema", str(synth_dir / "schema.json"), "--min-class", "2",
                 "--out", str(data)]) == 0
    [vocab] = built
    written = json.loads((data / "vocab.json").read_text())
    assert written["maps"] == vocab.to_dict()["maps"] == vocab.maps
    assert list(written["maps"]) == sorted(vocab.maps)
    assert all(list(m) == sorted(m) for m in written["maps"].values())
    assert set(written["meta"]) == {"config_hash", "seed", "version"}


def test_encode_sequences_pads_with_prefix_mask():
    log = small_log()
    vocab = build_vocab(log, CATS)
    ds = encode_sequences(log, vocab, T=4)
    assert ds.X.shape == (4, 4, len(ds.feature_names))
    assert ds.mask[1].tolist() == [True, True, False, False]
    act_col = ds.feature_names.index("activity")
    assert ds.X[1, 2, act_col] == 0.0 and ds.X[1, 3, act_col] == 0.0


def test_encode_sequences_truncates_keep_first():
    log = make_log([("c1", [f"a{i}" for i in range(300)], "L"),
                    ("c2", ["a0"], "L")])
    vocab = build_vocab(log, ["activity"])
    ds = encode_sequences(log, vocab, T=64)
    assert ds.X.shape[1] == 64
    act = ds.feature_names.index("activity")
    first_tokens = [vocab.index("activity", f"a{i}") for i in range(64)]
    assert ds.X[0, :, act].astype(int).tolist() == first_tokens


def test_encode_constant_numeric_scales_to_zero():
    log = small_log()  # num_executions == 1 everywhere
    vocab = build_vocab(log, CATS)
    ds = encode_sequences(log, vocab, T=3)
    col = ds.feature_names.index("num_executions")
    assert np.all(ds.X[ds.mask][:, col] == 0.0)


def test_encode_unknown_token_maps_to_zero_and_counts():
    log = small_log()
    vocab = build_vocab(log, CATS)
    other = make_log([("c9", ["ZZZ"], "L1"), ("c8", ["A"], "L2")])
    ds = encode_sequences(other, vocab, T=2)
    act = ds.feature_names.index("activity")
    assert ds.X[0, 0, act] == 0.0


def test_encode_roundtrip_decodes_prefix():
    log = small_log()
    vocab = build_vocab(log, CATS)
    ds = encode_sequences(log, vocab, T=4)
    act = ds.feature_names.index("activity")
    token = {i: tok for tok, i in vocab.maps["activity"].items()}
    for m, case in enumerate(log.cases):
        n = int(ds.mask[m].sum())
        decoded = [token[int(ds.X[m, t, act])] for t in range(n)]
        assert decoded == [e.activity for e in case.events[:4]]


def test_encode_statics_replicated_per_true_timestep():
    log = small_log()
    vocab = build_vocab(log, CATS)
    ds = encode_sequences(log, vocab, T=4)
    age = ds.feature_names.index("age")
    for m in range(len(log.cases)):
        vals = ds.X[m, ds.mask[m], age]
        assert np.all(vals == vals[0])


def test_encode_scaling_maps_train_extremes_to_unit_interval():
    log = make_log([{"case_id": f"c{i}", "activities": ["a"], "label": "L",
                     "age": v} for i, v in enumerate([30, 50, 70, 90])])
    from xlog.encode import Split
    split = Split(train_indices=np.array([0, 3]), test_indices=np.array([1, 2]))
    vocab = build_vocab(log, CATS)
    ds = encode_sequences(log, vocab, T=1, split=split)
    age = ds.feature_names.index("age")
    got = ds.X[:, 0, age]
    assert got[0] == 0.0 and got[3] == 1.0
    assert 0.0 < got[1] < got[2] < 1.0


def test_encode_count_clamped_at_zero_on_unseen_low():
    log = make_log([("c1", ["a"], "L"), ("c2", ["a"], "L"), ("c3", ["a"], "L")])
    from dataclasses import replace
    log = replace(log, num_executions=np.array([5.0, 9.0, 1.0]))
    from xlog.encode import Split
    split = Split(train_indices=np.array([0, 1]), test_indices=np.array([2]))
    vocab = build_vocab(log, CATS)
    ds = encode_sequences(log, vocab, T=1, split=split)
    col = ds.feature_names.index("num_executions")
    assert ds.X[2, 0, col] == 0.0  # (1-5)/(9-5) < 0 clamps to 0


def test_encode_flat_positional_layout_and_padding():
    log = make_log([("c1", ["A", "B"], "L1"), ("c2", ["B"], "L2")])
    vocab = build_vocab(log, ["activity"])
    ds = encode_flat(encode_sequences(log, vocab, T=3))
    a0 = ds.feature_names.index("activity_0")
    a1 = ds.feature_names.index("activity_1")
    a2 = ds.feature_names.index("activity_2")
    iA, iB = vocab.index("activity", "A"), vocab.index("activity", "B")
    assert ds.X[0, [a0, a1, a2]].astype(int).tolist() == [iA, iB, 0]
    assert ds.X[1, [a0, a1, a2]].astype(int).tolist() == [iB, 0, 0]


def test_encode_flat_l1_has_one_dynamic_block_plus_statics():
    log = small_log()
    vocab = build_vocab(log, CATS)
    ds = encode_flat(encode_sequences(log, vocab, T=1))
    from xlog.encode import DYNAMIC_FEATURES, STATIC_FEATURES
    assert ds.X.shape[1] == len(DYNAMIC_FEATURES) + len(STATIC_FEATURES)


def test_encode_flat_matches_sequence_flattening():
    log = small_log()
    vocab = build_vocab(log, CATS)
    seq = encode_sequences(log, vocab, T=3)
    flat = encode_flat(seq)
    from xlog.encode import DYNAMIC_FEATURES
    n_dyn = len(DYNAMIC_FEATURES)
    for m in range(len(log.cases)):
        expect = seq.X[m, :, :n_dyn].ravel()
        assert np.array_equal(flat.X[m, :3 * n_dyn], expect)


def test_split_sizes_and_determinism():
    Y = np.asarray(["a"] * 10)
    sp = stratified_split(Y, 0.2, seed=7)
    assert len(sp.test_indices) == 2 and len(sp.train_indices) == 8
    sp2 = stratified_split(Y, 0.2, seed=7)
    assert np.array_equal(sp.test_indices, sp2.test_indices)
    assert np.array_equal(sp.train_indices, sp2.train_indices)


def test_split_stratifies_per_class():
    Y = np.asarray(["a"] * 5 + ["b"] * 5)
    sp = stratified_split(Y, 0.2, seed=1)
    test_labels = Y[sp.test_indices].tolist()
    assert sorted(test_labels) == ["a", "b"]


def test_split_partition_properties(rng):
    Y = rng.integers(0, 3, size=37)
    sp = stratified_split(Y, 0.25, seed=5)
    union = np.union1d(sp.train_indices, sp.test_indices)
    assert np.array_equal(union, np.arange(37))
    assert np.intersect1d(sp.train_indices, sp.test_indices).size == 0


def stratified_split_oracle(Y, test_fraction, seed):
    """The split by a loop over the classes that extends two index lists."""
    rng = np.random.default_rng(seed)
    train, test = [], []
    for label in np.unique(Y):
        idx = np.flatnonzero(Y == label)
        idx = idx[rng.permutation(len(idx))]
        n_test = int(np.floor(len(idx) * test_fraction + 0.5))
        n_test = min(max(n_test, 0), len(idx) - 1)
        test.extend(idx[:n_test])
        train.extend(idx[n_test:])
    return (np.sort(np.asarray(train, dtype=np.int64)),
            np.sort(np.asarray(test, dtype=np.int64)))


def test_split_equals_the_per_class_loop_oracle():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        sizes = rng.integers(2, 30, size=int(rng.integers(1, 6)))
        Y = rng.permutation(np.repeat([f"L{i}" for i in range(len(sizes))], sizes))
        fraction = float(rng.choice([0.05, 0.2, 0.25, 0.5, 0.9]))
        sp = stratified_split(Y, fraction, seed)
        train, test = stratified_split_oracle(Y, fraction, seed)
        assert sp.train_indices.dtype == sp.test_indices.dtype == np.int64
        assert np.array_equal(sp.train_indices, train), seed
        assert np.array_equal(sp.test_indices, test), seed


def test_split_rejects_singleton_class():
    Y = np.asarray(["a", "a", "b"])
    with pytest.raises(ValueError, match="b"):
        stratified_split(Y, 0.5, seed=0)


def test_split_rejects_bad_fraction():
    with pytest.raises(ValueError):
        stratified_split(np.asarray(["a", "a"]), 1.5, seed=0)


def test_container_roundtrip(tmp_path, rng):
    path = tmp_path / "data.xlg"
    arrays = {"X": rng.random((3, 4, 2)), "Y": np.arange(5, dtype=np.int64),
              "mask": np.asarray([[True, False], [False, True]])}
    container.save_arrays(path, arrays)
    with open(path, "rb") as fh:
        assert fh.read(4) == b"XLG1"
    back = container.load_arrays(path)
    for key, arr in arrays.items():
        assert back[key].dtype == arr.dtype or key == "mask"
        assert np.array_equal(back[key], arr)


def test_container_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.xlg"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(container.ContainerError):
        container.load_arrays(path)


def test_truncated_container_names_path_array_and_missing_bytes(tmp_path, rng):
    # a short file used to raise numpy's bare "buffer size must be a multiple
    # of element size", or struct.error inside a header
    path = tmp_path / "data.xlg"
    container.save_arrays(path, {"X": rng.random((4, 3)), "Y": np.arange(4, dtype=np.int64)})
    blob = path.read_bytes()
    y_header = 2 + 1 + 2 + 8  # name length, name, dtype and rank, one dim
    for cut, where, missing in [
        (3, "array 'Y'", 3),
        (32, "array 'Y'", 32),
        (32 + 8, "the header of array 'Y'", 8),
        (32 + y_header - 1, "the name of array 1", 1),
        (32 + y_header + 5, "array 'X'", 5),
        (len(blob) - 6, "the array count", 2),
    ]:
        path.write_bytes(blob[:len(blob) - cut])
        with pytest.raises(container.ContainerError) as err:
            container.load_arrays(path)
        message = str(err.value)
        assert message.startswith(f"{path}: truncated in {where}: "), (cut, message)
        assert message.endswith(f": {missing} bytes missing"), (cut, message)


def test_dataset_save_load_roundtrip(tmp_path):
    log = small_log()
    vocab = build_vocab(log, CATS)
    seq = encode_sequences(log, vocab, T=3)
    flat = encode_flat(seq)
    seq.save(tmp_path / "seq.xlg", meta={"seed": 0})
    flat.save(tmp_path / "flat.xlg")
    seq2 = SequenceDataset.load(tmp_path / "seq.xlg")
    flat2 = FlatDataset.load(tmp_path / "flat.xlg")
    assert np.array_equal(seq.X, seq2.X)
    assert np.array_equal(seq.mask, seq2.mask)
    assert np.array_equal(seq.Y, seq2.Y) and seq2.T == seq.T
    assert seq2.cat_sizes == seq.cat_sizes
    assert np.array_equal(flat.X, flat2.X) and np.array_equal(flat.Y, flat2.Y)
    assert flat2.feature_names == flat.feature_names
    assert flat2.categorical == flat.categorical


@pytest.mark.parametrize("meta", [None, {"config_hash": "abc", "seed": 3, "version": "x"}])
@pytest.mark.parametrize("flat", [False, True], ids=["sequences", "flat"])
def test_dataset_save_load_save_writes_the_same_bytes(tmp_path, flat, meta):
    seq = encode_sequences(small_log(), build_vocab(small_log(), CATS), T=3)
    dataset = encode_flat(seq) if flat else seq
    dataset.save(tmp_path / "a.xlg", meta=meta)
    type(dataset).load(tmp_path / "a.xlg").save(tmp_path / "b.xlg", meta=meta)
    for ext in ("", ".json"):
        assert (tmp_path / f"a.xlg{ext}").read_bytes() == (tmp_path / f"b.xlg{ext}").read_bytes()
    manifest = json.loads((tmp_path / "a.xlg.json").read_text(encoding="utf-8"))
    assert ("meta" in manifest) == (meta is not None)


@pytest.mark.parametrize("flat", [False, True], ids=["sequences", "flat"])
def test_dataset_take_keeps_every_array_and_case_id_aligned(flat):
    seq = encode_sequences(small_log(), build_vocab(small_log(), CATS), T=3)
    dataset = encode_flat(seq) if flat else seq
    rows = [3, 0, 3, 1]
    part = dataset.take(np.asarray(rows))
    arrays = [f.name for f in dataclasses.fields(dataset)
              if isinstance(getattr(dataset, f.name), np.ndarray)]
    assert arrays == (["X", "Y"] if flat else ["X", "mask", "Y"])
    for name in arrays:
        assert np.array_equal(getattr(part, name), getattr(dataset, name)[rows])
    assert part.case_ids == [dataset.case_ids[i] for i in rows]
    for f in dataclasses.fields(dataset):
        if f.name not in arrays + ["case_ids"]:
            assert getattr(part, f.name) == getattr(dataset, f.name)


def test_dataset_json_fixture_roundtrip(tmp_path):
    """The JSON manifest beside each container carries the non-array fields."""
    log = small_log()
    vocab = build_vocab(log, CATS)
    seq = encode_sequences(log, vocab, T=3)
    flat = encode_flat(seq)
    seq.save(tmp_path / "seq.xlg", meta={"seed": 0})
    flat.save(tmp_path / "flat.xlg")
    seq_manifest = json.loads((tmp_path / "seq.xlg.json").read_text(encoding="utf-8"))
    flat_manifest = json.loads((tmp_path / "flat.xlg.json").read_text(encoding="utf-8"))
    assert seq_manifest == {
        "label_names": seq.label_names, "feature_names": seq.feature_names,
        "case_ids": seq.case_ids, "cat_sizes": seq.cat_sizes, "T": 3,
        "meta": {"seed": 0},
    }
    assert flat_manifest == {
        "label_names": flat.label_names, "feature_names": flat.feature_names,
        "case_ids": flat.case_ids, "categorical": flat.categorical,
    }
    seq2 = SequenceDataset.load(tmp_path / "seq.xlg")
    flat2 = FlatDataset.load(tmp_path / "flat.xlg")
    assert (seq2.label_names, seq2.feature_names, seq2.case_ids) == \
        (seq.label_names, seq.feature_names, seq.case_ids)
    assert (flat2.label_names, flat2.case_ids) == (flat.label_names, flat.case_ids)
