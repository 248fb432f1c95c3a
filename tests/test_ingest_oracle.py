"""The columnar ingest against the object-walking reference in
``ingest_oracle``, on seeded random messy CSVs."""

import codecs
from collections import Counter

import numpy as np
import pytest

import ingest_oracle as oracle
from xlog import eventlog
from xlog.encode import Split, build_vocab, encode_sequences
from xlog.eventlog import (
    DYNAMIC_CATEGORICAL, STATIC_CATEGORICAL, CannotImputeError, EmptyLogError, EventLog,
    clean_log, parse_log,
)

CATS = list(DYNAMIC_CATEGORICAL) + list(STATIC_CATEGORICAL)

#: CSV column -> schema field; "diag2" spreads the diagnosis over two columns
#: and "dept" appears twice in the header, so its last column counts
HEADER = ["case", "act", "ts", "dept", "n", "acode", "prod", "sect", "dept", "age",
          "diag", "diag2", "treat", "comb"]
OPTIONAL = {"department": "dept", "num_executions": "n", "activity_code": "acode",
            "producer_code": "prod", "section": "sect", "age": "age",
            "treatment_code": "treat", "combination_id": "comb"}

CANONICAL = ["2020-01-{d:02d} 10:00:00", "2020-01-{d:02d}T08:30:15", "2021-03-{d:02d} 23:59:59"]
OTHER = ["2020-01-{d:02d}T10:00:00Z", "2020-01-{d:02d}T11:00:00+01:00",
         "2020-01-{d:02d} 10:00:00.250", " 2020-01-{d:02d}T10:00:00-02:30 "]
BAD = ["0000-01-01 00:00:00", "2021-02-30 10:00:00", "not-a-time", "", "2020-01-01 24:00:00"]


def pad(rng, text):
    return " " * int(rng.integers(0, 2)) + text + " " * int(rng.integers(0, 2))


def messy_csv(rng, path):
    """A small CSV with comments, blank lines, padding, interleaved cases,
    duplicate timestamps, spread and blanked labels, short and long rows and
    unparseable values; its timestamps are all canonical in half the files,
    and in a few files no row parses. Some files quote cells (their case ids
    and one activity hold a comma and a doubled quote), end lines with CRLF
    or a bare CR, hold a NUL byte, start with a byte-order mark or carry
    non-ASCII tokens; only files without quotes, CRs and NULs reach the
    byte reader."""
    canonical_only = rng.random() < 0.5
    broken = rng.random() < 0.03  # no row parses
    quoted, nul, bom, wide = (rng.random(4) < [0.2, 0.05, 0.1, 0.25]).tolist()
    eol = str(rng.choice(["\n", "\r\n", "\r"], p=[0.7, 0.15, 0.15]))
    n_cases = int(rng.integers(2, 9))
    labels = ["M10", "M2", "106"][: int(rng.integers(1, 4))]
    names = [f'p,"{i}"' if quoted else f"p{i}" for i in range(n_cases)]
    case_label = {name: str(rng.choice(labels)) for name in names}
    activities = ["a", "b", "c", "treatment"] + ['x,"y'] * quoted + ["ä", "名"] * wide
    departments = ["d1", "d2", ""] + ["d\0x"] * nul + ["é"] * wide

    def cell(text):
        if quoted and ("," in text or '"' in text or rng.random() < 0.2):
            return '"' + text.replace('"', '""') + '"'
        return text

    lines = ["# exported " + str(rng.integers(1000)), ",".join(HEADER)]
    for _ in range(int(rng.integers(4, 40))):
        cid = names[int(rng.integers(n_cases))]
        day = int(rng.integers(1, 6))  # few days, so timestamps repeat within a case
        forms = CANONICAL if canonical_only or rng.random() < 0.6 else OTHER
        ts = str(rng.choice(forms)).format(d=day)
        if rng.random() < 0.05:
            ts = str(rng.choice(BAD))
        diag = case_label[cid] if rng.random() < 0.6 else ""
        diag2 = ""
        if rng.random() < 0.15:
            diag, diag2 = "", str(rng.choice(labels))
        row = [pad(rng, cid), pad(rng, str(rng.choice(activities))), ts,
               str(rng.choice(departments)),
               str(rng.choice(["1", "2", " 3 ", "x", "inf", "", "2.5", "1e3"])),
               str(rng.choice(["ac1", "ac2"])), str(rng.choice(["pr", ""])),
               str(rng.choice(["s1", "s2"])), pad(rng, str(rng.choice(["D", "E", ""]))),
               str(rng.choice(["50", " 61 ", "", "abc", "inf", "70.9", "-3"])),
               diag, diag2, str(rng.choice(["T1", "T2", "", "treatment"])),
               str(rng.choice(["C1", "C2", ""]))]
        u = 0.0 if broken else rng.random()
        if u < 0.05:
            row[0] = " "  # no case id
        elif u < 0.08:
            row[1] = ""  # no activity
        elif u < 0.11:
            row = row[: int(rng.integers(1, 10))]  # short row
        elif u < 0.14:
            row = row + ["extra", "fields"]
        lines.append(",".join(map(cell, row)))
        if rng.random() < 0.1:
            lines.append(str(rng.choice(["", "# note", ","])))
    path.write_bytes(("\ufeff" * bom + eol.join(lines) + eol).encode("utf-8"))
    schema = {"case_id": "case", "activity": "act", "timestamp": "ts",
              "diagnosis_code": ["diag", "diag2"] if rng.random() < 0.7 else "diag"}
    schema |= {f: col for f, col in OPTIONAL.items() if rng.random() < 0.8}
    return schema, canonical_only


def count_readers(monkeypatch, seen):
    """Count in ``seen`` the files each tokenizer splits."""
    for name in ("_csv_columns", "_byte_columns"):
        def counted(*args, name=name, tokenizer=getattr(eventlog, name)):
            split = tokenizer(*args)
            seen[name] += split is not None
            return split
        monkeypatch.setattr(eventlog, name, counted)


def test_columnar_ingest_matches_object_oracle_on_messy_csvs(tmp_path, monkeypatch):
    monkeypatch.setattr(eventlog, "IMPUTE_BLOCK", 2)  # several blocks per log
    rng = np.random.default_rng(20261018)
    seen = Counter()
    count_readers(monkeypatch, seen)
    for k in range(300):
        path = tmp_path / f"log{k}.csv"
        schema, canonical_only = messy_csv(rng, path)
        try:
            want = oracle.parse_log(path, schema)
        except EmptyLogError:
            with pytest.raises(EmptyLogError):
                parse_log(path, schema)
            seen["empty"] += 1
            continue
        got = parse_log(path, schema)
        assert list(got.cases) == want.cases, k
        assert (got.issues, got.spread_features) == (want.issues, want.spread_features), k
        assert got.n_events() == sum(len(c.events) for c in want.cases), k
        seen["canonical"] += canonical_only
        seen.update(want.issues)
        seen["spread"] += bool(want.spread_features)

        min_class = int(rng.integers(1, 3))
        if all(c.diagnosis_code is None for c in want.cases):
            with pytest.raises(CannotImputeError):
                clean_log(got, min_class)
            seen["unlabelled"] += 1
            continue
        want_cases, want_report, ties = oracle.oracle_clean_log(want, min_class)
        clean, report = clean_log(got, min_class)
        assert list(clean.cases) == want_cases, k
        assert report.to_dict() == want_report.to_dict(), k
        seen.update(ties)
        seen["imputed"] += report.imputed_labels
        seen["dropped"] += report.dropped_cases
        if len(want_cases) < 2:
            continue

        # a vocabulary from the first cases only, so that later cases carry
        # unknown tokens; a split, or none
        head = int(rng.integers(1, len(want_cases) + 1))
        vocab = build_vocab(clean.take(np.arange(head)), CATS)
        want_vocab = oracle.build_vocab(EventLog(cases=want_cases[:head]), CATS)
        assert vocab.to_dict() == want_vocab.to_dict(), k
        split = None
        if rng.random() < 0.7:
            train = np.sort(rng.choice(len(want_cases), size=int(rng.integers(1, len(want_cases))),
                                       replace=False))
            split = Split(train_indices=train, test_indices=np.setdiff1d(
                np.arange(len(want_cases)), train))
        T = int(rng.integers(1, 7))
        want_ds = oracle.encode_sequences(EventLog(cases=want_cases), want_vocab, T, split)
        for source in (clean, oracle.table_of(EventLog(cases=want_cases))):
            ds = encode_sequences(source, vocab, T, split)
            for name in ("X", "mask", "Y"):
                got_arr, want_arr = getattr(ds, name), getattr(want_ds, name)
                assert got_arr.dtype == want_arr.dtype, (k, name)
                assert got_arr.tobytes() == want_arr.tobytes(), (k, name)
            assert (ds.label_names, ds.case_ids, ds.cat_sizes) == \
                (want_ds.label_names, want_ds.case_ids, want_ds.cat_sizes), k
        full = build_vocab(clean, CATS)  # tokens it holds and ``vocab`` lacks are unknown
        seen["unknown"] += any(full.maps[f].keys() - vocab.maps[f].keys() for f in CATS)
        seen["encoded"] += 1
    # the generator reaches every path it is meant to exercise
    for key in ("empty", "canonical", "unparseable_rows", "unparseable_timestamps", "spread",
                "imputed", "dropped", "unknown", "encoded", "_csv_columns", "_byte_columns"):
        assert seen[key] > 0, (key, seen)
    assert seen["equal"] + seen["unequal"] > 0, seen


#: quote-free texts at the edges of the line and field rules: no line, an
#: empty first line as the header, comments holding commas, no final newline,
#: empty, short and long rows, and a row of one space
EDGE_TEXTS = ["", "\n", "# only\n", "a,b", "\n\na,b\n1,2\n", "#c\nx\n\n", "h\n \n",
              "a,b\n1\n,\n\n1,2,3", "a,b\n#,x\n1,2", "a,,b\n,,\n\n#\n,x,\n"]


def test_both_tokenizers_split_quote_free_csvs_alike(tmp_path):
    rng = np.random.default_rng(20261021)
    datas = [text.encode() for text in EDGE_TEXTS]
    for k in range(120):
        messy_csv(rng, tmp_path / "log.csv")
        datas.append((tmp_path / "log.csv").read_bytes())
    seen = Counter()
    for k, data in enumerate(datas):
        if b'"' in data or b"\r" in data or b"\0" in data:
            continue
        body = data.removeprefix(codecs.BOM_UTF8)
        header, n_rows, column = eventlog._byte_columns(np.frombuffer(body, np.uint8))
        want_header, want_rows, want_column = eventlog._csv_columns(body.decode())
        assert (header, n_rows) == (want_header, want_rows), k
        for j in range(len(header)):
            codes, tokens = column(j)
            want_codes, want_tokens = want_column(j)
            assert codes.dtype == want_codes.dtype == np.int64, (k, j)
            assert np.array_equal(codes, want_codes) and tokens == want_tokens, (k, j)
        seen["split"] += 1
        seen["bom"] += body is not data
        seen["non_ascii"] += not body.isascii()
    assert min(seen["split"] - len(EDGE_TEXTS), seen["bom"], seen["non_ascii"]) > 0, seen


def test_canonical_timestamps_parse_like_fromisoformat():
    raw = ["2020-01-01 10:00:00", "1970-01-01T00:00:00", "0001-01-01 00:00:00",
           "9999-12-31 23:59:59", "2024-02-29 12:34:56", " 1969-07-20 20:17:40 "]
    fast = eventlog._canonical_seconds([s.strip() for s in raw])
    assert fast is not None
    assert fast.tolist() == [eventlog._parse_timestamp(s) for s in raw]
    # shapes numpy would accept but fromisoformat rejects, and non-canonical
    # forms, take the per-row path
    for odd in ["0000-01-01 00:00:00", "2021-02-30 10:00:00", "2020-01-01 24:00:00",
                "2020-01-01t10:00:00", "2020-01-01 10:00:00Z", "2020-01-01", "",
                "2020-01-01 10:00:0١"]:
        assert eventlog._canonical_seconds(["2020-01-01 10:00:00", odd]) is None, odd
