"""Catalog/population/trace CSV round trips and the plot-ready output formats."""

import random
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from volfied import files
from volfied.files import (
    ADS_HEADER_PREFIX,
    METRICS_HEADER,
    SUMMARY_HEADER,
    TRACE_HEADER,
    atomic_write_text,
    copy_ads_rows,
    load_ads_csv,
    load_poas_csv,
    load_profiles_csv,
    load_trace,
    render_metrics_csv,
    render_summary_row,
    write_ads_csv,
    write_mapping_csv,
    write_poas_csv,
    write_profiles_csv,
    write_trace_csv,
)
from volfied.model import Ad, AdTable, PoA, VehicleProfile
from volfied.sim import MobilityTrace, StepMetrics


def sample_ads():
    return [
        Ad(ad_id=1, features=np.array([0.25, 0.5]), base_value=0.75),
        Ad(ad_id=2, features=np.array([0.1, 0.2]), base_value=0.3, target_poa=4),
    ]


class TestAdsCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "ads.csv"
        write_ads_csv(path, sample_ads())
        back = load_ads_csv(path)
        assert [a.ad_id for a in back] == [1, 2]
        assert back[0].target_poa is None and back[1].target_poa == 4
        assert back[0].base_value == 0.75
        assert np.array_equal(back[1].features, np.array([0.1, 0.2]))

    def test_no_ads_round_trip(self, tmp_path):
        # a catalog of no ads has no feature columns; its file has one
        path = tmp_path / "ads.csv"
        write_ads_csv(path, [])
        assert path.read_text() == "ad_id,f1,base_value,scope,target_poa\n"
        assert len(load_ads_csv(path)) == 0

    def test_header_and_scope_layout(self, tmp_path):
        path = tmp_path / "ads.csv"
        write_ads_csv(path, sample_ads())
        lines = path.read_text().splitlines()
        assert lines[0] == "ad_id,f1,f2,base_value,scope,target_poa"
        assert lines[1].endswith(",G,")
        assert lines[2].endswith(",L,4")

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "ads.csv"
        path.write_text("ad_id,f1,base_value,scope,target_poa\n1,0.5,oops,G,\n")
        with pytest.raises(ValueError, match="line 2"):
            load_ads_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_base_value_reports_line(self, tmp_path, value):
        path = tmp_path / "ads.csv"
        path.write_text(f"ad_id,f1,base_value,scope,target_poa\n1,0.5,1.0,G,\n2,0.5,{value},G,\n")
        with pytest.raises(ValueError, match=rf"ads\.csv: line 3: ad 2: base_value must be"):
            load_ads_csv(path)

    @pytest.mark.parametrize("n_dims", [1, 3])
    def test_header_only_keeps_its_features(self, tmp_path, n_dims):
        header = "ad_id," + ",".join(f"f{i + 1}" for i in range(n_dims))
        header += ",base_value,scope,target_poa\n"
        path = tmp_path / "ads.csv"
        path.write_text(header)
        table = load_ads_csv(path)
        assert len(table) == 0 and table.features.shape == (0, n_dims)
        write_ads_csv(tmp_path / "again.csv", table)
        assert (tmp_path / "again.csv").read_text() == header

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "ads.csv"
        path.write_text("nope,f1\n")
        with pytest.raises(ValueError, match=ADS_HEADER_PREFIX):
            load_ads_csv(path)


# (loader, writer, header, two rows in the writer's form, a row repeating the
# first row's id, the error it gives)
FORMATS = {
    "ads": (
        load_ads_csv, write_ads_csv, "ad_id,f1,f2,base_value,scope,target_poa",
        ["1,0.5,0.25,1.0,G,", "2,0.1,0.2,0.3,L,4"], "1,0.2,0.2,0.5,G,", "ad_id 1 repeats line 2",
    ),
    "poas": (
        load_poas_csv, write_poas_csv, "poa_id,x_m,y_m,range_m",
        ["0,0.0,0.0,150.0", "3,100.0,0.0,150.0"], "0,5.0,5.0,90.0", "poa_id 0 repeats line 2",
    ),
    "profiles": (
        load_profiles_csv, write_profiles_csv, "vehicle_id,f1,f2",
        ["7,0.5,0.25", "8,0.1,0.2"], "7,1.0,1.0", "vehicle_id 7 repeats line 2",
    ),
    "trace": (
        load_trace, write_trace_csv, TRACE_HEADER,
        ["0,1,0.0,0.0", "1,1,5.0,0.0"], "0,1,3.0,0.0", "vehicle 1 appears twice at step 0",
    ),
}


@pytest.mark.parametrize("fmt", list(FORMATS))
class TestLoaders:
    """What every CSV loader shares: header check, field count, blank lines,
    repeated ids, and the file and line named in each error."""

    def raises(self, tmp_path, fmt, lines, lineno, message):
        path = tmp_path / f"{fmt}.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            FORMATS[fmt][0](path)
        assert str(info.value) == f"{path}: line {lineno}: {message}"

    def test_wrong_header_names_file_and_line_1(self, tmp_path, fmt):
        _, _, header, rows, _, _ = FORMATS[fmt]
        for wrong in (header[:-1], header + ",extra", "", "x" + header):
            self.raises(
                tmp_path, fmt, [wrong, *rows], 1, f"unexpected header {wrong!r}: want "
                + repr(header.replace("f1,f2", "f1,...,fn"))
            )

    def test_short_row_names_field_count(self, tmp_path, fmt):
        _, _, header, rows, _, _ = FORMATS[fmt]
        width = header.count(",") + 1
        short = rows[1].rsplit(",", 1)[0]
        self.raises(
            tmp_path, fmt, [header, rows[0], short], 3,
            f"expected {width} fields, got {width - 1}",
        )

    def test_blank_lines_skipped(self, tmp_path, fmt):
        load, write, header, rows, _, _ = FORMATS[fmt]
        path = tmp_path / f"{fmt}.csv"
        path.write_text("\n".join([header, "", rows[0], "", "", rows[1], ""]) + "\n")
        write(path, load(path))
        assert path.read_text() == "\n".join([header, *rows]) + "\n"

    def test_repeated_id_names_both_lines(self, tmp_path, fmt):
        _, _, header, rows, repeat, message = FORMATS[fmt]
        self.raises(tmp_path, fmt, [header, rows[0], rows[1], repeat], 4, message)


class TestFeatureRendering:
    # repr round-trips each double: signed zero, the smallest subnormal, a
    # tiny normal and a sum that is not the decimal it looks like
    FEATURES = np.array([-0.0, 5e-324, 1e-300, 0.1 + 0.2])
    RENDERED = "-0.0,5e-324,1e-300,0.30000000000000004"

    def test_ads_csv_bytes(self, tmp_path):
        path = tmp_path / "ads.csv"
        write_ads_csv(path, [Ad(ad_id=3, features=self.FEATURES, base_value=0.5)])
        assert path.read_bytes() == (
            f"ad_id,f1,f2,f3,f4,base_value,scope,target_poa\n3,{self.RENDERED},0.5,G,\n"
        ).encode()
        assert np.array_equal(load_ads_csv(path)[0].features, self.FEATURES)

    def test_profiles_csv_bytes(self, tmp_path):
        path = tmp_path / "profiles.csv"
        write_profiles_csv(path, [VehicleProfile(vehicle_id=4, interests=self.FEATURES)])
        assert path.read_bytes() == f"vehicle_id,f1,f2,f3,f4\n4,{self.RENDERED}\n".encode()


INT64 = st.integers(-(2**63), 2**63 - 1)
SPECIAL = [-0.0, 5e-324, 1e308]


@st.composite
def ad_tables(draw):
    """Tables of 1-12 ads in 3-5 dimensions; the first row holds -0.0,
    the smallest subnormal and 1e308, the other features any finite float."""
    count = draw(st.integers(1, 12))
    n = draw(st.integers(3, 5))
    def column(values, size=count, **kw):
        return draw(st.lists(values, min_size=size, max_size=size, **kw))

    finite = st.floats(allow_nan=False, allow_infinity=False)
    feats = [column(st.one_of(st.sampled_from(SPECIAL), finite), n) for _ in range(count)]
    feats[0][:3] = SPECIAL
    return AdTable(
        column(INT64, unique=True),
        feats,
        column(st.floats(min_value=5e-324, allow_infinity=False)),
        column(st.one_of(st.just(-1), st.integers(0, 2**63 - 1))),
    )


class TestAdTableCsv:
    @settings(max_examples=200, deadline=None)
    @given(ad_tables())
    def test_round_trip_is_bit_equal(self, table):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ads.csv"
            write_ads_csv(path, table)
            back = load_ads_csv(path)
        assert isinstance(back, AdTable) and back.features.flags.c_contiguous
        for column in ("ids", "features", "base_values", "target_poa"):
            want, got = getattr(table, column), getattr(back, column)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), column

    def test_table_and_its_rows_write_the_same_bytes(self, tmp_path):
        table = AdTable(
            [5, 2**63 - 1, -3], [[-0.0, 0.1 + 0.2], [5e-324, 1e308], [1.0, -2.5]],
            [0.5, 1e-300, 3.0], [-1, 7, 0],
        )
        write_ads_csv(tmp_path / "table.csv", table)
        write_ads_csv(tmp_path / "rows.csv", list(table))
        assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
        assert (tmp_path / "table.csv").read_text().splitlines()[1:] == [
            "5,-0.0,0.30000000000000004,0.5,G,",
            "9223372036854775807,5e-324,1e+308,1e-300,L,7",
            "-3,1.0,-2.5,3.0,L,0",
        ]

    @pytest.mark.parametrize(
        "rows, lineno, message",
        [
            # a bad float on line 3 comes before a repeated id on line 5
            (["1,0.5,1.0,G,", "2,oops,1.0,G,", "3,0.5,1.0,G,", "1,0.5,1.0,G,"], 3,
             "could not convert string to float: 'oops'"),
            # a repeated id on line 3 comes before a bad float on line 5
            (["1,0.5,1.0,G,", "1,0.5,1.0,G,", "3,0.5,1.0,G,", "4,oops,1.0,G,"], 3,
             "ad_id 1 repeats line 2"),
            # a bad base value on line 3 comes before a short row on line 4
            (["1,0.5,1.0,G,", "2,0.5,-1.0,G,", "3,0.5,1.0"], 3,
             "ad 2: base_value must be > 0, got -1.0"),
            (["1,0.5,1.0,G,", "2,inf,1.0,G,", "2,0.5,1.0,X,"], 3,
             "feature vector contains non-finite values"),
            (["1,0.5,1.0,G,", "2,0.5,1.0,X,"], 3, "scope must be G or L, got 'X'"),
            (["1,0.5,1.0,G,4"], 2, "Global ad with a target_poa"),
            (["1,0.5,1.0,L,-1"], 2, "target_poa must be >= 0, got -1"),
            (["1,0.5,1.0,G,", "9223372036854775808,0.5,1.0,G,"], 3,
             "ad ids and target PoAs must fit in 64 bits"),
        ],
    )
    def test_first_bad_row_in_file_order_named(self, tmp_path, rows, lineno, message):
        path = tmp_path / "ads.csv"
        path.write_text("\n".join(["ad_id,f1,base_value,scope,target_poa", *rows]) + "\n")
        with pytest.raises(ValueError) as info:
            load_ads_csv(path)
        assert str(info.value) == f"{path}: line {lineno}: {message}"


# Spellings that int() and float() accept besides repr: signs, spaces,
# underscores, exponents, bare points.
ODD_REALS = ["1_0", " 0.5", "+1e-3", "0.5 ", "\t2.5E+0", ".5", "1.", "00.25", "2_5.0_1"]
ODD_IDS = ["{}", " {}", "+{} ", "{:_}"]
SCOPES = [("G", ""), ("L", "3"), ("L", " 3"), ("L", "+0"), ("L", "0_1")]


def chunked_catalog(templates, id_spelling, blanks_every, rows_wanted, final_newline):
    """The text of an ads CSV of `rows_wanted` rows cycling through
    `templates` (feature, value and scope fields after the id), ids 0, 1,
    ... spelt by `id_spelling`, a blank line after every `blanks_every`
    rows and a final newline or not."""
    n_dims = templates[0].count(",") - 2
    lines = [f"ad_id,{','.join(f'f{k + 1}' for k in range(n_dims))},base_value,scope,target_poa"]
    for i in range(rows_wanted):
        lines.append(f"{id_spelling.format(i)},{templates[i % len(templates)]}")
        if i % blanks_every == 0:
            lines.append("")
    return "\n".join(lines) + ("\n" if final_newline else "")


@st.composite
def spelled_catalogs(draw):
    """Catalog texts over 1-4 loader chunks whose fields mix repr with odd
    spellings, with blank lines and maybe no final newline."""
    n_dims = draw(st.integers(1, 8))
    positive = st.floats(min_value=5e-324, allow_infinity=False).map(repr)
    real = st.one_of(
        st.sampled_from(ODD_REALS + ["-0.0", "5e-324", "-1E308"]),
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
    )
    value = st.one_of(st.sampled_from(ODD_REALS), positive)
    template = st.builds(
        lambda feats, v, scope: ",".join([*feats, v, *scope]),
        st.lists(real, min_size=n_dims, max_size=n_dims),
        value,
        st.sampled_from(SCOPES),
    )
    templates = draw(st.lists(template, min_size=1, max_size=20))
    chunks = draw(st.floats(0.5, 4.0))
    line_bytes = sum(map(len, templates)) / len(templates) + 8
    return chunked_catalog(
        templates,
        draw(st.sampled_from(ODD_IDS)),
        draw(st.integers(1, 500)),
        max(1, int(chunks * files._CHUNK_BYTES / line_bytes)),
        draw(st.booleans()),
    )


def row_by_row(path):
    """The columns of the ads `_ad_row` makes line by line."""
    ads = files._read_csv(path, files._ADS_HEADER, files._ad_row, key="ad_id")
    return (
        np.array([a.ad_id for a in ads], dtype=np.int64),
        np.stack([a.features for a in ads]),
        np.array([a.base_value for a in ads]),
        np.array([-1 if a.target_poa is None else a.target_poa for a in ads], dtype=np.int64),
    )


class TestChunkedAdsLoader:
    @settings(max_examples=25, deadline=None)
    @given(spelled_catalogs())
    def test_columns_equal_the_row_path(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ads.csv"
            path.write_text(text)
            got = load_ads_csv(path)
            want = row_by_row(path)
        columns = (got.ids, got.features, got.base_values, got.target_poa)
        for name, g, w in zip(("ids", "features", "base_values", "target_poa"), columns, want):
            assert g.dtype == w.dtype and g.shape == w.shape, name
            assert g.tobytes() == w.tobytes(), name

    @pytest.mark.parametrize("where", ["first chunk", "last chunk"])
    @pytest.mark.parametrize(
        "bad, message",
        [
            ("{},0.5,0.25,1.0,G", "expected 6 fields, got 5"),
            ("{},0.5,0.25,1.0,G,,", "expected 6 fields, got 7"),
            ("{},inf,0.25,1.0,G,", "feature vector contains non-finite values"),
            ("{},0.5,0.25,1.0,X,", "scope must be G or L, got 'X'"),
            ("0,0.5,0.25,1.0,G,", "ad_id 0 repeats line 2"),
        ],
    )
    def test_bad_row_named_in_any_chunk(self, tmp_path, where, bad, message):
        text = chunked_catalog(["0.5,0.25,1.0,L,3", " 1_0,+1e-3,.5,G,"], "{}", 7, 30_000, True)
        lines = text.splitlines()
        assert len(text) > 2 * files._CHUNK_BYTES
        lineno = 5 if where == "first chunk" else len(lines) - 3
        lines[lineno - 1] = bad.format(10**6)
        path = tmp_path / "ads.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            load_ads_csv(path)
        assert str(info.value) == f"{path}: line {lineno}: {message}"


class TestCopyAdsRows:
    @settings(max_examples=10, deadline=None)
    # A seeded Random: st.randoms() makes one hypothesis choice per row
    # sampled, and with thousands of rows hypothesis failed some runs as a
    # flaky strategy definition.
    @given(spelled_catalogs(), st.integers(0, 2**32 - 1).map(random.Random))
    def test_copies_the_lines_at_the_rows_given(self, text, rnd):
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "ads.csv", Path(tmp) / "kept.csv"
            path.write_text(text)
            stat = path.stat()
            table = load_ads_csv(path)
            rows = rnd.sample(range(len(table)), rnd.randint(0, len(table)))
            copy_ads_rows(path, out, rows, table.ids[rows], (stat.st_size, stat.st_mtime_ns))
            header, *lines = filter(None, text.split("\n"))
            kept = [header, *map(lines.__getitem__, rows)]
            assert out.read_text() == "".join(f"{line}\n" for line in kept)

    def test_leading_field_not_an_id_rejected(self, tmp_path):
        path, out = tmp_path / "ads.csv", tmp_path / "kept.csv"
        path.write_text("ad_id,f1,base_value,scope,target_poa\n1,0.5,0.9,G,\nx,0.5,0.9,G,\n")
        stat = path.stat()
        with pytest.raises(ValueError, match=f"^{path} changed while sparsify read it$"):
            copy_ads_rows(path, out, [1, 0], [2, 1], (stat.st_size, stat.st_mtime_ns))
        assert not out.exists()


class TestTraceCsvBytes:
    def test_absent_vehicle_and_64_bit_ids(self, tmp_path):
        # the vehicle 2^63 - 1 is absent at step 1 and nobody is at step 2
        trace = MobilityTrace.from_records([
            (3, -(2**63), -0.0, 5e-324),
            (0, 2**63 - 1, 0.1 + 0.2, 1e308),
            (1, -(2**63), 1.0, 2.0),
            (0, -(2**63), 1.5, -2.5),
        ])
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace)
        assert path.read_bytes() == (
            "step,vehicle_id,x_m,y_m\n"
            "0,-9223372036854775808,1.5,-2.5\n"
            "0,9223372036854775807,0.30000000000000004,1e+308\n"
            "1,-9223372036854775808,1.0,2.0\n"
            "3,-9223372036854775808,-0.0,5e-324\n"
        ).encode()

    def test_zero_step_trace(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(path, MobilityTrace.from_records([]))
        assert path.read_bytes() == b"step,vehicle_id,x_m,y_m\n"


class TestPoasCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "poas.csv"
        poas = [PoA(poa_id=0, x_m=100.0, y_m=200.0, range_m=150.0)]
        write_poas_csv(path, poas)
        assert path.read_text().splitlines()[0] == "poa_id,x_m,y_m,range_m"
        back = load_poas_csv(path)
        assert back == poas

    @pytest.mark.parametrize("row", ["1,nan,0.0,150.0", "1,0.0,-inf,150.0", "1,0.0,0.0,inf"])
    def test_nonfinite_row_reports_line(self, tmp_path, row):
        path = tmp_path / "poas.csv"
        path.write_text(f"poa_id,x_m,y_m,range_m\n0,0.0,0.0,150.0\n{row}\n")
        with pytest.raises(ValueError, match=r"poas\.csv: line 3: poa 1: .* must be finite"):
            load_poas_csv(path)


class TestProfilesCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "profiles.csv"
        profiles = [VehicleProfile(vehicle_id=7, interests=np.array([0.5, 0.25, 1.0]))]
        write_profiles_csv(path, profiles)
        assert path.read_text().splitlines()[0] == "vehicle_id,f1,f2,f3"
        back = load_profiles_csv(path)
        assert back[0].vehicle_id == 7
        assert np.array_equal(back[0].interests, profiles[0].interests)


class TestMappingCsv:
    def test_layout(self, tmp_path):
        path = tmp_path / "mapping.csv"
        write_mapping_csv(path, [(3, 1, 0.02), (5, 2, 0.015)])
        lines = path.read_text().splitlines()
        assert lines[0] == "removed_ad_id,representative_ad_id,distance"
        assert lines[1] == "3,1,0.020000"


class TestMetricsRendering:
    def test_six_decimal_reals(self):
        rows = [
            StepMetrics(step=0, revenue_cum=1.0, impressions_cum=1,
                        avg_distance_cum=0.05, broadcasts_cum=2),
            StepMetrics(step=1, revenue_cum=2.5, impressions_cum=3,
                        avg_distance_cum=0.1234567, broadcasts_cum=4),
        ]
        text = render_metrics_csv("volfied", rows)
        lines = text.splitlines()
        assert lines[0] == METRICS_HEADER
        assert lines[1] == "0,volfied,1.000000,1,0.050000,2"
        assert lines[2] == "1,volfied,2.500000,3,0.123457,4"

    def test_summary_row_matches_last_metrics_row(self):
        last = StepMetrics(step=9, revenue_cum=12.5, impressions_cum=10,
                           avg_distance_cum=0.1, broadcasts_cum=40)
        row = render_summary_row("volfied", 3, "", last)
        assert SUMMARY_HEADER == (
            "strategy,seed,param_value,final_revenue,final_impressions,final_avg_distance"
        )
        assert row == "volfied,3,,12.500000,10,0.100000"
        metrics_line = render_metrics_csv("volfied", [last]).splitlines()[1]
        assert metrics_line.split(",")[2:5] == row.split(",")[3:]

    def test_summary_row_with_sweep_value(self):
        last = StepMetrics(step=0, revenue_cum=0.0, impressions_cum=0,
                           avg_distance_cum=0.0, broadcasts_cum=0)
        row = render_summary_row("topk", 1, "4", last)
        assert row == "topk,1,4,0.000000,0,0.000000"


class TestAtomicWrite:
    def test_writes_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "out.csv"
        atomic_write_text(target, "hello\n")
        assert target.read_text() == "hello\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_overwrites_existing(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_text("old")
        atomic_write_text(target, "new")
        assert target.read_text() == "new"

    def test_encodes_in_bounded_slices(self, tmp_path):
        # 8 MiB of ASCII, 32 whole slices, then a short slice that is not ASCII
        text = "0123456789abcdef" * (1 << 19) + "\u00e9\u20ac\n"
        target = tmp_path / "big.txt"
        tracemalloc.start()
        try:
            atomic_write_text(target, text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(text) // 8
        assert target.read_bytes() == text.encode("utf-8")
