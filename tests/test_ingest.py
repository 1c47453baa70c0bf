import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latenthypernet import convnet, ingest
from latenthypernet.errors import (
    DegenerateClassError,
    InputError,
    ParameterError,
    ParseError,
    SchemaError,
    ShapeError,
)

SCHEMA_2CH = ingest.CsvSchema(
    channel_columns=("ax", "ay"), sampling_rate_hz=10.0, label_column="label"
)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def make_recording(values, rate=1.0, label="walk"):
    return ingest.SensorRecording(
        samples=np.asarray(values, dtype=np.float64), sampling_rate_hz=rate, label=label
    )


class TestLoadCsv:
    def test_single_recording(self, tmp_path):
        path = write(tmp_path, "label,ax,ay\nwalk,1,2\nwalk,3,4\nwalk,5,6\n")
        recs = ingest.load_csv(path, SCHEMA_2CH)
        assert len(recs) == 1
        assert recs[0].samples.shape == (3, 2)
        assert recs[0].label == "walk"

    def test_run_length_grouping(self, tmp_path):
        path = write(tmp_path, "label,ax,ay\nA,1,1\nA,2,2\nB,3,3\nB,4,4\nB,5,5\n")
        recs = ingest.load_csv(path, SCHEMA_2CH)
        assert [r.label for r in recs] == ["A", "B"]
        assert [len(r.samples) for r in recs] == [2, 3]

    def test_label_repeats_start_new_run(self, tmp_path):
        path = write(tmp_path, "label,ax,ay\nA,1,1\nB,2,2\nA,3,3\n")
        recs = ingest.load_csv(path, SCHEMA_2CH)
        assert [r.label for r in recs] == ["A", "B", "A"]

    def test_subject_column_separates_runs(self, tmp_path):
        schema = ingest.CsvSchema(
            channel_columns=("ax", "ay"),
            sampling_rate_hz=10.0,
            subject_column="subject",
        )
        path = write(tmp_path, "label,subject,ax,ay\nA,s1,1,1\nA,s2,2,2\n")
        recs = ingest.load_csv(path, schema)
        assert len(recs) == 2
        assert [r.subject_id for r in recs] == ["s1", "s2"]

    def test_non_numeric_cell_names_row(self, tmp_path):
        path = write(tmp_path, "label,ax,ay\nwalk,1,2\nwalk,abc,4\n")
        with pytest.raises(ParseError, match="line 3"):
            ingest.load_csv(path, SCHEMA_2CH)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_line_and_column(self, tmp_path, cell):
        path = write(tmp_path, f"label,ax,ay\nwalk,1,2\nwalk,3,{cell}\n")
        with pytest.raises(ParseError, match=f"line 3, column 'ay': '{cell}' is not a finite"):
            ingest.load_csv(path, SCHEMA_2CH)

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "label,ax\nwalk,1\n")
        with pytest.raises(SchemaError, match="ay"):
            ingest.load_csv(path, SCHEMA_2CH)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(InputError):
            ingest.load_csv(path, SCHEMA_2CH)

    def test_header_only(self, tmp_path):
        path = write(tmp_path, "label,ax,ay\n")
        with pytest.raises(InputError):
            ingest.load_csv(path, SCHEMA_2CH)

    def test_unset_channels_are_the_other_columns_in_header_order(self, tmp_path):
        schema = ingest.CsvSchema(None, sampling_rate_hz=10.0, subject_column="subject")
        path = write(tmp_path, "ay, label ,gz,subject,ax\n1,A,2,s1,3\n4,A,5,s1,6\n")
        recs = ingest.load_csv(path, schema)
        assert [(r.label, r.subject_id) for r in recs] == [("A", "s1")]
        assert recs[0].samples.tolist() == [[1, 2, 3], [4, 5, 6]]

    @pytest.mark.parametrize("header", ["label", "label,subject", "subject,label"])
    def test_no_channel_besides_label_and_subject(self, tmp_path, header):
        schema = ingest.CsvSchema(None, sampling_rate_hz=10.0, subject_column="subject")
        path = write(tmp_path, f"{header}\n")
        message = f"{path}: no channel columns besides 'label'"
        with pytest.raises(SchemaError, match=re.escape(message) + "$"):
            ingest.load_csv(path, schema)

    def test_empty_channel_tuple_refused(self):
        with pytest.raises(ParameterError, match="at least one channel column"):
            ingest.CsvSchema(channel_columns=(), sampling_rate_hz=10.0)

    @pytest.mark.parametrize(
        "text, channels, subject, column",
        [
            ("label,ax,ax\nA,1,2\nA,3,4\n", None, None, "ax"),
            ("label,ax,label\nA,1,B\nA,3,B\n", ("ax",), None, "label"),
            ("subject,label,ax,subject\ns1,A,1,s2\n", ("ax",), "subject", "subject"),
        ],
    )
    def test_repeated_column_it_reads_refused(self, tmp_path, text, channels, subject, column):
        schema = ingest.CsvSchema(channels, sampling_rate_hz=10.0, subject_column=subject)
        with pytest.raises(SchemaError, match=re.escape(f"header repeats column(s) [{column!r}]")):
            ingest.load_csv(write(tmp_path, text), schema)

    def test_repeated_unread_column_allowed(self, tmp_path):
        path = write(tmp_path, "label,note,ax,note\nA,x,1,y\nA,x,3,y\n")
        schema = ingest.CsvSchema(("ax",), sampling_rate_hz=10.0)
        recs = ingest.load_csv(path, schema)
        assert recs[0].samples.tolist() == [[1], [3]]

    def test_repeated_channel_in_schema_refused(self):
        with pytest.raises(ParameterError, match="repeat a name"):
            ingest.CsvSchema(channel_columns=("ax", "ay", "ax"), sampling_rate_hz=10.0)

    @pytest.mark.parametrize(
        "channels, label, subject, message",
        [
            # the subject ids would load as a second channel
            (("ax", "subject"), "label", "subject", "subject column 'subject' cannot also be a channel"),
            (("ax", "label"), "label", None, "label column 'label' cannot also be a channel"),
            # one column would be both the label and the subject
            (None, "subject", "subject", "column 'subject' cannot be both label and subject"),
            (("ax",), "subject", "subject", "column 'subject' cannot be both label and subject"),
        ],
    )
    def test_column_in_two_roles_refused(self, channels, label, subject, message):
        with pytest.raises(ParameterError, match=re.escape(message)):
            ingest.CsvSchema(
                channels, sampling_rate_hz=10.0, label_column=label, subject_column=subject
            )

    def test_byte_order_mark_before_the_header_is_skipped(self, tmp_path):
        path = write(tmp_path, "\ufefflabel,ax,ay\nwalk,1,2\n")
        recs = ingest.load_csv(path, SCHEMA_2CH)
        assert [r.label for r in recs] == ["walk"]
        assert recs[0].samples.tolist() == [[1.0, 2.0]]

    def test_cell_over_the_csv_field_limit_names_file_and_line(self, tmp_path):
        path = write(tmp_path, "label,ax,ay\nwalk,1,2\nwalk,1," + "2" * 200_000 + "\n")
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: line 3: field larger"):
            ingest.load_csv(path, SCHEMA_2CH)

    def test_interleaved_runs_match_a_scan_oracle(self, tmp_path):
        rng = np.random.default_rng(11)
        lines = ["subject,ax,label,ay"]
        for _ in range(400):
            if rng.random() < 0.1:
                lines.append("")
            label, subject = rng.choice(["A", "B"]), rng.choice(["s1", "s2", "s3"])
            lines.append(f"{subject},{rng.normal()!r},{label},{rng.normal()!r}")
        path = write(tmp_path, "\n".join(lines) + "\n")
        schema = ingest.CsvSchema(("ax", "ay"), sampling_rate_hz=10.0, subject_column="subject")
        recs = ingest.load_csv(path, schema)
        expected = recordings_oracle(lines)
        assert [(r.label, r.subject_id) for r in recs] == [key for key, _ in expected]
        for rec, (_, rows) in zip(recs, expected):
            assert rec.samples.dtype == np.float64
            assert np.array_equal(rec.samples, np.array(rows))
            assert rec.sampling_rate_hz == 10.0


def recordings_oracle(lines):
    """Scan non-blank lines and start a new run wherever (label, subject) changes."""
    runs = []
    for line in lines[1:]:
        if not line:
            continue
        subject, ax, label, ay = line.split(",")
        if not runs or runs[-1][0] != (label, subject):
            runs.append(((label, subject), []))
        runs[-1][1].append([float(ax), float(ay)])
    return runs


class TestSegment:
    def test_five_seconds_at_100hz(self):
        rec = make_recording(np.zeros((500, 2)), rate=100.0)
        windows = ingest.segment(rec, window_seconds=5.0)
        assert len(windows) == 1
        assert windows[0].values.shape == (500, 2)

    def test_one_second_at_50hz(self):
        rec = make_recording(np.zeros((75, 1)), rate=50.0)
        windows = ingest.segment(rec, window_seconds=1.0)
        assert windows[0].values.shape[0] == 50

    def test_count_and_drop_rule(self):
        rec = make_recording(np.arange(520.0).reshape(520, 1))
        windows = ingest.segment(rec, window_seconds=100.0, stride_samples=100)
        assert len(windows) == 5
        # last window ends at sample 500; rows 500..519 are dropped
        assert windows[-1].values[-1, 0] == 499.0

    def test_window_contents_match_slices(self):
        rec = make_recording(np.arange(20.0).reshape(10, 2))
        windows = ingest.segment(rec, window_seconds=4.0, stride_samples=3)
        assert len(windows) == 3
        for i, w in enumerate(windows):
            assert np.array_equal(w.values, rec.samples[i * 3 : i * 3 + 4])

    def test_short_recording_yields_nothing(self):
        rec = make_recording(np.zeros((3, 1)))
        assert ingest.segment(rec, window_seconds=5.0) == []

    @pytest.mark.parametrize(
        "stride, shown", [(2.5, "2.5"), (0.5, "0.5"), (float("nan"), "nan"),
                          (float("inf"), "inf"), (0, "0"), (-3, "-3"), ("2", "'2'"),
                          (2.0, "2.0"), (np.float64(2.0), repr(np.float64(2.0)))]
    )
    def test_stride_that_is_not_a_whole_number_from_one_is_refused(self, stride, shown):
        # a whole float such as 2.0 is not an integer either, as for every count
        rec = make_recording(np.zeros((20, 1)), rate=10.0)
        message = f"stride_samples must be an integer >= 1, got {shown}"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            ingest.segment(rec, window_seconds=0.5, stride_samples=stride)

    @pytest.mark.parametrize("stride", [2, pytest.param(np.int64(2), id="stride2")])
    def test_whole_stride_reads_as_its_integer(self, stride):
        rec = make_recording(np.arange(20.0).reshape(20, 1), rate=10.0)
        windows = ingest.segment(rec, window_seconds=0.5, stride_samples=stride)
        assert len(windows) == 8
        assert [w.values[0, 0] for w in windows] == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0]

    def test_deterministic(self):
        rec = make_recording(np.random.default_rng(0).normal(size=(40, 2)))
        a = ingest.segment(rec, window_seconds=7.0, stride_samples=2)
        b = ingest.segment(rec, window_seconds=7.0, stride_samples=2)
        assert len(a) == len(b)
        for wa, wb in zip(a, b):
            assert np.array_equal(wa.values, wb.values)


def count_oracle(n, t, stride):
    """Scan forward and count every window that fits."""
    count = 0
    start = 0
    while start + t <= n:
        count += 1
        start += stride
    return count


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 200), st.integers(1, 200), st.integers(1, 200), st.integers(0, 2**32 - 1)
)
def test_segment_count_matches_scan_oracle(n, t, stride, seed):
    samples = np.random.default_rng(seed).normal(size=(n, 1))
    rec = make_recording(samples)
    windows = ingest.segment(rec, window_seconds=float(t), stride_samples=stride)
    assert len(windows) == count_oracle(n, t, stride)
    for i, w in enumerate(windows):
        assert np.array_equal(w.values, samples[i * stride : i * stride + t])


class TestBuildDataset:
    def test_class_names_sorted(self):
        recs = [
            make_recording(np.zeros((4, 1)), label="B"),
            make_recording(np.zeros((4, 1)), label="A"),
        ]
        ds = ingest.build_dataset(recs, window_seconds=2.0)
        assert ds.class_names == ("A", "B")
        assert [w.label for w in ds.windows] == [1, 1, 0, 0]

    def test_short_recording_contributes_zero(self):
        recs = [
            make_recording(np.zeros((8, 1)), label="A"),
            make_recording(np.zeros((3, 1)), label="A"),
        ]
        ds = ingest.build_dataset(recs, window_seconds=4.0)
        assert len(ds) == 2

    def test_window_total(self):
        recs = [make_recording(np.zeros((16, 1)), label=l) for l in "abc"]
        ds = ingest.build_dataset(recs, window_seconds=4.0)
        assert len(ds) == 12

    def test_degenerate_class(self):
        recs = [
            make_recording(np.zeros((8, 1)), label="A"),
            make_recording(np.zeros((2, 1)), label="B"),
        ]
        with pytest.raises(DegenerateClassError, match="B"):
            ingest.build_dataset(recs, window_seconds=4.0)

    def test_heterogeneous_channels(self):
        recs = [
            make_recording(np.zeros((8, 1)), label="A"),
            make_recording(np.zeros((8, 2)), label="B"),
        ]
        with pytest.raises(ShapeError):
            ingest.build_dataset(recs, window_seconds=4.0)

    def test_heterogeneous_rates(self):
        recs = [
            make_recording(np.zeros((8, 1)), rate=1.0, label="A"),
            make_recording(np.zeros((8, 1)), rate=2.0, label="B"),
        ]
        with pytest.raises(InputError):
            ingest.build_dataset(recs, window_seconds=4.0)

    def test_empty_recordings(self):
        with pytest.raises(InputError):
            ingest.build_dataset([], window_seconds=1.0)


class TestTake:
    @staticmethod
    def dataset():
        windows = [ingest.Window(values=np.full((64, 2), float(i)), label=i % 2) for i in range(5)]
        return ingest.Dataset(windows=windows, class_names=("A", "B"), channels=2)

    def test_keeps_the_given_order_classes_and_channels(self):
        ds = self.dataset()
        sub = ds.take(np.array([4, 0, 3]))
        assert sub.stacked()[:, 0, 0].tolist() == [4.0, 0.0, 3.0]
        assert sub.labels().tolist() == [0, 0, 1]
        assert (sub.class_names, sub.channels) == (ds.class_names, ds.channels)

    def test_window_of_another_shape_is_named_at_predict(self):
        windows = list(self.dataset().windows)
        windows[3] = ingest.Window(values=np.zeros((60, 2)), label=1)
        ds = ingest.Dataset(windows=windows, class_names=("A", "B"), channels=2)
        config = convnet.preset("convnet1", 64, 2, 2)
        with pytest.raises(ShapeError, match="window 3 is 60x2 but window 0 is 64x2"):
            convnet.predict_dataset(convnet.init_params(config, seed=0), config, ds)

    def test_empty_take_is_refused_at_predict(self):
        sub = self.dataset().take([])
        assert len(sub) == 0
        assert sub.class_names == ("A", "B")
        config = convnet.preset("convnet1", 64, 2, 2)
        with pytest.raises(InputError, match="dataset is empty"):
            convnet.predict_dataset(convnet.init_params(config, seed=0), config, sub)
