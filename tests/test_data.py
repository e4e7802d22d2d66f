import csv
import io
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import pdist

from cycleadapt.data import (
    CsvSchemaError,
    DomainPair,
    ShiftSpec,
    _load_domain_csv,
    apply_shift,
    default_benchmark_pair,
    gen_gaussian_shift_pair,
    gen_two_moons_pair,
    load_pair_csv,
    save_domain_csv,
    save_pair_csv,
)


def rotation_shift(deg, noise=0.1):
    return ShiftSpec(kind="rotation", rotation_deg=deg, noise_std=noise)


class TestTwoMoons:
    def test_identity_shift_gives_pointwise_equal_domains(self):
        pair = gen_two_moons_pair(200, rotation_shift(0.0), seed=3)
        np.testing.assert_array_equal(pair.x_s, pair.x_t)

    def test_half_turn_reflects_through_centroid(self):
        pair = gen_two_moons_pair(100, rotation_shift(180.0), seed=3)
        c = pair.x_s.mean(axis=0)
        np.testing.assert_allclose(pair.x_t, 2.0 * c - pair.x_s, atol=1e-12)

    def test_shapes_and_balance(self):
        pair = gen_two_moons_pair(501, rotation_shift(45.0), seed=0)
        assert pair.x_s.shape == (501, 2) and pair.x_t.shape == (501, 2)
        counts = np.bincount(pair.y_s, minlength=2)
        assert abs(counts[0] - counts[1]) <= 1
        assert pair.num_classes == 2

    def test_deterministic_per_seed(self):
        a = gen_two_moons_pair(64, rotation_shift(45.0), seed=9)
        b = gen_two_moons_pair(64, rotation_shift(45.0), seed=9)
        assert a.x_s.tobytes() == b.x_s.tobytes()
        assert a.x_t.tobytes() == b.x_t.tobytes()
        c = gen_two_moons_pair(64, rotation_shift(45.0), seed=10)
        assert a.x_s.tobytes() != c.x_s.tobytes()

    @given(deg=st.floats(0, 359.9, allow_nan=False))
    @settings(max_examples=20, deadline=None)
    def test_rotation_preserves_pairwise_distances(self, deg):
        pair = gen_two_moons_pair(60, rotation_shift(deg), seed=5)
        np.testing.assert_allclose(pdist(pair.x_t), pdist(pair.x_s), atol=1e-9)

    def test_affine_shift(self):
        shift = ShiftSpec(kind="both", rotation_deg=90.0, scale=(2.0, 1.0),
                          translate=(1.0, -1.0), noise_std=0.0)
        pair = gen_two_moons_pair(50, shift, seed=1)
        c = pair.x_s.mean(axis=0)
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        expected = ((pair.x_s - c) @ rot.T + c) * np.array([2.0, 1.0]) + np.array([1.0, -1.0])
        np.testing.assert_allclose(pair.x_t, expected, atol=1e-12)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            gen_two_moons_pair(3, rotation_shift(45.0), seed=0)

    def test_invalid_shift_specs(self):
        with pytest.raises(ValueError):
            ShiftSpec(rotation_deg=360.0)
        with pytest.raises(ValueError):
            ShiftSpec(noise_std=-0.1)
        with pytest.raises(ValueError):
            ShiftSpec(kind="warp")


class TestGaussianPair:
    MEANS = [[-2.0, 0.0], [2.0, 0.0], [0.0, 2.5]]

    def make(self, shift, seed=4, n=90):
        return gen_gaussian_shift_pair(n, 3, self.MEANS, np.eye(2) * 0.25, shift, seed)

    def test_zero_shift_distributions_match(self):
        pair = self.make(ShiftSpec(kind="rotation", rotation_deg=0.0), n=600)
        # independent draws from the same mixture: means agree within noise
        np.testing.assert_allclose(
            pair.x_s.mean(axis=0), pair.x_t.mean(axis=0), atol=0.15
        )
        assert not np.array_equal(pair.x_s, pair.x_t)

    def test_per_class_counts_differ_by_at_most_one(self):
        pair = self.make(ShiftSpec(kind="rotation", rotation_deg=0.0), n=100)
        counts = np.bincount(pair.y_s, minlength=3)
        assert counts.max() - counts.min() <= 1
        counts_t = np.bincount(pair.y_t_eval, minlength=3)
        assert counts_t.max() - counts_t.min() <= 1

    def test_degenerate_covariance_rejected(self):
        with pytest.raises(ValueError):
            gen_gaussian_shift_pair(
                30, 2, [[0.0, 0.0], [1.0, 1.0]],
                np.zeros((2, 2)), ShiftSpec(rotation_deg=0.0), seed=0,
            )

    def test_duplicate_means_rejected(self):
        with pytest.raises(ValueError):
            gen_gaussian_shift_pair(
                30, 2, [[1.0, 1.0], [1.0, 1.0]], np.eye(2),
                ShiftSpec(rotation_deg=0.0), seed=0,
            )

    def test_deterministic(self):
        a = self.make(ShiftSpec(kind="affine", rotation_deg=0.0,
                                scale=(1.0, 1.0), translate=(3.0, 0.0)))
        b = self.make(ShiftSpec(kind="affine", rotation_deg=0.0,
                                scale=(1.0, 1.0), translate=(3.0, 0.0)))
        assert a.x_t.tobytes() == b.x_t.tobytes()


class TestCsv:
    def test_round_trip_is_exact(self, tmp_path):
        pair = default_benchmark_pair(seed=2, n_per_domain=40)
        sp, tp = tmp_path / "source.csv", tmp_path / "target.csv"
        save_pair_csv(pair, sp, tp)
        loaded = load_pair_csv(sp, tp)
        np.testing.assert_array_equal(loaded.x_s, pair.x_s)
        np.testing.assert_array_equal(loaded.x_t, pair.x_t)
        np.testing.assert_array_equal(loaded.y_s, pair.y_s)
        np.testing.assert_array_equal(loaded.y_t_eval, pair.y_t_eval)

    def test_target_without_labels_disables_evaluation(self, tmp_path):
        pair = default_benchmark_pair(seed=2, n_per_domain=40)
        sp, tp = tmp_path / "s.csv", tmp_path / "t.csv"
        save_domain_csv(sp, pair.x_s, pair.y_s)
        save_domain_csv(tp, pair.x_t, None)
        loaded = load_pair_csv(sp, tp)
        assert loaded.y_t_eval is None
        from cycleadapt.models import build_suite, ArchConfig
        from cycleadapt.trainer import evaluate

        suite = build_suite(ArchConfig(input_dim=2, num_classes=2))
        with pytest.raises(ValueError, match="labels"):
            evaluate(suite, loaded.x_t, loaded.y_t_eval)

    def test_mismatched_widths_is_schema_error(self, tmp_path):
        sp, tp = tmp_path / "s.csv", tmp_path / "t.csv"
        save_domain_csv(sp, np.ones((3, 2)), np.zeros(3, dtype=int))
        save_domain_csv(tp, np.ones((3, 3)), None)
        with pytest.raises(CsvSchemaError, match="widths"):
            load_pair_csv(sp, tp)

    def test_malformed_row_reports_line_number(self, tmp_path):
        sp = tmp_path / "s.csv"
        sp.write_text("f0,f1,label\n1.0,2.0,0\n1.0,oops,1\n")
        tp = tmp_path / "t.csv"
        save_domain_csv(tp, np.ones((2, 2)), None)
        with pytest.raises(CsvSchemaError, match=":3"):
            load_pair_csv(sp, tp)

    def test_wrong_field_count_reports_line_number(self, tmp_path):
        sp = tmp_path / "s.csv"
        sp.write_text("f0,f1,label\n1.0,2.0,0\n1.0,1\n")
        tp = tmp_path / "t.csv"
        save_domain_csv(tp, np.ones((1, 2)), None)
        with pytest.raises(CsvSchemaError, match=":3"):
            load_pair_csv(sp, tp)

    def test_source_must_be_labeled(self, tmp_path):
        sp, tp = tmp_path / "s.csv", tmp_path / "t.csv"
        save_domain_csv(sp, np.ones((3, 2)), None)
        save_domain_csv(tp, np.ones((3, 2)), None)
        with pytest.raises(CsvSchemaError, match="label"):
            load_pair_csv(sp, tp)

    def test_bad_header_rejected(self, tmp_path):
        sp = tmp_path / "s.csv"
        sp.write_text("a,b,label\n1.0,2.0,0\n")
        tp = tmp_path / "t.csv"
        save_domain_csv(tp, np.ones((1, 2)), None)
        with pytest.raises(CsvSchemaError, match="header"):
            load_pair_csv(sp, tp)

    def test_non_finite_value_reports_line_after_blank_lines(self, tmp_path):
        sp = tmp_path / "s.csv"
        sp.write_text("f0,f1,label\n1.0,2.0,0\n\n1.0,inf,1\n")
        tp = tmp_path / "t.csv"
        save_domain_csv(tp, np.ones((2, 2)), None)
        with pytest.raises(CsvSchemaError, match=r"s\.csv:4: non-finite value inf in column f1"):
            load_pair_csv(sp, tp)

    def test_huge_finite_values_whose_sum_overflows_load(self, tmp_path):
        sp, tp = tmp_path / "s.csv", tmp_path / "t.csv"
        x = np.full((3, 2), 1.5e308)
        save_domain_csv(sp, x, np.array([0, 1, 0]))
        save_domain_csv(tp, x, None)
        # valid input loads without any warning, the sum's overflow included
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pair = load_pair_csv(sp, tp)
        np.testing.assert_array_equal(pair.x_s, x)

    def test_opposite_infinities_report_their_line_without_a_warning(self, tmp_path):
        sp = tmp_path / "s.csv"
        sp.write_text("f0,f1,label\n1.0,2.0,0\ninf,-inf,1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CsvSchemaError, match=r"s\.csv:3: non-finite value inf in column f0"):
                _load_domain_csv(sp)

    def test_negative_label_reports_line_number(self, tmp_path):
        sp, tp = tmp_path / "s.csv", tmp_path / "t.csv"
        save_domain_csv(sp, np.ones((3, 2)), np.array([0, -1, 1]))
        save_domain_csv(tp, np.ones((3, 2)), None)
        with pytest.raises(CsvSchemaError, match=r"s\.csv:3: negative label -1"):
            load_pair_csv(sp, tp)

    @pytest.mark.parametrize(
        "line",
        [
            "1.0,oops,1",
            "1.0,2.0",
            "1.0,2.0,0,",
            "#1.0,2.0,0",  # a data row, not a comment
            "1.0,2.0,-3",
            '"1\n2",2.0,0',  # one field holding a line break, not 12.0
            "1.0,inf,1",
            # accepted by Python's float and int, rejected by the parser
            "1_000,2.0,0",
            "1.0,2.0,1_0",
            "\uff11.0,2.0,0",  # a full-width digit one
            # beyond int64; the per-row parse accepted it and then failed
            # with an OverflowError instead of a located error
            "1.0,2.0,99999999999999999999",
        ],
    )
    def test_rejected_row_reports_its_line_after_blank_lines(self, tmp_path, line):
        sp = tmp_path / "s.csv"
        sp.write_text(f"f0,f1,label\n1.0,2.0,0\n\n\n{line}\n1.0,2.0,0\n", encoding="utf-8")
        with pytest.raises(CsvSchemaError, match=r"s\.csv:5: "):
            _load_domain_csv(sp)

    def test_quoted_padded_and_crlf_fields_load(self, tmp_path):
        sp = tmp_path / "s.csv"
        sp.write_bytes(b'f0,f1,label\r\n"1.5", 2.5e-3 , 3 \r\n\r\n-0.0,1e308,0\r\n')
        x, y = _load_domain_csv(sp)
        assert x.tobytes() == np.array([[1.5, 2.5e-3], [-0.0, 1e308]]).tobytes()
        assert y.tolist() == [3, 0]

    def test_empty_file_rejected(self, tmp_path):
        sp = tmp_path / "s.csv"
        sp.write_text("")
        tp = tmp_path / "t.csv"
        save_domain_csv(tp, np.ones((1, 2)), None)
        with pytest.raises(CsvSchemaError, match="empty"):
            load_pair_csv(sp, tp)


class TestDomainPairContract:
    def test_label_space_validated(self):
        with pytest.raises(CsvSchemaError):
            DomainPair(
                x_s=np.ones((2, 2)), y_s=np.array([0, 2]),
                x_t=np.ones((2, 2)), y_t_eval=None, num_classes=2,
            )

    def test_apply_shift_requires_matching_widths(self):
        with pytest.raises(ValueError):
            apply_shift(
                np.ones((4, 3)),
                ShiftSpec(kind="affine", scale=(1.0, 1.0), translate=(0.0, 0.0),
                          rotation_deg=0.0),
            )


def _csv_writer_bytes(x, y) -> bytes:
    """The file as csv.writer writes it: repr of each value, one row per
    sample."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([f"f{i}" for i in range(x.shape[1])] + (["label"] if y is not None else []))
    for i in range(x.shape[0]):
        row = [repr(float(v)) for v in x[i]]
        if y is not None:
            row.append(str(int(y[i])))
        writer.writerow(row)
    return buf.getvalue().encode("utf-8")


@st.composite
def _tables(draw):
    n = draw(st.integers(0, 6))
    k = draw(st.integers(1, 4))
    x = draw(arrays(np.float64, (n, k), elements=st.floats(allow_nan=False, allow_infinity=False)))
    y = draw(st.none() | arrays(np.int64, n, elements=st.integers(0, 2**63 - 1)))
    return x, y


class TestCsvWriter:
    @given(_tables())
    @example((np.array([[-0.0, 5e-324], [1e308, -2.2250738585072014e-308]]), None))
    @example((np.array([[-0.0, 5e-324], [1e308, -1e-310]]), np.array([0, 7])))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_bytes_equal_csv_writer_and_load_back_bitwise(self, tmp_path, table):
        x, y = table
        path = tmp_path / "t.csv"
        save_domain_csv(path, x, y)
        assert path.read_bytes() == _csv_writer_bytes(x, y)
        if len(x):
            loaded_x, loaded_y = _load_domain_csv(path)
            assert loaded_x.tobytes() == x.tobytes()
            assert (loaded_y is None) == (y is None)
            if y is not None:
                assert loaded_y.tobytes() == y.tobytes()
