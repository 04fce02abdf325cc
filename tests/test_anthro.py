"""Anthropometric table parsing, validation, and segment mass lookup."""

import numpy as np
import pytest

from gaitkinetics.anthro import (
    AXIAL_KINDS,
    BILATERAL_KINDS,
    SEGMENT_IDS,
    SEGMENT_KINDS,
    SegmentId,
    SubjectProfile,
    bundled_table_path,
    load_table,
    parse_table,
    segment_mass,
)
from gaitkinetics.errors import InputError


def _table_text(ratios, sex="m"):
    """One row per kind with the given mass ratio and zero offsets."""
    lines = []
    for kind in SEGMENT_KINDS:
        lines.append(f"{kind}\t{sex}\t{ratios[kind]!r}\t0.0\t0.0\t-0.4")
    return "\n".join(lines) + "\n"


def uniform_table():
    """All 16 segments weigh the same: ratio 1/16 sums exactly to 1."""
    return parse_table(_table_text({kind: 0.0625 for kind in SEGMENT_KINDS}))


SUBJECT = SubjectProfile(mass_kg=80.0, height_m=1.80, sex="m")


def test_uniform_table_mass_ratios_sum_to_one_exactly():
    table = uniform_table()
    total = sum(
        table.get(kind, "m").mass_ratio * (1 if kind in AXIAL_KINDS else 2)
        for kind in SEGMENT_KINDS
    )
    assert total == 1.0


def test_uniform_segment_mass_is_an_equal_share():
    table = uniform_table()
    for sid in SEGMENT_IDS:
        assert segment_mass(table, SUBJECT, sid) == 5.0  # 80 kg / 16


def test_segment_mass_uses_custom_ratios_on_both_sides():
    ratios = {kind: 0.075 for kind in AXIAL_KINDS}
    ratios.update({kind: 0.05 for kind in BILATERAL_KINDS})
    ratios["thigh"] = 0.1  # axial 4*0.075 + bilateral 2*(0.1 + 5*0.05) = 1.0
    table = parse_table(_table_text(ratios))
    subject = SubjectProfile(mass_kg=83.1, height_m=1.7, sex="m")
    assert segment_mass(table, subject, SegmentId("thigh", "left")) == 83.1 * 0.1
    assert segment_mass(table, subject, SegmentId("thigh", "right")) == 83.1 * 0.1


def test_segment_mass_is_linear_in_subject_mass():
    table = uniform_table()
    light = SubjectProfile(mass_kg=50.0, height_m=1.6, sex="m")
    heavy = SubjectProfile(mass_kg=100.0, height_m=1.6, sex="m")
    for sid in SEGMENT_IDS:
        assert segment_mass(table, heavy, sid) == 2.0 * segment_mass(table, light, sid)


def test_bundled_table_covers_both_sexes_and_sums_near_one():
    table = load_table(bundled_table_path())
    assert table.sexes == ("f", "m")
    for sex in table.sexes:
        total = sum(
            table.get(kind, sex).mass_ratio * (1 if kind in AXIAL_KINDS else 2)
            for kind in SEGMENT_KINDS
        )
        assert 0.99 <= total <= 1.01
    # whole-body reassembly: the 16 segment masses recover the subject mass
    subject = SubjectProfile(mass_kg=70.0, height_m=1.75, sex="f")
    assembled = sum(segment_mass(table, subject, sid) for sid in SEGMENT_IDS)
    assert abs(assembled - 70.0) <= 0.01 * 70.0


@pytest.mark.parametrize(
    "line, message",
    [
        ("thigh\tm\t0.1\t0.0\t0.0", "6 tab-separated"),
        ("thigh\tm\t0.1\t0.0\t0.0\theavy", "non-numeric"),
        ("femur\tm\t0.1\t0.0\t0.0\t-0.4", "unknown segment kind"),
        ("thigh\tx\t0.1\t0.0\t0.0\t-0.4", "unknown sex"),
        ("thigh\tm\t0.0\t0.0\t0.0\t-0.4", "mass_ratio"),
        ("thigh\tm\t1.5\t0.0\t0.0\t-0.4", "mass_ratio"),
        ("thigh\tm\t0.1\t0.0\t0.0\t-1.5", "P_SI"),
    ],
)
def test_table_row_errors(line, message):
    with pytest.raises(InputError, match=message):
        parse_table(line + "\n")


def test_table_duplicate_row_is_rejected():
    text = "thigh\tm\t0.1\t0.0\t0.0\t-0.4\nthigh\tm\t0.1\t0.0\t0.0\t-0.4\n"
    with pytest.raises(InputError, match="duplicate"):
        parse_table(text)


def test_table_missing_segment_is_named():
    ratios = {kind: 0.0625 for kind in SEGMENT_KINDS}
    text = _table_text(ratios)
    without_pelvis = "\n".join(
        ln for ln in text.splitlines() if not ln.startswith("pelvis\t")
    )
    with pytest.raises(InputError, match="pelvis"):
        parse_table(without_pelvis)


def test_table_sum_out_of_bounds_is_rejected():
    ratios = {kind: 0.08 for kind in SEGMENT_KINDS}  # sums to 1.28
    with pytest.raises(InputError, match="sum"):
        parse_table(_table_text(ratios))


def test_table_comments_and_blank_lines_are_ignored():
    ratios = {kind: 0.0625 for kind in SEGMENT_KINDS}
    text = "# header comment\n\n" + _table_text(ratios) + "\n# trailing\n"
    table = parse_table(text)
    assert table.get("pelvis", "m").mass_ratio == 0.0625


def test_segment_id_validation_and_str():
    assert str(SegmentId("pelvis")) == "pelvis"
    assert str(SegmentId("thigh", "left")) == "left_thigh"
    with pytest.raises(InputError, match="takes no side"):
        SegmentId("pelvis", "left")
    with pytest.raises(InputError, match="needs side"):
        SegmentId("thigh")
    with pytest.raises(InputError, match="needs side"):
        SegmentId("thigh", "up")
    with pytest.raises(InputError, match="unknown segment kind"):
        SegmentId("femur")


def test_table_get_rejects_unknown_sex_and_missing_rows():
    table = uniform_table()  # male rows only
    with pytest.raises(InputError, match="unknown sex"):
        table.get("pelvis", "x")
    with pytest.raises(InputError, match="no row"):
        table.get("pelvis", "f")


def test_subject_profile_validation():
    with pytest.raises(InputError, match="mass"):
        SubjectProfile(mass_kg=0.0, height_m=1.7, sex="m")
    with pytest.raises(InputError, match="height"):
        SubjectProfile(mass_kg=70.0, height_m=-1.0, sex="m")
    with pytest.raises(InputError, match="sex"):
        SubjectProfile(mass_kg=70.0, height_m=1.7, sex="male")


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_subject_profile_rejects_non_finite_mass_and_height(value):
    with pytest.raises(InputError, match="subject mass must be"):
        SubjectProfile(mass_kg=value, height_m=1.7, sex="m")
    with pytest.raises(InputError, match="subject height must be"):
        SubjectProfile(mass_kg=70.0, height_m=value, sex="m")
