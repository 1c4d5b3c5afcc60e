import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from drsynth.augment import AffineRanges, AugmentProfile, ResolutionSim
from drsynth.config import (
    _FIELDS,
    apply_sections,
    config_sections,
    config_text,
    load_config,
)
from drsynth.epg import ReferenceInterval, RelaxometryRanges, SequenceRanges
from drsynth.errors import ConfigError
from drsynth.generator import GenerationConfig, GeneratorMode


def custom_config():
    return GenerationConfig(
        mode=GeneratorMode.RANDFABIAN,
        profile=AugmentProfile.SIMPLE,
        mu_range=(10.0, 200.0),
        sigma_range=(1.0, 8.0),
        k_range=(2, 5),
        nonbrain_k_range=(1, 3),
        master_seed=42,
        relaxometry=RelaxometryRanges(
            t1_range_ms=(200.0, 4000.0),
            reference={
                1: ReferenceInterval((1500.0, 1900.0), (100.0, 200.0)),
                3: ReferenceInterval((2500.0, 3100.0), (1200.0, 1900.0), pd=(0.8, 1.0)),
            },
        ),
        epg_voxelwise=False,
    )


def test_defaults_round_trip(tmp_path):
    cfg = GenerationConfig()
    p = tmp_path / "defaults.ini"
    p.write_text(config_text(cfg))
    assert load_config(p) == cfg


def test_custom_config_round_trips(tmp_path):
    cfg = custom_config()
    p = tmp_path / "custom.ini"
    p.write_text(config_text(cfg))
    back = load_config(p)
    assert back == cfg
    assert back.relaxometry.reference[3].pd == (0.8, 1.0)


def test_sections_cover_every_field():
    sec = config_sections(custom_config())
    assert set(sec) == {"synthgen", "augment", "epg"}
    assert sec["synthgen"]["mode"] == "randfabian"
    assert sec["synthgen"]["profile"] == "simple"
    assert sec["synthgen"]["subclasses"] == "2, 5"
    assert sec["synthgen"]["nonbrain_subclasses"] == "1, 3"
    assert sec["epg"]["voxelwise"] == "false"
    assert sec["epg"]["reference_1"] == "1500.0:1900.0 100.0:200.0 1.0:1.0"
    # unset optionals serialize as blank
    assert config_sections(GenerationConfig())["synthgen"]["nonbrain_subclasses"] == ""
    assert config_sections(GenerationConfig())["augment"]["slice_axis"] == ""


def test_partial_file_only_overrides_named_keys(tmp_path):
    p = tmp_path / "partial.ini"
    p.write_text("[synthgen]\nmaster_seed = 7\n\n[augment]\nslice_axis = 2\n")
    cfg = load_config(p)
    assert cfg.master_seed == 7
    assert cfg.resolution.slice_axis == 2
    assert cfg.mode is GeneratorMode.FETALSYNTHSEG  # untouched default
    assert cfg.mu_range == (0.0, 255.0)


def test_unknown_section_and_key_are_errors(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[render]\nfoo = 1\n")
    with pytest.raises(ConfigError):
        load_config(p)
    p.write_text("[synthgen]\nmodee = synthseg\n")
    with pytest.raises(ConfigError):
        load_config(p)


def test_value_parse_errors(tmp_path):
    p = tmp_path / "bad.ini"
    cases = [
        "[synthgen]\nmode = quantum\n",
        "[synthgen]\nmu = 1\n",  # pair needs two values
        "[synthgen]\nmaster_seed = soon\n",
        "[augment]\nslice_axis = 5\n",
        "[epg]\nvoxelwise = maybe\n",
        "[epg]\nreference_2 = 100:200 10:20\n",  # missing pd interval
        "[epg]\nreference_x = 100:200 10:20 1:1\n",  # class id not an int
        "[synthgen]\nsubclasses = 0, 3\n",  # fewer than one subclass
        "[synthgen]\nsubclasses = 3, 1\n",  # inverted range
        "[synthgen]\nnonbrain_subclasses = 0, 0\n",
        "[augment]\nsvf_control_points = 0\n",
        "[augment]\nbias_control_points = 0\n",
        "[augment]\nsvf_steps = -1\n",
        "[synthgen]\nsigma = -5, -1\n",  # negative standard deviation
        "[augment]\nop_probability = 7\n",
        "[augment]\nnoise_sigma = -0.5, -0.4\n",
        "[synthgen]\nmu = 5, 1\n",  # inverted range
        "[epg]\nt2_ms = -5, -1\n",
        "[synthgen]\nmaster_seed = -2\n",
        "[synthgen]\nmu = 0, inf\n",  # non-finite values fail whatever the key's bounds
        "[epg]\nexcitation_deg = nan\n",
    ]
    for text in cases:
        p.write_text(text)
        with pytest.raises(ConfigError):
            load_config(p)


# (section, key, values outside the key's domain, values on its edge)
DOMAINS = [
    ("synthgen", "mu", ["5, 1", "nan, 1"], ["-5, -1", "3, 3"]),
    ("synthgen", "sigma", ["-5, -1", "-1, 2", "nan, 1"], ["0, 0", "0, 2"]),
    ("synthgen", "subclasses", ["0, 3", "3, 1"], ["1, 1"]),
    ("synthgen", "nonbrain_subclasses", ["0, 0", "2, 1"], ["1, 1", ""]),
    ("synthgen", "master_seed", ["-1"], ["0"]),
    ("augment", "rotation_rad", ["-0.1", "nan"], ["0"]),
    ("augment", "scale_delta", ["-0.1", "1"], ["0", "0.99"]),
    ("augment", "translation_mm", ["-1"], ["0"]),
    ("augment", "shear", ["-0.1"], ["0"]),
    ("augment", "svf_control_points", ["0", "65", "99999999999999999999"], ["1", "64"]),
    ("augment", "svf_sigma_vox", ["-0.1"], ["0"]),
    ("augment", "svf_steps", ["-1", "33", "99999999999999999999"], ["0", "32"]),
    ("augment", "bias_control_points", ["0", "33", "99999999999999999999"], ["1", "32"]),
    ("augment", "bias_log_sigma", ["-0.1"], ["0"]),
    ("augment", "gamma", ["0, 1", "2, 1"], ["0.01, 1"]),
    ("augment", "noise_sigma", ["-0.5, -0.4"], ["0, 0"]),
    ("augment", "blur_sigma_mm", ["-1, 1"], ["0, 1"]),
    ("augment", "simple_noise_sigma", ["-0.1"], ["0"]),
    ("augment", "op_probability", ["7", "-0.01", "1.01"], ["0", "1"]),
    ("augment", "inplane_mm", ["0, 1"], ["0.1, 1"]),
    ("augment", "thickness_mm", ["0, 4"], ["0.1, 4"]),
    ("augment", "slice_axis", ["-1", "3"], ["0", "2"]),
    ("epg", "esp_ms", ["0"], ["0.1"]),
    ("epg", "etl", ["0"], ["1"]),
    ("epg", "excitation_deg", ["nan", "inf", "-inf"], ["-90", "0"]),
    ("epg", "refocus_deg", ["-1, 180"], ["0, 180"]),
    ("epg", "te_eff_ms", ["0, 300"], ["6.12, 918"]),
    ("epg", "t1_ms", ["0, 100"], ["1, 100"]),
    ("epg", "t2_ms", ["-5, -1", "0, 10"], ["1, 10"]),
    ("epg", "pd", ["-0.1, 1"], ["0, 0"]),
    ("epg", "reference_1", ["0:10 5:6 1:1", "1:10 0:6 1:1", "1:10 5:6 -1:1", "10:1 5:6 1:1",
                             "1: 5:6 0:1", ":1 5:6 0:1"],
     ["1:10 5:6 0:0"]),
]


# An edge of esp_ms or etl loads only with a TE_eff range inside [esp, etl * esp].
EDGE_COMPANION = {"esp_ms": "te_eff_ms = 0.1, 15", "etl": "te_eff_ms = 6.12, 6.12"}


def field_row(key):
    """The _FIELDS row of an INI key ("reference_1" -> the "reference_" family)."""
    return next(row for row in _FIELDS if row[1] == key.rstrip("0123456789"))


def built_in_python(key, value):
    """GenerationConfig() with ``key``'s attribute replaced, as a library caller would."""
    path = field_row(key)[2]
    if key.startswith("reference_"):
        value = {int(key[len("reference_"):]): value}
    owner, _, attr = path.rpartition(".")
    cfg = GenerationConfig()
    if not owner:
        return replace(cfg, **{attr: value})
    return replace(cfg, **{owner: replace(getattr(cfg, owner), **{attr: value})})


# keys whose check is of the value's type alone: see test_python_values_of_the_wrong_type_fail
TYPE_ONLY = {"mode", "profile", "voxelwise"}


def test_domains_cover_every_checked_key():
    checked = {key + "1" * key.endswith("_") for _, key, _, _, check in _FIELDS if check is not None}
    assert checked == {row[1] for row in DOMAINS} | TYPE_ONLY


@pytest.mark.parametrize("section, key, bad, edge", DOMAINS, ids=[row[1] for row in DOMAINS])
def test_every_range_key_checks_its_domain(tmp_path, section, key, bad, edge):
    p = tmp_path / "domain.ini"
    parse = field_row(key)[3]
    built = 0
    for value in bad:
        p.write_text(f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=f"{section}.{key}: "):
            load_config(p)
        try:
            parsed = parse(value, key)
        except ConfigError:
            continue  # malformed text, which a Python value cannot be
        built += 1
        with pytest.raises(ConfigError, match=f"{section}.{key}: "):
            built_in_python(key, parsed)
    assert built, "no out-of-domain value parsed, so none went through the Python route"
    for value in edge:
        p.write_text(f"[{section}]\n{key} = {value}\n{EDGE_COMPANION.get(key, '')}\n")
        load_config(p)


@pytest.mark.parametrize("lines", [["etl = 10", "te_eff_ms = 20, 50"], ["te_eff_ms = 20, 50", "etl = 10"]])
def test_te_eff_bound_holds_whatever_the_key_order(tmp_path, lines):
    p = tmp_path / "epg.ini"
    p.write_text("[epg]\n" + "\n".join(lines) + "\n")
    cfg = load_config(p)
    assert cfg.sequence.etl == 10 and cfg.sequence.te_eff_range_ms == (20.0, 50.0)


@pytest.mark.parametrize("lines", [["te_eff_ms = 1, 2"], ["etl = 10"], ["esp_ms = 10", "te_eff_ms = 5, 50"]])
def test_te_eff_outside_the_echo_train_fails_at_load(tmp_path, lines):
    p = tmp_path / "epg.ini"
    p.write_text("[epg]\n" + "\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=r"epg\.te_eff_ms: must lie within \[epg\.esp_ms, epg\.etl \* epg\.esp_ms\]"):
        load_config(p)


@pytest.mark.parametrize("kwargs, key", [
    ({"sigma_range": (-5, -1)}, "synthgen.sigma"),
    ({"master_seed": -2}, "synthgen.master_seed"),
    ({"sequence": SequenceRanges(etl=10)}, "epg.te_eff_ms"),  # TE_eff up to 300 ms > 10 * 6.12 ms
    ({"master_seed": 1.5}, "synthgen.master_seed"),
    ({"k_range": (1.5, 3.0)}, "synthgen.subclasses"),
], ids=["sigma", "master_seed", "te_eff_past_the_echo_train", "float_seed", "float_k_range"])
def test_config_built_in_python_checks_its_domains(kwargs, key):
    with pytest.raises(ConfigError, match=re.escape(f"{key}: ")):
        GenerationConfig(**kwargs)


@pytest.mark.parametrize("kwargs, message", [
    ({"mode": "synthseg"}, "synthgen.mode: expected GeneratorMode, got 'synthseg'"),
    ({"profile": "simple"}, "synthgen.profile: expected AugmentProfile, got 'simple'"),
    ({"k_range": (1, 2, 3)}, "synthgen.subclasses: expected a (lo, hi) tuple, got (1, 2, 3)"),
    ({"mu_range": 5.0}, "synthgen.mu: expected a (lo, hi) tuple, got 5.0"),
    ({"mu_range": [0.0, 9.0]}, "synthgen.mu: expected a (lo, hi) tuple, got [0.0, 9.0]"),
    ({"master_seed": "3"}, "synthgen.master_seed: expected a number, got '3'"),
    ({"epg_voxelwise": "yes"}, "epg.voxelwise: expected bool, got 'yes'"),
    ({"relaxometry": RelaxometryRanges(reference={1: (1.0, 2.0)})},
     "epg.reference_1: expected ReferenceInterval, got (1.0, 2.0)"),
], ids=["mode_str", "profile_str", "three_tuple", "scalar_pair", "list_pair", "str_seed", "str_bool", "interval"])
def test_python_values_of_the_wrong_type_fail(kwargs, message):
    with pytest.raises(ConfigError) as info:
        GenerationConfig(**kwargs)
    assert str(info.value) == message


def test_reference_interval_with_a_missing_side_names_its_syntax(tmp_path):
    p = tmp_path / "reference.ini"
    for value in ("1: 5:6 0:1", "1:10 5:6 :1"):
        p.write_text(f"[epg]\nreference_1 = {value}\n")
        with pytest.raises(ConfigError, match="expected 't1lo:t1hi t2lo:t2hi pdlo:pdhi'"):
            load_config(p)


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.ini")


def test_unreadable_config_names_the_path_once(tmp_path):
    p = tmp_path / "absent.ini"
    with pytest.raises(ConfigError, match=re.escape(f"cannot read config: cannot read {p}: ")) as info:
        load_config(p)
    assert str(info.value).count(str(p)) == 1
    p.write_bytes(b"[synthgen]\nmaster_seed = 7  # caf\xe9\n")
    with pytest.raises(ConfigError, match=re.escape(f"cannot read config: {p}: not UTF-8 text (")):
        load_config(p)


def test_numpy_scalars_round_trip():
    cfg = GenerationConfig(
        mu_range=(np.float64(1), np.float64(200)),
        k_range=(np.int64(2), np.int64(5)),
        master_seed=np.int64(3),
        affine=AffineRanges(rotation_rad=np.float32(0.25)),
    )
    sections = config_sections(cfg)
    assert sections["synthgen"]["mu"] == "1.0, 200.0"
    assert sections["synthgen"]["subclasses"] == "2, 5"
    assert sections["synthgen"]["master_seed"] == "3"
    assert sections["augment"]["rotation_rad"] == "0.25"
    assert apply_sections(GenerationConfig(), sections) == cfg


def test_inline_comments_and_blank_optionals(tmp_path):
    p = tmp_path / "commented.ini"
    # the custom config's text with its seed commented and its non-brain range blanked
    text = config_text(replace(custom_config(), resolution=ResolutionSim(slice_axis=1)))
    for old, new in (("master_seed = 42", "master_seed = 3  # pinned for the smoke run"),
                     ("nonbrain_subclasses = 1, 3", "nonbrain_subclasses ="),
                     ("slice_axis = 1", "slice_axis =")):
        assert old in text
        text = text.replace(old, new)
    p.write_text(text)
    cfg = load_config(p)
    assert cfg.master_seed == 3
    assert cfg.nonbrain_k_range is None
    assert cfg.resolution.slice_axis is None


def test_apply_sections_pair_spacing_is_flexible():
    cfg = apply_sections(GenerationConfig(), {"synthgen": {"mu": "5 10"}})
    assert cfg.mu_range == (5.0, 10.0)
    cfg = apply_sections(GenerationConfig(), {"synthgen": {"mu": " 5 , 10 "}})
    assert cfg.mu_range == (5.0, 10.0)


def test_config_text_is_valid_ini(tmp_path):
    text = config_text(custom_config())
    assert text.startswith("[synthgen]")
    p = tmp_path / "echo.ini"
    p.write_text(text)
    assert load_config(p) == custom_config()


def test_readme_config_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    p = tmp_path / "readme.ini"
    p.write_text(block)
    cfg = load_config(p)
    assert cfg.profile is AugmentProfile.SYNTHSEG_FULL
    assert cfg.master_seed == 7
