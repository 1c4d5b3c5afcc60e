from pathlib import Path

import pytest

from drsynth.augment import AugmentProfile
from drsynth.config import (
    apply_sections,
    config_sections,
    config_text,
    load_config,
    write_config,
)
from drsynth.epg import ReferenceInterval, RelaxometryRanges
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
    write_config(cfg, p)
    assert load_config(p) == cfg


def test_custom_config_round_trips(tmp_path):
    cfg = custom_config()
    p = tmp_path / "custom.ini"
    write_config(cfg, p)
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


def test_load_respects_base_config(tmp_path):
    base = custom_config()
    p = tmp_path / "tweak.ini"
    p.write_text("[synthgen]\nmaster_seed = 1000\n")
    cfg = load_config(p, base=base)
    assert cfg.master_seed == 1000
    assert cfg.mode is GeneratorMode.RANDFABIAN  # kept from base


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
    ]
    for text in cases:
        p.write_text(text)
        with pytest.raises(ConfigError):
            load_config(p)


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.ini")


def test_inline_comments_and_blank_optionals(tmp_path):
    p = tmp_path / "commented.ini"
    p.write_text(
        "[synthgen]\n"
        "master_seed = 3  # pinned for the smoke run\n"
        "nonbrain_subclasses =\n"
        "[augment]\n"
        "slice_axis =\n"
    )
    cfg = load_config(p, base=custom_config())
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
