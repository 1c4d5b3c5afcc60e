"""INI-backed configuration for the command-line tools.

One flat key = value file with three sections mirroring the package
areas: ``[synthgen]`` (mode, contrast and subclass ranges, seed),
``[augment]`` (spatial, corruption, and resolution ranges), and
``[epg]`` (sequence and relaxometry ranges).  Pairs are written as
"lo, hi"; blank means "unset" for optional keys.  Reference relaxometry
intervals use one key per class: ``reference_3 = t1lo:t1hi t2lo:t2hi
pdlo:pdhi``.

Loading starts from the package defaults and overrides whatever keys are
present.  Unknown sections or keys, and counts out of range (subclass
ranges need 1 <= lo <= hi, control points >= 1, SVF steps >= 0), raise
ConfigError.  ``config_sections`` emits every effective value, defaults
included, which generation writes into provenance sidecars.  Both
directions are driven by one field table, ``_FIELDS``.
"""

from __future__ import annotations

import configparser
from dataclasses import replace

from .augment import AugmentProfile
from .epg import ReferenceInterval
from .errors import ConfigError
from .generator import GenerationConfig, GeneratorMode


def _tokens(text: str) -> list[str]:
    return [t for t in text.replace(",", " ").split() if t]


def _float(text: str, ctx: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"{ctx}: expected a number, got {text!r}") from exc


def _int(text: str, ctx: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"{ctx}: expected an integer, got {text!r}") from exc


def _pair(text: str, ctx: str, cast=_float) -> tuple:
    toks = _tokens(text)
    if len(toks) != 2:
        raise ConfigError(f"{ctx}: expected 'lo, hi', got {text!r}")
    return cast(toks[0], ctx), cast(toks[1], ctx)


def _k_range(text: str, ctx: str) -> tuple[int, int]:
    lo, hi = _pair(text, ctx, _int)
    if not 1 <= lo <= hi:
        raise ConfigError(f"{ctx}: need 1 <= lo <= hi, got {lo}, {hi}")
    return lo, hi


def _int_at_least(low: int):
    def parse(text: str, ctx: str) -> int:
        value = _int(text, ctx)
        if value < low:
            raise ConfigError(f"{ctx}: must be >= {low}, got {value}")
        return value

    return parse


def _optional(parse):
    """Blank text means an unset optional key (None)."""
    return lambda text, ctx: parse(text, ctx) if text.strip() else None


def _slice_axis(text: str, ctx: str) -> int:
    axis = _int(text, ctx)
    if axis not in (0, 1, 2):
        raise ConfigError(f"{ctx}: must be 0, 1, or 2, got {axis}")
    return axis


def _bool(text: str, ctx: str) -> bool:
    v = text.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{ctx}: expected a boolean, got {text!r}")


def _enum(kind):
    def parse(text: str, ctx: str):
        try:
            return kind(text.strip().lower())
        except ValueError:
            valid = ", ".join(m.value for m in kind)
            raise ConfigError(f"{ctx}: {text!r} is not one of {valid}") from None

    return parse


def _interval(text: str, ctx: str) -> ReferenceInterval:
    toks = _tokens(text)
    if len(toks) != 3:
        raise ConfigError(f"{ctx}: expected 't1lo:t1hi t2lo:t2hi pdlo:pdhi', got {text!r}")
    pairs = []
    for tok in toks:
        lohi = tok.split(":")
        if len(lohi) != 2:
            raise ConfigError(f"{ctx}: expected lo:hi, got {tok!r}")
        pairs.append((_float(lohi[0], ctx), _float(lohi[1], ctx)))
    return ReferenceInterval(t1_ms=pairs[0], t2_ms=pairs[1], pd=pairs[2])


def _fmt_pair(pair) -> str:
    return f"{pair[0]!r}, {pair[1]!r}"


def _fmt_int_pair(pair) -> str:
    return "" if pair is None else f"{pair[0]}, {pair[1]}"


def _fmt_optional(value) -> str:
    return "" if value is None else str(value)


def _fmt_interval(iv: ReferenceInterval) -> str:
    return (
        f"{iv.t1_ms[0]!r}:{iv.t1_ms[1]!r} "
        f"{iv.t2_ms[0]!r}:{iv.t2_ms[1]!r} "
        f"{iv.pd[0]!r}:{iv.pd[1]!r}"
    )


# One row per config key: (section, key, GenerationConfig attribute path,
# parse(text, ctx), format(value)).  Row order is the order keys are
# written and applied.  A key ending in "_" is a per-class family over a
# dict attribute: "reference_3" holds entry 3.
_FIELDS = (
    ("synthgen", "mode", "mode", _enum(GeneratorMode), lambda v: v.value),
    ("synthgen", "profile", "profile", _enum(AugmentProfile), lambda v: v.value),
    ("synthgen", "mu", "mu_range", _pair, _fmt_pair),
    ("synthgen", "sigma", "sigma_range", _pair, _fmt_pair),
    ("synthgen", "subclasses", "k_range", _k_range, _fmt_int_pair),
    ("synthgen", "nonbrain_subclasses", "nonbrain_k_range", _optional(_k_range), _fmt_int_pair),
    ("synthgen", "master_seed", "master_seed", _int, str),
    ("augment", "rotation_rad", "affine.rotation_rad", _float, repr),
    ("augment", "scale_delta", "affine.scale_delta", _float, repr),
    ("augment", "translation_mm", "affine.translation_mm", _float, repr),
    ("augment", "shear", "affine.shear", _float, repr),
    ("augment", "svf_control_points", "svf.control_points", _int_at_least(1), str),
    ("augment", "svf_sigma_vox", "svf.sigma_vox", _float, repr),
    ("augment", "svf_steps", "svf.integration_steps", _int_at_least(0), str),
    ("augment", "bias_control_points", "corruption.bias_control_points", _int_at_least(1), str),
    ("augment", "bias_log_sigma", "corruption.bias_log_sigma", _float, repr),
    ("augment", "gamma", "corruption.gamma_range", _pair, _fmt_pair),
    ("augment", "noise_sigma", "corruption.noise_sigma_range", _pair, _fmt_pair),
    ("augment", "blur_sigma_mm", "corruption.blur_sigma_mm_range", _pair, _fmt_pair),
    ("augment", "simple_noise_sigma", "corruption.simple_noise_sigma", _float, repr),
    ("augment", "op_probability", "corruption.op_probability", _float, repr),
    ("augment", "inplane_mm", "resolution.inplane_range_mm", _pair, _fmt_pair),
    ("augment", "thickness_mm", "resolution.thickness_range_mm", _pair, _fmt_pair),
    ("augment", "slice_axis", "resolution.slice_axis", _optional(_slice_axis), _fmt_optional),
    ("epg", "esp_ms", "sequence.esp_ms", _float, repr),
    ("epg", "etl", "sequence.etl", _int, str),
    ("epg", "excitation_deg", "sequence.excitation_deg", _float, repr),
    ("epg", "refocus_deg", "sequence.refocus_range_deg", _pair, _fmt_pair),
    ("epg", "te_eff_ms", "sequence.te_eff_range_ms", _pair, _fmt_pair),
    ("epg", "voxelwise", "epg_voxelwise", _bool, lambda v: "true" if v else "false"),
    ("epg", "t1_ms", "relaxometry.t1_range_ms", _pair, _fmt_pair),
    ("epg", "t2_ms", "relaxometry.t2_range_ms", _pair, _fmt_pair),
    ("epg", "pd", "relaxometry.pd_range", _pair, _fmt_pair),
    ("epg", "reference_", "relaxometry.reference", _interval, _fmt_interval),
)

_KNOWN_KEYS = {sec: {key for s, key, *_ in _FIELDS if s == sec} for sec, *_ in _FIELDS}


def _get(obj, path: str):
    for attr in path.split("."):
        obj = getattr(obj, attr)
    return obj


def _with(obj, path: str, value):
    """A copy of frozen ``obj`` with the dotted attribute ``path`` replaced."""
    head, _, rest = path.partition(".")
    if rest:
        value = _with(getattr(obj, head), rest, value)
    return replace(obj, **{head: value})


def config_sections(cfg: GenerationConfig) -> dict[str, dict[str, str]]:
    """Every effective value as section -> key -> string, defaults included."""
    out: dict[str, dict[str, str]] = {}
    for section, key, path, _, fmt in _FIELDS:
        kv = out.setdefault(section, {})
        value = _get(cfg, path)
        if key.endswith("_"):
            kv.update((f"{key}{cid}", fmt(v)) for cid, v in sorted(value.items()))
        else:
            kv[key] = fmt(value)
    return out


def config_text(cfg: GenerationConfig) -> str:
    lines = []
    for section, kv in config_sections(cfg).items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in kv.items())
        lines.append("")
    return "\n".join(lines)


def write_config(cfg: GenerationConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(config_text(cfg))


def _family(key: str) -> str:
    """The per-class family a key belongs to ("reference_3" -> "reference_")."""
    return key.rpartition("_")[0] + "_"


def apply_sections(cfg: GenerationConfig, sections: dict[str, dict[str, str]]) -> GenerationConfig:
    """Override a config from parsed section -> key -> value strings."""
    for name, kv in sections.items():
        if name not in _KNOWN_KEYS:
            raise ConfigError(f"unknown config section [{name}]")
        for key in kv:
            if key not in _KNOWN_KEYS[name] and _family(key) not in _KNOWN_KEYS[name]:
                raise ConfigError(f"unknown key {key!r} in section [{name}]")
    for section, key, path, parse, _ in _FIELDS:
        kv = sections.get(section, {})
        if key.endswith("_"):
            members = {
                _int(k[len(key):], f"{section}.{k}"): parse(v, f"{section}.{k}")
                for k, v in kv.items()
                if k.startswith(key)
            }
            if members:
                cfg = _with(cfg, path, {**_get(cfg, path), **members})
        elif key in kv:
            cfg = _with(cfg, path, parse(kv[key], f"{section}.{key}"))
    return cfg


def load_config(path, base: GenerationConfig | None = None) -> GenerationConfig:
    """Read an INI file, overriding ``base`` (package defaults if None)."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    sections = {name: dict(cp.items(name)) for name in cp.sections()}
    return apply_sections(base if base is not None else GenerationConfig(), sections)
