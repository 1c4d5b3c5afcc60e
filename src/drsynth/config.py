"""The generation config, its domains and its INI form.

Building a ``GenerationConfig`` (in Python, or from an INI file, a
sidecar or CLI flags) checks every value against its key's domain
(numbers are finite and every pair has lo <= hi; e.g. subclass ranges
need lo >= 1, probabilities lie in [0, 1], T1/T2 > 0, and ``te_eff_ms``
lies within [esp_ms, etl * esp_ms]), and its type and shape (enums,
2-tuples of numbers, a bool), and raises ConfigError naming
``<section>.<key>`` for a value outside it.

The INI file has three sections mirroring the package areas:
``[synthgen]`` (mode, contrast and subclass ranges, seed), ``[augment]``
(spatial, corruption, and resolution ranges), and ``[epg]`` (sequence
and relaxometry ranges).  Pairs are written as "lo, hi"; blank means
"unset" for optional keys.  Reference relaxometry intervals use one key
per class: ``reference_3 = t1lo:t1hi t2lo:t2hi pdlo:pdhi``.  Loading
starts from the package defaults and overrides whatever keys are
present; unknown sections or keys raise ConfigError.  ``config_sections``
emits every effective value, defaults included, which generation writes
into provenance sidecars.  One field table, ``_FIELDS``, drives parsing
and the domain checks; ``_fmt`` writes each value by its type.
"""

from __future__ import annotations

import configparser
import enum
import math
import numbers
from dataclasses import dataclass, field, replace

from .augment import AffineRanges, AugmentProfile, CorruptionConfig, ResolutionSim, SvfConfig
from .epg import ReferenceInterval, RelaxometryRanges, SequenceRanges
from .errors import ConfigError, FormatError, IoError
from .fileio import read_text


class GeneratorMode(enum.Enum):
    """Contrast and partition strategy.

    SYNTHSEG       cluster within the original tissue labels, Gaussian draws
    FETALSYNTHSEG  cluster within meta-classes (+ non-brain), Gaussian draws
    FABIAN         meta-classes + spin-echo physics, reference relaxometry
    RANDFABIAN     meta-classes + spin-echo physics, randomized relaxometry
    """

    SYNTHSEG = "synthseg"
    FETALSYNTHSEG = "fetalsynthseg"
    FABIAN = "fabian"
    RANDFABIAN = "randfabian"


@dataclass(frozen=True)
class GenerationConfig:
    """Everything one needs to re-render a sample, besides the inputs.

    Intensity bounds (``mu_range``, ``sigma_range``) and subclass-count
    bounds are plain configuration: tests pin their own values rather than
    relying on the defaults here.  ``nonbrain_k_range`` overrides the
    subclass count range for the image-derived non-brain class (None means
    use ``k_range``).  Construction runs ``check_config``.
    """

    mode: GeneratorMode = GeneratorMode.FETALSYNTHSEG
    profile: AugmentProfile = AugmentProfile.SYNTHSEG_FULL
    mu_range: tuple[float, float] = (0.0, 255.0)
    sigma_range: tuple[float, float] = (0.0, 35.0)
    k_range: tuple[int, int] = (1, 9)
    nonbrain_k_range: tuple[int, int] | None = None
    master_seed: int = 0
    affine: AffineRanges = field(default_factory=AffineRanges)
    svf: SvfConfig = field(default_factory=SvfConfig)
    corruption: CorruptionConfig = field(default_factory=CorruptionConfig)
    resolution: ResolutionSim = field(default_factory=ResolutionSim)
    sequence: SequenceRanges = field(default_factory=SequenceRanges)
    relaxometry: RelaxometryRanges = field(default_factory=RelaxometryRanges)
    epg_voxelwise: bool = True

    def __post_init__(self):
        check_config(self)


def _tokens(text: str) -> list[str]:
    return [t for t in text.replace(",", " ").split() if t]


def _float(text: str, ctx: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{ctx}: expected a finite number, got {text!r}") from None


def _int(text: str, ctx: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"{ctx}: expected an integer, got {text!r}") from exc


def _num(n=1, cast=_float, lo=None, hi=None, lo_open=False, hi_open=False):
    """(parse, check) for ``n`` numbers, a "lo, hi" pair when n is 2.

    The parse casts text to numbers (a pair to a tuple).  The check needs
    a pair to be a 2-tuple, every value a finite number (integral when
    ``cast`` is ``_int``), >= lo (> lo when ``lo_open``) and <= hi (< hi
    when ``hi_open``), and a pair to have lo <= hi; a None bound is not
    checked.
    """
    rules = [f"{'>' if lo_open else '>='} {lo}"] * (lo is not None)
    rules += [f"{'<' if hi_open else '<='} {hi}"] * (hi is not None)

    def parse(text: str, ctx: str):
        toks = _tokens(text) if n == 2 else [text]
        if len(toks) != n:
            raise ConfigError(f"{ctx}: expected 'lo, hi', got {text!r}")
        vals = tuple(cast(t, ctx) for t in toks)
        return vals if n == 2 else vals[0]

    def check(value, ctx: str) -> None:
        if n == 2 and not (isinstance(value, tuple) and len(value) == 2):
            raise ConfigError(f"{ctx}: expected a (lo, hi) tuple, got {value!r}")
        vals = value if n == 2 else (value,)
        if not all(isinstance(v, numbers.Real) for v in vals):
            raise ConfigError(f"{ctx}: expected a number, got {value!r}")
        if cast is _int and not all(isinstance(v, numbers.Integral) for v in vals):
            raise ConfigError(f"{ctx}: expected an integer, got {value!r}")
        if not all(-math.inf < v < math.inf for v in vals):
            raise ConfigError(f"{ctx}: expected a finite number, got {value!r}")
        if n == 2 and not vals[0] <= vals[1]:
            raise ConfigError(f"{ctx}: need lo <= hi, got {vals[0]}, {vals[1]}")
        for v in vals:
            above_lo = lo is None or (v > lo if lo_open else v >= lo)
            below_hi = hi is None or (v < hi if hi_open else v <= hi)
            if not (above_lo and below_hi):
                raise ConfigError(f"{ctx}: must be {' and '.join(rules)}, got {v}")

    return parse, check


_PAIR, _NONNEG_PAIR, _POS_PAIR = _num(2), _num(2, lo=0), _num(2, lo=0, lo_open=True)
_NONNEG, _K_RANGE = _num(lo=0), _num(2, _int, lo=1)


def _optional(kind):
    """Blank text means an unset optional key (None), which passes the check."""
    parse, check = kind
    return (lambda text, ctx: parse(text, ctx) if text.strip() else None,
            lambda value, ctx: value is None or check(value, ctx))


def _instance(kind):
    """The check that a value built in Python holds a ``kind``."""

    def check(value, ctx: str) -> None:
        if not isinstance(value, kind):
            raise ConfigError(f"{ctx}: expected {kind.__name__}, got {value!r}")

    return check


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

    return parse, _instance(kind)


def _parse_interval(text: str, ctx: str) -> ReferenceInterval:
    toks = _tokens(text)
    if len(toks) != 3 or any(len(tok.split(":")) != 2 or "" in tok.split(":") for tok in toks):
        raise ConfigError(f"{ctx}: expected 't1lo:t1hi t2lo:t2hi pdlo:pdhi', got {text!r}")
    t1, t2, pd = (_PAIR[0](tok.replace(":", " "), ctx) for tok in toks)
    return ReferenceInterval(t1_ms=t1, t2_ms=t2, pd=pd)


def _check_interval(iv: ReferenceInterval, ctx: str) -> None:
    """T1 and T2 intervals need lo > 0, the pd interval lo >= 0."""
    _instance(ReferenceInterval)(iv, ctx)
    for (_, check), pair in zip((_POS_PAIR, _POS_PAIR, _NONNEG_PAIR), (iv.t1_ms, iv.t2_ms, iv.pd)):
        check(pair, ctx)


def _fmt(value) -> str:
    """A value's INI text, chosen by its type (blank for None, "lo, hi" for a pair)."""
    if value is None:
        return ""
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return f"{_fmt(value[0])}, {_fmt(value[1])}"
    if isinstance(value, ReferenceInterval):
        return " ".join(f"{_fmt(lo)}:{_fmt(hi)}" for lo, hi in (value.t1_ms, value.t2_ms, value.pd))
    if isinstance(value, numbers.Integral):
        return str(int(value))
    return repr(float(value))


# One row per config key: (section, key, GenerationConfig attribute path,
# parse(text, ctx), check(value, ctx)); ``_fmt`` writes every value.  Row
# order is the order keys are written and checked.  A key ending in "_" is a
# per-class family over a dict attribute: "reference_3" holds entry 3.
# The one bound that spans keys (TE_eff within [esp, etl * esp]) is checked
# by check_config after the rows.  The count keys svf_control_points,
# svf_steps and bias_control_points have an upper bound too (README gives
# the reasons), so an absurd count fails here and not inside numpy.
_FIELDS = (
    ("synthgen", "mode", "mode", *_enum(GeneratorMode)),
    ("synthgen", "profile", "profile", *_enum(AugmentProfile)),
    ("synthgen", "mu", "mu_range", *_PAIR),
    ("synthgen", "sigma", "sigma_range", *_NONNEG_PAIR),
    ("synthgen", "subclasses", "k_range", *_K_RANGE),
    ("synthgen", "nonbrain_subclasses", "nonbrain_k_range", *_optional(_K_RANGE)),
    ("synthgen", "master_seed", "master_seed", *_num(1, _int, lo=0)),
    ("augment", "rotation_rad", "affine.rotation_rad", *_NONNEG),
    ("augment", "scale_delta", "affine.scale_delta", *_num(lo=0, hi=1, hi_open=True)),
    ("augment", "translation_mm", "affine.translation_mm", *_NONNEG),
    ("augment", "shear", "affine.shear", *_NONNEG),
    ("augment", "svf_control_points", "svf.control_points", *_num(1, _int, lo=1, hi=64)),
    ("augment", "svf_sigma_vox", "svf.sigma_vox", *_NONNEG),
    ("augment", "svf_steps", "svf.integration_steps", *_num(1, _int, lo=0, hi=32)),
    ("augment", "bias_control_points", "corruption.bias_control_points", *_num(1, _int, lo=1, hi=32)),
    ("augment", "bias_log_sigma", "corruption.bias_log_sigma", *_NONNEG),
    ("augment", "gamma", "corruption.gamma_range", *_POS_PAIR),
    ("augment", "noise_sigma", "corruption.noise_sigma_range", *_NONNEG_PAIR),
    ("augment", "blur_sigma_mm", "corruption.blur_sigma_mm_range", *_NONNEG_PAIR),
    ("augment", "simple_noise_sigma", "corruption.simple_noise_sigma", *_NONNEG),
    ("augment", "op_probability", "corruption.op_probability", *_num(lo=0, hi=1)),
    ("augment", "inplane_mm", "resolution.inplane_range_mm", *_POS_PAIR),
    ("augment", "thickness_mm", "resolution.thickness_range_mm", *_POS_PAIR),
    ("augment", "slice_axis", "resolution.slice_axis", *_optional(_num(1, _int, lo=0, hi=2))),
    ("epg", "esp_ms", "sequence.esp_ms", *_num(lo=0, lo_open=True)),
    ("epg", "etl", "sequence.etl", *_num(1, _int, lo=1)),
    ("epg", "excitation_deg", "sequence.excitation_deg", *_num()),
    ("epg", "refocus_deg", "sequence.refocus_range_deg", *_NONNEG_PAIR),
    ("epg", "te_eff_ms", "sequence.te_eff_range_ms", *_POS_PAIR),
    ("epg", "voxelwise", "epg_voxelwise", _bool, _instance(bool)),
    ("epg", "t1_ms", "relaxometry.t1_range_ms", *_POS_PAIR),
    ("epg", "t2_ms", "relaxometry.t2_range_ms", *_POS_PAIR),
    ("epg", "pd", "relaxometry.pd_range", *_NONNEG_PAIR),
    ("epg", "reference_", "relaxometry.reference", _parse_interval, _check_interval),
)

_KNOWN_KEYS = {sec: {key for s, key, *_ in _FIELDS if s == sec} for sec, *_ in _FIELDS}


def _get(obj, path: str):
    for attr in path.split("."):
        obj = getattr(obj, attr)
    return obj


def check_config(cfg: GenerationConfig) -> None:
    """Raise ConfigError ("<section>.<key>: ...") for the first value outside its domain."""
    for section, key, path, _, check in _FIELDS:
        value = _get(cfg, path)
        members = sorted(value.items()) if key.endswith("_") else [("", value)]
        for suffix, v in members:
            check(v, f"{section}.{key}{suffix}")
    seq = cfg.sequence
    if not seq.esp_ms <= seq.te_eff_range_ms[0] <= seq.te_eff_range_ms[1] <= seq.etl * seq.esp_ms:
        raise ConfigError(
            f"epg.te_eff_ms: must lie within [epg.esp_ms, epg.etl * epg.esp_ms] = "
            f"[{seq.esp_ms!r}, {seq.etl * seq.esp_ms!r}] ms, got {_fmt(seq.te_eff_range_ms)}"
        )


def config_sections(cfg: GenerationConfig) -> dict[str, dict[str, str]]:
    """Every effective value as section -> key -> string, defaults included."""
    out: dict[str, dict[str, str]] = {}
    for section, key, path, _, _ in _FIELDS:
        kv = out.setdefault(section, {})
        value = _get(cfg, path)
        if key.endswith("_"):
            kv.update((f"{key}{cid}", _fmt(v)) for cid, v in sorted(value.items()))
        else:
            kv[key] = _fmt(value)
    return out


def config_text(cfg: GenerationConfig) -> str:
    lines = []
    for section, kv in config_sections(cfg).items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in kv.items())
        lines.append("")
    return "\n".join(lines)


def _family(key: str) -> str:
    """The per-class family a key belongs to ("reference_3" -> "reference_")."""
    return key.rpartition("_")[0] + "_"


def apply_sections(cfg: GenerationConfig, sections: dict[str, dict[str, str]]) -> GenerationConfig:
    """Override a config from parsed section -> key -> value strings, building (and checking) it once."""
    for name, kv in sections.items():
        if name not in _KNOWN_KEYS:
            raise ConfigError(f"unknown config section [{name}]")
        for key in kv:
            if key not in _KNOWN_KEYS[name] and _family(key) not in _KNOWN_KEYS[name]:
                raise ConfigError(f"unknown key {key!r} in section [{name}]")
    changes: dict[str, dict] = {}  # owner path ("" for cfg itself) -> attribute -> value
    for section, key, path, parse, _ in _FIELDS:
        kv = sections.get(section, {})
        owner, _, attr = path.rpartition(".")
        if key.endswith("_"):
            changes.setdefault(owner, {})[attr] = {**_get(cfg, path), **{
                _int(k[len(key):], f"{section}.{k}"): parse(v, f"{section}.{k}")
                for k, v in kv.items()
                if k.startswith(key)
            }}
        elif key in kv:
            changes.setdefault(owner, {})[attr] = parse(kv[key], f"{section}.{key}")
    top = changes.pop("", {})
    return replace(cfg, **top, **{owner: replace(getattr(cfg, owner), **kv) for owner, kv in changes.items()})


def read_sections(path) -> dict[str, dict[str, str]]:
    """An INI file as section -> key -> value text (ConfigError if unreadable)."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        cp.read_string(read_text(path), source=str(path))
    except (IoError, FormatError) as exc:  # each names the file
        raise ConfigError(f"cannot read config: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    return {name: dict(cp.items(name)) for name in cp.sections()}


def load_config(path) -> GenerationConfig:
    """Read an INI file over the package defaults."""
    return apply_sections(GenerationConfig(), read_sections(path))
