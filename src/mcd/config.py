"""Flat ``key = value`` experiment manifests with strict key checking.

Blank lines and ``#`` comments are ignored; every other line must be
``key = value``. Unknown and duplicated keys are rejected so a manifest
checked into a repo stays an exact, replayable record. Command-line
flags override file values.
"""

from __future__ import annotations

from typing import Callable

from .errors import ConfigurationError, McdError
from .grid import ScaleLadder, WindowSpec
from .simulate import SimConfig


def parse_dims(text: str) -> tuple[int, int]:
    """Grid dimensions as ``ROWSxCOLS`` or ``ROWS,COLS``."""
    parts = text.replace("x", ",").split(",")
    if len(parts) != 2:
        raise ConfigurationError(f"dims must be ROWSxCOLS, got {text!r}")
    try:
        rows, cols = int(parts[0]), int(parts[1])
    except ValueError:
        raise ConfigurationError(f"dims must be integers, got {text!r}") from None
    return rows, cols


def parse_ladder(text: str) -> ScaleLadder:
    """Ladder spec: ``two-scale``, ``five-scale``, or ``kind:radius,...``.

    Example: ``square:0,circle:1`` is the cross-shaped pair used by
    `simulate.theorem_checks`; ``square:0,square:5`` is the default pair.
    Radii must rise from 0 and each window must contain the one before,
    so ``square:3,circle:4`` is refused: the corner (3, 3) lies outside.
    """
    name = text.strip().lower()
    if name in ("two-scale", "default"):
        return ScaleLadder.default_two_scale()
    if name == "five-scale":
        return ScaleLadder.five_scale()
    windows = []
    for part in name.split(","):
        kind, sep, radius = part.partition(":")
        if not sep:
            raise ConfigurationError(f"ladder window must be kind:radius, got {part!r}")
        try:
            windows.append(WindowSpec(kind.strip(), int(radius)))
        except ValueError:
            raise ConfigurationError(f"ladder radius must be an integer, got {part!r}") from None
        except McdError as exc:  # bad window kind/radius is a usage error here
            raise ConfigurationError(str(exc)) from None
    try:
        return ScaleLadder(tuple(windows))
    except McdError as exc:
        raise ConfigurationError(str(exc)) from None


def parse_int_list(text: str, cap: int | None = None) -> tuple[int, ...]:
    """Comma-separated integers; ``a-b`` expands to the inclusive range.

    With a `cap`, a range stops at max(a, cap), so its length is bounded by
    the cap rather than by b.
    """
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        lo, sep, hi = part.partition("-")
        try:
            if sep and lo:  # leading '-' would be a negative number
                lo, hi = int(lo), int(hi)
                out.extend(range(lo, (hi if cap is None else min(hi, max(lo, cap))) + 1))
            else:
                out.append(int(part))
        except ValueError:
            raise ConfigurationError(f"bad integer list entry {part!r}") from None
    return tuple(out)


def _radius_text(text: str) -> str:
    """Scan radii, checked now and expanded by `sim_configs`, once `dims` bounds their ranges."""
    parse_int_list(text, cap=0)  # each range stops at its start, so a check costs its text
    return text


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError:
        raise ConfigurationError(f"bad float list {text!r}") from None


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in text.split(","))


def _maybe_auto(text: str):
    return None if text.strip().lower() == "auto" else int(text)


# config key -> converter from the raw string
CONVERTERS: dict[str, Callable[[str], object]] = {
    "dims": parse_dims,
    "family": str,
    "shape": str,
    "null_param": float,
    "alt_param": float,
    "alt_params": _float_list,
    "trials": int,
    "sigma": float,
    "replicates": int,
    "seed": int,
    "methods": _str_list,
    "ladder": parse_ladder,
    "threshold_count": int,
    "min_belt_count": _maybe_auto,
    "fdr_alpha": float,
    "fdr_lambda": float,
    "scan_radii": _radius_text,
    "scan_reps": int,
    "cluster_alpha": float,
    "disc_radius": float,
}


def parse_config_text(text: str) -> dict[str, str]:
    """Raw key -> value strings, rejecting malformed/duplicate lines."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep or not key.strip():
            raise ConfigurationError(f"line {lineno}: expected key = value, got {line!r}")
        key = key.strip()
        if key in raw:
            raise ConfigurationError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value.strip()
    return raw


def typed_config(raw: dict[str, str]) -> dict[str, object]:
    """Convert raw strings with per-key converters; unknown keys rejected."""
    values: dict[str, object] = {}
    for key, text in raw.items():
        conv = CONVERTERS.get(key)
        if conv is None:
            raise ConfigurationError(f"unknown config key {key!r}")
        try:
            values[key] = conv(text)
        except ConfigurationError as exc:  # name the key, as a SimConfig refusal does
            raise ConfigurationError(f"bad value for {key!r}: {exc}") from None
        except ValueError:
            raise ConfigurationError(f"bad value for {key!r}: {text!r}") from None
    return values


def load_config_file(path) -> dict[str, object]:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # a leading byte-order mark is dropped
            text = fh.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"cannot read {path}: not UTF-8 text (byte {exc.start})") from None
    return typed_config(parse_config_text(text))


def parse_override(text: str) -> tuple[str, object]:
    """One ``key=value`` flag override, same converters as the file."""
    key, sep, value = text.partition("=")
    if not sep or not key.strip():
        raise ConfigurationError(f"override must be key=value, got {text!r}")
    typed = typed_config({key.strip(): value.strip()})
    return next(iter(typed.items()))


def sim_configs(values: dict[str, object]) -> list[tuple[str, SimConfig]]:
    """Expand a typed config into labelled SimConfigs, one per setting.

    ``alt_params`` fans out into several settings labelled by the
    alternative parameter value; otherwise the single setting keeps the
    same labelling for a uniform report shape.
    """
    values = dict(values)
    if "scan_radii" in values:  # a circle of radius rows + cols holds the grid, as does any wider
        cap = sum(values.get("dims", SimConfig.dims))
        values["scan_radii"] = parse_int_list(values["scan_radii"], cap=cap)
    alts = values.pop("alt_params", None)
    if alts is not None:
        if "alt_param" in values:
            raise ConfigurationError("give alt_param or alt_params, not both")
        if len(alts) == 0:
            raise ConfigurationError("alt_params must not be empty")
    try:
        if alts is None:
            cfg = SimConfig(**values)
            return [(format(cfg.alt_param, "g"), cfg)]
        return [(format(a, "g"), SimConfig(**values, alt_param=a)) for a in alts]
    except TypeError as exc:  # a key valid for files but not for SimConfig
        raise ConfigurationError(str(exc)) from None
