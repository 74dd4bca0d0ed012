"""Named verification sweeps with deterministic defaults.

This module draws and iterates parameters for the checks in identities.
Each identity registers a runner that yields VerificationReports in a
fixed order.  Default sweeps are seeded, so two runs of the same
invocation produce byte-identical report streams.  Each registry entry
holds the one table of its identity's parameters and their defaults.
A parameter has one name, its PARAMS key, as a verify flag (--key), a
config entry key and a run_identity override: one value pins it, a list
sweeps it, and in a config a range object expands to a list.  Pinning
every parameter of a grid identity collapses the sweep to one point.
One resolver checks names, kinds, shapes, size signs and each entry's
registered clashes before anything runs.  A pinned index (n, m, t_index)
is its one value, an unset one a range of its size key.  An identity's own
preconditions fire only when its runner reaches them, after the
reports of the config entries before it.  form1 and Saalschutz run one
line per (alpha, beta, gamma) or (a, b, c) over their index n or m, so
each line's checks, prefactor and tables are built once (see
identities); a bad line raises after the earlier lines' reports.
"""
from __future__ import annotations

import json
import math
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import product
from typing import Callable, Iterator, Mapping

from .errors import WindowTooShort
from .exact import parse_rational
from .gridfn import GridFunction
from .identities import (
    _check_power_rule_orders,
    alt_sum_lemma_check,
    binom_falling_check,
    binom_poch_check,
    falling_poch_bridge_check,
    form1_sweep,
    gamma_sum_check,
    index_law_check,
    leibniz_sweep,
    mr_ae_sweep,
    nabla_zero_check,
    power_rule_order_violation,
    power_rule_sweep,
    saalschutz_sweep,
)
from .report import DOMAIN_EXCLUDED, VerificationReport

__all__ = [
    "DEFAULT_SEED",
    "PARAMS",
    "SweepConfig",
    "rational_range",
    "run_identity",
    "identity_names",
    "default_suite",
    "load_config",
    "run_sweep",
]

DEFAULT_SEED = 1729

RATIONAL, INT, SIZE, FLAG = "rational", "int", "size", "flag"

# Every sweep parameter and its kind; a size is an int that must be >= 0.
# The verify flags and the resolver that checks every override read this table.
PARAMS: dict[str, str] = {
    "t": RATIONAL, "alpha": RATIONAL, "beta": RATIONAL, "gamma": RATIONAL,
    "a": RATIONAL, "mu": RATIONAL, "nu": RATIONAL, "p": RATIONAL,
    "x": RATIONAL, "y": RATIONAL, "b": RATIONAL, "c": RATIONAL,
    "n": INT, "m": INT, "k": INT, "t_index": INT,
    "n_max": SIZE, "m_max": SIZE, "t_extra": SIZE, "n_extra": SIZE,
    "count": SIZE, "seed": INT, "window": SIZE, "max_window": SIZE,
    "force": FLAG,
}

_Q = Fraction


def rational_range(num_min: int = -8, num_max: int = 8, den_max: int = 6) -> list[Fraction]:
    """All reduced fractions num/den in the box, in deterministic order."""
    values = []
    for den in range(1, den_max + 1):
        for num in range(num_min, num_max + 1):
            if math.gcd(num, den) == 1:
                values.append(Fraction(num, den))
    return values


def _random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-8, 8), rng.randint(1, 6))


def _random_values(rng: random.Random, length: int) -> list:
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(length)]


@contextmanager
def _window_from(name: str, key: str, size: int) -> Iterator[None]:
    """Name the identity and the key whose size made a window too short."""
    try:
        yield
    except WindowTooShort as exc:
        raise WindowTooShort(f"{exc}: {name} {key} is {size}") from exc


def _index(ov: Mapping, key: str, start: int, size_key: str) -> list[int] | range:
    """A pinned int key as its one value; unset, start through start + ov[size_key]."""
    return [ov[key]] if ov[key] is not None else range(start, start + ov[size_key] + 1)


def _run_bridge(ov: Mapping) -> Iterator[VerificationReport]:
    for t, alpha in product(ov["t"], ov["alpha"]):
        yield falling_poch_bridge_check(t, alpha)


def _run_index_law(ov: Mapping) -> Iterator[VerificationReport]:
    for t, alpha, beta in product(ov["t"], ov["alpha"], ov["beta"]):
        yield index_law_check(t, alpha, beta)


def _check_single(ov: Mapping, keys: tuple[str, ...]) -> None:
    # a key that is pinned or drawn, never swept, is read as its first value
    for key in keys:
        if ov[key] is not None and len(ov[key]) > 1:
            raise ValueError(f"{key} takes a single value (got {len(ov[key])})")


def _run_binom(check: Callable, ov: Mapping) -> Iterator[VerificationReport]:
    rng = random.Random(ov["seed"])
    x, y, n = ov["x"], ov["y"], ov["n"]
    if x is not None and y is not None and n is not None:
        yield check(x[0], y[0], n)
        return
    for _ in range(ov["count"]):
        yield check(
            x[0] if x is not None else _random_rational(rng),
            y[0] if y is not None else _random_rational(rng),
            n if n is not None else rng.randint(0, ov["n_max"]),
        )


def _check_alt_sum(ov: Mapping) -> None:
    _check_single(ov, ("alpha",))
    if ov["k"] is not None and ov["k"] >= ov["window"]:
        raise ValueError(f"k must be less than window (got k={ov['k']}, window={ov['window']})")


def _run_alt_sum(ov: Mapping) -> Iterator[VerificationReport]:
    rng = random.Random(ov["seed"])
    window = ov["window"]
    with _window_from("alt-sum", "window", window):
        for _ in range(ov["count"]):
            origin = _random_rational(rng)
            g = GridFunction(origin, _random_values(rng, window))
            alpha = ov["alpha"][0] if ov["alpha"] is not None else _random_rational(rng)
            k = ov["k"] if ov["k"] is not None else rng.randint(0, window - 1)
            t_index = ov["t_index"] if ov["t_index"] is not None else rng.randint(k, window - 1)
            yield alt_sum_lemma_check(g, alpha, k, t_index)


def _check_power_rule(ov: Mapping) -> None:
    # a pinned order off the rule is refused; a swept grid skips such points
    _check_power_rule_orders(**{key: ov[key][0] for key in ("mu", "nu") if len(ov[key]) == 1})


def _run_power_rule(ov: Mapping) -> Iterator[VerificationReport]:
    # one falling power per (a, mu), swept over the orders on the rule;
    # with none on it, nothing is sampled (a swept mu = -1 has no window)
    for a, mu in product(ov["a"], ov["mu"]):
        nus = [nu for nu in ov["nu"] if power_rule_order_violation(mu, nu) is None]
        yield from power_rule_sweep(a, mu, nus, ov["n_max"])


def _run_gamma_sum(ov: Mapping) -> Iterator[VerificationReport]:
    for mu in ov["mu"]:
        nu_values = ov["nu"] if ov["nu"] is not None else [-m - mu for m in ov["m"]]
        for nu in nu_values:
            # off the claim, gamma_sum_check raises on the first n
            for n in _index(ov, "n", int(-(mu + nu)), "n_extra"):
                yield gamma_sum_check(mu, nu, n)


def _run_nabla_zero(ov: Mapping) -> Iterator[VerificationReport]:
    for a, p in product(ov["a"], ov["p"]):
        alpha_values = ov["alpha"] if ov["alpha"] is not None else [p + m for m in ov["m"]]
        for alpha in alpha_values:
            # off the claim, nabla_zero_check raises on the first t_index
            for t_index in _index(ov, "t_index", 1 + int(alpha - p), "t_extra"):
                yield nabla_zero_check(a, p, alpha, t_index)


def _run_mr_ae(ov: Mapping) -> Iterator[VerificationReport]:
    rng = random.Random(ov["seed"])
    max_window = ov["max_window"]
    low = min(4, max_window)
    with _window_from("mr-ae", "max_window", max_window):
        for i in range(ov["count"]):
            length = rng.randint(low, max_window) if max_window > low else low
            origin = _random_rational(rng)
            f = GridFunction(origin, _random_values(rng, length))
            yield from mr_ae_sweep(f, ov["mu"], i)


def _run_leibniz(ov: Mapping) -> Iterator[VerificationReport]:
    rng = random.Random(ov["seed"])
    with _window_from("leibniz", "window", ov["window"]):
        for _ in range(ov["count"]):
            origin = _random_rational(rng)
            f = GridFunction(origin, _random_values(rng, ov["window"]))
            g = GridFunction(origin, _random_values(rng, ov["window"]))
            yield from leibniz_sweep(f, g, ov["alpha"])


def _run_form1(ov: Mapping) -> Iterator[VerificationReport]:
    ns = _index(ov, "n", 0, "n_max")
    for alpha, beta, gamma in product(ov["alpha"], ov["beta"], ov["gamma"]):
        yield from form1_sweep(alpha, beta, gamma, ns)


def _run_saalschutz(ov: Mapping) -> Iterator[VerificationReport]:
    force = ov["force"]
    # a single fully-pinned point reports its exclusion instead of vanishing
    point_mode = ov["m"] is not None and all(len(ov[key]) == 1 for key in "abc")
    ms = _index(ov, "m", 0, "m_max")
    for a, b, c in product(ov["a"], ov["b"], ov["c"]):
        for report in saalschutz_sweep(a, b, c, ms, force=force):
            # swept points outside the hypotheses are filtered silently
            if report.status != DOMAIN_EXCLUDED or force or point_mode:
                yield report


@dataclass(frozen=True)
class IdentityEntry:
    """An identity's runner and the one table of the parameters it takes.

    ``defaults`` maps every key to its default: a list is a grid the sweep
    runs over, ``None`` means drawn or derived unless pinned, and a scalar
    is a size, seed or flag default.  ``check``, if given, refuses resolved
    parameters that are each valid but do not fit together.
    """

    name: str
    defaults: Mapping
    run: Callable[[Mapping], Iterator[VerificationReport]]
    check: Callable[[Mapping], None] | None = None


_BINOM_DEFAULTS = {"x": None, "y": None, "n": None, "n_max": 12, "seed": DEFAULT_SEED, "count": 200}
_check_binom = partial(_check_single, keys=("x", "y"))

REGISTRY: dict[str, IdentityEntry] = {
    entry.name: entry
    for entry in [
        IdentityEntry("bridge", {
            "t": [_Q(3), _Q(1, 2), _Q(1, 3), _Q(5, 2), _Q(-1, 2), _Q(-2)],
            "alpha": [_Q(2), _Q(0), _Q(1, 2), _Q(1, 3), _Q(-1, 2), _Q(5, 2)],
        }, _run_bridge),
        IdentityEntry("index-law", {
            "t": [_Q(5), _Q(7, 2), _Q(1, 2), _Q(-1, 3), _Q(9, 4)],
            "alpha": [_Q(1), _Q(1, 2), _Q(1, 3), _Q(-1, 2)],
            "beta": [_Q(0), _Q(2), _Q(1, 3), _Q(-5, 2)],
        }, _run_index_law),
        IdentityEntry("binom-falling", _BINOM_DEFAULTS, partial(_run_binom, binom_falling_check), _check_binom),
        IdentityEntry("binom-poch", _BINOM_DEFAULTS, partial(_run_binom, binom_poch_check), _check_binom),
        IdentityEntry("alt-sum", {
            "alpha": None, "k": None, "t_index": None,
            "window": 13, "seed": DEFAULT_SEED, "count": 200,
        }, _run_alt_sum, _check_alt_sum),
        IdentityEntry("power-rule", {
            "a": [_Q(0), _Q(1, 4), _Q(-3)],
            "mu": [_Q(0), _Q(1, 2), _Q(1, 3), _Q(5, 2), _Q(-1, 2)],
            "nu": [_Q(1, 2), _Q(3, 2), _Q(-1, 2), _Q(-5, 2), _Q(2)],
            "n_max": 12,
        }, _run_power_rule, _check_power_rule),
        IdentityEntry("gamma-sum", {
            "mu": [_Q(1, 2), _Q(1, 3)], "nu": None, "m": [1, 2, 3], "n": None, "n_extra": 8,
        }, _run_gamma_sum),
        IdentityEntry("nabla-zero", {
            "a": [_Q(0), _Q(1, 4), _Q(-2)], "p": [_Q(1, 2), _Q(1, 3)],
            "alpha": None, "m": [1, 2, 3], "t_index": None, "t_extra": 6,
        }, _run_nabla_zero),
        IdentityEntry("mr-ae", {
            "mu": [_Q(1, 2), _Q(1, 3), _Q(2, 3), _Q(3, 2)],
            "max_window": 12, "seed": DEFAULT_SEED, "count": 50,
        }, _run_mr_ae),
        IdentityEntry("leibniz", {
            "alpha": [_Q(1, 2), _Q(1, 3), _Q(5, 2)],
            "window": 10, "seed": DEFAULT_SEED, "count": 50,
        }, _run_leibniz),
        IdentityEntry("form1", {
            "alpha": [_Q(1, 2), _Q(3, 2)], "beta": [_Q(1, 4), _Q(1, 2)],
            "gamma": [_Q(1, 3), _Q(2), _Q(5, 2)], "n": None, "n_max": 8,
        }, _run_form1),
        IdentityEntry("saalschutz", {
            "a": [_Q(1, 2), _Q(-1, 2), _Q(1, 3), _Q(1, 5), _Q(3, 2)],
            "b": [_Q(1, 2), _Q(-1, 2), _Q(1, 3), _Q(1, 5), _Q(3, 2)],
            "c": [_Q(2), _Q(7, 4), _Q(5, 3)],
            "m": None, "m_max": 10, "force": False,
        }, _run_saalschutz),
    ]
}

SUITE_ORDER = list(REGISTRY)


def identity_names() -> list[str]:
    return list(SUITE_ORDER)


def _convert(kind: str, key: str, raw) -> object:
    """One value of the given kind from a str, int or Fraction (a bool for a flag)."""
    if kind == FLAG:
        if not isinstance(raw, bool):
            raise ValueError(f"{key} must be true or false")
        return raw
    if isinstance(raw, bool) or not isinstance(raw, (int, str, Fraction)):
        raise ValueError(f"bad value for {key}: {raw!r}")
    try:
        value = parse_rational(raw) if isinstance(raw, str) else Fraction(raw)
    except ValueError as exc:
        raise ValueError(f"bad value for {key}: {exc}") from None
    if kind == RATIONAL:
        return value
    if value.denominator != 1:
        raise ValueError(f"{key} must be an integer, got {raw!r}")
    if kind == SIZE and value < 0:
        raise ValueError(f"{key} must be nonnegative, got {raw}")
    return int(value)


def _resolve(name: str, overrides: Mapping) -> dict:
    """Check overrides against the identity's table and fill in its defaults.

    A rational key, or a key whose default is a grid, takes a list, which
    sweeps it, or a single value, which pins it.  Both resolve to a list,
    and a list of one value is a pin.  Every other key takes a single
    value.
    """
    entry = REGISTRY.get(name)
    if entry is None:
        raise ValueError(f"unknown identity: {name}")
    unknown = set(overrides) - set(entry.defaults)
    if unknown:
        raise ValueError(f"unknown parameters for {name}: {', '.join(sorted(unknown))}")
    ov = dict(entry.defaults)
    for key in sorted(overrides):
        raw, kind = overrides[key], PARAMS[key]
        takes_list = kind == RATIONAL or isinstance(entry.defaults[key], list)
        if isinstance(raw, (list, tuple)):
            if not takes_list:
                raise ValueError(f"{key} takes a single value")
            if not raw:
                raise ValueError(f"{key} needs at least one value")
            ov[key] = [_convert(kind, key, item) for item in raw]
        else:
            value = _convert(kind, key, raw)
            ov[key] = [value] if takes_list else value
    if entry.check is not None:
        entry.check(ov)
    return ov


def run_identity(name: str, overrides: Mapping | None = None) -> Iterator[VerificationReport]:
    ov = _resolve(name, overrides or {})
    return REGISTRY[name].run(ov)


@dataclass(frozen=True)
class SweepConfig:
    identity: str
    overrides: dict = field(default_factory=dict)


def default_suite() -> list[SweepConfig]:
    return [SweepConfig(name) for name in SUITE_ORDER]


def _range_values(raw: Mapping) -> list[Fraction]:
    spec = {"num_min": -8, "num_max": 8, "den_max": 6}
    unknown = set(raw) - set(spec)
    if unknown:
        raise ValueError(f"unknown range fields: {', '.join(sorted(unknown))}")
    spec.update({k: _convert(INT, k, v) for k, v in raw.items()})
    return rational_range(**spec)


def parse_config_entry(doc: Mapping) -> SweepConfig:
    """One sweep entry, {"identity": name, key: value | [values] | range, ...}.

    The keys are the overrides ``run_identity`` takes.  A range object under
    a key the identity takes expands to its fractions; everything else is
    kept as written, after the resolver has checked the whole entry.
    """
    if not isinstance(doc, Mapping):
        raise ValueError("each sweep entry must be a JSON object")
    identity = doc.get("identity")
    if not isinstance(identity, str):
        raise ValueError("config entry needs an 'identity' name")
    takes = REGISTRY[identity].defaults if identity in REGISTRY else {}
    overrides = {
        key: _range_values(raw) if key in takes and isinstance(raw, Mapping) else raw
        for key, raw in doc.items()
        if key != "identity"
    }
    _resolve(identity, overrides)
    return SweepConfig(identity=identity, overrides=overrides)


def load_config(path: str) -> list[SweepConfig]:
    """Read a config document, {"suite": [entry, ...]}."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    entries = doc["suite"] if isinstance(doc, Mapping) and set(doc) == {"suite"} else None
    if not isinstance(entries, list) or not entries:
        raise ValueError('config must be {"suite": [entry, ...]} with at least one entry')
    return [parse_config_entry(entry) for entry in entries]


def run_sweep(config: SweepConfig) -> Iterator[VerificationReport]:
    return run_identity(config.identity, config.overrides)
