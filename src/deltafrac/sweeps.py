"""Named verification sweeps with deterministic defaults.

Each identity registers a runner that yields VerificationReports in a
fixed order.  Default sweeps are seeded, so two runs of the same
invocation produce byte-identical report streams.  Overrides come from
CLI flags or from a JSON sweep configuration; pinning every parameter of
a grid identity collapses the sweep to a single point.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import product
from typing import Callable, Iterable, Iterator, Mapping

from .exact import (
    as_rational,
    is_negative_integer,
    is_nonpositive_integer,
    parse_rational,
)
from .fracops import FracOrder, ae_frac_diff, frac_sum_diff, mr_frac_diff
from .gridfn import GridFunction
from .identities import (
    alt_sum_lemma_check,
    binom_falling_check,
    binom_poch_check,
    gamma_sum_check,
    leibniz_sweep,
    nabla_zero_check,
    power_rule_verify,
    prop_form1_check,
    saalschutz_hypothesis_violation,
    saalschutz_verify,
)
from .report import VerificationReport, report_compare, report_excluded
from .special import falling_poch_bridge_check, index_law_check

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
# The verify flags and the config loader are both built from this table.
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


def _random_rational(rng: random.Random, num_bound: int = 8, den_bound: int = 6) -> Fraction:
    return Fraction(rng.randint(-num_bound, num_bound), rng.randint(1, den_bound))


def _random_values(rng: random.Random, length: int) -> tuple:
    return tuple(
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(length)
    )


def _as_list(value) -> list:
    return list(value) if isinstance(value, (list, tuple)) else [value]


def _grid(ov: Mapping, key: str, default: Iterable) -> list:
    return _as_list(ov[key]) if key in ov else list(default)


def _int_scalar(ov: Mapping, key: str, default: int) -> int:
    value = ov.get(key, default)
    if isinstance(value, (list, tuple)):
        raise ValueError(f"{key} takes a single value")
    value = as_rational(value) if not isinstance(value, int) else Fraction(value)
    if value.denominator != 1:
        raise ValueError(f"{key} must be an integer")
    return int(value)


def _run_bridge(ov: Mapping) -> Iterator[VerificationReport]:
    ts = _grid(ov, "t", [_Q(3), _Q(1, 2), _Q(1, 3), _Q(5, 2), _Q(-1, 2), _Q(-2)])
    alphas = _grid(ov, "alpha", [_Q(2), _Q(0), _Q(1, 2), _Q(1, 3), _Q(-1, 2), _Q(5, 2)])
    for t, alpha in product(ts, alphas):
        yield falling_poch_bridge_check(t, alpha)


def _run_index_law(ov: Mapping) -> Iterator[VerificationReport]:
    ts = _grid(ov, "t", [_Q(5), _Q(7, 2), _Q(1, 2), _Q(-1, 3), _Q(9, 4)])
    alphas = _grid(ov, "alpha", [_Q(1), _Q(1, 2), _Q(1, 3), _Q(-1, 2)])
    betas = _grid(ov, "beta", [_Q(0), _Q(2), _Q(1, 3), _Q(-5, 2)])
    for t, alpha, beta in product(ts, alphas, betas):
        yield index_law_check(t, alpha, beta)


def _run_binom(ov: Mapping, check: Callable) -> Iterator[VerificationReport]:
    rng = random.Random(_int_scalar(ov, "seed", DEFAULT_SEED))
    count = _int_scalar(ov, "count", 200)
    n_max = _int_scalar(ov, "n_max", 12)
    if all(key in ov for key in ("x", "y", "n")):
        yield check(_as_list(ov["x"])[0], _as_list(ov["y"])[0], _int_scalar(ov, "n", 0))
        return
    for _ in range(count):
        x = _as_list(ov["x"])[0] if "x" in ov else _random_rational(rng)
        y = _as_list(ov["y"])[0] if "y" in ov else _random_rational(rng)
        n = _int_scalar(ov, "n", -1) if "n" in ov else rng.randint(0, n_max)
        yield check(x, y, n)


def _run_alt_sum(ov: Mapping) -> Iterator[VerificationReport]:
    rng = random.Random(_int_scalar(ov, "seed", DEFAULT_SEED))
    count = _int_scalar(ov, "count", 200)
    window = _int_scalar(ov, "window", 13)
    for _ in range(count):
        origin = _random_rational(rng)
        g = GridFunction(origin, _random_values(rng, window))
        alpha = _as_list(ov["alpha"])[0] if "alpha" in ov else _random_rational(rng)
        k = _int_scalar(ov, "k", 0) if "k" in ov else rng.randint(0, window - 1)
        t_index = (
            _int_scalar(ov, "t_index", 0)
            if "t_index" in ov
            else rng.randint(k, window - 1)
        )
        yield alt_sum_lemma_check(g, alpha, k, t_index)


def _run_power_rule(ov: Mapping) -> Iterator[VerificationReport]:
    a_values = _grid(ov, "a", [_Q(0), _Q(1, 4), _Q(-3)])
    mu_values = _grid(ov, "mu", [_Q(0), _Q(1, 2), _Q(1, 3), _Q(5, 2), _Q(-1, 2)])
    nu_values = _grid(ov, "nu", [_Q(1, 2), _Q(3, 2), _Q(-1, 2), _Q(-5, 2), _Q(2)])
    n_max = _int_scalar(ov, "n_max", 12)
    for a, mu, nu in product(a_values, mu_values, nu_values):
        if is_negative_integer(mu) or is_nonpositive_integer(nu):
            continue
        yield from power_rule_verify(a, mu, nu, n_max)


def _run_gamma_sum(ov: Mapping) -> Iterator[VerificationReport]:
    mu_values = _grid(ov, "mu", [_Q(1, 2), _Q(1, 3)])
    m_values = _grid(ov, "m", [1, 2, 3])
    n_extra = _int_scalar(ov, "n_extra", 8)
    for mu in mu_values:
        mu = as_rational(mu)
        if "nu" in ov:
            nu_values = [as_rational(v) for v in _as_list(ov["nu"])]
        else:
            nu_values = [-as_rational(m) - mu for m in m_values]
        for nu in nu_values:
            total_order = mu + nu
            if not is_negative_integer(total_order):
                # surfaces the precondition as a DomainError
                yield gamma_sum_check(mu, nu, 0)
                continue
            m = int(-total_order)
            if "n" in ov:
                ns = [_int_scalar(ov, "n", 0)]
            else:
                ns = list(range(m, m + n_extra + 1))
            for n in ns:
                yield gamma_sum_check(mu, nu, n)


def _run_nabla_zero(ov: Mapping) -> Iterator[VerificationReport]:
    a_values = _grid(ov, "a", [_Q(0), _Q(1, 4), _Q(-2)])
    p_values = _grid(ov, "p", [_Q(1, 2), _Q(1, 3)])
    m_values = _grid(ov, "m", [1, 2, 3])
    t_extra = _int_scalar(ov, "t_extra", 6)
    for a, p in product(a_values, p_values):
        p = as_rational(p)
        if "alpha" in ov:
            alpha_values = [as_rational(v) for v in _as_list(ov["alpha"])]
        else:
            alpha_values = [p + as_rational(m) for m in m_values]
        for alpha in alpha_values:
            m = alpha - p
            if m.denominator != 1 or m < 1:
                # surfaces the precondition as a DomainError
                yield nabla_zero_check(a, p, alpha, 1)
                continue
            if "t_index" in ov:
                ts = [_int_scalar(ov, "t_index", 1)]
            else:
                ts = list(range(1 + int(m), 1 + int(m) + t_extra + 1))
            for t_index in ts:
                yield nabla_zero_check(a, p, alpha, t_index)


def _run_mr_ae(ov: Mapping) -> Iterator[VerificationReport]:
    rng = random.Random(_int_scalar(ov, "seed", DEFAULT_SEED))
    count = _int_scalar(ov, "count", 50)
    max_window = _int_scalar(ov, "max_window", 12)
    mu_values = _grid(ov, "mu", [_Q(1, 2), _Q(1, 3), _Q(2, 3), _Q(3, 2)])
    low = min(4, max_window)
    for i in range(count):
        length = rng.randint(low, max_window) if max_window > low else low
        origin = _random_rational(rng)
        f = GridFunction(origin, _random_values(rng, length))
        for mu in mu_values:
            mu = as_rational(mu)
            n = math.ceil(mu)
            stepped = ae_frac_diff(f, mu)
            if 0 < mu < 1:
                direct = mr_frac_diff(f, mu)
            else:
                direct = frac_sum_diff(f, FracOrder(-mu))
            for k in range(len(stepped)):
                yield report_compare(
                    "mr-ae",
                    {"window": i, "mu": mu, "t": stepped.point(k)},
                    stepped.values[k],
                    direct.values[k + n],
                )


def _run_leibniz(ov: Mapping) -> Iterator[VerificationReport]:
    rng = random.Random(_int_scalar(ov, "seed", DEFAULT_SEED))
    count = _int_scalar(ov, "count", 50)
    window = _int_scalar(ov, "window", 10)
    alpha_values = _grid(ov, "alpha", [_Q(1, 2), _Q(1, 3), _Q(5, 2)])
    for _ in range(count):
        origin = _random_rational(rng)
        f = GridFunction(origin, _random_values(rng, window))
        g = GridFunction(origin, _random_values(rng, window))
        for alpha in alpha_values:
            yield from leibniz_sweep(f, g, alpha)


def _run_form1(ov: Mapping) -> Iterator[VerificationReport]:
    alpha_values = _grid(ov, "alpha", [_Q(1, 2), _Q(3, 2)])
    beta_values = _grid(ov, "beta", [_Q(1, 4), _Q(1, 2)])
    gamma_values = _grid(ov, "gamma", [_Q(1, 3), _Q(2), _Q(5, 2)])
    n_max = _int_scalar(ov, "n_max", 8)
    ns = [_int_scalar(ov, "n", 0)] if "n" in ov else list(range(n_max + 1))
    for alpha, beta, gamma in product(alpha_values, beta_values, gamma_values):
        for n in ns:
            yield prop_form1_check(alpha, beta, gamma, n)


def _run_saalschutz(ov: Mapping) -> Iterator[VerificationReport]:
    a_values = _grid(ov, "a", [_Q(1, 2), _Q(-1, 2), _Q(1, 3), _Q(1, 5), _Q(3, 2)])
    b_values = _grid(ov, "b", [_Q(1, 2), _Q(-1, 2), _Q(1, 3), _Q(1, 5), _Q(3, 2)])
    c_values = _grid(ov, "c", [_Q(2), _Q(7, 4), _Q(5, 3)])
    force = bool(ov.get("force", False))
    if "m" in ov:
        ms = [_int_scalar(ov, "m", 0)]
    else:
        ms = list(range(_int_scalar(ov, "m_max", 10) + 1))
    # a single fully-pinned point reports its exclusion instead of vanishing
    point_mode = all(
        key in ov and not isinstance(ov[key], (list, tuple))
        for key in ("a", "b", "c", "m")
    )
    for a, b, c, m in product(a_values, b_values, c_values, ms):
        violation = saalschutz_hypothesis_violation(a, b, c, m)
        if violation is None or force:
            yield saalschutz_verify(a, b, c, m, force=force)
        elif point_mode:
            yield report_excluded(
                "saalschutz",
                {"a": as_rational(a), "b": as_rational(b), "c": as_rational(c), "m": m},
                violation,
            )
        # swept points outside the hypotheses are filtered silently


@dataclass(frozen=True)
class IdentityEntry:
    name: str
    allowed: frozenset
    run: Callable[[Mapping], Iterator[VerificationReport]]


_COMMON_RANDOM = {"seed", "count"}

REGISTRY: dict[str, IdentityEntry] = {
    entry.name: entry
    for entry in [
        IdentityEntry("bridge", frozenset({"t", "alpha"}), _run_bridge),
        IdentityEntry("index-law", frozenset({"t", "alpha", "beta"}), _run_index_law),
        IdentityEntry(
            "binom-falling",
            frozenset({"x", "y", "n", "n_max"} | _COMMON_RANDOM),
            partial(_run_binom, check=binom_falling_check),
        ),
        IdentityEntry(
            "binom-poch",
            frozenset({"x", "y", "n", "n_max"} | _COMMON_RANDOM),
            partial(_run_binom, check=binom_poch_check),
        ),
        IdentityEntry(
            "alt-sum",
            frozenset({"alpha", "k", "t_index", "window"} | _COMMON_RANDOM),
            _run_alt_sum,
        ),
        IdentityEntry(
            "power-rule", frozenset({"a", "mu", "nu", "n_max"}), _run_power_rule
        ),
        IdentityEntry(
            "gamma-sum", frozenset({"mu", "nu", "m", "n", "n_extra"}), _run_gamma_sum
        ),
        IdentityEntry(
            "nabla-zero",
            frozenset({"a", "p", "alpha", "m", "t_index", "t_extra"}),
            _run_nabla_zero,
        ),
        IdentityEntry(
            "mr-ae", frozenset({"mu", "max_window"} | _COMMON_RANDOM), _run_mr_ae
        ),
        IdentityEntry(
            "leibniz", frozenset({"alpha", "window"} | _COMMON_RANDOM), _run_leibniz
        ),
        IdentityEntry(
            "form1", frozenset({"alpha", "beta", "gamma", "n", "n_max"}), _run_form1
        ),
        IdentityEntry(
            "saalschutz",
            frozenset({"a", "b", "c", "m", "m_max", "force"}),
            _run_saalschutz,
        ),
    ]
}

SUITE_ORDER = list(REGISTRY)


def identity_names() -> list[str]:
    return list(SUITE_ORDER)


def run_identity(name: str, overrides: Mapping | None = None) -> Iterator[VerificationReport]:
    entry = REGISTRY.get(name)
    if entry is None:
        raise ValueError(f"unknown identity: {name}")
    ov = dict(overrides or {})
    unknown = set(ov) - entry.allowed
    if unknown:
        raise ValueError(
            f"unknown parameters for {name}: {', '.join(sorted(unknown))}"
        )
    for key in sorted(ov):
        if PARAMS[key] == SIZE and _int_scalar(ov, key, 0) < 0:
            raise ValueError(f"{key} must be nonnegative, got {ov[key]}")
    return entry.run(ov)


@dataclass(frozen=True)
class SweepConfig:
    identity: str
    overrides: dict = field(default_factory=dict)
    output: str | None = None


def default_suite() -> list[SweepConfig]:
    return [SweepConfig(name) for name in SUITE_ORDER]


_TOP_LEVEL_SCALARS = {key for key, kind in PARAMS.items() if kind != RATIONAL}


def _convert_scalar(key: str, raw) -> object:
    kind = PARAMS.get(key, RATIONAL)
    if kind == FLAG:
        if not isinstance(raw, bool):
            raise ValueError(f"{key} must be true or false")
        return raw
    if isinstance(raw, bool) or not isinstance(raw, (int, str)):
        raise ValueError(f"bad value for {key}: {raw!r}")
    value = parse_rational(raw) if isinstance(raw, str) else Fraction(raw)
    if kind == RATIONAL:
        return value
    if value.denominator != 1:
        raise ValueError(f"{key} must be an integer, got {raw!r}")
    return int(value)


def _convert_sweep(key: str, raw) -> list:
    if isinstance(raw, dict):
        spec = {"num_min": -8, "num_max": 8, "den_max": 6}
        unknown = set(raw) - set(spec)
        if unknown:
            raise ValueError(f"unknown range fields: {', '.join(sorted(unknown))}")
        spec.update({k: int(v) for k, v in raw.items()})
        return rational_range(**spec)
    if isinstance(raw, list):
        return [_convert_scalar(key, item) for item in raw]
    raise ValueError(f"swept parameter {key} needs a list or a range object")


def parse_config_entry(doc: Mapping) -> SweepConfig:
    if not isinstance(doc, Mapping):
        raise ValueError("each sweep entry must be a JSON object")
    known = {"identity", "fixed", "sweep", "output"} | _TOP_LEVEL_SCALARS
    unknown = set(doc) - known
    if unknown:
        raise ValueError(f"unknown config fields: {', '.join(sorted(unknown))}")
    identity = doc.get("identity")
    if not isinstance(identity, str):
        raise ValueError("config entry needs an 'identity' name")
    overrides: dict = {}
    for key, raw in (doc.get("fixed") or {}).items():
        overrides[key] = _convert_scalar(key, raw)
    for key, raw in (doc.get("sweep") or {}).items():
        overrides[key] = _convert_sweep(key, raw)
    for key in _TOP_LEVEL_SCALARS:
        if key in doc:
            overrides[key] = _convert_scalar(key, doc[key])
    output = doc.get("output")
    if output is not None and output not in ("json", "csv"):
        raise ValueError(f"output must be 'json' or 'csv', got {output!r}")
    return SweepConfig(identity=identity, overrides=overrides, output=output)


def load_config(path: str) -> list[SweepConfig]:
    """Read one sweep entry, a list of them, or {"suite": [...]}."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if isinstance(doc, Mapping) and "suite" in doc:
        entries = doc["suite"]
    elif isinstance(doc, list):
        entries = doc
    else:
        entries = [doc]
    if not isinstance(entries, list) or not entries:
        raise ValueError("config must contain at least one sweep entry")
    return [parse_config_entry(entry) for entry in entries]


def run_sweep(config: SweepConfig) -> Iterator[VerificationReport]:
    return run_identity(config.identity, config.overrides)
