"""The benchmark's three workloads: seeded inputs, timed passes, checks.

Each workload runs in passes.  A pass draws its inputs from the run's
seeded generator, times every unit of work on its own, and then checks the
outputs against references the benchmark computes itself.  Input
generation and checking happen outside the timed units.

    suite      units are reports of ``verify all --format json``, driven
               in-process through ``deltafrac.cli.main``
    windows    units are operator calls on seeded grid-function windows
    pointwise  units are special-function calls at seeded rational points

A unit fails when it raises, when a report has status mismatch or
float_only, or when its output disagrees with the reference.
"""
from __future__ import annotations

import hashlib
import io
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

from deltafrac import cli, exact, fracops, gridfn, special

Q = Fraction


@dataclass
class PassResult:
    """One pass: wall time in units, each unit's (start, end) on the clock,
    one message per failed unit, and the sizes of the values it produced."""

    busy_s: float
    spans: list
    failures: list
    max_terms: int = 0
    max_coeff_bits: int = 0
    bytes_out: int = 0


def time_units(calls, tracer):
    """Run each zero-argument call under the clock; an exception is a result."""
    results, spans = [], []
    for call in calls:
        if tracer is not None:
            tracer.active = True
        start = perf_counter()
        try:
            result = call()
        except Exception as exc:  # counted as a failed unit by the caller
            result = exc
        spans.append((start, perf_counter()))
        if tracer is not None:
            tracer.active = False
        results.append(result)
    return results, spans


def coeff_bits(q: Fraction) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def poly_size(terms: dict) -> tuple[int, int]:
    """Term count and largest coefficient bit length of a term map."""
    return len(terms), max((coeff_bits(c) for c in terms.values()), default=0)


def falling_rational(x: Fraction, k: int) -> Fraction:
    product = Q(1)
    for j in range(k):
        product *= x - j
    return product


def rising_rational(x: Fraction, k: int) -> Fraction:
    product = Q(1)
    for j in range(k):
        product *= x + j
    return product


# ---------------------------------------------------------------- suite


SUITE = (
    "bridge", "index-law", "binom-falling", "binom-poch", "alt-sum",
    "power-rule", "gamma-sum", "nabla-zero", "mr-ae", "leibniz", "form1",
    "saalschutz",
)
SEEDED = frozenset({"binom-falling", "binom-poch", "alt-sum", "mr-ae", "leibniz"})
TINY_SUITE = {
    "bridge": {},
    "binom-falling": {"count": 5},
    "alt-sum": {"count": 3, "window": 5},
    "gamma-sum": {"n_extra": 1},
    "mr-ae": {"count": 2, "max_window": 5},
    "leibniz": {"count": 1, "window": 4},
    "form1": {"n_max": 1},
}

# The default suite at seed 1729: the digest of its JSON stream with
# abs_float_gap dropped from every line, its status counts, and the digest
# of each identity's lines.  Identities outside SEEDED ignore the seed, so
# their digests hold at every seed.
GOLDEN_SEED = 1729
GOLDEN_DIGEST = "bf26bdf4bc30da4ebf387794c88069ac3a6a60f3e9f8a7b2b08360321e8541a9"
GOLDEN_COUNTS = {"exact": 5691, "domain_excluded": 3, "pole": 3}
GOLDEN_IDENTITY_DIGESTS = {
    "bridge": "10a6548f0c39a8a67ac46da617e71016eff49d7fdf6b64f617519f026fb6821b",
    "index-law": "b645151141acb6444b4f0a7a16020ef61c3a5123f8dd2182fd36b37f26fe2a32",
    "binom-falling": "721c6272bfec2b343ac285f3e6e4a39ec99c510fac789065bb35ccbb85bf8199",
    "binom-poch": "ea88f40b1fd941e0d3542603a94d63555e37e74d2620011cc24c6a2df85a5499",
    "alt-sum": "0184c019547b9f00626891718bae37215a69e91b82a948b0b2fc30c1eee9528a",
    "power-rule": "a3d7e0ab075d8b9a2b1c4202796629d5726720f24759eb0f0cb1541b20a70844",
    "gamma-sum": "b801eeb641ca6f968e857374c5da8c45d499a4607730f73b90bf467ea6e65639",
    "nabla-zero": "62f4f1c600a930dd3c71f2cdd33b5184d9d3152bddec159f71232c101898e99c",
    "mr-ae": "a559ac3425996de8845a53155617350dd82a564cbe798422f90eff629272d9bc",
    "leibniz": "b0bbda738fc464657d78072b358ab987fffdb397dcdfe626e8dc5bc0b96b4524",
    "form1": "eaf4b773a7d92fc8ad8e45bc2b0a34899ed97fb67cfe360a21066f10e1891d07",
    "saalschutz": "0bd43ddadc45f264cc0f264493a66f4f3fcbc42f6d0a66a6a855a9898f8a163b",
}
FAILING_STATUSES = frozenset({"mismatch", "float_only"})

_COEFF_RE = re.compile(r"(?:^| \+ )(-?\d+)(?:/(\d+))?")


def rendered_size(text: str) -> tuple[int, int]:
    """Term count and largest coefficient bit length of a rendered value."""
    if text in ("", "0", "pole"):
        return 0, 0
    bits = 0
    for numerator, denominator in _COEFF_RE.findall(text):
        bits = max(bits, int(numerator).bit_length(), int(denominator or 1).bit_length())
    return text.count(" + ") + 1, bits


class _LineSink(io.RawIOBase):
    """Binary stdout for the CLI that stamps the time of every write."""

    def __init__(self) -> None:
        super().__init__()
        self.writes: list[tuple[float, bytes]] = []

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        if data:
            self.writes.append((perf_counter(), bytes(data)))
        return len(data)


class Suite:
    unit = "report"

    def __init__(self, seed: int, tiny: bool, expect_digest: str | None, workdir: str):
        entries = []
        for name in TINY_SUITE if tiny else SUITE:
            entry = {"identity": name, **(TINY_SUITE[name] if tiny else {})}
            if name in SEEDED:
                entry["seed"] = seed
            entries.append(entry)
        os.makedirs(workdir, exist_ok=True)
        self.config_path = os.path.join(workdir, f"suite-{seed}{'-tiny' if tiny else ''}.json")
        with open(self.config_path, "w", encoding="utf-8") as handle:
            json.dump({"suite": entries}, handle)
        self.argv = ["verify", "all", "--config", self.config_path, "--format", "json"]
        full_golden = not tiny and seed == GOLDEN_SEED
        self.expect_digest = expect_digest or (GOLDEN_DIGEST if full_golden else None)
        self.expect_counts = GOLDEN_COUNTS if full_golden and expect_digest is None else None
        if tiny:
            self.identity_digests = {}
        elif full_golden:
            self.identity_digests = GOLDEN_IDENTITY_DIGESTS
        else:
            self.identity_digests = {
                name: digest
                for name, digest in GOLDEN_IDENTITY_DIGESTS.items()
                if name not in SEEDED
            }
        self.main = cli.main

    def run_pass(self, rng, tracer) -> PassResult:
        sink = _LineSink()
        stdout = io.TextIOWrapper(sink, encoding="utf-8", write_through=True)
        stderr = io.StringIO()
        saved = sys.stdout, sys.stderr
        main = self.main
        if tracer is not None:
            main = tracer.span("cli", "cli.main", self.main)
            tracer.active = True
        sys.stdout, sys.stderr = stdout, stderr
        start = perf_counter()
        try:
            main(self.argv, standalone_mode=False)
            outcome = "returned without an exit code"
        except SystemExit as exc:
            outcome = None if exc.code == 0 else f"exit code {exc.code}"
        except Exception as exc:  # counted as a failed unit below
            outcome = f"raised {exc!r}"
        end = perf_counter()
        sys.stdout, sys.stderr = saved
        if tracer is not None:
            tracer.active = False
        return self._check(sink.writes, start, end, outcome, stderr.getvalue())

    def _check(self, writes, start, end, outcome, stderr) -> PassResult:
        """Latency per emitted line, and every failed report keyed by its index."""
        result = PassResult(end - start, [], [])
        failed: dict = {}
        digest = hashlib.sha256()
        by_identity: dict = {}  # name -> (digest, line indices)
        counts: dict = {}
        previous = start
        for index, (stamp, data) in enumerate(writes):
            result.spans.append((previous, stamp))
            previous = stamp
            result.bytes_out += len(data)
            try:
                doc = json.loads(data)
                doc.pop("abs_float_gap")
                name, status, sides = doc["identity"], doc["status"], (doc["lhs"], doc["rhs"])
            except (ValueError, KeyError, TypeError, AttributeError):
                failed[index] = f"not a report line: {data[:120]!r}"
                continue
            line = (json.dumps(doc, sort_keys=True) + "\n").encode()
            digest.update(line)
            entry = by_identity.setdefault(name, (hashlib.sha256(), []))
            entry[0].update(line)
            entry[1].append(index)
            counts[status] = counts.get(status, 0) + 1
            if status in FAILING_STATUSES:
                failed[index] = f"{name} {doc['params']}: {status}"
            for side in sides:
                terms, bits = rendered_size(side)
                result.max_terms = max(result.max_terms, terms)
                result.max_coeff_bits = max(result.max_coeff_bits, bits)
        if outcome is not None:
            failed[len(result.spans)] = f"verify all: {outcome}; stderr: {stderr.strip()[-300:]}"
            result.spans.append((previous, end))
        for name, expected in self.identity_digests.items():
            got, indices = by_identity.get(name, (None, []))
            if got is None or got.hexdigest() != expected:
                message = f"{name}: stream differs from the seed-{GOLDEN_SEED} reference"
                for index in indices or [f"missing {name}"]:
                    failed.setdefault(index, message)
        if self.expect_counts is not None and counts != self.expect_counts:
            failed.setdefault("counts", f"status counts {counts} != {self.expect_counts}")
        if self.expect_digest is not None and digest.hexdigest() != self.expect_digest and not failed:
            # No culprit found, so the whole stream counts as wrong.
            failed = {i: "stream digest differs from the expected digest" for i in range(len(writes))}
        result.failures = list(failed.values())
        return result


# ---------------------------------------------------------------- windows


ORDERS = (Q(1, 2), Q(-1, 3), Q(5, 2))
DIFF_MUS = (Q(1, 2), Q(1, 3), Q(2, 3))
FALLPOW_MUS = (Q(1, 3), Q(1, 2))
# (kind, length, windows per pass).  Each window takes six operator calls,
# five convolutions and one delta_n.  The many short windows put the median
# call among the 80 L=16 rational convolutions and the 90th percentile in
# the middle of the 15 L=64 rational ones, away from the edges between
# size classes; the L=256 window takes most of the time.
WINDOW_MIX = (
    ("rational", 16, 16),
    ("rational", 64, 3),
    ("rational", 256, 1),
    ("gamma", 16, 4),
    ("gamma", 64, 1),
)
TINY_WINDOW_MIX = (("rational", 8, 1), ("gamma", 6, 1))


def _random_rational(rng, num: int, den: int) -> Fraction:
    return Q(rng.randint(-num, num), rng.randint(1, den))


def _nonzero_rational(rng, num: int, den: int) -> Fraction:
    return Q(rng.choice([-1, 1]) * rng.randint(1, num), rng.randint(1, den))


def _ratio_column(first: Fraction, shift: Fraction, length: int) -> list:
    """first * (shift)_i / i! for i < length, by the ratio of successive terms."""
    column = [first]
    for i in range(1, length):
        column.append(column[-1] * (shift + i - 1) / i)
    return column


def _fallpow_column(mu: Fraction, length: int) -> list:
    """Coefficients of Gamma(mu) in falling(mu + i, mu) = mu (mu+1)_i / i! Gamma(mu)."""
    return _ratio_column(mu, mu + 1, length)


def _conv_reference(column: list, nu: Fraction) -> list:
    """Convolution with the weights (nu)_j / j!, on one common denominator."""
    weights = _ratio_column(Q(1), nu, len(column))
    weight_den = math.lcm(*(w.denominator for w in weights))
    column_den = math.lcm(*(c.denominator for c in column))
    w = [x.numerator * (weight_den // x.denominator) for x in weights]
    c = [x.numerator * (column_den // x.denominator) for x in column]
    scale = weight_den * column_den
    return [
        Q(sum(w[n - i] * c[i] for i in range(n + 1)), scale)
        for n in range(len(column))
    ]


def _power_rule_reference(q: Fraction, mu: Fraction, nu: Fraction, length: int) -> list:
    """Order-nu sum of q * falling-power column: q mu (mu+nu+1)_n / n!."""
    return _ratio_column(q * mu, mu + nu + 1, length)


def _diff_reference(column: list, n: int) -> list:
    signs = [(-1) ** (n - j) * math.comb(n, j) for j in range(n + 1)]
    return [
        sum(signs[j] * column[k + j] for j in range(n + 1))
        for k in range(len(column) - n)
    ]


@dataclass
class _Window:
    origin: Fraction
    columns: dict  # signature -> list of coefficients
    fallpow: dict = field(default_factory=dict)  # signature -> (q, mu)
    grid: object = None

    def sum_reference(self, nu: Fraction) -> dict:
        length = len(self.columns[()])
        expected = {}
        for signature, column in self.columns.items():
            if signature in self.fallpow:
                q, mu = self.fallpow[signature]
                expected[signature] = _power_rule_reference(q, mu, nu, length)
            else:
                expected[signature] = _conv_reference(column, nu)
        return expected


def _compare_window(result, origin: Fraction, expected: dict) -> str | None:
    """None when the GridFunction matches origin and every column."""
    if not isinstance(result, gridfn.GridFunction):
        return f"returned {result!r}"
    if result.origin != origin:
        return f"origin {result.origin} != {origin}"
    length = len(next(iter(expected.values())))
    if len(result) != length:
        return f"length {len(result)} != {length}"
    for n, value in enumerate(result.values):
        want = {s: column[n] for s, column in expected.items() if column[n] != 0}
        if value.terms() != want:
            return f"value at index {n} differs from the reference"
    return None


class Windows:
    unit = "operator call"

    def __init__(self, seed: int, tiny: bool, expect_digest=None, workdir=None):
        self.mix = TINY_WINDOW_MIX if tiny else WINDOW_MIX

    def _window(self, rng, kind: str, length: int) -> _Window:
        origin = _random_rational(rng, 8, 6)
        # Numerators and denominators each cycle through 1..9 in a seeded
        # order, with seeded signs, so windows of one length cost about the
        # same at every seed.
        nums = [1 + i % 9 for i in range(length)]
        dens = [1 + i % 9 for i in range(length)]
        rng.shuffle(nums)
        rng.shuffle(dens)
        rational = [Q(rng.choice((-1, 1)) * num, den) for num, den in zip(nums, dens)]
        window = _Window(origin, {(): rational})
        if kind == "gamma":
            for mu in FALLPOW_MUS:
                q = _nonzero_rational(rng, 9, 9)
                signature = ((mu, 1),)
                window.columns[signature] = [q * c for c in _fallpow_column(mu, length)]
                window.fallpow[signature] = (q, mu)
        values = [
            exact.GammaPolynomial(
                {s: column[i] for s, column in window.columns.items()}
            )
            for i in range(length)
        ]
        window.grid = gridfn.GridFunction(origin, values)
        return window

    def run_pass(self, rng, tracer) -> PassResult:
        # The difference orders cycle within each size class, so every pass
        # makes the same kinds of call; the seed draws the values.
        windows = [
            (self._window(rng, kind, length), 1 + j % 3, DIFF_MUS[j % 3])
            for kind, length, count in self.mix
            for j in range(count)
        ]
        plans = []
        for window, diff_order, mu in windows:
            f = window.grid
            calls = [
                ("frac_sum_diff", nu, lambda f=f, nu=nu: fracops.frac_sum_diff(f, nu))
                for nu in ORDERS
            ]
            calls.append(("delta_n", diff_order, lambda f=f, n=diff_order: gridfn.delta_n(f, n)))
            calls.append(("mr_frac_diff", mu, lambda f=f, mu=mu: fracops.mr_frac_diff(f, mu)))
            calls.append(("ae_frac_diff", mu, lambda f=f, mu=mu: fracops.ae_frac_diff(f, mu)))
            plans.append((window, calls))
        flat = [call for _, calls in plans for _, _, call in calls]
        results, spans = time_units(flat, tracer)
        outcome = PassResult(sum(e - b for b, e in spans), spans, [])
        position = 0
        for window, calls in plans:
            mr_values = None
            for op, arg, _ in calls:
                result = results[position]
                position += 1
                error = self._check_call(window, op, arg, result)
                if error is not None:
                    outcome.failures.append(f"{op}({arg}) on length {len(window.grid)}: {error}")
                    continue
                if op == "mr_frac_diff":
                    mr_values = result.values
                elif op == "ae_frac_diff" and mr_values is not None:
                    if any(v != mr_values[k + 1] for k, v in enumerate(result.values)):
                        outcome.failures.append(f"ae_frac_diff({arg}) disagrees with mr_frac_diff")
                for value in result.values:
                    terms, bits = poly_size(value.terms())
                    outcome.max_terms = max(outcome.max_terms, terms)
                    outcome.max_coeff_bits = max(outcome.max_coeff_bits, bits)
        return outcome

    @staticmethod
    def _check_call(window: _Window, op: str, arg, result) -> str | None:
        if isinstance(result, Exception):
            return f"raised {result!r}"
        origin = window.origin
        if op == "frac_sum_diff":
            return _compare_window(result, origin + arg, window.sum_reference(arg))
        if op == "delta_n":
            expected = {s: _diff_reference(c, arg) for s, c in window.columns.items()}
            return _compare_window(result, origin, expected)
        if op == "mr_frac_diff":
            return _compare_window(result, origin - arg, window.sum_reference(-arg))
        summed = window.sum_reference(1 - arg)
        expected = {s: _diff_reference(c, 1) for s, c in summed.items()}
        return _compare_window(result, origin + 1 - arg, expected)


# ---------------------------------------------------------------- pointwise


POINT_NUM = 400
POINT_DEN = 12
BINOMIAL_N_MAX = 24
NABLA_T_MIN, NABLA_T_MAX = 16, 128
# Per pass: bridge pairs (two calls each), gen_binomial calls, gamma_of
# calls and nabla_poch_diff calls.  The nabla calls are about 2% of the
# units, so the 99th percentile falls in the middle of their t_index range.
POINTWISE_MIX = {"bridge": 250, "binomial": 250, "gamma": 250, "nabla": 20}
TINY_POINTWISE_MIX = {"bridge": 10, "binomial": 10, "gamma": 10, "nabla": 2}
TINY_NABLA_T_MAX = 20
# Bridge pairs take t from stratum k and alpha from stratum k * STRIDE mod
# the count: a fixed scramble (the stride is prime to 250 and to 10), so
# the pairs cost about the same at every seed.
PAIRING_STRIDE = 101


def _gamma_reference(x: Fraction):
    """Gamma(x) as (coefficient, factors) by the shift recurrence, x not in 0, -1, ..."""
    if x.denominator == 1:
        return Q(math.factorial(int(x) - 1)), ()
    shift = math.floor(x)
    base = x - shift
    if shift >= 0:
        coeff = rising_rational(base, shift)
    else:
        coeff = 1 / rising_rational(x, -shift)
    return coeff, ((base, 1),)


def _same_special(left, right) -> bool:
    return left.kind == right.kind and left.value == right.value


class Pointwise:
    unit = "function call"

    def __init__(self, seed: int, tiny: bool, expect_digest=None, workdir=None):
        self.mix = TINY_POINTWISE_MIX if tiny else POINTWISE_MIX
        self.t_max = TINY_NABLA_T_MAX if tiny else NABLA_T_MAX

    @staticmethod
    def _points(rng, count: int) -> list:
        """Seeded points p/q, |p| <= POINT_NUM, q <= POINT_DEN, spread evenly.

        Point k draws its numerator within the k-th stratum of the range,
        and its denominator is 1 + k mod POINT_DEN.  The numerator moves to
        the nearest one prime to the denominator, so the point keeps that
        denominator in lowest terms.  Every seed then spends about the same
        time on the shift loops, which grow with |p|/q, and takes the same
        branches, which depend on q.  The points come in stratum order;
        run_pass shuffles the units.
        """
        points = []
        for k in range(count):
            low = -POINT_NUM + 2 * POINT_NUM * k // count
            high = -POINT_NUM + 2 * POINT_NUM * (k + 1) // count
            den = 1 + k % POINT_DEN
            drawn = rng.randint(low, max(low, high - 1))
            num = min(
                (n for n in range(-POINT_NUM, POINT_NUM + 1) if math.gcd(n, den) == 1),
                key=lambda n: (abs(n - drawn), n),
            )
            points.append(Q(num, den))
        return points

    def _nabla_args(self, rng) -> list:
        """t_index evenly over [NABLA_T_MIN, t_max]; p = j/d in (0, 3), not an integer.

        Denominators and alpha - p cycle with t_index, so every pass costs
        about the same; the seed picks the numerators and the origin.
        """
        count = self.mix["nabla"]
        span = self.t_max - NABLA_T_MIN
        args = []
        for k in range(count):
            t_index = NABLA_T_MIN + round(span * k / max(count - 1, 1))
            den = 2 + k % 5
            p = Q(rng.choice([j for j in range(1, 3 * den) if j % den]), den)
            alpha = p + 1 + k % 3
            args.append((_random_rational(rng, 8, 6), p, alpha, t_index))
        return args

    def run_pass(self, rng, tracer) -> PassResult:
        units = []  # (kind, payload, call)
        count = self.mix["bridge"]
        ts, alphas = self._points(rng, count), self._points(rng, count)
        for k, t in enumerate(ts):
            alpha = alphas[k * PAIRING_STRIDE % count]
            pair = {"t": t, "alpha": alpha}
            units.append(("falling", pair, lambda x=t + alpha - 1, y=alpha: special.falling(x, y)))
            units.append(("pochhammer", pair, lambda x=t, y=alpha: special.pochhammer(x, y)))
        count = self.mix["binomial"]
        orders = [k % (BINOMIAL_N_MAX + 1) for k in range(count)]
        for alpha, n in zip(self._points(rng, count), orders):
            units.append(("gen_binomial", (alpha, n), lambda a=alpha, n=n: special.gen_binomial(a, n)))
        for x in self._points(rng, self.mix["gamma"]):
            if x.denominator == 1 and x <= 0:
                x = -x or Q(1)  # the poles of Gamma
            units.append(("gamma_of", x, lambda x=x: exact.gamma_of(x)))
        for args in self._nabla_args(rng):
            units.append(("nabla_poch_diff", args, lambda args=args: fracops.nabla_poch_diff(*args)))
        rng.shuffle(units)
        results, spans = time_units([call for _, _, call in units], tracer)
        outcome = PassResult(sum(e - b for b, e in spans), spans, [])
        pairs: dict = {}
        for (kind, payload, _), result in zip(units, results):
            error = None
            if isinstance(result, Exception):
                error = f"raised {result!r}"
            elif kind in ("falling", "pochhammer"):
                pairs.setdefault(id(payload), (payload, {}))[1][kind] = result
                if result.is_finite:
                    self._observe(outcome, {result.value.factors: result.value.coeff})
            elif kind == "gen_binomial":
                alpha, n = payload
                if result != falling_rational(alpha, n) / math.factorial(n):
                    error = "differs from the product formula"
                self._observe(outcome, {(): result})
            elif kind == "gamma_of":
                coeff, factors = _gamma_reference(payload)
                if (result.coeff, result.factors) != (coeff, factors):
                    error = "differs from the shift recurrence"
                self._observe(outcome, {result.factors: result.coeff})
            else:
                if not result.is_zero:
                    error = "does not vanish although alpha - p is a positive integer"
                self._observe(outcome, result.terms())
            if error is not None:
                outcome.failures.append(f"{kind}{payload}: {error}")
        for payload, values in pairs.values():
            lhs, rhs = values.get("falling"), values.get("pochhammer")
            if lhs is None or rhs is None:
                continue  # the raising call is already counted
            if not _same_special(lhs, rhs):
                outcome.failures.extend(
                    [f"bridge at {payload}: {lhs.render()} != {rhs.render()}"] * 2
                )
        return outcome

    @staticmethod
    def _observe(outcome: PassResult, terms: dict) -> None:
        count, bits = poly_size({s: c for s, c in terms.items() if c != 0})
        outcome.max_terms = max(outcome.max_terms, count)
        outcome.max_coeff_bits = max(outcome.max_coeff_bits, bits)


WORKLOADS = {"suite": Suite, "windows": Windows, "pointwise": Pointwise}
