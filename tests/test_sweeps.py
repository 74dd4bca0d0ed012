"""Sweep registry, deterministic defaults, and config parsing."""
import json
from fractions import Fraction as Q

import pytest

from deltafrac import (
    DomainError,
    GridFunction,
    SweepConfig,
    default_suite,
    identity_names,
    load_config,
    rational_range,
    run_identity,
    run_sweep,
)
from deltafrac import exact, identities, special
from deltafrac.sweeps import PARAMS, REGISTRY, parse_config_entry


class TestRationalRange:
    def test_default_box(self):
        values = rational_range()
        assert Q(1, 2) in values and Q(-8) in values and Q(5, 6) in values
        assert len(values) == len(set(values))  # reduced fractions only, no dupes

    def test_reduced_only(self):
        values = rational_range(num_min=0, num_max=4, den_max=2)
        assert values == [Q(0), Q(1), Q(2), Q(3), Q(4), Q(1, 2), Q(3, 2)]

    def test_deterministic_order(self):
        assert rational_range() == rational_range()


class TestRegistry:
    def test_names(self):
        assert identity_names() == [
            "bridge",
            "index-law",
            "binom-falling",
            "binom-poch",
            "alt-sum",
            "power-rule",
            "gamma-sum",
            "nabla-zero",
            "mr-ae",
            "leibniz",
            "form1",
            "saalschutz",
        ]

    def test_allowed_keys_are_params(self):
        for entry in REGISTRY.values():
            assert set(entry.defaults) <= set(PARAMS), entry.name

    def test_unknown_identity(self):
        with pytest.raises(ValueError, match="unknown identity"):
            list(run_identity("nope"))

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="unknown parameters for bridge"):
            list(run_identity("bridge", {"x": Q(1)}))

    @pytest.mark.parametrize("name, key", [("binom-poch", "x"), ("alt-sum", "alpha"), ("bridge", "t")])
    def test_empty_grid_is_refused(self, name, key):
        with pytest.raises(ValueError, match=f"{key} needs at least one value"):
            run_identity(name, {key: []})

    @pytest.mark.parametrize("name, key", [("binom-falling", "x"), ("binom-poch", "y"), ("alt-sum", "alpha")])
    def test_a_drawn_key_takes_one_value(self, name, key):
        with pytest.raises(ValueError, match=rf"^{key} takes a single value \(got 2\)$"):
            run_identity(name, {key: ["1/2", "1/3"], "count": 1})
        # a one-element list pins, like a bare value
        listed = [r.to_json_dict() for r in run_identity(name, {key: ["1/2"], "count": 2})]
        bare = [r.to_json_dict() for r in run_identity(name, {key: "1/2", "count": 2})]
        assert listed == bare
        assert {r["params"][key] for r in listed} == {"1/2"}

    def test_pinning_collapses_to_one_point(self):
        reports = list(run_identity("bridge", {"t": Q(1, 2), "alpha": Q(5, 2)}))
        assert len(reports) == 1
        assert reports[0].status == "exact"

    def test_binom_pinned_point(self):
        reports = list(run_identity("binom-falling", {"x": Q(3), "y": Q(4), "n": 2}))
        assert len(reports) == 1
        assert reports[0].lhs == "42"

    def test_saalschutz_point_mode_reports_exclusion(self):
        reports = list(
            run_identity("saalschutz", {"a": Q(0), "b": Q(1, 2), "c": Q(2), "m": 1})
        )
        assert len(reports) == 1
        assert reports[0].status == "domain_excluded"

    def test_saalschutz_sweep_filters_silently(self):
        # a sweep containing an inadmissible a-value just skips those points
        reports = list(
            run_identity("saalschutz", {"a": [Q(0), Q(1, 2)], "b": Q(1, 2), "c": Q(2), "m": 1})
        )
        assert len(reports) == 1
        assert reports[0].status == "exact"

    def test_power_rule_refuses_a_pin_off_the_rule_and_skips_a_swept_one(self):
        with pytest.raises(DomainError, match=r"^mu must not be a negative integer \(got -1\)$"):
            run_identity("power-rule", {"mu": Q(-1)})
        with pytest.raises(DomainError, match=r"^nu must not be a nonpositive integer \(got 0\)$"):
            run_identity("power-rule", {"nu": 0})
        reports = list(
            run_identity("power-rule", {"a": Q(0), "mu": [Q(-1), Q(1, 2)], "nu": Q(1, 2), "n_max": 1})
        )
        assert [r.params["mu"] for r in reports] == [Q(1, 2)] * 2

    def test_a_fault_in_the_rising_product_flips_statuses(self, monkeypatch):
        # every binding of the one rising product doubles its value at k = 4
        original = exact.poch_int

        def faulty(x, k):
            value = original(x, k)
            return 2 * value if k == 4 else value

        for module in (exact, special, identities):
            monkeypatch.setattr(module, "poch_int", faulty)
        mismatched = {
            rep.identity
            for config in default_suite()
            for rep in run_sweep(config)
            if rep.status == "mismatch"
        }
        assert {"binom-poch", "power-rule", "form1"} <= mismatched

    def test_a_fractional_sum_off_its_grid_is_a_mismatch(self, monkeypatch):
        # the values are right, but the output window starts one point late
        original = identities.frac_sum_diff

        def shifted(f, nu):
            out = original(f, nu)
            return GridFunction(out.origin + 1, out.values)

        monkeypatch.setattr(identities, "frac_sum_diff", shifted)
        for name, count in (("power-rule", 975), ("leibniz", 1500)):
            statuses = [rep.status for rep in run_identity(name)]
            assert statuses == ["mismatch"] * count

    def test_a_falling_power_off_its_grid_is_a_mismatch(self, monkeypatch):
        # sampled at the right values, but on {a, a+1, ...} instead of {a+mu, ...}
        original = identities.sample_falling_power

        def shifted(a, mu, length):
            out = original(a, mu, length)
            return GridFunction(out.origin - Q(mu), out.values)

        monkeypatch.setattr(identities, "sample_falling_power", shifted)
        statuses = [rep.status for rep in run_identity("power-rule") if rep.params["mu"] != 0]
        assert statuses == ["mismatch"] * 780

    def test_the_power_rule_sweep_samples_each_falling_power_once(self, monkeypatch):
        # 3 origins x 5 mu: each window is shared by the 5 orders nu
        sampled = []
        original = identities.sample_falling_power

        def counted(a, mu, length):
            sampled.append((a, mu))
            return original(a, mu, length)

        monkeypatch.setattr(identities, "sample_falling_power", counted)
        assert len(list(run_identity("power-rule"))) == 975
        assert len(sampled) == 15
        assert len(set(sampled)) == 15

    def test_a_falling_power_with_no_order_on_the_rule_is_not_sampled(self, monkeypatch):
        sampled = []
        original = identities.sample_falling_power

        def counted(a, mu, length):
            sampled.append(mu)
            return original(a, mu, length)

        monkeypatch.setattr(identities, "sample_falling_power", counted)
        # mu = -1 is off the rule and has no falling power; nu = 0 is off the rule
        overrides = {"a": Q(0), "mu": [Q(-1), Q(1, 2)], "n_max": 1}
        assert list(run_identity("power-rule", {**overrides, "nu": [Q(0), Q(-1)]})) == []
        assert sampled == []
        reports = list(run_identity("power-rule", {**overrides, "nu": [Q(0), Q(1, 2)]}))
        assert [(rep.params["mu"], rep.params["nu"]) for rep in reports] == [(Q(1, 2), Q(1, 2))] * 2
        assert sampled == [Q(1, 2)]

    def test_seeded_sweeps_are_deterministic(self):
        one = [r.to_json_dict() for r in run_identity("leibniz", {"count": 3})]
        two = [r.to_json_dict() for r in run_identity("leibniz", {"count": 3})]
        assert one == two

    def test_seed_changes_the_stream(self):
        one = [r.to_json_dict() for r in run_identity("alt-sum", {"count": 5})]
        two = [r.to_json_dict() for r in run_identity("alt-sum", {"count": 5, "seed": 7})]
        assert one != two

    def test_default_suite_order(self):
        assert [cfg.identity for cfg in default_suite()] == identity_names()


class TestExpectedCounts:
    def test_power_rule_default_grid(self):
        reports = list(run_identity("power-rule", {"n_max": 2}))
        # 3 origins x 5 mu x 5 nu x 3 N values
        assert len(reports) == 225
        assert all(r.status == "exact" for r in reports)

    def test_gamma_sum_default_grid(self):
        reports = list(run_identity("gamma-sum", {"n_extra": 2}))
        # 2 mu x 3 m x 3 n values
        assert len(reports) == 18
        assert all(r.status == "exact" for r in reports)

    def test_nabla_zero_default_grid(self):
        reports = list(run_identity("nabla-zero", {"t_extra": 1}))
        # 3 a x 2 p x 3 m x 2 t values
        assert len(reports) == 36
        assert all(r.status == "exact" for r in reports)

    def test_leibniz_count(self):
        reports = list(run_identity("leibniz", {"count": 2, "window": 4}))
        # 2 pairs x 3 alphas x 4 admissible t
        assert len(reports) == 24
        assert all(r.status == "exact" for r in reports)


class TestConfig:
    def test_entry_parsing(self):
        cfg = parse_config_entry({"identity": "bridge", "alpha": "1/3", "t": ["1/2", "5/2", 3]})
        assert cfg.identity == "bridge"
        # the overrides are kept as written; run_identity converts them
        assert cfg.overrides == {"alpha": "1/3", "t": ["1/2", "5/2", 3]}

    def test_range_spec(self):
        cfg = parse_config_entry(
            {"identity": "bridge", "t": {"num_min": 0, "num_max": 2, "den_max": 1}}
        )
        assert cfg.overrides == {"t": [Q(0), Q(1), Q(2)]}

    @pytest.mark.parametrize("field, value", [("num_max", 2.9), ("den_max", True), ("num_min", "-1/2")])
    def test_range_fields_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=field):
            parse_config_entry({"identity": "bridge", "t": {field: value}})

    def test_scalar_keys(self):
        cfg = parse_config_entry({"identity": "leibniz", "seed": 9, "count": 3})
        assert cfg.overrides == {"seed": 9, "count": 3}

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="^unknown parameters for bridge: bogus$"):
            parse_config_entry({"identity": "bridge", "bogus": 1})

    def test_rejects_missing_identity(self):
        with pytest.raises(ValueError, match="^config entry needs an 'identity' name$"):
            parse_config_entry({"t": "1"})

    def test_rejects_float_values(self):
        with pytest.raises(ValueError, match="^bad value for t: 0.5$"):
            parse_config_entry({"identity": "bridge", "t": 0.5})
        with pytest.raises(ValueError, match="^bad value for t: 0.5$"):
            parse_config_entry({"identity": "bridge", "t": ["1/2", 0.5]})
        with pytest.raises(ValueError, match="not a rational literal: '0.5'"):
            parse_config_entry({"identity": "bridge", "t": "0.5"})

    def test_size_keys_reject_negatives(self):
        with pytest.raises(ValueError, match="n_max must be nonnegative"):
            parse_config_entry({"identity": "form1", "n_max": -1})

    def test_rejects_bad_output(self):
        with pytest.raises(ValueError, match="output"):
            parse_config_entry({"identity": "bridge", "output": "xml"})

    def test_load_config_forms(self, tmp_path):
        suite = tmp_path / "suite.json"
        suite.write_text(
            json.dumps({"suite": [{"identity": "bridge"}, {"identity": "saalschutz", "m_max": 2}]})
        )
        configs = load_config(str(suite))
        assert [c.identity for c in configs] == ["bridge", "saalschutz"]
        assert configs[1].overrides == {"m_max": 2}

        # a bare entry or a bare list is not a config document
        for doc in ({"identity": "bridge"}, [{"identity": "bridge"}]):
            single = tmp_path / "bare.json"
            single.write_text(json.dumps(doc))
            with pytest.raises(ValueError, match=r'config must be \{"suite": \[entry, \.\.\.\]\}'):
                load_config(str(single))

    def test_run_sweep_uses_overrides(self):
        cfg = SweepConfig("gamma-sum", {"mu": [Q(1, 2)], "m": [2], "n_extra": 0})
        reports = list(run_sweep(cfg))
        assert len(reports) == 1
        assert reports[0].params["n"] == 2
