"""Manifest parsing: strict keys, typed values, flag overrides."""

import pytest

from mcd.config import (
    load_config_file,
    parse_config_text,
    parse_dims,
    parse_int_list,
    parse_ladder,
    parse_override,
    sim_configs,
    typed_config,
)
from mcd.errors import ConfigurationError
from mcd.grid import ScaleLadder, WindowSpec


class TestRawParsing:
    def test_comments_and_blanks_skipped(self):
        raw = parse_config_text("# a comment\n\nfamily = poisson\n  seed=3\n")
        assert raw == {"family": "poisson", "seed": "3"}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            parse_config_text("seed = 1\nseed = 2\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigurationError, match="line 2"):
            parse_config_text("seed = 1\nnot a pair\n")


class TestTypedValues:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown config key"):
            typed_config({"bogus": "1"})

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigurationError, match="bad value"):
            typed_config({"replicates": "many"})

    def test_dims_forms(self):
        assert parse_dims("100x100") == (100, 100)
        assert parse_dims("30,40") == (30, 40)
        with pytest.raises(ConfigurationError):
            parse_dims("100")

    def test_ladder_forms(self):
        assert parse_ladder("two-scale") == ScaleLadder.default_two_scale()
        assert parse_ladder("five-scale") == ScaleLadder.five_scale()
        assert parse_ladder("square:0,circle:1") == ScaleLadder(
            (WindowSpec("square", 0), WindowSpec("circle", 1))
        )
        with pytest.raises(ConfigurationError):
            parse_ladder("hexagon:2")
        with pytest.raises(ConfigurationError):
            parse_ladder("square:big")

    def test_int_list_and_ranges(self):
        assert parse_int_list("1-4") == (1, 2, 3, 4)
        assert parse_int_list("2,4,8") == (2, 4, 8)
        assert parse_int_list("1-3,10") == (1, 2, 3, 10)
        with pytest.raises(ConfigurationError):
            parse_int_list("a-b")

    def test_int_list_ranges_stop_at_the_cap(self):
        assert parse_int_list("1-100000000", cap=5) == (1, 2, 3, 4, 5)
        assert parse_int_list("2-4,7-9,100", cap=8) == (2, 3, 4, 7, 8, 100)
        assert parse_int_list("200-300", cap=100) == (200,)  # a range keeps its start
        assert parse_int_list("5-3", cap=100) == ()

    def test_min_belt_count_auto(self):
        assert typed_config({"min_belt_count": "auto"})["min_belt_count"] is None
        assert typed_config({"min_belt_count": "7"})["min_belt_count"] == 7


class TestSimConfigs:
    def test_single_setting(self):
        values = typed_config({"family": "poisson", "null_param": "2", "alt_param": "5"})
        (label, cfg), = sim_configs(values)
        assert label == "5"
        assert cfg.family == "poisson" and cfg.alt_param == 5.0

    def test_fan_out(self):
        values = typed_config({"alt_params": "0.21,0.22,0.25"})
        expanded = sim_configs(values)
        assert [label for label, _ in expanded] == ["0.21", "0.22", "0.25"]
        assert [cfg.alt_param for _, cfg in expanded] == [0.21, 0.22, 0.25]

    def test_both_alt_forms_rejected(self):
        values = typed_config({"alt_param": "0.25", "alt_params": "0.21,0.22"})
        with pytest.raises(ConfigurationError, match="not both"):
            sim_configs(values)

    def test_bundled_manifests_load(self):
        (label, cfg), = sim_configs(load_config_file("data/table2_lshape.cfg"))
        assert label == "0.25"
        assert cfg.shape == "lshape" and cfg.replicates == 100 and cfg.seed == 0
        expanded = sim_configs(load_config_file("data/weak_signal_oval.cfg"))
        assert len(expanded) == 5
        assert expanded[0][1].threshold_count == 30
        assert expanded[0][1].min_belt_count == 8
        assert expanded[0][1].ladder == ScaleLadder(
            (WindowSpec("square", 0), WindowSpec("circle", 1))
        )

    def test_override_parsing(self):
        assert parse_override("seed=9") == ("seed", 9)
        assert parse_override("dims=20x30") == ("dims", (20, 30))
        with pytest.raises(ConfigurationError):
            parse_override("seed")
        with pytest.raises(ConfigurationError):
            parse_override("zzz=1")
