"""CLI entry points (python -m repro ...)."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_probe_prints_metrics_and_advice(capsys):
    rc = main(["probe", "0", "1", "--seed", "7"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "avg BLE" in out
    assert "probing advice" in out
    assert "U-ETX" in out


def test_probe_cross_board_refused(capsys):
    rc = main(["probe", "0", "15"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "different boards" in err


def test_route_cross_board_succeeds(capsys):
    rc = main(["route", "0", "15"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "route 0 -> 15" in out
    assert "[wifi]" in out


def test_survey_save_and_report_roundtrip(tmp_path, capsys):
    path = tmp_path / "c.jsonl"
    rc = main(["survey", "--save", str(path), "--top", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Dual-medium survey" in out
    assert path.exists()

    rc = main(["report", str(path), "--top", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "survey results" in out


def test_survey_save_is_the_campaign_artifact(tmp_path, capsys):
    """``survey --save`` writes the bytes of an inline survey campaign
    on the same pairs, and ``report`` reads them as one."""
    saved, campaign = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["survey", "--pairs", "0-1,1-0",
                 "--save", str(saved)]) == 0
    assert main(["campaign", "--kind", "survey", "--pairs", "0-1,1-0",
                 "--workers", "0", "--quiet", "--out", str(campaign)]) == 0
    assert saved.read_bytes() == campaign.read_bytes()
    capsys.readouterr()
    assert main(["report", str(saved)]) == 0
    assert "survey results" in capsys.readouterr().out


def test_survey_respects_time_options(capsys):
    rc = main(["survey", "--day", "5", "--hour", "23.0", "--top", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "day 5 23h" in out


# --- error paths --------------------------------------------------------------


def test_campaign_bad_preset_name(tmp_path, capsys):
    rc = main(["campaign", "--preset", "atlantis",
               "--out", str(tmp_path / "x.jsonl")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "unknown testbed preset 'atlantis'" in err
    assert "mini3" in err  # the message lists the valid names


def test_survey_unwritable_save_path(capsys):
    rc = main(["survey", "--pairs", "0-1",
               "--save", "/nonexistent-dir/deep/c.jsonl"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "cannot write" in err


def test_campaign_unwritable_out_path(capsys):
    rc = main(["campaign", "--preset", "mini3", "--quiet",
               "--out", "/nonexistent-dir/deep/c.jsonl"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "cannot write" in err


def test_survey_empty_pair_selection(capsys):
    rc = main(["survey", "--pairs", ""])
    err = capsys.readouterr().err
    assert rc == 1
    assert "empty survey" in err


def test_survey_malformed_pairs(capsys):
    rc = main(["survey", "--pairs", "0-1,zap"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "bad pair 'zap'" in err


def test_campaign_empty_seed_list(tmp_path, capsys):
    rc = main(["campaign", "--preset", "mini3", "--seeds", ",",
               "--out", str(tmp_path / "x.jsonl")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "no seeds" in err


def test_campaign_unknown_scenario(tmp_path, capsys):
    rc = main(["campaign", "--preset", "mini3", "--kind", "scenario",
               "--scenarios", "does-not-exist", "--quiet",
               "--out", str(tmp_path / "x.jsonl")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "unknown scenario" in err


def test_report_rejects_non_campaign_file(tmp_path, capsys):
    path = tmp_path / "junk.jsonl"
    path.write_text("this is not json\n")
    rc = main(["report", str(path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "junk.jsonl:1: not a JSON document" in err


@pytest.mark.parametrize("argv", [
    ["survey", "--pairs", "0-99"],
    ["survey", "--pairs", "3-3"],
    ["survey", "--pairs", "0-15,0-1"],
    ["campaign", "--kind", "survey", "--pairs", "0-15"],
    ["campaign", "--kind", "survey", "--preset", "mini3", "--pairs", "0-5"],
    ["probe", "0", "99"],
    ["probe", "3", "3"],
    ["route", "0", "99"],
    ["route", "3", "3"],
], ids=" ".join)
def test_bad_station_or_pair_refused_before_any_work(tmp_path, capsys,
                                                     argv):
    out = tmp_path / "c.jsonl"
    if argv[0] == "campaign":
        argv = argv + ["--quiet", "--out", str(out)]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("options", [[], ["--timeline"]],
                         ids=["summary", "timeline"])
def test_report_refuses_an_old_saved_campaign(tmp_path, capsys, options):
    path = tmp_path / "old.jsonl"
    path.write_text('{"format": "repro-campaign", "version": 1}\n')
    rc = main(["report", str(path)] + options)
    err = capsys.readouterr().err
    assert rc == 1
    assert "not a repro-campaign-artifacts file" in err


def test_report_missing_file(capsys):
    rc = main(["report", "/no/such/file.jsonl"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "cannot read" in err
