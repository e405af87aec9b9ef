"""End-to-end tests of the ``repro check`` CLI subcommand."""

import json

import pytest

from repro.cli.main import main


def test_self_clean_with_smoke(capsys):
    # the sanitizer smoke over the shipped package ends in cal.verify()
    # and exits 0
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    assert "sanitizer" in out
    assert "clean" in out


def test_check_takes_no_arguments(capsys):
    # the code rules are tests (tests/test_code_rules.py), not options
    with pytest.raises(SystemExit) as exit_info:
        main(["check", "--self"])
    assert exit_info.value.code == 2
    capsys.readouterr()


def test_lint_sarif_format(tmp_path, capsys):
    # satellite: `repro lint` learned --format sarif alongside json
    from repro.nffg.builder import linear_substrate
    from repro.nffg.model import ResourceVector
    from repro.nffg.serialize import nffg_to_dict

    view = linear_substrate(2, id="bad", supported_types=["firewall"])
    view.add_nf("evil", "firewall",
                resources=ResourceVector(cpu=-2.0, mem=64.0), num_ports=1)
    view.place_nf("evil", "bad-bb0")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(nffg_to_dict(view)))
    assert main(["lint", "--format", "sarif", str(path)]) == 1
    sarif = json.loads(capsys.readouterr().out)
    assert sarif["version"] == "2.1.0"
    assert sarif["runs"][0]["results"]
